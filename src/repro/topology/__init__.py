"""AS-level and router-level Internet topologies.

The AS graph carries Gao-Rexford business relationships; the router layer
adds PoPs, border routers and addressable interfaces so the data plane can
run traceroute-realistic forwarding walks.
"""

from repro.topology.relationships import Relationship
from repro.topology.as_graph import ASGraph, ASNode
from repro.topology.generate import InternetShape, generate_internet
from repro.topology.routers import Router, RouterTopology

__all__ = [
    "Relationship",
    "ASGraph",
    "ASNode",
    "InternetShape",
    "generate_internet",
    "Router",
    "RouterTopology",
]
