"""Flow-level traffic emulation and user-impact accounting.

``matrix`` builds the seeded gravity-model demands, ``lpm`` is the view
over the per-AS FIBs compiled to batch-resolvable interval tables, and
``impact`` integrates affected-user-minutes over sim time.
"""

from repro.traffic.impact import (
    LOOP_KEY,
    NO_ROUTE_KEY,
    ImpactLedger,
    ImpactSample,
    impact_key,
)
from repro.traffic.lpm import FlatFibSet, FlatLPM
from repro.traffic.matrix import (
    Flow,
    TrafficConfig,
    TrafficMatrix,
    build_traffic_matrix,
)

__all__ = [
    "LOOP_KEY",
    "NO_ROUTE_KEY",
    "Flow",
    "FlatFibSet",
    "FlatLPM",
    "ImpactLedger",
    "ImpactSample",
    "TrafficConfig",
    "TrafficMatrix",
    "build_traffic_matrix",
    "impact_key",
]
