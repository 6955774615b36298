"""Workload and scenario generators for the evaluation experiments.

The paper's measurement studies ran against the live Internet; these
modules generate the synthetic equivalents: outage traces calibrated to
the published duration distributions (Fig. 1/Fig. 5), the Table 2
update-load model over that distribution, and ready-made
simulation scenarios (topology + BGP + data plane + LIFEGUARD deployment)
shared by the tests, examples and benchmarks.
"""

from repro.workloads.outages import (
    OutageArrivalConfig,
    OutageTrace,
    OutageTraceConfig,
    ScheduledOutage,
    generate_outage_schedule,
    generate_outage_trace,
)
from repro.workloads.scenarios import (
    DeploymentScenario,
    build_chaos_deployment,
    build_deployment,
    build_internet,
)

__all__ = [
    "OutageArrivalConfig",
    "OutageTrace",
    "OutageTraceConfig",
    "ScheduledOutage",
    "generate_outage_schedule",
    "generate_outage_trace",
    "DeploymentScenario",
    "build_internet",
    "build_chaos_deployment",
    "build_deployment",
]
