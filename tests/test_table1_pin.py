"""Table 1's measured column, pinned at small scale.

``benchmarks/test_table1_summary.py`` prints Table 1 from medium-scale
studies, and only the paper-tables CI job runs it.  This runs the same
three studies at small scale, so a change that moves any of the eight
rows fails in the tier-1 suite.  The values do not depend on
``PYTHONHASHSEED``.
"""

import pytest

from repro.experiments.accuracy import run_isolation_accuracy_study
from repro.experiments.convergence import run_poisoning_convergence_study
from repro.experiments.efficacy import run_topology_efficacy_study
from repro.experiments.summary import table1_rows


def test_table1_rows_at_small_scale():
    convergence, _ = run_poisoning_convergence_study(
        scale="small", seed=7, num_collector_peers=60, max_poisons=25
    )
    efficacy, _ = run_topology_efficacy_study(
        scale="small", seed=7, num_origins=25, max_cases=60000
    )
    accuracy, _ = run_isolation_accuracy_study(
        scale="small", seed=7, num_cases=30, reply_loss_rate=0.05
    )
    rows = table1_rows(convergence, efficacy, accuracy)
    assert rows == {
        "wild": (pytest.approx(48 / 66), 48, 66),
        "sim": pytest.approx(0.7965367965367965),
        "instant": pytest.approx(0.9838523644752019),
        "loss2": 1.0,
        "consistency": 1.0,
        "differs": pytest.approx(0.4),
        "probes": pytest.approx(32.36666666666667),
        "seconds": pytest.approx(126.36363636363636),
    }
