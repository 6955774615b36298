"""Table 1 of the paper — the key results — read off three studies."""

from typing import Dict

from repro.isolation.direction import FailureDirection


def table1_rows(convergence, efficacy, accuracy) -> Dict[str, object]:
    """The measured column of Table 1's eight rows.

    *convergence* is the BGP-Mux poisoning study, *efficacy* the
    topology-scale simulation and *accuracy* the isolation study.
    ``wild`` is a (fraction, found, total) triple; every other row is
    one number.
    """
    return {
        "wild": convergence.alternate_route_fraction(),
        "sim": efficacy.fraction_with_alternates,
        "instant": convergence.instant_fraction(True, False),
        "loss2": convergence.loss_fractions((0.02,))[0.02],
        "consistency": accuracy.consistency,
        "differs": accuracy.traceroute_difference_fraction,
        "probes": accuracy.mean_probes,
        "seconds": accuracy.mean_isolation_seconds(
            (FailureDirection.REVERSE, FailureDirection.BIDIRECTIONAL)
        ),
    }
