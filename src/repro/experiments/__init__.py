"""Evaluation-experiment drivers (one per study in §2 and §5).

:mod:`repro.experiments.tables` runs them at the paper's arguments and
renders every paper table; ``repro table`` prints those tables, and each
``benchmarks/test_*.py`` is a thin wrapper that writes its table through
the same registry and asserts the paper's claims on the studies.
"""

from repro.experiments.convergence import (
    ConvergenceStudy,
    PoisonTrial,
    run_poisoning_convergence_study,
)
from repro.experiments.efficacy import (
    EfficacyStudy,
    run_topology_efficacy_study,
)
from repro.experiments.diversity import (
    DiversityStudy,
    run_provider_diversity_study,
)
from repro.experiments.accuracy import (
    AccuracyStudy,
    run_isolation_accuracy_study,
)
from repro.experiments.alternate_paths import (
    AlternatePathStudy,
    run_alternate_path_study,
)
from repro.experiments.robustness import (
    RobustnessPoint,
    RobustnessStudy,
    run_robustness_study,
)

__all__ = [
    "ConvergenceStudy",
    "PoisonTrial",
    "run_poisoning_convergence_study",
    "EfficacyStudy",
    "run_topology_efficacy_study",
    "DiversityStudy",
    "run_provider_diversity_study",
    "AccuracyStudy",
    "run_isolation_accuracy_study",
    "AlternatePathStudy",
    "run_alternate_path_study",
    "RobustnessPoint",
    "RobustnessStudy",
    "run_robustness_study",
]
