"""Analysis helpers: distributions, residual durations, loss replay, reports."""

from repro.analysis.cdf import CDF
from repro.analysis.residual import residual_duration_curve, ResidualPoint
from repro.analysis.loss import ConvergenceLossReplay, LossSample
from repro.analysis.reporting import Table

__all__ = [
    "CDF",
    "residual_duration_curve",
    "ResidualPoint",
    "ConvergenceLossReplay",
    "LossSample",
    "Table",
]
