"""Shared fixture for the paper-table benchmarks.

Every table is built by :mod:`repro.experiments.tables` (``repro table``
prints the same bytes); each ``test_*.py`` here writes its table into
``benchmarks/results/`` through ``write`` and asserts the paper's claims
on the memoised studies, so each study runs once per session.
"""

import functools
import os

import pytest

from repro.experiments.tables import write_table

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session")
def write():
    """``write(name)`` renders table *name* into ``results/NAME.txt``
    and returns the :class:`~repro.analysis.reporting.Table`."""
    return functools.partial(write_table, directory=RESULTS_DIR)
