"""Byte identity of the reports, in tier 1: a slice of each benchmark
workload runs in-process through the benchmark's own runner and gate, and
every report must hash to its entry in ``bench/expected.json``.  The bench
modules are imported, not changed."""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from worker import gate, load_expected, run_workload  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _order(inv):
    return inv.args[inv.args.index("--order") + 1]


#: workload -> which of its invocations run here (about 3 s in all); every
#: ``rmatrix`` invocation, so the failing ``exp_check`` and ``triangularity``
#: reports, each capped at 8 residual lines, are hash-gated too
SLICES = {
    "verify-deep": lambda inv: True,
    "verify-catalog": lambda inv: _order(inv) == "4",
    "rmatrix": lambda inv: True,
    "contract": lambda inv: True,
}


@pytest.mark.parametrize("name", sorted(SLICES))
def test_reports_match_expected(name):
    w = WORKLOADS[name]
    w = replace(w, invocations=tuple(i for i in w.invocations if SLICES[name](i)))
    _, outcomes = run_workload(w, 0)
    run, wrong, bad = gate(outcomes, load_expected(name))
    assert run > 0
    assert wrong == 0, bad
