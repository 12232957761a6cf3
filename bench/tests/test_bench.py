"""Self-tests of the benchmark: the verdict gate trips on a fault, tracing
changes no report, traced counts repeat exactly, and the host reference
loop loads no hopfc code.

    python3 -m pytest -q bench/tests

Runs that read counters start fresh interpreters, because the catalog and
normal-form caches (and the tracer's patches) live for a whole process.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from worker import build_inputs, gate, load_expected, run_workload  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A fresh-process run of a subset of one workload: the invocations whose id
# starts with PREFIX.  Prints the outcomes and, when traced, the layers.
_FRESH = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import hopfc.cli
from worker import build_inputs, run_workload
from workloads import WORKLOADS
w = WORKLOADS[{workload!r}].only({prefix!r})
tracer = None
if {trace!r}:
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
build_inputs(w)
_, outcomes = run_workload(w, {seed!r}, tracer)
print(json.dumps({{"outcomes": outcomes,
                  "layers": tracer.metrics() if tracer else None}}))
"""


def _fresh(workload, prefix="", seed=0, trace=False):
    code = _FRESH.format(src=str(ROOT / "src"), bench=str(BENCH), workload=workload,
                         prefix=prefix, seed=seed, trace=trace)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _counts(layers):
    """The per-layer metrics that are counts, not times."""
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


def test_gate_trips_on_a_fault_in_a_cached_presentation():
    from hopfc import catalog

    w = WORKLOADS["verify-catalog"].only("verify gl2.classical --order 4")
    expected = load_expected(w.name)
    try:
        build_inputs(w)
        _, outcomes = run_workload(w, seed=0)
        assert gate(outcomes, expected)[:2] == (6, 0)

        # the single-fault sign flip of [J3, Jp] in the mutation suite,
        # applied to the presentation the CLI will read from the cache
        t = catalog.get("gl2.classical", 4).table
        t.set_rule("J3", "Jp", t.gen("Jp", coeff=t.scalar(-2)))
        _, outcomes = run_workload(w, seed=0)
        run, wrong, bad = gate(outcomes, expected)
        assert (run, wrong) == (6, 6)
        assert bad == ["verify gl2.classical --order 4 --format json"]
    finally:
        catalog.get.cache_clear()


def test_expected_outcomes_cover_every_invocation():
    for name, w in WORKLOADS.items():
        assert sorted(load_expected(name)) == sorted(i.id for i in w.invocations), name
    rmat = load_expected("rmatrix")
    assert rmat["rmatrix gl2.Iplus.standard --order 32 --qybe --exp-check "
                "--triangularity --format json"]["exit"] == 1
    assert load_expected("contract")[
        "contract II.standard --force-exponent a=1 --order 8 --format json"]["exit"] == 3


@pytest.mark.parametrize("workload,prefix", [
    ("rmatrix", ""),
    ("verify-catalog", "verify h4."),
    ("contract", "contract II."),
])
def test_tracing_changes_no_report(workload, prefix):
    plain = _fresh(workload, prefix)
    traced = _fresh(workload, prefix, trace=True)
    assert traced["outcomes"] == plain["outcomes"]
    run, wrong, _ = gate(traced["outcomes"], load_expected(workload))
    assert run > 0 and wrong == 0


@pytest.mark.parametrize("workload,prefix", [
    ("rmatrix", ""),
    ("verify-catalog", "verify gl2."),
])
def test_traced_counts_repeat_across_runs_and_seeds(workload, prefix):
    first = _counts(_fresh(workload, prefix, seed=1, trace=True)["layers"])
    again = _counts(_fresh(workload, prefix, seed=1, trace=True)["layers"])
    other = _counts(_fresh(workload, prefix, seed=2, trace=True)["layers"])
    assert first == again == other
    assert first["series.mul_calls"] > 0


def test_host_reference_loads_no_hopfc_code():
    """The reference loop must stay out of the program's reach: a change to
    hopfc may not move the scale applied to the end-to-end times."""
    code = ("import sys; sys.path.insert(0, {bench!r}); import hostref; "
            "assert hostref.ref_seconds() > 0; "
            "print(sorted(m for m in sys.modules if m.startswith('hopfc')))")
    proc = subprocess.run([sys.executable, "-c", code.format(bench=str(BENCH))], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
