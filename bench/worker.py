"""One cold run of one workload in a fresh interpreter.

``run.py`` starts this script once per sample.  It builds the workload's
inputs (the set-up phase), runs every invocation in a seed-permuted order,
checks each outcome against ``expected.json`` and prints one JSON line:

    python3 bench/worker.py --workload rmatrix --seed 1 --t0 <monotonic>

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` counts interpreter start-up, imports and input
building.  ``--trace`` installs the tracer before set-up and adds the
per-layer metrics; ``--setup-only`` stops after set-up.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from workloads import WORKLOADS

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def build_inputs(workload):
    """Build, through the public cached constructors, everything the
    workload's invocations read, so their time lands in set-up."""
    from hopfc import catalog, rmatrix

    for name, order in workload.presentations:
        catalog.get(name, order)
    for name in workload.cases:
        catalog.classical_r(catalog.get_case(name).lie_r_name)
    for name in workload.classical_rs:
        catalog.classical_r(name)
    for name, order, exact in workload.rmats:
        rmatrix.get_rmat(name, order, exact=exact)


def run_invocation(inv, main):
    """Run one invocation; returns (exit code, stdout, stderr)."""
    if inv.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(inv.args))
        return code, out.getvalue(), err.getvalue()
    from hopfc import catalog, contraction

    name, order = inv.args
    target = "gl2.classical" if name.startswith("gl2.") else "h4.classical"
    lim = contraction.classical_limit(catalog.get(name, order), rename={"J3p": "J3"})
    m = contraction.match_presentation(lim, catalog.get(target, order))
    check = {"name": f"{name}.classical_limit", "verdict": "pass" if m.match else "fail",
             "residual": [str(r) for r in m.residuals], "details": f"target {target}"}
    return (0 if m.match else 1), json.dumps({"checks": [check]}), ""


def outcome(code, stdout, stderr):
    """Exit code, per-check verdicts and the sha256 of the report without its
    run-dependent fields (``timing`` and ``config.out``).  An invocation that
    prints no report (a divergence) is one check, hashed by its message."""
    if stdout.strip():
        report = json.loads(stdout)
        report.pop("timing", None)
        report.get("config", {}).pop("out", None)
        verdicts = [[c["name"], c["verdict"]] for c in report["checks"]]
        payload = json.dumps(report, sort_keys=True)
    else:
        verdicts = [["invocation", "divergence" if code == 3 else f"exit {code}"]]
        payload = stderr
    return {"exit": code, "verdicts": verdicts,
            "sha256": hashlib.sha256(payload.encode()).hexdigest()}


def run_workload(workload, seed, tracer=None):
    """Run the invocations in the order the seed gives; returns (wall_s,
    {invocation id: outcome})."""
    from hopfc import cli

    order = list(workload.invocations)
    random.Random(seed).shuffle(order)
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main, record=True)
    raw = []
    t0 = time.perf_counter()
    for inv in order:
        if tracer is not None:
            tracer.run = inv.id
        raw.append((inv, run_invocation(inv, main)))
    wall_s = time.perf_counter() - t0
    outcomes = {}
    for inv, (code, stdout, stderr) in raw:
        outcomes[inv.id] = outcome(code, stdout, stderr)
        if tracer is not None and inv.kind == "cli":
            tracer.add("cli.report_bytes", report_bytes(stdout))
    return wall_s, outcomes


def report_bytes(stdout):
    """Bytes of a CLI report, not counting the digits of its ``timing``
    value, whose length varies from run to run."""
    n = len(stdout.encode())
    if stdout.strip():
        n -= len(json.dumps(json.loads(stdout)["timing"]))
    return n


def load_expected(workload_name):
    with open(EXPECTED) as fh:
        return json.load(fh)["workloads"].get(workload_name, {})


def gate(outcomes, expected):
    """(checks run, checks wrong, ids of wrong invocations).  Every check of
    an invocation whose exit code, verdicts or report hash differ from the
    committed expectation is wrong."""
    run = wrong = 0
    bad = []
    for inv_id, got in sorted(outcomes.items()):
        want = expected.get(inv_id)
        n = len((want or got)["verdicts"])
        run += n
        if got != want:
            wrong += n
            bad.append(inv_id)
    return run, wrong, bad


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t0", type=float, required=True,
                   help="parent's time.monotonic() when it started this process")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="write the traced spans to this file")
    args = p.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import hopfc.cli  # noqa: F401  (the import counts as set-up)

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    build_inputs(workload)
    result = {"setup_s": time.monotonic() - args.t0}
    if not args.setup_only:
        wall_s, outcomes = run_workload(workload, args.seed, tracer)
        run, wrong, bad = gate(outcomes, load_expected(workload.name))
        result.update(wall_s=wall_s, checks_run=run, checks_wrong=wrong, wrong_ids=bad,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                      outcomes=outcomes)
        if tracer is not None:
            result["layers"] = tracer.metrics()
            if args.spans:
                tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
