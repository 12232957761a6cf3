"""hopfc benchmark: one workload, measured in fresh interpreters.

    python3 bench/run.py --workload verify-deep --seed 1 --seconds 44 --trace 0

Run it from the repository root (it reads ``src/`` and ``BENCHMARK.json``
there).  Every sample is a cold ``hopfc`` process, as every ``hopfc``
command is: the catalog and normal-form caches live only in-process.

``--trace 0`` runs set-up-only processes and whole-workload processes, each
a new interpreter, while the next one still fits in ``--seconds``; it
reports the medians of ``wall_s``, ``setup_s`` and ``peak_rss_mb``, and
``checks_run``.  The two times are in reference seconds: scaled by how
slowly ``hostref.py``, a fixed stdlib-only loop, ran between the samples.
``--trace 1`` runs pairs of one untraced and one traced process the same
way and reports the medians of the per-layer metrics and the tracing
overhead; the traced spans go to ``.bench_out/``.

Every sample checks each invocation's exit code, verdicts and report hash
against ``bench/expected.json``; ``--record-expected`` rewrites that file
from one run of every workload.  The last line of output is one JSON
object: ``correct``, ``attempted`` (checks run), ``failed`` (checks wrong)
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPANS_DIR = ROOT / ".bench_out"
SETUP_PROBES = 3
# Seconds bench/hostref.py takes on an unloaded vCPU of the machine the
# benchmark was defined on (Xeon at 2.1 GHz, Python 3.11.7).  End-to-end
# times are reported in these reference seconds; never change it, or
# results before and after the change stop being comparable.
REF_S = 0.35
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(BENCH))
from worker import EXPECTED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class ChildError(RuntimeError):
    pass


def run_json(cmd):
    """Run one child process to completion and return its last line, JSON."""
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildError(f"{cmd[1]} exited {proc.returncode}:\n{proc.stderr}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise ChildError(f"{cmd[1]} printed no result:\n{proc.stdout}\n{proc.stderr}") from None


def spawn(workload, seed, *flags):
    """Run one worker process and return its result."""
    return run_json([sys.executable, str(BENCH / "worker.py"), "--workload", workload,
                     "--seed", str(seed), *flags, "--t0", repr(time.monotonic())])


def host_ref():
    """Seconds the reference loop takes in a fresh process now."""
    return run_json([sys.executable, str(BENCH / "hostref.py")])["ref_s"]


def warm_up():
    """Compile the package once so no sample pays for writing bytecode."""
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
                    "import hopfc.cli"], cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)


def repeat(seconds, step):
    """Call ``step`` until the next call would end after ``seconds`` from
    now; always at least once."""
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        step()
        now = time.monotonic()
        if now + (now - t0) - start > seconds:
            return


def measure(workload, seed, seconds):
    """Whole-workload samples, untraced.

    Host speed drifts over seconds, so set-up-only probes are spread over
    the run: a few first, then one before every whole-workload sample.  The
    reference loop runs first and after every sample.  Each time is scaled
    by ``REF_S`` over the mean of the two reference times around its step
    (the first step's, for the first probes); the raw medians are printed
    beside the metrics."""
    start = time.monotonic()
    refs = [host_ref()]
    first_probes = [spawn(workload, seed, "--setup-only")["setup_s"]
                    for _ in range(SETUP_PROBES)]
    probes, samples = [], []

    def step():
        probes.append(spawn(workload, seed, "--setup-only")["setup_s"])
        samples.append(spawn(workload, seed))
        refs.append(host_ref())

    repeat(seconds - (time.monotonic() - start), step)
    scales = [2 * REF_S / (a + b) for a, b in zip(refs, refs[1:])]
    raw_setups = first_probes + probes + [s["setup_s"] for s in samples]
    print(f"host reference loop {statistics.median(refs):.6g} s (n={len(refs)}, "
          f"min {min(refs):.6g}, max {max(refs):.6g}); raw medians: wall_s "
          f"{statistics.median(s['wall_s'] for s in samples):.6g} s, "
          f"setup_s {statistics.median(raw_setups):.6g} s")
    values = {
        "wall_s": [s["wall_s"] * k for s, k in zip(samples, scales)],
        "setup_s": ([p * scales[0] for p in first_probes]
                    + [p * k for p, k in zip(probes, scales)]
                    + [s["setup_s"] * k for s, k in zip(samples, scales)]),
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "checks_run": [s["checks_run"] for s in samples],
    }
    return samples, values


def trace(workload, seed, seconds):
    """Pairs of one untraced and one traced sample.  Per-layer metrics come
    from the traced samples, the overhead from the ratio of the medians of
    ``wall_s``."""
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl"
    plain, traced = [], []

    def step():
        plain.append(spawn(workload, seed))
        traced.append(spawn(workload, seed, "--trace", "--spans", str(spans)))

    repeat(seconds, step)
    values = {k: [t["layers"][k] for t in traced] for k in traced[0]["layers"]}
    values["trace.overhead"] = [statistics.median(t["wall_s"] for t in traced)
                                / statistics.median(p["wall_s"] for p in plain)]
    values["checks_wrong"] = [sum(s["checks_wrong"] for s in plain + traced)]
    return plain + traced, values


def record_expected():
    """Rewrite expected.json from one untraced run of every workload."""
    def write(data):
        with open(EXPECTED, "w") as fh:
            json.dump({"workloads": data}, fh, indent=1, sort_keys=True)
            fh.write("\n")

    if not EXPECTED.exists():
        write({})
    write({name: spawn(name, 0)["outcomes"] for name in sorted(WORKLOADS)})
    print(f"wrote {EXPECTED}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=44)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-expected", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "hopfc" / "cli.py").is_file():
        print(f"bench: no hopfc sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.record_expected:
        warm_up()
        record_expected()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    warm_up()
    try:
        if args.trace:
            samples, values = trace(args.workload, args.seed, args.seconds)
        else:
            samples, values = measure(args.workload, args.seed, args.seconds)
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(s["checks_run"] for s in samples)
    failed = sum(s["checks_wrong"] for s in samples)
    for s in samples:
        for inv_id in s["wrong_ids"]:
            print(f"WRONG {inv_id}", file=sys.stderr)
    metrics = {}
    print(f"workload {args.workload}  seed {args.seed}  samples {len(samples)}")
    for m in spec:
        vals = values[m["name"]]
        whole = all(isinstance(v, int) for v in vals)
        med = (statistics.median_low if whole else statistics.median)(vals)
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        spread = f"  (n={len(vals)}, min {min(vals):.6g}, max {max(vals):.6g})" \
            if len(vals) > 1 else ""
        print(f"  {m['name']:40s} {med:14.6g} {m['unit']}{spread}")
    if not args.trace:
        print(f"  {'checks_wrong':40s} {failed:14d} count")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
