"""Command-line interface: verification, contraction, and R-matrix checks
with reproducible JSON/text reports.

Exit codes: 0 all checks pass, 1 check failure, 2 usage/lookup error or an
unwritable --out path, 3 divergence under a forced exponent or limit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

from . import catalog, rmatrix
from .contraction import change_of_basis, contract_hopf, match_presentation, solve_min_exponents
from .errors import DivergenceError, HopfcError, LookupError_
from .hopf import MAX_RESIDUAL_LINES, Check, render_text, verify_all
from .series import EXACT_ORDER

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DIVERGENCE = 3


def _parse_force(items):
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ValueError(f"--force-exponent expects key=value, got {item!r}")
        k, v = item.split("=", 1)
        out[k] = int(v)
    return out


def _write(text, path):
    """Print ``text``, or write it to ``path``; a path that cannot be written
    is a usage error.  ``text=None`` only checks, before any work is done,
    that ``path`` can be written, and leaves no new file behind."""
    if not path:
        print(text)
        return
    existed = os.path.exists(path)
    try:
        with open(path, "a" if text is None else "w") as fh:
            fh.write("" if text is None else text + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc
    if text is None and not existed:
        os.remove(path)


def _finish(args, checks, t0):
    """Emit the report of ``checks`` (``hopf.Check``s), timed from ``t0``, and
    return the exit code: a failure if any check failed."""
    timing = round(time.perf_counter() - t0, 6)
    if args.format == "json":
        cfg = {k: v for k, v in sorted(vars(args).items())
               if k not in ("func",) and v is not None}
        cfg["command"] = args.command
        text = json.dumps({
            "config": cfg,
            "catalog_version": catalog.CATALOG_VERSION,
            "checks": [c.to_json() for c in checks],
            "timing": timing,
        }, indent=2, sort_keys=False)
    else:
        text = (render_text(f"{args.command}  (catalog {catalog.CATALOG_VERSION})", checks)
                + f"\n  elapsed: {timing:.3f}s")
    _write(text, args.out)
    return EXIT_PASS if all(c.ok for c in checks) else EXIT_FAIL


def _mismatched_groups(got, want):
    """(label, message) residual pairs for the groups whose exponent in
    ``got`` differs from the one in ``want``."""
    return [(f"group {g}: ", f"{got[g]} vs {want.get(g)}")
            for g in sorted(got) if got[g] != want.get(g)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify(args):
    if args.list:
        for n in catalog.names():
            print(n)
        return EXIT_PASS
    if not args.names:
        print("verify: no algebra names given (try --list)", file=sys.stderr)
        return EXIT_USAGE
    t0 = time.perf_counter()
    checks = [replace(c, name=f"{name}.{c.name}") for name in args.names
              for c in verify_all(catalog.get(name, args.order)).checks]
    return _finish(args, checks, t0)


def cmd_contract(args):
    if args.list:
        for meta in catalog.list_cases():
            print(json.dumps(meta))
        return EXIT_PASS
    if not args.cases:
        print("contract: no case names given (try --list)", file=sys.stderr)
        return EXIT_USAGE
    t0 = time.perf_counter()
    checks = []
    force = _parse_force(args.force_exponent)
    cases = [catalog.get_case(name) for name in args.cases]
    params = {p for case in cases for p in case.param_map}
    for k in force:
        if k not in params:
            raise LookupError_(k, params, what="--force-exponent parameter")
    if args.then_basis_change:
        for name, case in zip(args.cases, cases):
            if case.target != "h4.betaplus.xi":
                print(f"contract: --then-basis-change only applies to the "
                      f"case targeting h4.betaplus.xi, not {name}", file=sys.stderr)
                return EXIT_USAGE
    for name, case in zip(args.cases, cases):
        sol = solve_min_exponents(case)
        checks += [
            Check.of(f"{name}.min_exponents", _mismatched_groups(sol.r_min, case.expected_exponents),
                     json.dumps(sol.to_json(), sort_keys=True)),
            Check.of(f"{name}.coboundary", _mismatched_groups(sol.r_min, sol.delta_min),
                     f"r minima {sol.r_min} vs delta minima {sol.delta_min}"),
        ]
        got = contract_hopf(case, args.order, force_exponents=force or None)
        m = match_presentation(got, catalog.get(case.target, args.order))
        checks.append(replace(m, name=f"{name}.match_target", details=f"target {case.target}"))
        if args.then_basis_change:
            primed = change_of_basis(catalog.get(case.target, args.order),
                                     catalog.basis_change_map(args.order))
            m = match_presentation(primed, catalog.get("h4.xi", args.order))
            checks.append(replace(m, name=f"{name}.basis_change_match", details="target h4.xi"))
    return _finish(args, checks, t0)


def cmd_rmatrix(args):
    if args.exp_check:
        for flag, given in (("--exact-r", args.exact_r), ("--limit", args.limit)):
            if given:
                raise ValueError(f"--exp-check compares exp(r) with the truncated series R "
                                 f"and cannot be combined with {flag}")
    t0 = time.perf_counter()
    R = rmatrix.get_rmat(args.name, args.order, exact=args.exact_r)
    for sym in args.limit or []:
        R = rmatrix.rmat_limit(R, sym)
    selected = (
        ("qybe", args.qybe or not (args.exp_check or args.triangularity),
         lambda: rmatrix.qybe_residual(R)),
        ("exp_check", args.exp_check,
         lambda: rmatrix.mat_sub(rmatrix.exp_wedge_rep(catalog.classical_r(args.name), args.order), R)),
        ("triangularity", args.triangularity, lambda: rmatrix.triangularity_residual(R)),
    )
    checks = [Check.of(name, rmatrix.mat_nonzero_entries(residual())[:MAX_RESIDUAL_LINES],
                       listed=True)
              for name, wanted, residual in selected if wanted]
    return _finish(args, checks, t0)


def cmd_dump(args):
    _write(json.dumps(catalog.dump(args.name, args.order), indent=2), args.out)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="hopfc",
        description="Exact checks for quantum gl(2) algebras, their oscillator "
                    "contractions, and 4x4 R-matrices.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, formats=True):
        sp.add_argument("--order", type=int, default=catalog.DEFAULT_ORDER,
                        help=f"series truncation order N, below {EXACT_ORDER} (default 4)")
        if formats:
            sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--out", help="write the report to this path")

    v = sub.add_parser("verify", help="run the full axiom suite on catalog algebras")
    v.add_argument("names", nargs="*")
    v.add_argument("--list", action="store_true", help="list catalog algebra names")
    common(v)
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("contract", help="run contraction cases end to end")
    c.add_argument("cases", nargs="*")
    c.add_argument("--list", action="store_true", help="list contraction cases")
    c.add_argument("--then-basis-change", action="store_true",
                   help="additionally apply the primed-basis map and match the "
                        "single-parameter oscillator target")
    c.add_argument("--force-exponent", action="append", metavar="k=v",
                   help="override a parameter's eps exponent (repeatable)")
    common(c)
    c.set_defaults(func=cmd_contract)

    r = sub.add_parser("rmatrix", help="4x4 R-matrix checks")
    r.add_argument("name")
    r.add_argument("--exact-r", action="store_true",
                   help="exact polynomial mode instead of truncated series")
    r.add_argument("--qybe", action="store_true",
                   help="check the quantum Yang-Baxter equation; the one check run "
                        "when no check flag is given")
    r.add_argument("--exp-check", action="store_true",
                   help="compare against exp of the classical r-matrix (only when given)")
    r.add_argument("--triangularity", action="store_true",
                   help="check R21 R = 1 (only when given)")
    r.add_argument("--limit", action="append", metavar="sym",
                   help="take a parameter's zero-slice first (repeatable)")
    common(r)
    r.set_defaults(func=cmd_rmatrix)

    d = sub.add_parser("dump", help="dump a catalog presentation as JSON")
    d.add_argument("name")
    common(d, formats=False)
    d.set_defaults(func=cmd_dump)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 1 <= getattr(args, "order", 1) < EXACT_ORDER:
        # EXACT_ORDER itself is the untruncated ring's order
        print(f"hopfc: --order must be >= 1 and below {EXACT_ORDER}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.out:
            _write(None, args.out)
        return args.func(args)
    except (LookupError_, ValueError) as exc:
        print(f"hopfc: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"hopfc: divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except HopfcError as exc:
        print(f"hopfc: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
