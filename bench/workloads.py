"""The benchmark's workloads.

Each workload is a list of invocations plus the inputs it needs built
before timing starts.  An invocation is either a ``hopfc`` command line
(always run with ``--format json``, the path users take) or, for classical
limits, which the CLI does not expose, one library call.

Why each workload exists (see README.md for the layer map):

* ``verify-deep``: one deep presentation, the hot spot of the roadmap.  It
  exercises the antipode, the Hopf-map extension and per-call series work
  (many products of very few terms each).
* ``verify-catalog``: the same layers used broadly: all 11 presentations at
  N=4 and N=6.  Fixed per-presentation or per-call costs show here.  It is
  run by hand and by the self-tests; ``BENCHMARK.json`` leaves it out so
  that the other three get longer, steadier runs (see README.md).
* ``contract``: the only workload reaching ``contraction`` and
  ``bialgebra``, and the only one substituting series over an invertible
  ``eps``.  No antipode runs.
* ``rmatrix``: the only workload reaching ``rmatrix``; series products are
  term-bound (hundreds of term pairs each) with no ``algebra`` layer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# Pinned here rather than read from ``catalog.names()``: the workloads must
# not change when the catalog grows, and the parent process never imports
# hopfc.
PRESENTATIONS = (
    "gl2.II.nonstandard", "gl2.II.standard", "gl2.Iplus.nonstandard",
    "gl2.Iplus.standard", "gl2.classical", "h4.alphaplus", "h4.betaplus.theta",
    "h4.betaplus.xi", "h4.classical", "h4.xi", "h4.xi.theta",
)
CASES = ("II.standard", "II.nonstandard", "Iplus.standard", "Iplus.nonstandard")
RMATRICES = ("gl2.II.nonstandard", "gl2.Iplus.standard")
DEEP_ORDER = 8
CONTRACT_ORDER = 8
RMATRIX_ORDER = 32


@dataclass(frozen=True)
class Invocation:
    kind: str           # "cli" or "classical_limit"
    args: tuple         # argv for "cli"; (presentation, order) for "classical_limit"

    @property
    def id(self):
        if self.kind == "cli":
            return " ".join(self.args)
        return f"classical_limit {self.args[0]} --order {self.args[1]}"


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple
    presentations: tuple = ()   # (name, order) pairs built with catalog.get
    cases: tuple = ()           # catalog.get_case, plus the case's classical r
    classical_rs: tuple = ()    # catalog.classical_r
    rmats: tuple = ()           # (name, order, exact) built with rmatrix.get_rmat

    def only(self, prefix):
        """The same workload restricted to invocations whose id starts with
        ``prefix`` (the inputs stay whole)."""
        return replace(self, invocations=tuple(
            i for i in self.invocations if i.id.startswith(prefix)))


def _cli(*argv):
    return Invocation("cli", tuple(argv) + ("--format", "json"))


def _verify_deep():
    return Workload(
        "verify-deep",
        (_cli("verify", "gl2.II.standard", "--order", str(DEEP_ORDER)),),
        presentations=(("gl2.II.standard", DEEP_ORDER),),
    )


def _verify_catalog():
    pairs = tuple((name, order) for order in (4, 6) for name in PRESENTATIONS)
    return Workload(
        "verify-catalog",
        tuple(_cli("verify", name, "--order", str(order)) for name, order in pairs),
        presentations=pairs,
    )


def _contract():
    n = str(CONTRACT_ORDER)
    invocations = [_cli("contract", case, "--order", n) for case in CASES]
    invocations.append(_cli("contract", "Iplus.standard", "--then-basis-change", "--order", n))
    invocations.append(_cli("contract", "II.standard", "--force-exponent", "a=1", "--order", n))
    invocations += [Invocation("classical_limit", (name, CONTRACT_ORDER))
                    for name in PRESENTATIONS if not name.endswith(".classical")]
    return Workload(
        "contract",
        tuple(invocations),
        presentations=tuple((name, CONTRACT_ORDER) for name in PRESENTATIONS),
        cases=CASES,
    )


def _rmatrix():
    n = str(RMATRIX_ORDER)
    invocations = []
    for name in RMATRICES:
        invocations.append(_cli("rmatrix", name, "--order", n, "--qybe", "--exp-check",
                                "--triangularity"))
        invocations.append(_cli("rmatrix", name, "--exact-r", "--qybe"))
    invocations.append(_cli("rmatrix", "gl2.Iplus.standard", "--limit", "a", "--qybe",
                            "--triangularity", "--order", n))
    return Workload(
        "rmatrix",
        tuple(invocations),
        classical_rs=RMATRICES,
        rmats=tuple((name, RMATRIX_ORDER, exact) for name in RMATRICES
                    for exact in (False, True)),
    )


WORKLOADS = {w.name: w for w in (_verify_deep(), _verify_catalog(), _contract(), _rmatrix())}
