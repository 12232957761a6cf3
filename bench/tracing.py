"""Outside-in tracer for the benchmark's traced run.

Wraps the public functions of each ``hopfc`` layer from outside the package:
every module attribute bound to a wrapped function is replaced, so a name
imported into another module (``mul`` into ``hopf``, ``contraction`` and
``catalog``) is patched where it is looked up.  Nothing in ``src/`` changes
and no wrapper alters an argument or a return value.

Self time of a boundary is its duration minus the time its traced children
took.  Coarse boundaries (axiom checks, contraction stages, R-matrix checks,
catalog builds, CLI invocations) are kept as spans ``(name, start, end,
parent, run)`` in memory and written out at exit.  Per-call kernel
boundaries (``Series`` arithmetic, ``algebra.mul``/``tensor_mul``, antipode
helpers, ``mat_mul``) run hundreds of thousands of times per workload, so
they are aggregated in place (count and self time) instead of being stored
one span each; their time is still subtracted from the enclosing span.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.run = "setup"
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.stats = Counter()
        self.spans = []
        self._frames = [[0.0]]      # child-time accumulator per open boundary
        self._parent = None         # index of the innermost open recorded span

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name, fn, record=False, after=None):
        """A wrapper timing ``fn`` as boundary ``name``.  ``after(result,
        args)`` runs outside the timed interval and feeds ``stats``."""
        frames, calls, self_s, incl_s = self._frames, self.calls, self.self_s, self.incl_s

        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if record:
                parent = self._parent
                self._parent = len(self.spans)
                self.spans.append(None)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                dur = t1 - t0
                frames[-1][0] += dur
                calls[name] += 1
                self_s[name] += dur - frame[0]
                incl_s[name] += dur
                if record:
                    self.spans[self._parent] = (name, t0, t1, parent, self.run)
                    self._parent = parent
            if after is not None:
                after(result, args)
                frames[-1][0] += clock() - t1
            return result

        return traced

    def patch(self, name, fn, record=False, after=None):
        """Wrap ``fn`` and rebind every ``hopfc`` module attribute that is
        bound to it."""
        traced = self.wrap(name, fn, record, after)
        for modname, mod in list(sys.modules.items()):
            if modname == "hopfc" or modname.startswith("hopfc."):
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, traced)
        return traced

    def add(self, key, n=1):
        self.stats[key] += n

    def peak(self, key, v):
        if v > self.stats[key]:
            self.stats[key] = v

    # -- installation ------------------------------------------------------

    def install(self):
        # ``cli`` binds the contraction stages by name; it must be loaded
        # before patching so those bindings are rebound too.
        from hopfc import algebra, bialgebra, catalog, cli, contraction, hopf, rmatrix  # noqa: F401
        from hopfc.series import Series

        self._install_series(Series)

        def element_size(result, args):
            self.peak("algebra.max_element_terms", len(result.terms))

        for fname in ("mul", "tensor_mul"):
            self.patch(f"algebra.{fname}", getattr(algebra, fname), after=element_size)
        for fname in ("apply_coproduct", "coproduct_on_slot",
                      "generator_function", "substitute_generators"):
            self.patch(f"algebra.{fname}", getattr(algebra, fname), record=True,
                       after=element_size)

        hopf.ALL_CHECKS = tuple(
            (key, self.wrap(f"hopf.{key}", fn, record=True)) for key, fn in hopf.ALL_CHECKS)
        self.patch("hopf.solve_antipode", hopf.solve_antipode, record=True)
        self.patch("hopf.antipode_defect", hopf.antipode_defect)
        self.patch("hopf.apply_antipode", hopf.apply_antipode)

        self.patch("bialgebra.cocommutator_from_r", bialgebra.cocommutator_from_r, record=True)
        for fname in ("solve_min_exponents", "transform_wedge", "contract_hopf",
                      "match_presentation", "change_of_basis", "classical_limit"):
            self.patch(f"contraction.{fname}", getattr(contraction, fname), record=True)

        for key, builders in list(rmatrix._RMAT_BUILDERS.items()):
            rmatrix._RMAT_BUILDERS[key] = tuple(
                self.wrap("rmatrix.build", b, record=True) for b in builders)
        for fname in ("qybe_residual", "exp_wedge_rep", "triangularity_residual"):
            self.patch(f"rmatrix.{fname}", getattr(rmatrix, fname), record=True)
        self.patch("rmatrix.mat_mul", rmatrix.mat_mul)

        for key, builder in list(catalog._BUILDERS.items()):
            catalog._BUILDERS[key] = self.wrap("catalog.build", builder, record=True)
        self.patch("catalog.basis_change_map", catalog.basis_change_map, record=True)

    def _install_series(self, Series):
        add, peak = self.add, self.peak
        orig_init = Series.__init__

        def counted_init(s, *args, **kwargs):
            add("series.constructed")
            orig_init(s, *args, **kwargs)

        def product_stats(result, args):
            a, b = args
            peak("series.max_terms", len(result.terms))
            if isinstance(b, Series):
                peak("series.max_terms", max(len(a.terms), len(b.terms)))
                add("series.products")
                wdeg, order = a.space.wdeg, a.order
                da, db = Counter(map(wdeg, a.terms)), Counter(map(wdeg, b.terms))
                pairs = len(a.terms) * len(b.terms)
                add("series.term_pairs", pairs)
                add("series.truncated_pairs", sum(
                    ca * cb for xa, ca in da.items() for xb, cb in db.items()
                    if xa + xb > order))
            for c in result.terms.values():
                peak("series.max_den_bits", c.denominator.bit_length())

        mul = self.wrap("series.mul", Series.__mul__, after=product_stats)
        add_ = self.wrap("series.add", Series.__add__)
        Series.__init__ = counted_init
        Series.__mul__ = Series.__rmul__ = mul
        Series.__add__ = Series.__radd__ = add_
        Series.substitute = self.wrap("series.substitute", Series.substitute)

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics, named as in BENCHMARK.json (without the
        tracing overhead, which needs an untraced run)."""
        c, s, i, st = self.calls, self.self_s, self.incl_s, self.stats
        products = st["series.products"]
        pairs = st["series.term_pairs"]
        return {
            "series.mul_calls": c["series.mul"],
            "series.mul_self_s": s["series.mul"],
            "series.term_pairs": pairs,
            "series.pairs_per_mul": pairs / products if products else 0.0,
            "series.truncated_pair_ratio": st["series.truncated_pairs"] / pairs if pairs else 0.0,
            "series.max_terms": st["series.max_terms"],
            "series.max_den_bits": st["series.max_den_bits"],
            "series.constructed": st["series.constructed"],
            "series.add_calls": c["series.add"],
            "series.add_self_s": s["series.add"],
            "series.substitute_calls": c["series.substitute"],
            "series.substitute_self_s": s["series.substitute"],
            "algebra.mul_calls": c["algebra.mul"],
            "algebra.mul_self_s": s["algebra.mul"],
            "algebra.tensor_mul_calls": c["algebra.tensor_mul"],
            "algebra.tensor_mul_self_s": s["algebra.tensor_mul"],
            "algebra.apply_coproduct_calls": c["algebra.apply_coproduct"],
            "algebra.apply_coproduct_self_s": s["algebra.apply_coproduct"],
            "algebra.coproduct_on_slot_self_s": s["algebra.coproduct_on_slot"],
            "algebra.generator_function_self_s": s["algebra.generator_function"],
            "algebra.substitute_generators_self_s": s["algebra.substitute_generators"],
            "algebra.max_element_terms": st["algebra.max_element_terms"],
            "hopf.jacobi_s": i["hopf.jacobi"],
            "hopf.relations_morphism_s": i["hopf.relations_morphism"],
            "hopf.coassociativity_s": i["hopf.coassociativity"],
            "hopf.counit_s": i["hopf.counit"],
            "hopf.casimir_central_s": i["hopf.casimir_central"],
            "hopf.antipode_s": i["hopf.antipode"],
            "hopf.solve_antipode_s": i["hopf.solve_antipode"],
            "hopf.antipode_defect_calls": c["hopf.antipode_defect"],
            "hopf.apply_antipode_calls": c["hopf.apply_antipode"],
            "bialgebra.cocommutator_from_r_s": i["bialgebra.cocommutator_from_r"],
            "contraction.solve_min_exponents_s": i["contraction.solve_min_exponents"],
            "contraction.transform_wedge_s": i["contraction.transform_wedge"],
            "contraction.contract_hopf_s": i["contraction.contract_hopf"],
            "contraction.match_presentation_s": i["contraction.match_presentation"],
            "contraction.change_of_basis_s": i["contraction.change_of_basis"],
            "contraction.classical_limit_s": i["contraction.classical_limit"],
            "rmatrix.build_s": i["rmatrix.build"],
            "rmatrix.qybe_s": i["rmatrix.qybe_residual"],
            "rmatrix.exp_wedge_rep_s": i["rmatrix.exp_wedge_rep"],
            "rmatrix.triangularity_s": i["rmatrix.triangularity_residual"],
            "rmatrix.mat_mul_calls": c["rmatrix.mat_mul"],
            "catalog.build_s": i["catalog.build"],
            "catalog.presentations_built": c["catalog.build"],
            "catalog.basis_change_map_s": i["catalog.basis_change_map"],
            "cli.self_s": s["cli.main"],
            "cli.report_bytes": st["cli.report_bytes"],
        }

    def write_spans(self, path):
        """Write the recorded spans as JSON lines, times relative to the
        first span."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for idx, (name, t0, t1, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": t0 - base,
                                     "end": t1 - base, "parent": parent, "run": run}) + "\n")
