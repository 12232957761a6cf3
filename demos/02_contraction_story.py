"""The contraction pipeline, end to end, for one two-parameter family.

Start from the quantum gl(2) family with a standard (sinh-type) deformation
in one direction and a twist in the other.  Rescale the generators by powers
of a contraction parameter eps, send each deformation parameter to zero at a
case-specific rate, and take eps -> 0.  Three things are on display:

1. the minimal-exponent solver: the smallest rates that keep every structure
   constant finite, read off the classical r-matrix and its cocommutator;
2. the coboundary verdict: the r-matrix and the cocommutator force the very
   same rates, so the contracted bialgebra is again a coboundary;
3. the quantum contraction itself: every rewrite rule, coproduct leg, and the
   Casimir (with its central counterterm) lands term for term on the
   oscillator presentation in the catalog.

A wrong rate does not fail silently: lowering any exponent by one makes some
structure constant blow up, and the engine raises a divergence error naming
the offending terms.
"""

from hopfc import catalog
from hopfc.bialgebra import wedge_str
from hopfc.contraction import contract_hopf, match_presentation, solve_min_exponents
from hopfc.errors import DivergenceError

case = catalog.get_case("Iplus.standard")
print(f"case {case.name}: {case.source}  -->  {case.target}\n")

sol = solve_min_exponents(case)
print("minimal exponents from r:    ", sol.r_min)
print("minimal exponents from delta:", sol.delta_min)
print("coboundary after contraction:", sol.coboundary)
print("contracted classical r:      ", wedge_str(sol.r_contracted))
print()

got = contract_hopf(case, order=4)
m = match_presentation(got, catalog.get(case.target, 4))
print(f"quantum contraction matches {case.target} term for term: {m.match}")
print()

print("now force the xi-direction exponent one below the minimum:")
try:
    contract_hopf(case, order=4, force_exponents={"a": 1})
except DivergenceError as exc:
    print(f"  DivergenceError: {exc}")
