"""Computer-algebra engine for two-parameter quantum gl(2) Hopf algebras,
their oscillator (h4) contractions, and the associated 4x4 R-matrix checks.

All arithmetic is exact: truncated multivariate formal series over the
rationals, PBW normal forms, order-by-order Hopf axiom verification.
"""

from .series import ParamSpace, Ring, Series, analytic_series
from .algebra import (
    GeneratorSet,
    RewriteTable,
    TensorElement,
    commutator,
    generator_function,
    mul,
)
from .hopf import Check, HopfPresentation, VerificationReport, solve_antipode, verify_all
from .bialgebra import cocommutator_from_r
from .contraction import (
    ContractionCase,
    change_of_basis,
    classical_limit,
    contract_hopf,
    match_presentation,
    solve_min_exponents,
)
from . import catalog

__version__ = "1.0.0"
