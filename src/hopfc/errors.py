"""Exception types shared across the engine."""


class HopfcError(Exception):
    """Base class for engine errors."""


class StructureError(HopfcError):
    """Operands live in incompatible spaces / generator sets."""


class FloorUnderflowError(HopfcError):
    """A product pushed an invertible symbol below the exponent floor."""

    def __init__(self, terms):
        self.terms = terms
        super().__init__(f"exponent floor underflow in terms {terms!r}")


class NonTruncatableError(HopfcError):
    """Analytic-function argument contains a weight-zero term."""


class UnsupportedArgumentError(HopfcError):
    """Analytic-function argument with non-commuting terms."""


class DivergenceError(HopfcError):
    """A negative power of the sliced symbol ``name`` survived its limit."""

    def __init__(self, terms, name, context=""):
        self.terms = terms
        self.name = name
        self.context = context
        msg = f"divergent terms under {name} -> 0: {terms!r}"
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)


class ConfluenceFailureError(HopfcError):
    """Rewriting exceeded the step budget."""


class SynthesisFailureError(HopfcError):
    """Order-by-order antipode synthesis got stuck."""


class LookupError_(HopfcError):
    """Unknown catalog name (or other named input, per ``what``); carries the
    list of valid names."""

    def __init__(self, name, valid, what="catalog name"):
        self.name = name
        self.valid = sorted(valid)
        super().__init__(f"unknown {what} {name!r}; valid names: {self.valid}")
