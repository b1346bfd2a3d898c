"""Exception hierarchy shared by all canonform modules."""


class CanonformError(Exception):
    """Base class for every error raised by this package."""


class ZeroForm(CanonformError):
    """An operation that requires a nonzero form received the zero form."""


class ShapeMismatch(CanonformError):
    """Operands disagree on variable count or degree."""


class NotGeneric(CanonformError):
    """No squarefree annihilator exists at any feasible order."""


class DegenerateInput(CanonformError):
    """A genericity precondition failed; the message names the stage."""


class RepeatedRoot(CanonformError):
    """The input form has a repeated linear factor."""


class LeadingZero(CanonformError):
    """The coefficient of the pure leading power vanishes."""


class DegenerateLambda(CanonformError):
    """A denominator in the quartic six-representation formulas vanishes."""


class NormalizationFailed(CanonformError):
    """The harmonic axes of a quartic's root pairs give no finite normal form."""


class UnsupportedShape(CanonformError):
    """The Monte Carlo counter cannot set up a system for this shape."""


class PivotZero(CanonformError):
    """Completion of squares hit a zero leading coefficient."""

    def __init__(self, stage: int, message: str | None = None):
        self.stage = stage
        super().__init__(message or f"zero pivot at elimination stage {stage}")


class DegeneratePencil(CanonformError):
    """The quadratic pencil is unusable (singular, repeated roots, ...)."""


class DegenerateStage(CanonformError):
    """An iterated construction failed; the message names stage and condition."""

    def __init__(self, stage: int, condition: str):
        self.stage = stage
        self.condition = condition
        super().__init__(f"stage {stage}: {condition}")


class UnknownName(CanonformError):
    """No catalog entry with the requested name."""


class BadShape(CanonformError):
    """Catalog parameters violate the defining constraint of the family."""


class AllZero(CanonformError):
    """The hyperplane coefficient vector is identically zero."""


class ParseError(CanonformError):
    """The form text could not be parsed."""
