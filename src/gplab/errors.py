"""Exception types shared across the package.

Precision failures are always surfaced as errors, never silently rounded:
a ``PrecisionExhausted`` signals that a comparison or floor could not be
decided within the precision budget, which usually means the quantity sits
on (or indistinguishably close to) an exact boundary.
"""


class GPLabError(Exception):
    """Base class for all package errors."""


class PrecisionExhausted(GPLabError):
    """A decision could not be made within the precision budget (in bits)."""

    def __init__(self, message: str, *, n: int | None = None, bits: int | None = None):
        super().__init__(message)
        self.n = n
        self.bits = bits


class DivisionByZero(GPLabError):
    """Exact division by a value that is exactly zero."""


class PreconditionError(GPLabError):
    """An operation was called with arguments violating its contract."""


class ParseError(GPLabError):
    """Syntax or binding error in the expression language, at a position
    when there is one (a constant folded past its size cap has none)."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message if line is None else f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


class ZeroSolution(GPLabError):
    """The dominant-root coefficient of a recurrence solution is zero."""


class NotFound(GPLabError):
    """A scan completed without finding the requested object."""


class NoCoprimeCandidate(GPLabError):
    """No admissible numerator exists at some step of the interval chain."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class NoValidL(GPLabError):
    """No interpolation depth works for a step of the sequence densifier."""

    def __init__(self, message: str, *, step: int, ratio_lo: float, ratio_hi: float):
        super().__init__(message)
        self.step = step
        self.ratio_lo = ratio_lo
        self.ratio_hi = ratio_hi


class NonBooleanValue(GPLabError):
    """An indicator expression evaluated outside {0, 1}."""

    def __init__(self, message: str, *, n: int, value):
        super().__init__(message)
        self.n = n
        self.value = value


class NondegenerateNormRequired(PreconditionError):
    """The planar norm is degenerate (zero imaginary part)."""
