"""Exception taxonomy shared by the toolkit.

The CLI maps these onto exit codes: parse/schema problems are usage errors
(exit 1), mathematical negatives such as a failed condition check carry their
own reporting (exit 2), and numeric divergence is exit 3.
"""

from __future__ import annotations


class SlinError(Exception):
    """Base class for all toolkit errors."""


class SpaceMismatchError(SlinError):
    """Two polynomials from different variable spaces were combined."""


class ParseError(SlinError):
    """System-file rejection, with 1-based position information and, when
    the text came from a file, its path: ``path:line:column: message``."""

    def __init__(self, message: str, line: int, column: int, path=None):
        where = f"{line}:{column}" if path is None else f"{path}:{line}:{column}"
        super().__init__(f"{where}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.path = path


class NonPolynomialError(ParseError):
    """Input uses a construct outside polynomial grammar (1/x, x^-2, ...)."""


class ConditionFailedError(SlinError):
    """Lifting was requested for a system that fails the graph condition."""

    def __init__(self, report):
        super().__init__("cycle-weight condition failed; lift unavailable")
        self.report = report


class InternalInvariantError(SlinError):
    """An invariant the construction guarantees was violated; signals a bug."""


class DecompositionViolatedError(InternalInvariantError):
    """A layer's dynamics were not affine in the layer's own variables."""


class ChainCapError(InternalInvariantError):
    """A derivative chain exceeded the dimension bound of its polynomial space."""


class SizeGuardError(SlinError):
    """A brute-force enumeration was asked to run past its size guard."""


class DimensionMismatchError(SlinError):
    """System and lift have incompatible dimensions or variable names."""


class SchemaError(SlinError):
    """A lift document does not conform to the serialization schema."""


class DivergenceError(SlinError):
    """Numeric integration left the finite range."""

    def __init__(self, last_finite_time: float):
        super().__init__(
            f"state became non-finite; last finite sample at t={last_finite_time:.6g}"
        )
        self.last_finite_time = last_finite_time
