"""Exception hierarchy shared by all modules.

InvalidInputError maps to CLI exit code 2, DegeneracyError to exit code 3.
"""


class RicciflatError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(RicciflatError):
    """Malformed or inconsistent user input (bad scenario, non-Hermitian
    matrix, nonpositive metric at the base point, out-of-range parameter)."""


class DimensionMismatchError(InvalidInputError):
    """Operands live in different jet contexts (dimension or degree cap)."""


class DegeneracyError(RicciflatError):
    """Numerical degeneracy: a quantity required to be invertible or valid
    is not (zero constant term, exhausted spatial validity, singular matrix)."""


class ValidityError(DegeneracyError):
    """A coefficient was read beyond the trusted spatial degree."""


class SingularInputError(DegeneracyError):
    """Logarithm or reciprocal of a jet whose constant term vanishes."""
