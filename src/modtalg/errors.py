"""Exception types shared across the package."""


class Error(Exception):
    """Base class for every error raised by this package."""


class NotPrime(Error):
    """The requested field modulus is composite."""


class DimensionMismatch(Error):
    """Operands live in spaces of incompatible dimensions."""


class IndexOutOfRange(Error):
    """A relation index is outside [0, d]."""


class PrimeTooLarge(Error):
    """p >= 2^64, or n^2 (p-1)^2 >= 2^63: a sum of n^2 products of residues
    mod p, the longest contraction the analysis performs, could overflow
    int64."""


class BasePointOutOfRange(Error):
    """The requested base point is not a point of the scheme."""


class InvalidParameter(Error):
    """A generator was called with unusable parameters."""


class SchemeParseError(Error):
    """Base class for scheme file format errors."""


class EmptyInput(SchemeParseError):
    """The scheme file contains no data lines."""


class Malformed(SchemeParseError):
    """Non-square table, bad token, or wrong line count."""


class OutOfRange(SchemeParseError):
    """Relation indices are not contiguous in [0, d]."""


class AxiomViolation(Error):
    """A relation table fails one of the defining scheme axioms."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class AxiomI(AxiomViolation):
    """Identity relation broken: r(x,x) != 0 or 0 appears off-diagonal."""


class AxiomII(AxiomViolation):
    """No converse involution: transpose classes are inconsistent."""


class AxiomIII(AxiomViolation):
    """An intersection count is not constant on some relation."""


class NotPPrimeValenced(Error):
    """Some valency is divisible by the field characteristic."""


class FixtureInvalid(Error):
    """A bundled fixture failed its identity validation."""


class InternalInconsistency(Error):
    """A proven identity failed numerically; this flags an implementation bug.

    `witness` names what failed: a certificate's name, or for an element
    outside the grading (stage, basis index, block pairs it touches)."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
