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
    """p >= 2^64, or k (p-1)^2 >= 2^63 where k is the number of products of
    residues mod p that an entry check admits: the sum could overflow int64.
    The analysis checks k = n^2 before any arithmetic, and the `ffmat` array
    functions check their own k.  Products run through `ffmat.matmul_mod`,
    which sums any number of terms exactly by reducing mod p after each
    chunk that int64 holds; it raises this only when a single product of
    two residues, (p-1)^2, reaches 2^63."""


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


class FixtureInvalid(Error):
    """A bundled fixture failed its identity validation."""


class InternalInconsistency(Error):
    """A proven identity failed numerically; this flags an implementation bug.

    `witness` names what failed, as a tuple that starts with the check's
    name and is followed by the offending indices, for example
    ("nilpotency", k, dim V_k), ("flag", g, k, v), ("annihilator", i) and
    ("quotient", dim) from the radical's certificate, ("containment", i)
    for a claim outside the algebra, ("valencies", valencies, n),
    ("triangle identity", (i, j, l)), ("strata", invariant) and
    ("strata partition", count, d + 1) from `scheme`, or (stage, basis
    index, block pairs it touches) for an element outside the grading.
    The annihilator's dimension check names itself with a bare string,
    "Ann_T(W0) dimension", and `primary.filtration` gives (m, g, h) with
    no name."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
