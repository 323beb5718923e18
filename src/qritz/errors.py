"""Exception and warning types shared across the package."""


class QritzError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(QritzError):
    """Operands have incompatible shapes."""


class RankDeficient(QritzError):
    """A matrix expected to have full column rank does not."""


class NoConvergence(QritzError):
    """An iterative factorization exceeded its sweep budget."""


class Singular(QritzError):
    """A matrix ``C`` required to be nonsingular has ``sigma_min(C) <= SINGULAR_TOL * ||C||``."""


class BadNorm(QritzError):
    """A vector required to be unit length is not, beyond tolerance."""


class NotOrthonormal(QritzError):
    """A basis matrix fails the orthonormality check."""


class NotAnEigenpair(QritzError):
    """A (value, vector) pair fails the eigenpair residual check."""


class ZeroBv(QritzError):
    """B maps the eigenvector to (numerically) zero; no left vector exists."""


class ZeroVector(QritzError):
    """An angle was requested for a zero vector."""


class ZeroEigenvalue(QritzError):
    """The construction divides by the eigenvalue, which is zero."""


class OrthogonalSubspace(QritzError):
    """The reference vector is orthogonal to the projection subspace."""


class EmptyList(QritzError):
    """A selection was requested from an empty collection."""


class IoFailure(QritzError):
    """Base class for file-format and I/O errors."""


class ParseError(IoFailure):
    """Malformed matrix file; the message carries the offending line number."""


class UnsupportedField(IoFailure):
    """The matrix file uses a value field this reader does not support."""


class QritzWarning(UserWarning):
    """Base class for warnings emitted by this package."""


class AmbiguousMinimizer(QritzWarning):
    """The two smallest singular values coincide; the minimizer is not unique."""


class IndefiniteMass(QritzWarning):
    """The leading matrix is not verified Hermitian positive definite."""
