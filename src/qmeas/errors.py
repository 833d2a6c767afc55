"""Exception types shared across the package."""


class QmeasError(Exception):
    """Base class for all errors raised by qmeas."""


class ValidationError(QmeasError):
    """An object failed its construction-time invariants."""


class DimensionMismatch(QmeasError):
    """Operands have incompatible shapes or subsystem dimensions."""


class NonHermitian(QmeasError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NoConvergence(QmeasError):
    """A numerical routine could not certify its result within its cut."""


class NotPSD(QmeasError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""


class NotCP(QmeasError):
    """A map required to be completely positive has a negative Choi eigenvalue."""


class NotEndomorphic(QmeasError):
    """A channel with equal input and output dimensions was required."""


class NotFullRank(QmeasError):
    """A state required to be full-rank is rank-deficient."""


class InfeasibleDimensions(QmeasError):
    """No copy count D satisfies rank^D * N <= M^D: the resource rank is not in [1, M)."""


class NotAnAlgebra(QmeasError):
    """An operator subspace is not closed under products and adjoints."""


class DegenerateCenter(QmeasError):
    """Random generic pairs failed to split an algebra into certified blocks after resampling."""


class DecompositionMismatch(QmeasError):
    """Block reconstruction of an operator misses it beyond tolerance."""


class SchemeMismatch(QmeasError):
    """A measurement scheme does not implement the claimed instrument."""


class NotCompletelyUnsharp(QmeasError):
    """The construction needs every effect to have spectrum inside (0, 1)."""


class BadDistribution(QmeasError):
    """A probability vector is malformed or too close to the boundary."""
