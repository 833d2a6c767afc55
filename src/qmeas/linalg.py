"""Dense complex linear algebra with explicit tolerance handling.

All matrices are numpy complex128 arrays.  Equality, rank, and kernel
decisions are never made against exact zero: every count of nonzero singular values
or eigenvalues is cut_rank, every "attains 1" test is attains_one, both at a
:class:`Tolerances` instance, so each numerical cut in the package is written once.
A construction drops only the round-off below float_rank's floor, and decides nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NonHermitian, NotPSD, ValidationError


EPS = float(np.finfo(np.float64).eps)
TOL_FLOOR = 64 * EPS  # smallest Tolerances field: exact constructions meet no finer cut


@dataclass(frozen=True)
class Tolerances:
    """Numerical cutoffs used throughout the package.

    atol_equality   absolute cutoff for every equality residual: validation, matrix
                    equality, algebra closure, block unitarity, effect reconstruction,
                    scheme identities and the demos' targets
    rank_threshold  relative cutoff (rank_cut) for every rank-like decision: counting
                    singular values / eigenvalues, kernels included, an eigenvalue
                    attaining 1, gaps between eigenvalue clusters, fixed-state residuals
    """

    atol_equality: float = 1e-9
    rank_threshold: float = 1e-8

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not (TOL_FLOOR <= v < 1e-2):
                raise ValidationError(f"{f.name} must lie in [{TOL_FLOOR:.1e}, 1e-2), got {v!r}")


DEFAULT_TOL = Tolerances()


def as_complex_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {m.shape}")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose; of each matrix, for a stack."""
    return np.swapaxes(np.asarray(a), -1, -2).conj()


def hs_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def vec(a: np.ndarray) -> np.ndarray:
    """Row-major vectorization; an isometry for the HS inner product."""
    return np.asarray(a).reshape(-1)


@lru_cache
def _hermitian_index(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vec indices of the entries jj, ab and ba (a < b) that the Hermitian coordinates combine."""
    a, b = np.triu_indices(d, k=1)
    index = np.arange(d) * (d + 1), a * d + b, b * d + a
    for i in index:
        i.setflags(write=False)
    return index


def _hermitian_combinations(m: np.ndarray, d: int, phase: complex, axis: int = -1) -> np.ndarray:
    """Entries jj, (ab + ba)/sqrt 2 and phase (ab - ba)/sqrt 2, a < b, along one vec axis of m."""
    jj, ab, ba = _hermitian_index(d)
    p, q, r = np.take(m, ab, axis), np.take(m, ba, axis), np.sqrt(0.5)
    return np.concatenate([np.take(m, jj, axis), (p + q) * r, (p - q) * (phase * r)], axis)


def embed_hermitian(h: np.ndarray) -> np.ndarray:
    """Isometry T vec(h) from Hermitian matrices (one or a stack) onto R^(d*d), for real SVDs."""
    d = h.shape[-1]
    return _hermitian_combinations(h.reshape(h.shape[:-2] + (d * d,)), d, -1j).real


def unembed_hermitian(x: np.ndarray, d: int) -> np.ndarray:
    jj, ab, ba = _hermitian_index(d)
    h = np.zeros(x.shape[:-1] + (d * d,), dtype=np.complex128)
    h[..., jj] = x[..., :d]
    h[..., ab] = (x[..., d:d + ab.size] + 1j * x[..., d + ab.size:]) * np.sqrt(0.5)
    h[..., ba] = h[..., ab].conj()
    return h.reshape(x.shape[:-1] + (d, d))


def hermitian_superoperator(superop: np.ndarray, d: int) -> np.ndarray:
    """Real T S T^dag of a Hermiticity-preserving S on d x d matrices; T is unitary, never formed:
    T S gathers contiguous rows of S, then (T S) T^dag gathers columns."""
    return _hermitian_combinations(_hermitian_combinations(superop, d, -1j, 0), d, 1j).real


def hermitianize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + dagger(a))


def hermitian_eig(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending, real) and matching orthonormal eigenvector columns,
    of one matrix or of each matrix in an (n, d, d) stack.

    Raises ValidationError on non-finite entries and NonHermitian when the
    input (any member of a stack) is not Hermitian within tolerance.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
        raise DimensionMismatch(f"square matrix or (n, d, d) stack required, got shape {a.shape}")
    ah = dagger(a)
    dev = np.abs(a - ah).max() if a.size else 0.0
    if not np.isfinite(dev):
        raise ValidationError("matrix has non-finite entries")
    if dev > tol.atol_equality:
        raise NonHermitian(f"Hermiticity deviation {dev:.3e} exceeds {tol.atol_equality:.1e}")
    try:
        w, v = np.linalg.eigh(0.5 * (a + ah))  # hermitianize(a), with the dagger formed once
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure is exotic
        raise NoConvergence(str(exc)) from exc
    return w[..., ::-1], v[..., ::-1]  # eigh sorts ascending


def rank_cut(s: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> float:
    """rank_threshold * max(1, max s): singular values (or |eigenvalues|) s at or below it count as 0."""
    return tol.rank_threshold * max(1.0, float(np.max(s)) if s.size else 0.0)


def cut_rank(s: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of s above rank_cut; for s sorted descending, the leading s that count as nonzero."""
    return int(np.count_nonzero(s > rank_cut(s, tol)))


def float_rank(s: np.ndarray, size: int) -> int:
    """Number of s above eps * size * max(1, max s): matrix_rank's round-off floor, size the larger side."""
    return int(np.count_nonzero(s > EPS * size * max(1.0, float(np.max(s)) if s.size else 0.0)))


def attains_one(v, tol: Tolerances = DEFAULT_TOL):
    """Whether an eigenvalue v (or each of an array) counts as 1: v >= 1 - rank_threshold."""
    return v >= 1.0 - tol.rank_threshold


def numerical_rank(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of singular values above rank_cut."""
    a = as_complex_matrix(a)
    if a.size == 0:
        return 0
    return cut_rank(np.linalg.svd(a, compute_uv=False), tol)


def kernel_basis(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal columns spanning the (right) null space of a."""
    a = as_complex_matrix(a)
    if a.shape[0] > a.shape[1]:  # its R factor has the same singular values and right vectors
        a = np.linalg.qr(a, mode="r")
    _, s, vh = np.linalg.svd(a)
    return vh[cut_rank(s, tol):].conj().T


def partial_trace(a: np.ndarray, dims: tuple[int, int], traced: str = "second") -> np.ndarray:
    """Trace out one tensor factor of an operator on C^d1 (x) C^d2, or of each of an (n, d, d) stack."""
    a = np.asarray(a, dtype=np.complex128)
    d1, d2 = dims
    if a.ndim not in (2, 3) or a.shape[-2:] != (d1 * d2, d1 * d2):
        raise DimensionMismatch(f"operator shape {a.shape} does not match dims {dims}")
    t = a.reshape(a.shape[:-2] + (d1, d2, d1, d2))
    if traced == "second":
        return np.einsum("...iaja->...ij", t)
    if traced == "first":
        return np.einsum("...aiaj->...ij", t)
    raise DimensionMismatch(f"traced must be 'first' or 'second', got {traced!r}")


def matrix_sqrt_psd(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Unique PSD square root of one matrix or each of a stack; eigenvalues in [-atol_equality, 0) clip to 0."""
    return psd_root(*hermitian_eig(a, tol), tol)


def psd_root(w: np.ndarray, v: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """matrix_sqrt_psd from hermitian_eig's eigenpairs (w, v), with its NotPSD cut at tol."""
    if w.size and w[..., -1].min() < -tol.atol_equality:
        raise NotPSD(f"eigenvalue {w[..., -1].min():.3e} below -{tol.atol_equality:.1e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ dagger(v)


def eigenvalue_clusters(values: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> list[np.ndarray]:
    """Group sorted-descending values into clusters separated by more than rank_cut(|values|).

    Returns index arrays into the input (which must be sorted descending).
    """
    breaks = np.flatnonzero(np.abs(np.diff(values)) > rank_cut(np.abs(values), tol)) + 1
    return np.split(np.arange(values.size), breaks) if values.size else []
