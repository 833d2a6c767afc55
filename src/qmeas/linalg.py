"""Dense complex linear algebra with explicit tolerance handling.

All matrices are numpy complex128 arrays.  Equality, rank, and kernel
decisions are never made against exact zero: every count of nonzero singular values
or eigenvalues is cut_rank, every "attains 1" test is attains_one, both at a
:class:`Tolerances` instance, so each numerical cut in the package is written once.
A construction drops only the round-off below float_rank's floor, and decides nothing.
Where a rank is proved rather than cut, proves_definite's one Cholesky is the proof.
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
def _coordinates(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (d, d) mask of the entries on and above the diagonal, and weights 1 on it, sqrt 2 off it."""
    upper, weight = np.triu(np.ones((d, d), dtype=bool)), np.where(np.eye(d, dtype=bool), 1.0, np.sqrt(2.0))
    upper.flags.writeable = weight.flags.writeable = False
    return upper, weight


def embed_hermitian(h: np.ndarray) -> np.ndarray:
    """Isometry T vec(h) from Hermitian matrices (one or a stack) onto R^(d*d), for real SVDs: entry ac
    is h_aa on the diagonal, sqrt 2 Re h_ac above it and sqrt 2 Im h_ac below it."""
    upper, weight = _coordinates(h.shape[-1])
    return (np.where(upper, h.real, h.imag) * weight).reshape(h.shape[:-2] + (-1,))


def unembed_hermitian(x: np.ndarray, d: int) -> np.ndarray:
    """Inverse of embed_hermitian on the last axis: h = z + z^dag, z = x on and above the diagonal and
    i x below it, times half the weight."""
    upper, weight = _coordinates(d)
    z = x.reshape(x.shape[:-1] + (d, d)) * (np.where(upper, weight, 1j * weight) / 2)
    return z + dagger(z)


def hermitian_superoperator(superop: np.ndarray, d: int) -> np.ndarray:
    """Real T S T^dag of a Hermiticity-preserving S on d x d matrices; T is never formed.  With S read as
    [a, c, b, e], Z is S times T's weight on row ac, and times -i below the diagonal, so T takes Re Z.
    Column be is Re (Z_be + Z_eb) on and above the diagonal, Im (Z_eb - Z_be) below, times half the weight."""
    upper, weight = _coordinates(d)
    z = superop.reshape(d, d, d, d) * np.where(upper, weight, -1j * weight)[:, :, None, None]
    out = z.real + z.real.swapaxes(2, 3)
    np.copyto(out, z.imag.swapaxes(2, 3) - z.imag, where=~upper)
    out *= weight / 2
    return out.reshape(d * d, d * d)


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


def full_rank(w: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """No eigenvalue w of a Hermitian matrix falls to cut_rank's cut; its singular values are the |w|."""
    return cut_rank(np.abs(w), tol) == w.size


def float_rank(s: np.ndarray, size: int) -> int:
    """Number of s above eps * size * max(1, max s): matrix_rank's round-off floor, size the larger side."""
    return int(np.count_nonzero(s > EPS * size * max(1.0, float(np.max(s)) if s.size else 0.0)))


def proves_definite(a: np.ndarray, floor: float = 0.0) -> bool:
    """Whether one Cholesky proves lambda_min(a) > floor, for a real symmetric a read from its lower triangle.

    A Cholesky of fl(a - t 1) that runs to completion gives G^T G = fl(a - t 1) + D with |D| <= gamma_(n+1)
    |G^T| |G| (Higham 2002, Thm 10.3), so ||D||_2 <= gamma_(n+1) / (1 - gamma_(n+1)) tr fl(a - t 1), and
    lambda_min(a) exceeds t less that and the diagonal's rounding (Rump, BIT Numer. Math. 46, 2006).  The
    shift t = floor + gamma_(n+3) tr a covers both, and the rounding of t, for n below 10^6; gamma_k is
    k u / (1 - k u), u = eps / 2.  A complex Hermitian h is definite iff [[Re h, -Im h], [Im h, Re h]] is.
    a's diagonal is shifted in place and restored bit for bit, so the factorization makes the only copies.
    """
    n = len(a)
    diagonal, k = a.diagonal().copy(), (n + 3) * EPS / 2
    a.flat[:: n + 1] -= floor + k / (1 - k) * diagonal.sum()
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    finally:
        a.flat[:: n + 1] = diagonal
    return bool(np.isfinite(factor).all())  # a NaN pivot is not refused by every LAPACK


def attains_one(v, tol: Tolerances = DEFAULT_TOL):
    """Whether an eigenvalue v (or each of an array) counts as 1: v >= 1 - rank_threshold."""
    return v >= 1.0 - tol.rank_threshold


def numerical_rank(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of singular values above rank_cut."""
    return cut_rank(np.linalg.svd(as_complex_matrix(a), compute_uv=False), tol)


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
