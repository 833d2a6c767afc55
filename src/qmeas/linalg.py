"""Dense complex linear algebra with explicit tolerance handling.

All matrices are numpy complex128 arrays.  Equality, rank, and kernel
decisions are never made against exact zero: every count of nonzero
singular values or eigenvalues is cut_rank, every "attains 1" test is
attains_one, both at a :class:`Tolerances` instance, so each numerical
cut in the package is written once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NonHermitian, NotPSD, ValidationError


@dataclass(frozen=True)
class Tolerances:
    """Numerical cutoffs used throughout the package.

    atol_equality   absolute tolerance for matrix equality and validation
    rank_threshold  relative cutoff for counting singular values / eigenvalues,
                    kernels included, and for an eigenvalue to attain 1
    """

    atol_equality: float = 1e-9
    rank_threshold: float = 1e-8

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not (0.0 < v < 1e-2):
                raise ValidationError(f"{f.name} must lie in (0, 1e-2), got {v!r}")


DEFAULT_TOL = Tolerances()

CLUSTER_GAP = 1e-6  # minimum separation between distinct eigenvalue clusters


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


def unvec(v: np.ndarray, rows: int, cols: int | None = None) -> np.ndarray:
    cols = rows if cols is None else cols
    v = np.asarray(v)
    if v.size != rows * cols:
        raise DimensionMismatch(f"cannot reshape {v.size} entries to {rows}x{cols}")
    return v.reshape(rows, cols)


def _hermitian_combinations(m: np.ndarray, d: int, phase: complex) -> np.ndarray:
    """Entries jj, (ab + ba)/sqrt 2 and phase (ab - ba)/sqrt 2, a < b, along m's last (vec) axis."""
    a, b = np.triu_indices(d, k=1)
    jj, ab, ba = np.arange(d) * (d + 1), a * d + b, b * d + a
    plus, minus = (m[..., ab] + m[..., ba]) / np.sqrt(2.0), (m[..., ab] - m[..., ba]) / np.sqrt(2.0)
    return np.concatenate([m[..., jj], plus, phase * minus], axis=-1)


def embed_hermitian(h: np.ndarray) -> np.ndarray:
    """Isometry T vec(h) from Hermitian matrices (one or a stack) onto R^(d*d), for real SVDs."""
    d = h.shape[-1]
    return _hermitian_combinations(h.reshape(h.shape[:-2] + (d * d,)), d, -1j).real


def unembed_hermitian(x: np.ndarray, d: int) -> np.ndarray:
    a, b = np.triu_indices(d, k=1)
    h = np.zeros(x.shape[:-1] + (d, d), dtype=np.complex128)
    h[..., range(d), range(d)] = x[..., :d]
    h[..., a, b] = (x[..., d:d + a.size] + 1j * x[..., d + a.size:]) / np.sqrt(2.0)
    return h + dagger(np.triu(h, 1))


def hermitian_superoperator(superop: np.ndarray, d: int) -> np.ndarray:
    """Real T S T^dag of a Hermiticity-preserving S on d x d matrices; T is unitary, never formed."""
    return _hermitian_combinations(_hermitian_combinations(superop, d, 1j).T, d, -1j).T.real


def kron(*ops: np.ndarray) -> np.ndarray:
    out = np.asarray(ops[0], dtype=np.complex128)
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


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
    dev = np.abs(a - dagger(a)).max() if a.size else 0.0
    if not np.isfinite(dev):
        raise ValidationError("matrix has non-finite entries")
    if dev > tol.atol_equality:
        raise NonHermitian(f"Hermiticity deviation {dev:.3e} exceeds {tol.atol_equality:.1e}")
    try:
        w, v = np.linalg.eigh(hermitianize(a))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure is exotic
        raise NoConvergence(str(exc)) from exc
    return w[..., ::-1], v[..., ::-1]  # eigh sorts ascending


def rank_cut(s: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> float:
    """rank_threshold * max(1, max s): singular values (or |eigenvalues|) s at or below it count as 0."""
    return tol.rank_threshold * max(1.0, float(np.max(s)) if s.size else 0.0)


def cut_rank(s: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of s above rank_cut; for s sorted descending, the leading s that count as nonzero."""
    return int(np.count_nonzero(s > rank_cut(s, tol)))


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
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    return vh[cut_rank(s, tol):].conj().T


def partial_trace(a: np.ndarray, dims: tuple[int, int], traced: str = "second") -> np.ndarray:
    """Trace out one tensor factor of an operator on C^d1 (x) C^d2."""
    a = as_complex_matrix(a)
    d1, d2 = dims
    if a.shape != (d1 * d2, d1 * d2):
        raise DimensionMismatch(f"operator shape {a.shape} does not match dims {dims}")
    t = a.reshape(d1, d2, d1, d2)
    if traced == "second":
        return np.einsum("iaja->ij", t)
    if traced == "first":
        return np.einsum("aiaj->ij", t)
    raise DimensionMismatch(f"traced must be 'first' or 'second', got {traced!r}")


def matrix_sqrt_psd(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Unique PSD square root, of one matrix or each of a stack; small negative eigenvalues clip to 0."""
    w, v = hermitian_eig(a, tol)
    if w.size and w[..., -1].min() < -10 * tol.atol_equality:
        raise NotPSD(f"eigenvalue {w[..., -1].min():.3e} below -10*atol")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ dagger(v)


def eigenvalue_clusters(values: np.ndarray, gap: float = CLUSTER_GAP) -> list[np.ndarray]:
    """Group sorted-descending values into clusters separated by more than gap.

    Returns index arrays into the input (which must be sorted descending).
    """
    if values.size == 0:
        return []
    groups: list[list[int]] = [[0]]
    for i in range(1, values.size):
        if abs(values[i - 1] - values[i]) > gap:
            groups.append([i])
        else:
            groups[-1].append(i)
    return [np.array(g) for g in groups]
