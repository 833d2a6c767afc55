"""States, observables, operations, instruments, and measurement schemes.

Conventions, fixed once for the whole package:

* vectorization is row-major, so vec(ABC) = (A (x) C^T) vec(B);
* the superoperator of a Kraus map rho -> sum_i K_i rho K_i^dag is
  sum_i K_i (x) conj(K_i), acting on row-major vec;
* the Choi matrix is sum_i vec(K_i) vec(K_i)^dag = V^T conj(V), V with rows vec(K_i);
  its rank is the minimal Kraus count, and kraus_from_rows reads such a family off V.

Operator families are stored as one read-only complex128 array of shape
(n, d_out, d_in): Observable.effects and the .kraus of Operation and Channel.
Superoperators and Choi matrices are computed from the Kraus stack on every
access, not stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotCP, ValidationError
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_complex_matrix,
    cut_rank,
    dagger,
    hermitian_eig,
    hs_norm,
    kron,
    matrix_sqrt_psd,
    partial_trace,
    vec,
)

BLOCK_ENTRIES = 2 ** 15  # complex entries (512 KiB) in one row block of a product over a stack


def row_blocks(a: np.ndarray):
    """Consecutive slices of a along axis 0, each of at most BLOCK_ENTRIES entries or one row."""
    c = max(1, BLOCK_ENTRIES // (a.size // len(a)))
    return (a[j:j + c] for j in range(0, len(a), c))


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.complex128)
    a.setflags(write=False)
    return a


def _family(ops, what: str) -> np.ndarray:
    """A non-empty family of equal-shape matrices, given as an array or any iterable,
    as one frozen (n, rows, cols) array."""
    if not isinstance(ops, np.ndarray):
        ops = [np.asarray(o, dtype=np.complex128) for o in ops]
        if len({o.shape for o in ops}) > 1:
            raise DimensionMismatch(f"{what}s differ in shape")
    stack = _freeze(ops)
    if stack.size == 0:
        raise ValidationError(f"need at least one non-empty {what}, got shape {stack.shape}")
    if stack.ndim != 3:
        raise DimensionMismatch(f"{what}s must be 2-d arrays, got a family of shape {stack.shape}")
    return stack


# ---------------------------------------------------------------------------
# value types


@dataclass(frozen=True)
class State:
    """Density matrix: Hermitian, PSD, unit trace."""

    matrix: np.ndarray
    tol: Tolerances = field(default=DEFAULT_TOL, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = as_complex_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise ValidationError(f"state matrix must be square, got {m.shape}")
        w, _ = hermitian_eig(m, self.tol)
        if w[-1] < -self.tol.atol_equality:
            raise ValidationError(f"state has negative eigenvalue {w[-1]:.3e}")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > self.tol.atol_equality * m.shape[0]:
            raise ValidationError(f"state trace {tr!r} is not 1")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @staticmethod
    def complete_mixture(dim: int) -> "State":
        return State(np.eye(dim) / dim)

    @staticmethod
    def pure(vector) -> "State":
        v = np.asarray(vector, dtype=np.complex128).reshape(-1)
        v = v / np.linalg.norm(v)
        return State(np.outer(v, v.conj()))

    @staticmethod
    def diagonal(weights) -> "State":
        return State(np.diag(np.asarray(weights, dtype=np.complex128)))


@dataclass(frozen=True)
class Observable:
    """Discrete POVM: labelled effects, each 0 <= E_x <= 1, summing to identity."""

    effects: np.ndarray  # read-only (n, dim, dim)
    outcomes: tuple[str, ...] = ()
    tol: Tolerances = field(default=DEFAULT_TOL, repr=False, compare=False)

    def __post_init__(self) -> None:
        effects = _family(self.effects, "effect")
        n, d, cols = effects.shape
        if cols != d:
            raise DimensionMismatch(f"effects must be square, got shape {(d, cols)}")
        outcomes = self.outcomes or tuple(str(i) for i in range(n))
        if len(outcomes) != n:
            raise ValidationError("outcome labels do not match effect count")
        if len(set(outcomes)) != n:
            raise ValidationError("outcome labels must be unique")
        atol = self.tol.atol_equality
        w, _ = hermitian_eig(effects, self.tol)
        for label, top, bottom, peak in zip(outcomes, w[:, 0], w[:, -1], np.abs(effects).max(axis=(1, 2))):
            if bottom < -atol or top > 1.0 + atol:
                raise ValidationError(f"effect {label!r} spectrum [{bottom:.3e}, {top:.3e}] leaves [0,1]")
            if peak <= atol:
                raise ValidationError(f"effect {label!r} is the zero matrix")
        if not np.abs(effects.sum(0) - np.eye(d)).max() <= atol * n:
            raise ValidationError("effects do not sum to the identity")
        object.__setattr__(self, "effects", effects)
        object.__setattr__(self, "outcomes", tuple(outcomes))

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    def __len__(self) -> int:
        return len(self.effects)


def _gram(v: np.ndarray) -> np.ndarray:
    """V^T conj(V) = X^T X + Y^T Y + i (Y^T X - X^T Y) for V = X + iY, from one real syrk, copy-free."""
    r = v.view(np.float64)  # columns Re, Im interleaved
    g = r.T @ r
    return g[0::2, 0::2] + g[1::2, 1::2] + 1j * (g[1::2, 0::2] - g[0::2, 1::2])


class _KrausMap:
    """Shared behaviour of Operation and Channel (Kraus-represented CP maps)."""

    kraus: np.ndarray  # read-only (count, dim_out, dim_in)

    @property
    def dim_in(self) -> int:
        return self.kraus.shape[2]

    @property
    def dim_out(self) -> int:
        return self.kraus.shape[1]

    def _kraus_sum(self) -> np.ndarray:
        """sum K^dag K, the conjugate of the stacked Kraus rows' _gram."""
        return _gram(self.kraus.reshape(-1, self.dim_in)).conj()

    @property
    def choi(self) -> np.ndarray:
        """V^T conj(V), where the rows of V are the vec(K_i)."""
        v = self.kraus.reshape(len(self.kraus), -1)
        return v.T @ v.conj()

    @property
    def superoperator(self) -> np.ndarray:
        """Matrix acting on row-major vec(rho): the reshuffled Choi matrix."""
        return _reshuffle(self.choi, self.dim_out, self.dim_in, self.dim_out, self.dim_in)

    @property
    def dual_superoperator(self) -> np.ndarray:
        """Matrix of the Heisenberg-picture map A -> sum K^dag A K."""
        return dagger(self.superoperator)


@dataclass(frozen=True)
class Operation(_KrausMap):
    """Trace-non-increasing CP map in Kraus form."""

    kraus: np.ndarray
    tol: Tolerances = field(default=DEFAULT_TOL, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kraus", _family(self.kraus, "Kraus operator"))
        w, _ = hermitian_eig(self._kraus_sum(), self.tol)
        if not w[0] <= 1.0 + self.tol.atol_equality * len(self.kraus):
            raise ValidationError(f"sum K^dag K has eigenvalue {w[0]:.12f} > 1")


@dataclass(frozen=True)
class Channel(_KrausMap):
    """Trace-preserving CP map in Kraus form."""

    kraus: np.ndarray
    tol: Tolerances = field(default=DEFAULT_TOL, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kraus", _family(self.kraus, "Kraus operator"))
        dev = np.abs(self._kraus_sum() - np.eye(self.dim_in)).max()
        if not dev <= self.tol.atol_equality * max(1, len(self.kraus)):
            raise ValidationError(f"sum K^dag K deviates from identity by {dev:.3e}")

    @staticmethod
    def unitary(u) -> "Channel":
        return Channel((as_complex_matrix(u),))

    @staticmethod
    def identity(dim: int) -> "Channel":
        return Channel((np.eye(dim, dtype=np.complex128),))


@dataclass(frozen=True)
class Instrument:
    """Outcome-indexed operations on one space whose total is a channel.

    Construction builds and validates the induced observable E_x = I_x^*(1)
    and keeps it; its sum-to-identity check is the check that the total is a
    channel, and it supplies the default outcome labels.
    """

    operations: tuple[Operation, ...]
    outcomes: tuple[str, ...] = ()
    tol: Tolerances = field(default=DEFAULT_TOL, repr=False, compare=False)

    def __post_init__(self) -> None:
        ops = tuple(self.operations)
        if not ops:
            raise ValidationError("instrument needs at least one operation")
        d = ops[0].dim_in
        for op in ops:
            if op.dim_in != d or op.dim_out != d:
                raise DimensionMismatch("instrument operations must share one endomorphic dimension")
        observable = Observable([op._kraus_sum() for op in ops], self.outcomes, self.tol)
        object.__setattr__(self, "operations", ops)
        object.__setattr__(self, "outcomes", observable.outcomes)
        object.__setattr__(self, "_observable", observable)

    @property
    def dim(self) -> int:
        return self.operations[0].dim_in

    def __len__(self) -> int:
        return len(self.operations)

    def induced_observable(self) -> Observable:
        """E_x = I_x^*(1), the observable the instrument measures."""
        return self._observable

    def total_channel(self) -> Channel:
        return Channel(np.concatenate([op.kraus for op in self.operations]), self.tol)


@dataclass(frozen=True)
class MeasurementScheme:
    """Ancilla state, interaction channel on system (x) ancilla, pointer observable."""

    system_dim: int
    ancilla: State
    interaction: Channel
    pointer: Observable

    def __post_init__(self) -> None:
        d = self.system_dim * self.ancilla.dim
        if self.interaction.dim_in != d or self.interaction.dim_out != d:
            raise DimensionMismatch(
                f"interaction acts on dimension {self.interaction.dim_in}, expected {d}"
            )
        if self.pointer.dim != self.ancilla.dim:
            raise DimensionMismatch("pointer observable must live on the ancilla")

    @property
    def ancilla_dim(self) -> int:
        return self.ancilla.dim

    @property
    def outcomes(self) -> tuple[str, ...]:
        return self.pointer.outcomes


# ---------------------------------------------------------------------------
# applying maps


def _as_matrix(x) -> np.ndarray:
    return x.matrix if isinstance(x, State) else np.asarray(x, dtype=np.complex128)


def _operands(x, dim: int) -> np.ndarray:
    """One operator or an (n, dim, dim) stack of them, as complex128."""
    m = _as_matrix(x)
    if m.ndim not in (2, 3) or m.shape[-2:] != (dim, dim):
        raise DimensionMismatch(f"input shape {m.shape} is not ({dim}, {dim}) or (n, {dim}, {dim})")
    return m


def _sandwich(kraus: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_i K_i m K_i^dag (m one operator or a stack) as [K_1 ... K_c] (1_c (x) m) [K_1 ... K_c]^dag
    per row block: one product of the stacked K_i with m, one with the block's dagger."""
    out = 0
    for k in row_blocks(kraus):
        c, d_out, d_in = k.shape
        km = (k.reshape(-1, d_in) @ m).reshape(m.shape[:-2] + k.shape)  # [..., i] = K_i m
        row = km.swapaxes(-3, -2).reshape(m.shape[:-2] + (d_out, c * d_in))  # [K_1 m ... K_c m]
        out = out + row @ k.transpose(0, 2, 1).reshape(c * d_in, d_out).conj()  # [K_1 ... K_c]^dag
    return out


def apply(op: _KrausMap, rho) -> np.ndarray:
    """Schroedinger action sum_i K_i rho K_i^dag, on one operator or a stack."""
    return _sandwich(op.kraus, _operands(rho, op.dim_in))


def apply_dual(op: _KrausMap, a) -> np.ndarray:
    """Heisenberg action sum_i K_i^dag A K_i, on one operator or a stack."""
    return _sandwich(dagger(op.kraus), _operands(a, op.dim_out))


def compose(after: _KrausMap, before: _KrausMap):
    """Composition after . before, with all pairwise Kraus products, at after's tolerances."""
    if before.dim_out != after.dim_in:
        raise DimensionMismatch("composition dimensions do not match")
    ks = (after.kraus[:, None] @ before.kraus[None]).reshape(-1, after.dim_out, before.dim_in)
    cls = Channel if isinstance(after, Channel) and isinstance(before, Channel) else Operation
    return cls(ks, after.tol)


# ---------------------------------------------------------------------------
# representation changes


def _reshuffle(m: np.ndarray, a: int, b: int, c: int, e: int) -> np.ndarray:
    """Entries m[(a b), (c e)] realigned as [(a c), (b e)]; Choi <-> superoperator."""
    return m.reshape(a, b, c, e).transpose(0, 2, 1, 3).reshape(a * c, b * e)


def kraus_from_choi(choi: np.ndarray, dim_out: int, dim_in: int,
                    tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Minimal Kraus family, stacked, from a Choi matrix.

    Eigenvalues at or below rank_cut are discarded;
    an eigenvalue below -10*atol means the map is not CP.
    """
    c = as_complex_matrix(choi)
    if c.shape != (dim_out * dim_in, dim_out * dim_in):
        raise DimensionMismatch("Choi matrix shape does not match dims")
    w, v = hermitian_eig(c, tol)
    if w[-1] < -10 * tol.atol_equality:
        raise NotCP(f"Choi eigenvalue {w[-1]:.3e}")
    r = cut_rank(w, tol)
    if not r:
        raise NotCP("Choi matrix is numerically zero")
    return (v[:, :r] * np.sqrt(w[:r])).T.reshape(r, dim_out, dim_in)  # rows sqrt(w_i) vec(K_i)


def kraus_from_rows(v: np.ndarray, dim_out: int, dim_in: int,
                    tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Minimal Kraus family, stacked, of the map whose Kraus operators have the rows vec(K_i) of v.

    Choi = V^T conj(V): its eigenpairs are V's squared singular values and right singular
    vectors, so a thin SVD of V replaces kraus_from_choi's eigh of the D x D Choi matrix.
    """
    _, s, vh = np.linalg.svd(v, full_matrices=False)
    r = cut_rank(s * s, tol)
    if not r:
        raise NotCP("Kraus rows are numerically zero")
    return (s[:r, None] * vh[:r]).reshape(r, dim_out, dim_in)


def superop_distance(a: _KrausMap, b: _KrausMap) -> float:
    """Frobenius distance between superoperator matrices (representation-free)."""
    return hs_norm(a.superoperator - b.superoperator)


# ---------------------------------------------------------------------------
# instruments from observables and schemes


def measure_prepare_kraus(pairs, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Kraus operators sqrt(g s) |s><g| of rho -> sum_i tr[G_i rho] sigma_i, for pairs (G_i, sigma_i).

    (g, |g>) and (s, |s>) run over the eigenpairs of the PSD G_i and sigma_i that cut_rank counts.
    """
    g_ops, sigmas = zip(*pairs)
    g, gv = hermitian_eig(np.array(g_ops, dtype=np.complex128), tol)
    s, sv = hermitian_eig(np.array([_as_matrix(x) for x in sigmas]), tol)
    families = []
    for gx, gvx, sx, svx in zip(g, gv, s, sv):
        m, n = cut_rank(gx, tol), cut_rank(sx, tol)
        kets, bras = svx[:, :n].T, gvx[:, :m].conj().T  # rows |s_j>, <g_i|
        outers = kets[None, :, :, None] * bras[:, None, None, :]  # [i, j] = |s_j><g_i|
        amplitudes = np.sqrt(gx[:m, None] * sx[:n])[:, :, None, None]
        families.append((amplitudes * outers).reshape(m * n, len(svx), len(gvx)))
    return np.concatenate(families)


def luders_instrument(observable: Observable, tol: Tolerances = DEFAULT_TOL) -> Instrument:
    """Instrument with single Kraus sqrt(E_x) per outcome."""
    ops = tuple(Operation((root,), tol) for root in matrix_sqrt_psd(observable.effects, tol))
    return Instrument(ops, observable.outcomes, tol)


def restriction_map(b: np.ndarray, xi: State, system_dim: int) -> np.ndarray:
    """Gamma_xi(B) on the system, defined by tr[Gamma_xi(B) rho] = tr[B (rho (x) xi)].

    Evaluates to tr_A[B (1 (x) xi)]; implemented directly from that identity.
    """
    b = as_complex_matrix(b)
    d = system_dim * xi.dim
    if b.shape != (d, d):
        raise DimensionMismatch(f"operator shape {b.shape} does not match compound dim {d}")
    return partial_trace(b @ kron(np.eye(system_dim), xi.matrix), (system_dim, xi.dim), "second")


def scheme_to_instrument(scheme: MeasurementScheme, tol: Tolerances = DEFAULT_TOL) -> Instrument:
    """Instrument I_x(rho) = tr_A[(1 (x) Z_x) E(rho (x) xi)] with minimal Kraus forms.

    I_x has the Kraus operators (1 (x) <r|) K_i (1 (x) sqrt(xi) |q>), for the
    interaction's K_i, an ancilla basis vector q and each row <r| of sqrt(Z_x): the rows
    V_x[(r q i), (s t)] = sum_ab sqrt(Z_x)[r, a] K_i[(s a), (t b)] sqrt(xi)[b, q], one GEMM of
    G[(x r q), (a b)] = sqrt(Z_x)[r, a] sqrt(xi)[b, q] per block of the K_i.
    kraus_from_rows reduces at most ds^2 rows; more are reduced by kraus_from_choi
    from their Choi matrix V_x^T conj(V_x), a real Gram product summed over the blocks.
    """
    ds, da = scheme.system_dim, scheme.ancilla_dim
    kraus = scheme.interaction.kraus.reshape(-1, ds, da, ds, da)  # K_i[(s a), (t b)]
    roots = matrix_sqrt_psd(scheme.pointer.effects, tol)
    g = np.einsum("xra,bq->xrqab", roots, matrix_sqrt_psd(scheme.ancilla.matrix, tol)).reshape(-1, da * da)
    blocks = ((g @ k.transpose(2, 4, 0, 1, 3).reshape(da * da, -1)).reshape(len(roots), -1, ds * ds)
              for k in row_blocks(kraus))  # each block's K_i as [(a b), (i s t)]; V_x stacked over x
    if len(kraus) * da * da <= ds * ds:
        families = [kraus_from_rows(v, ds, ds, tol) for v in np.concatenate(list(blocks), axis=1)]
    else:
        chois = sum(np.stack([_gram(v) for v in vs]) for vs in blocks)
        families = [kraus_from_choi(choi, ds, ds, tol) for choi in chois]
    return Instrument(tuple(Operation(ks, tol) for ks in families), scheme.pointer.outcomes, tol)


def scheme_dual_superoperator(scheme: MeasurementScheme, outcome_index: int) -> np.ndarray:
    """Superoperator of I_x^* built as Gamma_xi . E^* (. (x) Z_x).

    Cross-check route for scheme_to_instrument; the factorization through
    the restriction map is the defining identity of the induced instrument.
    """
    ds = scheme.system_dim
    z = scheme.pointer.effects[outcome_index]
    cols = []
    for a in range(ds):
        for b in range(ds):
            unit = np.zeros((ds, ds), dtype=np.complex128)
            unit[a, b] = 1.0
            lifted = apply_dual(scheme.interaction, kron(unit, z))
            cols.append(vec(restriction_map(lifted, scheme.ancilla, ds)))
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# state comparison


def fidelity(rho, sigma, tol: Tolerances = DEFAULT_TOL) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    r, s = _as_matrix(rho), _as_matrix(sigma)
    root = matrix_sqrt_psd(r, tol)
    inner = matrix_sqrt_psd(root @ s @ root, tol)
    return float(np.trace(inner).real ** 2)
