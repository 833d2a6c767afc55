"""States, observables, operations, instruments, and measurement schemes.

Conventions, fixed once for the whole package:

* vectorization is row-major, so vec(ABC) = (A (x) C^T) vec(B);
* the superoperator of a Kraus map rho -> sum_i K_i rho K_i^dag is
  sum_i K_i (x) conj(K_i), acting on row-major vec;
* the Choi matrix is sum_i vec(K_i) vec(K_i)^dag = V^T conj(V), V with rows vec(K_i);
  its rank is the minimal Kraus count, and kraus_from_rows reads such a family off V.

Operator families are stored as one read-only complex128 array of shape
(n, d_out, d_in): Observable.effects and the .kraus of Operation and Channel.
A read-only C-contiguous complex128 array over memory no writeable array owns is
stored as given, any other input copied once.  Each family is eigendecomposed once, as validated:
State and Observable keep those eigenpairs (eig), and an Instrument keeps its induced observable,
whose one stacked eigh checks every outcome's sum K^dag K.  Superoperators and Choi matrices are
computed from the Kraus stack on every access, not stored.  The Kraus reductions drop only
round-off (float_rank), so each builds the map it was given; rank_cut is for verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotCP, ValidationError
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_complex_matrix,
    dagger,
    float_rank,
    hermitian_eig,
    hs_norm,
    matrix_sqrt_psd,
    partial_trace,
    psd_root,
)

BLOCK_ENTRIES = 2 ** 15  # complex entries (512 KiB) in one row block of a product over a stack


def row_blocks(a: np.ndarray, copies: int = 1):
    """Consecutive slices of a along axis 0, each of at most BLOCK_ENTRIES entries or one row,
    counting each entry copies times (at least once): a product of a block with a stack of that
    many operands."""
    c = max(1, BLOCK_ENTRIES // (max(1, copies) * (a.size // len(a))))
    return (a[j:j + c] for j in range(0, len(a), c))


def _freeze(a) -> np.ndarray:
    """a itself when it is a read-only C-contiguous complex128 array over memory that no writeable
    array owns (its own, or that of the read-only array it views); else a read-only copy."""
    owner = a.base if isinstance(a, np.ndarray) and a.base is not None else a
    if not (isinstance(owner, np.ndarray) and owner.flags.owndata and not owner.flags.writeable
            and a.dtype == np.complex128 and a.flags.c_contiguous):
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


class _Spectral:
    """Shared by State and Observable, which keep their validation's hermitian_eig pairs read-only."""

    def eig(self, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
        """hermitian_eig(matrix or effects, tol): the kept pairs, unless tol's atol_equality is finer
        than the one validated at; then hermitian_eig runs again, so the Hermiticity gate is tol's."""
        operators, w, v = self._eig
        return hermitian_eig(operators, tol) if tol.atol_equality < self.tol.atol_equality else (w, v)


@dataclass(frozen=True)
class State(_Spectral):
    """Density matrix: Hermitian, PSD, unit trace."""

    matrix: np.ndarray
    tol: Tolerances = field(default=DEFAULT_TOL, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = _freeze(as_complex_matrix(self.matrix))
        if m.shape[0] != m.shape[1]:
            raise ValidationError(f"state matrix must be square, got {m.shape}")
        w, v = hermitian_eig(m, self.tol)
        if w[-1] < -self.tol.atol_equality:
            raise ValidationError(f"state has negative eigenvalue {w[-1]:.3e}")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > self.tol.atol_equality:
            raise ValidationError(f"state trace {tr!r} is not 1")
        w.flags.writeable = v.flags.writeable = False
        self.__dict__.update(matrix=m, _eig=(m, w, v))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @staticmethod
    def complete_mixture(dim: int, tol: Tolerances = DEFAULT_TOL) -> "State":
        return State(np.eye(dim) / dim, tol)

    @staticmethod
    def pure(vector, tol: Tolerances = DEFAULT_TOL) -> "State":
        v = np.asarray(vector, dtype=np.complex128).reshape(-1)
        v = v / np.linalg.norm(v)
        return State(np.outer(v, v.conj()), tol)

    @staticmethod
    def diagonal(weights, tol: Tolerances = DEFAULT_TOL) -> "State":
        return State(np.diag(np.asarray(weights, dtype=np.complex128)), tol)


@dataclass(frozen=True)
class Observable(_Spectral):
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
        w, v = hermitian_eig(effects, self.tol)
        for label, top, bottom, peak in zip(outcomes, w[:, 0], w[:, -1], np.abs(effects).max(axis=(1, 2))):
            if bottom < -atol or top > 1.0 + atol:
                raise ValidationError(f"effect {label!r} spectrum [{bottom:.12g}, {top:.12g}] leaves [0,1]")
            if peak <= atol:
                raise ValidationError(f"effect {label!r} is the zero matrix")
        if not np.abs(effects.sum(0) - np.eye(d)).max() <= atol:
            raise ValidationError("effects do not sum to the identity")
        w.flags.writeable = v.flags.writeable = False
        self.__dict__.update(effects=effects, outcomes=tuple(outcomes), _eig=(effects, w, v))

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

    @classmethod
    def measure_prepare(cls, pairs, tol: Tolerances = DEFAULT_TOL):
        """rho -> sum_i tr[G_i rho] sigma_i, with the Kraus operators of measure_prepare_kraus."""
        return cls(measure_prepare_kraus(pairs, tol), tol)

    @property
    def choi(self) -> np.ndarray:
        """V^T conj(V), where the rows of V are the vec(K_i)."""
        v = self.kraus.reshape(len(self.kraus), -1)
        return v.T @ v.conj()

    @property
    def superoperator(self) -> np.ndarray:
        """Matrix acting on row-major vec(rho): the Choi matrix's entry [(a b), (c e)] at [(a c), (b e)]."""
        do, di = self.dim_out, self.dim_in
        return self.choi.reshape(do, di, do, di).transpose(0, 2, 1, 3).reshape(do * do, di * di)

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
        if not w[0] <= 1.0 + self.tol.atol_equality:
            raise ValidationError(f"sum K^dag K has eigenvalue {w[0]:.12f} > 1")


@dataclass(frozen=True)
class Channel(_KrausMap):
    """Trace-preserving CP map in Kraus form."""

    kraus: np.ndarray
    tol: Tolerances = field(default=DEFAULT_TOL, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kraus", _family(self.kraus, "Kraus operator"))
        dev = np.abs(self._kraus_sum() - np.eye(self.dim_in)).max()
        if not dev <= self.tol.atol_equality:
            raise ValidationError(f"sum K^dag K deviates from identity by {dev:.3e}")

    @staticmethod
    def unitary(u, tol: Tolerances = DEFAULT_TOL) -> "Channel":
        return Channel((as_complex_matrix(u),), tol)

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
        self.__dict__.update(operations=ops, outcomes=observable.outcomes, _observable=observable)

    @classmethod
    def from_kraus(cls, families, outcomes: tuple = (), tol: Tolerances = DEFAULT_TOL) -> "Instrument":
        """One Kraus family per outcome.  The operations skip Operation's own check, which the induced
        observable's one stacked eigh makes for all: it cuts each sum K^dag K at 1 + atol_equality."""
        ops = []
        for kraus in families:
            ops.append(object.__new__(Operation))
            ops[-1].__dict__.update(kraus=_family(kraus, "Kraus operator"), tol=tol)
        return cls(tuple(ops), outcomes, tol)

    @property
    def dim(self) -> int:
        return self.operations[0].dim_in

    def __len__(self) -> int:
        return len(self.operations)

    def induced_observable(self) -> Observable:
        """E_x = I_x^*(1), the observable the instrument measures."""
        return self._observable

    def total_channel(self) -> Channel:
        kraus = np.concatenate([op.kraus for op in self.operations])
        kraus.setflags(write=False)
        return Channel(kraus, self.tol)


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


def _sandwich(kraus: np.ndarray, m: np.ndarray, dual: bool = False) -> np.ndarray:
    """sum_i K_i m K_i^dag (m one operator or a stack) as [K_1 ... K_c] (1_c (x) m) [K_1 ... K_c]^dag
    per row block: one product of the stacked K_i with m, one with the block's dagger.
    A block's temporaries hold one copy of it per operand, so blocks shrink as the stack grows;
    dual daggers each block, giving sum_i K_i^dag m K_i."""
    out = 0
    for k in row_blocks(kraus, m[..., 0, 0].size):
        k = dagger(k) if dual else k
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
    return _sandwich(op.kraus, _operands(a, op.dim_out), dual=True)


def compose(after: _KrausMap, before: _KrausMap):
    """Composition after . before, with all pairwise Kraus products, at after's tolerances."""
    if before.dim_out != after.dim_in:
        raise DimensionMismatch("composition dimensions do not match")
    ks = after.kraus[:, None] @ before.kraus[None]
    ks.setflags(write=False)
    cls = Channel if isinstance(after, Channel) and isinstance(before, Channel) else Operation
    return cls(ks.reshape(-1, after.dim_out, before.dim_in), after.tol)


# ---------------------------------------------------------------------------
# representation changes


def kraus_from_choi(choi: np.ndarray, dim_out: int, dim_in: int, tol: Tolerances = DEFAULT_TOL):
    """Minimal Kraus family, stacked in descending norm, from a Choi matrix; from an (n, D, D)
    stack of them, the list of their families, from one eigh.

    Eigenvalues w at the float_rank floor are round-off and discarded;
    an eigenvalue below -atol_equality means the map is not CP.
    """
    c, size = np.asarray(choi, dtype=np.complex128), dim_out * dim_in
    if c.ndim not in (2, 3) or c.shape[-2:] != (size, size):
        raise DimensionMismatch("Choi matrix shape does not match dims")
    w, v = hermitian_eig(c, tol)
    if w[..., -1].min() < -tol.atol_equality:
        raise NotCP(f"Choi eigenvalue {w[..., -1].min():.3e}")
    families = []
    for wx, vx in zip(w.reshape(-1, size), v.reshape(-1, size, size)):
        r = float_rank(wx, size)
        if not r:
            raise NotCP("Choi matrix is numerically zero")
        families.append((vx[:, :r] * np.sqrt(wx[:r])).T.reshape(r, dim_out, dim_in))
    return families if c.ndim == 3 else families[0]


def kraus_from_rows(v: np.ndarray, dim_out: int, dim_in: int):
    """Minimal Kraus family, stacked in descending norm, of the map with Kraus rows vec(K_i) in v;
    for an (n, rows, D) stack of such v, the list of their families, from one SVD.

    Choi = V^T conj(V): its eigenpairs are V's squared singular values and right singular
    vectors, so a thin SVD of V replaces kraus_from_choi's eigh of the D x D Choi matrix.
    The floor applies to those eigenvalues s^2: the root of a round-off s^2 is no Kraus operator.
    """
    _, s, vh = np.linalg.svd(v, full_matrices=False)
    families = []
    for sx, vhx in zip(s.reshape(-1, s.shape[-1]), vh.reshape((-1,) + vh.shape[-2:])):
        r = float_rank(sx * sx, max(v.shape[-2:]))
        if not r:
            raise NotCP("Kraus rows are numerically zero")
        families.append((sx[:r, None] * vhx[:r]).reshape(r, dim_out, dim_in))
    return families if v.ndim == 3 else families[0]


def superop_distance(a: _KrausMap, b: _KrausMap) -> float:
    """Frobenius distance between superoperator matrices (representation-free)."""
    return hs_norm(a.superoperator - b.superoperator)


# ---------------------------------------------------------------------------
# instruments from observables and schemes


def measure_prepare_kraus(pairs, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Kraus operators sqrt(g s) |s><g| of rho -> sum_i tr[G_i rho] sigma_i, for pairs (G_i, sigma_i).

    (g, |g>) and (s, |s>) run over the eigenpairs of the PSD G_i and sigma_i above the float_rank floor.
    """
    g_ops, sigmas = zip(*pairs)
    g, gv = hermitian_eig(np.array(g_ops, dtype=np.complex128), tol)
    s, sv = hermitian_eig(np.array([_as_matrix(x) for x in sigmas]), tol)
    families = []
    for gx, gvx, sx, svx in zip(g, gv, s, sv):
        m, n = float_rank(gx, len(gx)), float_rank(sx, len(sx))
        kets, bras = svx[:, :n].T, gvx[:, :m].conj().T  # rows |s_j>, <g_i|
        outers = kets[None, :, :, None] * bras[:, None, None, :]  # [i, j] = |s_j><g_i|
        amplitudes = np.sqrt(gx[:m, None] * sx[:n])[:, :, None, None]
        families.append((amplitudes * outers).reshape(m * n, len(svx), len(gvx)))
    return np.concatenate(families)


def luders_instrument(observable: Observable, tol: Tolerances = DEFAULT_TOL) -> Instrument:
    """Instrument with single Kraus sqrt(E_x) per outcome."""
    return Instrument.from_kraus(psd_root(*observable.eig(tol), tol)[:, None], observable.outcomes, tol)


def restriction_map(b: np.ndarray, xi: State, system_dim: int) -> np.ndarray:
    """Gamma_xi(B) on the system, defined by tr[Gamma_xi(B) rho] = tr[B (rho (x) xi)],
    of one operator or each of an (n, d, d) stack.

    Evaluates to tr_A[B (1 (x) xi)]; implemented directly from that identity.
    """
    b = _operands(b, system_dim * xi.dim)
    return partial_trace(b @ np.kron(np.eye(system_dim), xi.matrix), (system_dim, xi.dim), "second")


def scheme_to_instrument(scheme: MeasurementScheme, tol: Tolerances = DEFAULT_TOL) -> Instrument:
    """Instrument I_x(rho) = tr_A[(1 (x) Z_x) E(rho (x) xi)] with minimal Kraus forms.

    I_x has the Kraus operators (1 (x) <r|) K_i (1 (x) sqrt(xi) |q>), for the
    interaction's K_i, an ancilla basis vector q and each row <r| of sqrt(Z_x): the rows
    V_x[(r q i), (s t)] = sum_ab sqrt(Z_x)[r, a] K_i[(s a), (t b)] sqrt(xi)[b, q], one GEMM of
    G[(x r q), (a b)] = sqrt(Z_x)[r, a] sqrt(xi)[b, q] per block of the K_i.
    kraus_from_rows reduces at most ds^2 rows; more are reduced by kraus_from_choi
    from their Choi matrix V_x^T conj(V_x), a real Gram product summed over the blocks.
    An outcome with tr E_x = |V_x|_F^2 = tr Choi_x <= atol_equality never occurs: rejected, unreduced.
    """
    ds, da = scheme.system_dim, scheme.ancilla_dim
    kraus = scheme.interaction.kraus.reshape(-1, ds, da, ds, da)  # K_i[(s a), (t b)]
    roots = psd_root(*scheme.pointer.eig(tol), tol)
    g = np.einsum("xra,bq->xrqab", roots, psd_root(*scheme.ancilla.eig(tol), tol)).reshape(-1, da * da)
    blocks = ((g @ k.transpose(2, 4, 0, 1, 3).reshape(da * da, -1)).reshape(len(roots), -1, ds * ds)
              for k in row_blocks(kraus))  # each block's K_i as [(a b), (i s t)]; V_x stacked over x
    if len(kraus) * da * da <= ds * ds:
        inputs = np.concatenate(list(blocks), axis=1)
        weights, reduce = np.linalg.norm(inputs, axis=(1, 2)) ** 2, lambda v: kraus_from_rows(v, ds, ds)
    else:
        inputs = sum(np.stack([_gram(v) for v in vs]) for vs in blocks)
        weights, reduce = np.trace(inputs, axis1=1, axis2=2).real, lambda c: kraus_from_choi(c, ds, ds, tol)
    for label, weight in zip(scheme.pointer.outcomes, weights):
        if not weight > tol.atol_equality:
            raise ValidationError(f"outcome {label!r} never occurs: its induced effect is zero")
    return Instrument.from_kraus(reduce(inputs), scheme.pointer.outcomes, tol)


def scheme_dual_superoperator(scheme: MeasurementScheme, outcome_index: int) -> np.ndarray:
    """Superoperator of I_x^* built as Gamma_xi . E^* (. (x) Z_x).

    Cross-check route for scheme_to_instrument; the factorization through
    the restriction map is the defining identity of the induced instrument.
    """
    ds = scheme.system_dim
    units = np.eye(ds * ds, dtype=np.complex128).reshape(-1, ds, ds)  # the matrix units e_ab
    lifted = apply_dual(scheme.interaction, np.kron(units, scheme.pointer.effects[outcome_index]))
    # column ab of the superoperator is vec of unit ab's image
    return restriction_map(lifted, scheme.ancilla, ds).reshape(ds * ds, -1).T


# ---------------------------------------------------------------------------
# state comparison


def fidelity(rho, sigma, tol: Tolerances = DEFAULT_TOL) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    r, s = _as_matrix(rho), _as_matrix(sigma)
    root = matrix_sqrt_psd(r, tol)
    inner = matrix_sqrt_psd(root @ s @ root, tol)
    return float(np.trace(inner).real ** 2)
