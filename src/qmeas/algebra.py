"""Fixed-point spaces of instrument duals and their factor decomposition.

The fixed points of the dual total map of an instrument, from the bordered
kernel solves of thirdlaw.cesaro_average, form a unital *-closed space; for
the schemes this package certifies it is an algebra and splits as a direct
sum of factors L(K_alpha) (x) 1_{R_alpha}.  The splitting is computed
numerically from one generic pair x, y of the algebra: the eigenvalue
clusters of x are its minimal projections, y links exactly the clusters of
one block, and the polar factors of y's off-diagonal blocks align a block's
clusters into its factorizer isometry W : K (x) R -> C^d, with
W^dag B W = B_K (x) 1_R for every element B.  Every split is certified on
the whole basis before it is returned.

All random draws come from one seeded generator so results reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Instrument, Observable, State
from .errors import DecompositionMismatch, DegenerateCenter, DimensionMismatch, NotAnAlgebra
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    cut_rank,
    dagger,
    eigenvalue_clusters,
    hermitian_eig,
    hermitianize,
    hs_norm,
    partial_trace,
    rank_cut,
)
from .thirdlaw import FixedPoints, cesaro_average


# ---------------------------------------------------------------------------
# operator spans and fixed-point spaces


def _stack(mats, dim: int) -> np.ndarray:
    """A sequence of dim x dim matrices, or a stack of them, as one (count, dim, dim) array."""
    a = np.array(mats, dtype=np.complex128)
    if a.size and a.shape[-2:] != (dim, dim):
        raise DimensionMismatch(f"expected {dim} x {dim} matrices, got shape {a.shape}")
    return a.reshape(-1, dim, dim)


def _commutators(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a_x, b_y] for every pair from two stacks, indexed [x, y]."""
    return a[:, None] @ b[None] - b[None] @ a[:, None]


@dataclass(frozen=True)
class OperatorSubspace:
    """Complex operator span given by an HS-orthonormal Hermitian basis.

    basis is one (count, dim, dim) array; any sequence of matrices is stacked.
    fixed_points is the record a fixed-point space was read from; decompose uses it.
    """

    dim: int
    basis: np.ndarray
    fixed_points: FixedPoints | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis", _stack(self.basis, self.dim))

    def project(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection of one operator or a stack onto the span."""
        flat = self.basis.reshape(len(self.basis), -1)  # rows vec(B_k)
        coeff = np.reshape(x, (-1, flat.shape[1])) @ flat.conj().T  # <B_k, x>
        return (coeff @ flat).reshape(np.shape(x))

    def __len__(self) -> int:
        return len(self.basis)


def fixed_point_space(instrument: Instrument, tol: Tolerances = DEFAULT_TOL) -> OperatorSubspace:
    """Kernel of (dual total map - id), as cesaro_average's Hermitian basis; the record rides along."""
    fixed = cesaro_average(instrument.total_channel(), tol)
    return OperatorSubspace(instrument.dim, fixed.dual_fixed, fixed)


def verify_algebra(space: OperatorSubspace, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Contains identity (within atol_equality * dim), adjoint- and product-closed (within atol_equality)."""
    eye = np.eye(space.dim, dtype=np.complex128)
    if hs_norm(eye - space.project(eye)) > tol.atol_equality * space.dim:
        return False
    b = space.basis
    products = (b[:, None] @ b[None]).reshape(-1, space.dim, space.dim)
    for x in (dagger(b), products):
        if np.linalg.norm(x - space.project(x), axis=(1, 2)).max() > tol.atol_equality:
            return False
    return True


# ---------------------------------------------------------------------------
# factor decomposition


@dataclass(frozen=True)
class FactorBlock:
    """One summand L(K) (x) 1_R of the fixed-point algebra.

    factorizer maps K (x) R isometrically onto range(projection); omega is
    the block environment state of the Cesaro-averaged instrument, in the
    factorizer's R coordinates (chosen to make omega diagonal descending).
    """

    projection: np.ndarray
    dim_k: int
    dim_r: int
    factorizer: np.ndarray
    omega: State


@dataclass(frozen=True)
class FactorDecomposition:
    space: OperatorSubspace
    blocks: tuple[FactorBlock, ...]
    reconstruction_residual: float


def _block_units(blocks) -> np.ndarray:
    """Images W (e_ij (x) 1_R) W^dag = W_i W_j^dag spanning the reconstructed algebra, stacked;
    W_i is the factorizer's block of columns for K's basis vector i."""
    units = []
    for blk in blocks:
        w = blk.factorizer.reshape(-1, blk.dim_k, blk.dim_r).swapaxes(0, 1)  # (dim_k, d, dim_r)
        units.append((w[:, None] @ dagger(w)[None]).reshape(-1, *blk.projection.shape))
    return np.concatenate(units)


def subspace_distance(mats_a, mats_b, dim: int, tol: Tolerances = DEFAULT_TOL) -> float:
    """Spectral distance between the orthogonal projectors onto two operator spans: 1 for
    different dimensions, else sin of the largest principal angle, ||Q_a - Q_a Q_b^dag Q_b||_2."""
    def rows(mats):
        a = _stack(mats, dim).reshape(-1, dim * dim)  # rows vec(m)
        _, s, vh = np.linalg.svd(a, full_matrices=False)
        return vh[:cut_rank(s, tol)]
    qa, qb = rows(mats_a), rows(mats_b)
    return 1.0 if len(qa) != len(qb) else float(np.linalg.norm(qa - (qa @ dagger(qb)) @ qb, 2))


def _factorizers(space: OperatorSubspace, tol: Tolerances,
                 rng: np.random.Generator) -> list[tuple[np.ndarray, int, int]]:
    """Per block, its factorizer W : K (x) R -> C^d with dim_k and dim_r, from one generic pair.

    A generic element x has one eigenvalue cluster per minimal projection, dim_r columns V_i
    each; a second generic element y links clusters i and j, ||V_i^dag y V_j||_F above
    rank_cut of ||y||_F, exactly when they lie in one block.  A block is the clusters linked
    to its first, V_0; the polar factor of V_0^dag y V_j aligns cluster j's R basis with
    V_0's, and the aligned columns, cluster by cluster, are W in (k, r) order.  The blocks
    are certified: W's side by side form a unitary U, U^dag B U is zero across blocks and
    B_K (x) 1_R within each for every basis element B, and sum dim_k^2 is the span's dimension.
    """
    b, n = space.basis, len(space)
    for _ in range(5):
        x, y = np.tensordot(rng.standard_normal((2, n)), b, axes=1)
        w, v = hermitian_eig(x, tol)
        clusters = eigenvalue_clusters(w, tol)
        yv = dagger(v) @ y @ v
        starts = [idx[0] for idx in clusters]  # clusters are runs of consecutive columns
        links = np.add.reduceat(np.add.reduceat(np.abs(yv) ** 2, starts, 0), starts, 1)
        linked = np.sqrt(links) > rank_cut(np.array(hs_norm(y)), tol)
        facts, free = [], np.ones(len(clusters), dtype=bool)
        for i in range(len(clusters)):
            if not free[i]:
                continue
            free[i] = False
            members = np.flatnonzero(linked[i] & free)
            free[members] = False
            if any(clusters[j].size != clusters[i].size for j in members):
                break
            cols = [v[:, clusters[i]]]
            for j in members:
                a, _, bh = np.linalg.svd(yv[np.ix_(clusters[i], clusters[j])])
                cols.append(v[:, clusters[j]] @ dagger(a @ bh))
            facts.append((np.concatenate(cols, axis=1), len(cols), clusters[i].size))
        else:
            u = np.concatenate([f for f, _, _ in facts], axis=1)
            c, at = dagger(u) @ b @ u, 0
            for _, k, r in facts:  # subtract each diagonal block's B_K (x) 1_R; the rest must vanish
                s = slice(at, at + k * r)
                c_k = partial_trace(c[:, s, s], (k, r), "second") / r
                c[:, s, s].reshape(n, k, r, k, r)[:] -= c_k[:, :, None, :, None] * np.eye(r)[:, None]
                at += k * r
            if (sum(k * k for _, k, _ in facts) == n
                    and np.abs(dagger(u) @ u - np.eye(space.dim)).max() <= tol.atol_equality
                    and np.linalg.norm(c, axis=(1, 2)).max() <= tol.atol_equality):
                return facts
    raise DegenerateCenter("could not split the algebra into certified blocks after resampling")


def decompose(space: OperatorSubspace, instrument: Instrument,
              tol: Tolerances = DEFAULT_TOL, seed: int = 0) -> FactorDecomposition:
    """Split a fixed-point algebra into factors and extract the block states."""
    if not verify_algebra(space, tol):
        raise NotAnAlgebra("span fails identity/adjoint/product closure")
    facts = _factorizers(space, tol, np.random.default_rng(seed))
    rho_av = (space.fixed_points or cesaro_average(instrument.total_channel(), tol)).mixture_limit

    blocks = []
    for fact, dim_k, dim_r in facts:
        omega = partial_trace(dagger(fact) @ rho_av @ fact, (dim_k, dim_r), "first")
        w_om, u_om = hermitian_eig(hermitianize(omega) / np.trace(omega).real, tol)
        # in the eigenbasis u_om of R, omega is diag(w_om)
        rotated = (fact.reshape(-1, dim_k, dim_r) @ u_om).reshape(fact.shape)  # fact (1_K (x) u_om)
        blocks.append(FactorBlock(fact @ dagger(fact), dim_k, dim_r, rotated, State(np.diag(w_om), tol)))

    residual = subspace_distance(_block_units(blocks), space.basis, space.dim, tol)
    return FactorDecomposition(space, tuple(blocks), float(residual))


# ---------------------------------------------------------------------------
# effect blocks


@dataclass(frozen=True)
class EffectBlockDecomposition:
    """Per-outcome, per-block components E_{x,alpha} with E_x = sum_a W(1 (x) E_{x,a})W^dag."""

    outcomes: tuple[str, ...]
    blocks: tuple[tuple[np.ndarray, ...], ...]  # indexed [outcome][block]
    residuals: tuple[float, ...]

    def spectra(self) -> list[list[np.ndarray]]:
        return [[hermitian_eig(b)[0] for b in per_outcome] for per_outcome in self.blocks]


def effect_blocks(observable: Observable, decomposition: FactorDecomposition,
                  tol: Tolerances = DEFAULT_TOL) -> EffectBlockDecomposition:
    """Components of each effect along the factor decomposition.

    Each effect must commute with the fixed-point algebra, in which case it
    is 1_K (x) E_{x,alpha} on every block; the component is recovered by a
    partial trace over K and certified by reconstructing the effect.
    """
    effects = _stack(observable.effects, decomposition.space.dim)
    comms = _commutators(effects, decomposition.space.basis)
    if np.abs(comms).max() > tol.atol_equality:
        raise DecompositionMismatch("effect does not commute with the fixed-point span")
    per_block = []
    rebuilt = np.zeros_like(effects)
    for blk in decomposition.blocks:
        w, k, r = blk.factorizer, blk.dim_k, blk.dim_r
        comps = hermitianize(partial_trace(dagger(w) @ effects @ w, (k, r), "first") / k)
        rebuilt += w @ np.kron(np.eye(k), comps) @ dagger(w)
        per_block.append(comps)
    residuals = np.abs(effects - rebuilt).max(axis=(1, 2))
    if residuals.max() > tol.atol_equality:
        raise DecompositionMismatch(f"effect reconstruction residual {residuals.max():.3e}")
    return EffectBlockDecomposition(observable.outcomes, tuple(zip(*per_block)),
                                    tuple(residuals.tolist()))


def commutant_residual(space: OperatorSubspace, observable: Observable) -> float:
    """Largest commutator norm between a basis element and an effect (F within E')."""
    comms = _commutators(_stack(observable.effects, space.dim), space.basis)
    return float(np.linalg.norm(comms, axis=(2, 3)).max())
