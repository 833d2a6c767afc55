"""Fixed-point spaces of instrument duals and their factor decomposition.

The fixed points of the dual total map of an instrument, from the bordered
kernel solves of thirdlaw.cesaro_average, form a unital *-closed space; for
the schemes this package certifies it is an algebra and splits as a direct
sum of factors L(K_alpha) (x) 1_{R_alpha}.  The splitting is computed
numerically: eigenvalue clustering of a generic central element gives each
block's orthonormal columns Q (its minimal central projection is Q Q^dag).
Each block is split in those coordinates, on the algebra Q^dag A Q: a generic
element's clusters, aligned by the polar factors of a second element's
off-diagonal blocks, form a unitary U with U^dag B U = B_K (x) 1_R, and the
factorizer isometry W : K (x) R -> range(Q) is Q U.

All random draws come from one seeded generator so results reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .core import Instrument, Observable, State
from .errors import DecompositionMismatch, DegenerateCenter, DimensionMismatch, NotAnAlgebra
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    cut_rank,
    dagger,
    eigenvalue_clusters,
    embed_hermitian,
    hermitian_eig,
    hermitianize,
    hs_norm,
    kernel_basis,
    partial_trace,
    rank_cut,
    unembed_hermitian,
)
from .thirdlaw import FixedPoints, cesaro_average


# ---------------------------------------------------------------------------
# Hermitian bases for *-closed spans


def _stack(mats, dim: int) -> np.ndarray:
    """A sequence of dim x dim matrices, or a stack of them, as one (count, dim, dim) array."""
    a = np.array(mats, dtype=np.complex128)
    if a.size and a.shape[-2:] != (dim, dim):
        raise DimensionMismatch(f"expected {dim} x {dim} matrices, got shape {a.shape}")
    return a.reshape(-1, dim, dim)


def _commutators(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a_x, b_y] for every pair from two stacks, indexed [x, y]."""
    return a[:, None] @ b[None] - b[None] @ a[:, None]


def hermitian_basis(mats, dim: int, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """HS-orthonormal Hermitian basis, stacked, of the *-closed complex span of mats."""
    m = _stack(mats, dim)
    rows = embed_hermitian(np.stack([hermitianize(m), (m - dagger(m)) / 2j], axis=1))
    _, s, vh = np.linalg.svd(rows.reshape(-1, dim * dim), full_matrices=False)
    return unembed_hermitian(vh[:cut_rank(s, tol)], dim)


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
    """Images W (e_ij (x) 1_R) W^dag spanning the reconstructed algebra, stacked."""
    return np.concatenate([
        blk.factorizer @ np.kron(np.eye(blk.dim_k ** 2).reshape(-1, blk.dim_k, blk.dim_k),
                                 np.eye(blk.dim_r)) @ dagger(blk.factorizer)
        for blk in blocks
    ])


def subspace_distance(mats_a, mats_b, dim: int, tol: Tolerances = DEFAULT_TOL) -> float:
    """Spectral distance between the orthogonal projectors onto two operator spans: 1 for
    different dimensions, else sin of the largest principal angle, ||Q_a - Q_a Q_b^dag Q_b||_2."""
    def rows(mats):
        a = _stack(mats, dim).reshape(-1, dim * dim)  # rows vec(m)
        _, s, vh = np.linalg.svd(a, full_matrices=False)
        return vh[:cut_rank(s, tol)]
    qa, qb = rows(mats_a), rows(mats_b)
    return 1.0 if len(qa) != len(qb) else float(np.linalg.norm(qa - (qa @ dagger(qb)) @ qb, 2))


def _center_basis(space: OperatorSubspace, tol: Tolerances) -> np.ndarray:
    """Hermitian basis of the center: elements commuting with every basis matrix."""
    b = space.basis
    # row (y, i, k), column x: entry [B_x, B_y]_ik, so the kernel holds the central coefficients
    commutator_map = np.moveaxis(_commutators(b, b), 0, -1).reshape(-1, len(b))
    coeff = kernel_basis(commutator_map, tol)
    return hermitian_basis(np.tensordot(coeff.T, b, axes=1), space.dim, tol)


def _central_frames(center: np.ndarray, tol: Tolerances,
                    rng: np.random.Generator) -> list[np.ndarray]:
    """Cluster the spectrum of a generic central element; per block, the orthonormal
    columns Q of one cluster, whose minimal central projection is Q Q^dag."""
    z = len(center)
    for _ in range(5):
        w, v = hermitian_eig(np.tensordot(rng.standard_normal(z), center, axes=1), tol)
        clusters = eigenvalue_clusters(w, tol)
        if len(clusters) == z:
            return [v[:, idx] for idx in clusters]
    raise DegenerateCenter(f"could not separate {z} blocks after resampling")


def _block_unitary(block_basis: np.ndarray, dim_k: int, dim_r: int, tol: Tolerances,
                   rng: np.random.Generator) -> np.ndarray:
    """Unitary U on C^rank with U^dag B U = B_K (x) 1_R for every block basis element B.

    A generic element x has dim_k eigenvalue clusters of dim_r columns V_i; the polar
    factor of V_0^dag y V_i, for a second generic element y, aligns cluster i's R basis
    with cluster 0's, and the aligned columns, cluster by cluster, are U in (k, r) order.
    """
    rank, n = dim_k * dim_r, len(block_basis)
    for _ in range(5):
        w, v = hermitian_eig(np.tensordot(rng.standard_normal(n), block_basis, axes=1), tol)
        clusters = eigenvalue_clusters(w, tol)
        if len(clusters) != dim_k or any(idx.size != dim_r for idx in clusters):
            continue
        frames = np.stack([v[:, idx] for idx in clusters])  # (dim_k, rank, dim_r)
        y = np.tensordot(rng.standard_normal(n), block_basis, axes=1)
        a, s, bh = np.linalg.svd(dagger(frames[0]) @ y @ frames[1:])
        if np.any(s[:, -1] <= rank_cut(s, tol)):
            continue
        u = np.concatenate([frames[0], *(frames[1:] @ dagger(a @ bh))], axis=1)
        if np.abs(dagger(u) @ u - np.eye(rank)).max() > tol.atol_equality:
            continue
        c = dagger(u) @ block_basis @ u
        c_k = partial_trace(c, (dim_k, dim_r), "second") / dim_r
        if np.linalg.norm(c - np.kron(c_k, np.eye(dim_r)), axis=(1, 2)).max() <= tol.atol_equality:
            return u
    raise DegenerateCenter("matrix-unit construction failed after resampling")


def decompose(space: OperatorSubspace, instrument: Instrument,
              tol: Tolerances = DEFAULT_TOL, seed: int = 0) -> FactorDecomposition:
    """Split a fixed-point algebra into factors and extract the block states."""
    if not verify_algebra(space, tol):
        raise NotAnAlgebra("span fails identity/adjoint/product closure")
    rng = np.random.default_rng(seed)
    frames = _central_frames(_center_basis(space, tol), tol, rng)

    rho_av = (space.fixed_points or cesaro_average(instrument.total_channel(), tol)).mixture_limit

    blocks = []
    for q in frames:
        rank = q.shape[1]
        block_basis = hermitian_basis(dagger(q) @ space.basis @ q, rank, tol)
        bdim = len(block_basis)
        dim_k = isqrt(bdim)
        if dim_k * dim_k != bdim:
            raise NotAnAlgebra(f"block algebra dimension {bdim} is not a perfect square")
        if rank % dim_k != 0:
            raise NotAnAlgebra(f"projection rank {rank} not divisible by dim K = {dim_k}")
        dim_r = rank // dim_k

        fact = q @ _block_unitary(block_basis, dim_k, dim_r, tol, rng)
        omega = partial_trace(dagger(fact) @ rho_av @ fact, (dim_k, dim_r), "first")
        w_om, u_om = hermitian_eig(hermitianize(omega) / np.trace(omega).real, tol)
        # in the eigenbasis u_om of R, omega is diag(w_om)
        fact = fact @ np.kron(np.eye(dim_k), u_om)
        blocks.append(FactorBlock(q @ dagger(q), dim_k, dim_r, fact, State(np.diag(w_om), tol)))

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
