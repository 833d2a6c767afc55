"""Fixed-point spaces of instrument duals and their factor decomposition.

The fixed points of the dual total map of an instrument, read from the real
SVD in thirdlaw.cesaro_average, form a unital *-closed operator space; for
the schemes this package certifies it is an algebra and splits as a direct
sum of factors L(K_alpha) (x) 1_{R_alpha}.  The splitting is computed
numerically: minimal central projections from eigenvalue clustering of a
generic central element, partial isometries from polar decompositions of a
generic off-block compression, and a factorizer isometry
W_alpha : K_alpha (x) R_alpha -> range(P_alpha) assembled from them.

All random draws come from one seeded generator so results reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .core import Instrument, Observable, State
from .errors import DecompositionMismatch, DegenerateCenter, DimensionMismatch, NotAnAlgebra
from .linalg import (
    CLUSTER_GAP,
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
    kron,
    partial_trace,
    unembed_hermitian,
)
from .thirdlaw import FixedPoints, cesaro_average

PRODUCT_RESIDUAL = 1e-7
RECONSTRUCTION_LIMIT = 1e-6


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
    """Contains identity, adjoint-closed, and closed under products (residual < 1e-7)."""
    eye = np.eye(space.dim, dtype=np.complex128)
    if hs_norm(eye - space.project(eye)) > PRODUCT_RESIDUAL * space.dim:
        return False
    b = space.basis
    products = (b[:, None] @ b[None]).reshape(-1, space.dim, space.dim)
    for x in (dagger(b), products):
        if np.linalg.norm(x - space.project(x), axis=(1, 2)).max() > PRODUCT_RESIDUAL:
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

    def block_units(self) -> np.ndarray:
        """Images W (e_ij (x) 1_R) W^dag spanning the reconstructed algebra, stacked."""
        return np.concatenate([
            blk.factorizer @ np.kron(np.eye(blk.dim_k ** 2).reshape(-1, blk.dim_k, blk.dim_k),
                                     np.eye(blk.dim_r)) @ dagger(blk.factorizer)
            for blk in self.blocks
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


def _minimal_central_projections(center: np.ndarray, space: OperatorSubspace,
                                 tol: Tolerances, rng: np.random.Generator) -> list[np.ndarray]:
    """Cluster the spectrum of a generic central element; one projection per block."""
    z = len(center)
    for _ in range(5):
        g = rng.standard_normal(z)
        x = np.tensordot(g, center, axes=1)
        w, v = hermitian_eig(x, tol)
        clusters = eigenvalue_clusters(w)
        if len(clusters) != z:
            continue
        return [v[:, idx] @ v[:, idx].conj().T for idx in clusters]
    raise DegenerateCenter(f"could not separate {z} blocks after resampling")


def _block_factorizer(proj: np.ndarray, block_basis: np.ndarray, dim_k: int,
                      dim_r: int, tol: Tolerances, rng: np.random.Generator) -> np.ndarray:
    """Isometry W with W^dag B W = B_K (x) 1_R for every block algebra element B."""
    d = proj.shape[0]
    rank = dim_k * dim_r
    for _ in range(5):
        g = rng.standard_normal(len(block_basis))
        shift = 3.0 * (1.0 + float(np.abs(g).sum()))
        x = np.tensordot(g, block_basis, axes=1) + shift * proj
        w, v = hermitian_eig(x, tol)
        inside = w > shift / 2.0
        if int(inside.sum()) != rank:
            continue
        clusters = eigenvalue_clusters(w[:rank])
        if len(clusters) != dim_k or any(idx.size != dim_r for idx in clusters):
            continue
        minimal = [v[:, idx] for idx in clusters]  # orthonormal columns per p_i

        g2 = rng.standard_normal(len(block_basis))
        y = np.tensordot(g2, block_basis, axes=1)
        p0 = minimal[0] @ minimal[0].conj().T
        cols = []
        degenerate = False
        for i, cols_i in enumerate(minimal):
            if i == 0:
                u_dag = p0
            else:
                p_i = cols_i @ cols_i.conj().T
                wmat = p0 @ y @ p_i
                uu, ss, vv = np.linalg.svd(wmat)
                if ss[dim_r - 1] <= CLUSTER_GAP:
                    degenerate = True
                    break
                u_dag = dagger(uu[:, :dim_r] @ vv[:dim_r, :])
            for j in range(dim_r):
                cols.append(u_dag @ minimal[0][:, j])
        if degenerate:
            continue
        fact = np.stack(cols, axis=1)
        if np.abs(dagger(fact) @ fact - np.eye(rank)).max() > PRODUCT_RESIDUAL:
            continue
        ok = True
        for b in block_basis:
            c = dagger(fact) @ b @ fact
            c_k = partial_trace(c, (dim_k, dim_r), "second") / dim_r
            if hs_norm(c - kron(c_k, np.eye(dim_r))) > PRODUCT_RESIDUAL:
                ok = False
                break
        if ok:
            return fact
    raise DegenerateCenter("matrix-unit construction failed after resampling")


def decompose(space: OperatorSubspace, instrument: Instrument,
              tol: Tolerances = DEFAULT_TOL, seed: int = 0) -> FactorDecomposition:
    """Split a fixed-point algebra into factors and extract the block states."""
    if not verify_algebra(space, tol):
        raise NotAnAlgebra("span fails identity/adjoint/product closure")
    d = space.dim
    rng = np.random.default_rng(seed)
    center = _center_basis(space, tol)
    projections = _minimal_central_projections(center, space, tol, rng)

    rho_av = (space.fixed_points or cesaro_average(instrument.total_channel(), tol)).mixture_limit

    blocks = []
    for proj in projections:
        block_basis = hermitian_basis(proj @ space.basis @ proj, d, tol)
        bdim = len(block_basis)
        dim_k = isqrt(bdim)
        if dim_k * dim_k != bdim:
            raise NotAnAlgebra(f"block algebra dimension {bdim} is not a perfect square")
        rank = int(round(float(np.trace(proj).real)))
        if rank % dim_k != 0:
            raise NotAnAlgebra(f"projection rank {rank} not divisible by dim K = {dim_k}")
        dim_r = rank // dim_k

        fact = _block_factorizer(proj, block_basis, dim_k, dim_r, tol, rng)
        omega_raw = partial_trace(dagger(fact) @ rho_av @ fact, (dim_k, dim_r), "first")
        omega_raw = hermitianize(omega_raw) / np.trace(omega_raw).real
        w_om, u_om = hermitian_eig(omega_raw, tol)
        fact = fact @ kron(np.eye(dim_k), u_om)
        omega = partial_trace(dagger(fact) @ rho_av @ fact, (dim_k, dim_r), "first")
        omega = hermitianize(omega) / np.trace(omega).real
        blocks.append(FactorBlock(proj, dim_k, dim_r, fact, State(omega, tol)))

    deco = FactorDecomposition(space, tuple(blocks), 0.0)
    residual = subspace_distance(deco.block_units(), space.basis, d, tol)
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
    d = decomposition.space.dim
    comms = _commutators(_stack(observable.effects, d), decomposition.space.basis)
    if np.abs(comms).max() > RECONSTRUCTION_LIMIT:
        raise DecompositionMismatch("effect does not commute with the fixed-point span")
    per_outcome = []
    residuals = []
    for e in observable.effects:
        comps = []
        rebuilt = np.zeros((d, d), dtype=np.complex128)
        for blk in decomposition.blocks:
            c = dagger(blk.factorizer) @ e @ blk.factorizer
            comp = hermitianize(partial_trace(c, (blk.dim_k, blk.dim_r), "first") / blk.dim_k)
            comps.append(comp)
            rebuilt += blk.factorizer @ kron(np.eye(blk.dim_k), comp) @ dagger(blk.factorizer)
        res = float(np.abs(e - rebuilt).max())
        if res > RECONSTRUCTION_LIMIT:
            raise DecompositionMismatch(f"effect reconstruction residual {res:.3e}")
        per_outcome.append(tuple(comps))
        residuals.append(res)
    return EffectBlockDecomposition(observable.outcomes, tuple(per_outcome), tuple(residuals))


def commutant_residual(space: OperatorSubspace, observable: Observable) -> float:
    """Largest commutator norm between a basis element and an effect (F within E')."""
    comms = _commutators(_stack(observable.effects, space.dim), space.basis)
    return float(np.linalg.norm(comms, axis=(2, 3)).max())
