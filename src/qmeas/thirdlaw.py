"""Rank non-decrease verdicts for channels and measurement schemes.

A channel is *constrained* when every full-rank input state maps to a
full-rank output.  Testing one well-chosen input suffices: the image of
the complete mixture is full-rank iff any full-rank input has a
full-rank image, iff the dual map is faithful.  For endomorphic channels
the same property is equivalent to the existence of a full-rank fixed
state: the Cesaro limit on the complete mixture, which cesaro_average
reads, with the dual fixed points, from one real SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Channel, MeasurementScheme, State, apply, apply_dual, fidelity, measure_prepare_kraus
from .errors import InfeasibleDimensions, NoConvergence, NotEndomorphic, NotFullRank
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    cut_rank,
    dagger,
    embed_hermitian,
    hermitian_eig,
    hermitian_superoperator,
    hs_norm,
    numerical_rank,
    rank_cut,
    unembed_hermitian,
)

FIXED_STATE_RESIDUAL = 1e-8  # checked on the Kraus operators, not on the S_r the state came from


@dataclass(frozen=True)
class ThirdLawVerdict:
    """constrained: rank non-decrease holds.

    min_output_eigenvalue is the smallest eigenvalue of the complete
    mixture's image (for a scheme with a rank-deficient ancilla, of the
    ancilla state).
    """

    constrained: bool
    min_output_eigenvalue: float


def check_channel_thirdlaw(channel: Channel, tol: Tolerances = DEFAULT_TOL) -> ThirdLawVerdict:
    """Rank test on the image of the complete mixture."""
    w, _ = hermitian_eig(apply(channel, np.eye(channel.dim_in) / channel.dim_in), tol)
    return ThirdLawVerdict(_full_rank(w, tol), float(w[-1]))


def _full_rank(w: np.ndarray, tol: Tolerances) -> bool:
    """No eigenvalue of a Hermitian matrix falls to numerical_rank's cut; its singular values are the |w|."""
    return cut_rank(np.abs(w), tol) == w.size


def check_faithfulness(channel: Channel, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the dual map kills no nonzero positive operator.

    Independent route from check_channel_thirdlaw: a CP map's dual kills
    some A^dag A != 0 iff it kills a rank-one projector, iff the frame
    operator sum_i K_i K_i^dag is singular.  When a kernel vector exists
    its projector is confirmed to be annihilated before answering False.
    """
    frame = (channel.kraus @ dagger(channel.kraus)).sum(0)
    w, v = hermitian_eig(frame, tol)
    cut = rank_cut(w, tol)
    if w[-1] > cut:
        return True
    phi = v[:, -1]
    killed = apply_dual(channel, np.outer(phi, phi.conj()))
    if hs_norm(killed) > np.sqrt(cut):
        raise NoConvergence("frame operator nearly singular but witness projector survives")
    return False


@dataclass(frozen=True)
class FixedPoints:
    """Stacked HS-orthonormal Hermitian bases of ker(S - 1), ker(S^dag - 1); Cesaro limit of 1/d."""

    fixed: np.ndarray
    dual_fixed: np.ndarray
    mixture_limit: np.ndarray


def cesaro_average(channel: Channel, tol: Tolerances = DEFAULT_TOL) -> FixedPoints:
    """Fixed points of a channel and its dual, and the exact Cesaro limit, from one real SVD.

    S_r - 1, in orthonormal Hermitian coordinates, has right and left kernels R and L;
    eigenvalue 1 is semisimple, so the Cesaro limit is the projector R (L^T R)^-1 L^T.
    """
    if channel.dim_in != channel.dim_out:
        raise NotEndomorphic("fixed points need dim_in == dim_out")
    d = channel.dim_in
    u, sv, vh = np.linalg.svd(hermitian_superoperator(channel.superoperator, d) - np.eye(d * d))
    rank = cut_rank(sv, tol)
    right, left = vh[rank:], u[:, rank:].T  # rows: the kernel vectors
    limit = np.linalg.solve(left @ right.T, left @ embed_hermitian(np.eye(d) / d)) @ right
    return FixedPoints(*(unembed_hermitian(x, d) for x in (right, left, limit)))


@dataclass(frozen=True)
class FixedStateResult:
    state: State
    residual: float
    is_full_rank: bool


def full_rank_fixed_state(channel: Channel, tol: Tolerances = DEFAULT_TOL) -> FixedStateResult:
    """Cesaro limit of the channel powers applied to the complete mixture.

    The limit is always a fixed state; it is full-rank exactly when the
    channel is constrained.  Raises NoConvergence when the state still
    moves by more than FIXED_STATE_RESIDUAL under the Kraus operators.
    """
    rho = cesaro_average(channel, tol).mixture_limit
    state = State(rho / np.trace(rho).real, tol)
    residual = hs_norm(apply(channel, state) - state.matrix)
    if residual > FIXED_STATE_RESIDUAL:
        raise NoConvergence(f"Cesaro limit residual {residual:.3e} under the channel")
    return FixedStateResult(state, float(residual), numerical_rank(state.matrix, tol) == channel.dim_in)


def check_scheme_thirdlaw(scheme: MeasurementScheme, tol: Tolerances = DEFAULT_TOL) -> ThirdLawVerdict:
    """Full-rank ancilla state and constrained interaction channel."""
    w, _ = hermitian_eig(scheme.ancilla.matrix, tol)
    if not _full_rank(w, tol):
        return ThirdLawVerdict(False, float(w[-1]))
    return check_channel_thirdlaw(scheme.interaction, tol)


# ---------------------------------------------------------------------------
# preparing a pure state with rank-deficient resources only


def minimal_copy_count(rank_xi: int, system_dim: int, ancilla_dim: int, cap: int = 12) -> int:
    """Smallest D with rank(xi)^D * N <= M^D, searched directly."""
    if rank_xi < 1:
        raise InfeasibleDimensions("resource state must have positive rank")
    for d_count in range(1, cap + 1):
        if (rank_xi ** d_count) * system_dim <= ancilla_dim ** d_count:
            return d_count
    raise InfeasibleDimensions(
        f"no D <= {cap} satisfies rank^D * {system_dim} <= {ancilla_dim}^D for rank {rank_xi}"
    )


@dataclass(frozen=True)
class PurificationResult:
    copies: int
    restricted: State   # system state after the permutation, before relabelling
    state: State        # final output of the preparation channel
    fidelity: float


def purify_via_unconstrained(rho0: State, xi: State, target: State,
                             tol: Tolerances = DEFAULT_TOL) -> PurificationResult:
    """Prepare `target` exactly from a known full-rank state and D rank-deficient copies.

    A permutation on C^N (x) (C^M)^tensor-D moves every nonzero weight of
    rho0 (x) xi^(x)D into the n=0 slice; everything is diagonal in the joint
    eigenbasis, so the permutation acts on the weight vector directly.  The
    restriction to the system is then pure, and a measure-and-prepare channel
    relabels it to the target.
    """
    n_dim, m_dim = rho0.dim, xi.dim
    if target.dim != n_dim:
        raise NotFullRank("target must live on the system space")
    if numerical_rank(rho0.matrix, tol) < n_dim:
        raise NotFullRank("rho0 must be full-rank")
    r = numerical_rank(xi.matrix, tol)
    copies = minimal_copy_count(r, n_dim, m_dim)  # raises when xi is full-rank

    lam, v_rho = hermitian_eig(rho0.matrix, tol)
    p, _ = hermitian_eig(xi.matrix, tol)
    p = np.clip(p, 0.0, None)
    p[r:] = 0.0

    weights = lam.copy()
    for _ in range(copies):
        weights = np.kron(weights, p)
    slots = weights.size
    block = m_dim ** copies

    nonzero = np.flatnonzero(weights > 0)
    zero = np.flatnonzero(weights <= 0)
    if nonzero.size > block:
        raise InfeasibleDimensions("nonzero weights exceed the n=0 slice")
    perm = np.empty(slots, dtype=np.intp)
    perm[nonzero] = np.arange(nonzero.size)
    perm[zero] = np.arange(nonzero.size, slots)
    moved = np.zeros(slots)
    moved[perm] = weights

    system_weights = moved.reshape(n_dim, block).sum(axis=1)
    restricted = State(v_rho @ np.diag(system_weights) @ v_rho.conj().T, tol)

    v0 = v_rho[:, 0]
    prep = preparation_channel(v0, target, tol)
    out = State(apply(prep, restricted), tol)
    return PurificationResult(copies, restricted, out, fidelity(out, target, tol))


def preparation_channel(pointer_vector: np.ndarray, target: State,
                        tol: Tolerances = DEFAULT_TOL) -> Channel:
    """Lambda(rho) = <v|rho|v> target + tr[(1-|v><v|) rho] * 1/N.

    Constrained: both branches contribute for full-rank inputs and the
    second is the complete mixture.
    """
    v = np.asarray(pointer_vector, dtype=np.complex128).reshape(-1)
    pv = np.outer(v, v.conj()) / np.vdot(v, v).real
    eye = np.eye(v.size)
    return Channel(measure_prepare_kraus([(pv, target), (eye - pv, eye / v.size)], tol), tol)
