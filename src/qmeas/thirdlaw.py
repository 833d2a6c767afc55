"""Rank non-decrease verdicts for channels and measurement schemes.

A channel is *constrained* when every full-rank input state maps to a full-rank output.
One input decides it: the image of the identity, the frame operator F = Phi(1) = sum K K^dag,
is full-rank iff any full-rank input has a full-rank image, iff the dual map is faithful.
check_channel_thirdlaw and check_faithfulness cut F at rank_cut of its own spectrum, so an
idle factor id_k, which keeps that spectrum, moves neither.  For endomorphic channels the same
property is equivalent to the existence of a full-rank fixed state, the Cesaro limit on the
complete mixture: cesaro_average solves for it by bordering, with a kernel dimension read off
the Gram of S - 1 and certified by the residuals, or else decided by a values-only SVD.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import Channel, MeasurementScheme, State, apply, fidelity, row_blocks
from .errors import InfeasibleDimensions, NoConvergence, NotEndomorphic, NotFullRank
from .linalg import (
    DEFAULT_TOL,
    EPS,
    Tolerances,
    cut_rank,
    dagger,
    embed_hermitian,
    full_rank,
    hermitian_eig,
    hermitian_superoperator,
    hs_norm,
    rank_cut,
    unembed_hermitian,
)


@dataclass(frozen=True)
class ThirdLawVerdict:
    """constrained: rank non-decrease holds.

    min_output_eigenvalue is the smallest eigenvalue of the image Phi(1)
    of the identity (for a scheme with a rank-deficient ancilla, of the
    ancilla state), the statistic cut at rank_cut of that spectrum.
    """

    constrained: bool
    min_output_eigenvalue: float


def check_channel_thirdlaw(channel: Channel, tol: Tolerances = DEFAULT_TOL) -> ThirdLawVerdict:
    """Rank test on Phi(1) = sum K K^dag, the frame operator check_faithfulness forms as a Gram."""
    w, _ = hermitian_eig(apply(channel, np.eye(channel.dim_in)), tol)
    return ThirdLawVerdict(full_rank(w, tol), float(w[-1]))


def check_faithfulness(channel: Channel, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the dual map kills no nonzero positive operator.

    Independent route from check_channel_thirdlaw: a CP map's dual kills
    some A^dag A != 0 iff it kills a rank-one projector, iff the frame
    operator F = sum_i K_i K_i^dag is singular.  Its smallest eigenpair
    (w_min, phi) is its own witness: since 0 <= Phi^*(|phi><phi|) <= Phi^*(1) = 1,
    ||Phi^*(|phi><phi|)||_2^2 <= tr Phi^*(|phi><phi|) = <phi|F|phi> = w_min.
    """
    rows = (k.swapaxes(0, 1).reshape(channel.dim_out, -1) for k in row_blocks(channel.kraus))
    frame = sum(row @ dagger(row) for row in rows)  # [K_1 ... K_c] [K_1 ... K_c]^dag per block
    return full_rank(hermitian_eig(frame, tol)[0], tol)


@dataclass(frozen=True)
class FixedPoints:
    """Stacked HS-orthonormal Hermitian bases of ker(S - 1), ker(S^dag - 1); Cesaro limit of 1/d."""

    fixed: np.ndarray
    dual_fixed: np.ndarray
    mixture_limit: np.ndarray


def _borders(n: int, k: int) -> np.ndarray:
    """Orthonormal n x k borders U and V, stacked, from a fixed-seed draw (numpy's global RNG untouched),
    with the identity first: a channel's dual fixes it, and a fixed state overlaps it by 1/sqrt d or more."""
    g = np.random.default_rng(0).standard_normal((2, n, k))
    g[:, :, :1] = embed_hermitian(np.eye(round(n ** 0.5)))[:, None]
    return np.linalg.qr(g)[0]


def _bordered_fixed_points(a: np.ndarray, k: int, cut: float, d: int) -> FixedPoints:
    """For n x k borders U, V, M = a + U V^T: M^-1 U, M^-T V span a's kernels R, L (Govaerts, SIAM 2000),
    or L = e for k = 1 if ||e^T a|| meets the cut.  NoConvergence if M is singular or a residual misses it."""
    borders, left = _borders(d * d, k), embed_hermitian(np.eye(d))[None] / d ** 0.5  # e: the dual fixes 1
    pair = np.empty((1 if k == 1 and hs_norm(left @ a) <= cut else 2, d * d, d * d))  # M; M^T if L != e
    np.add(a, borders[0] @ borders[1].T, out=pair[0])
    pair[1:] = pair[0].T
    try:
        right, *dual = np.linalg.qr(np.linalg.solve(pair, borders[:len(pair)]))[0].swapaxes(1, 2)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"bordered kernel solve: {exc}") from exc
    left = dual[0] if dual else left
    residual = max(hs_norm(a @ right.T), hs_norm(left @ a))  # rows of right, left: the kernel vectors
    if not residual <= cut:
        raise NoConvergence(f"bordered kernel residual {residual:.3e} exceeds the rank cut")
    limit = np.linalg.solve(left @ right.T, left @ embed_hermitian(np.eye(d) / d)) @ right
    return FixedPoints(*(unembed_hermitian(x, d) for x in (right, left, limit)))


def cesaro_average(channel: Channel, tol: Tolerances = DEFAULT_TOL) -> FixedPoints:
    """Fixed points of a channel and its dual, and the exact Cesaro limit R (L^T R)^-1 L^T of 1/d.

    a = S_r - 1 in embed_hermitian's coordinates has kernels R and L of dimension k, its number of singular
    values at or below cut = rank_threshold max(1, ||a||_2).  The eigenvalues mu of a^T a (one syrk) are their
    squares to within delta = 4 n eps (||a||_F^2 + mu_max), which bounds the Gram's rounding, gamma_n ||a||_F^2,
    plus a backward-stable eigensolve's, p(n) eps ||a^T a||_2 (Higham, 2002, 3.5).  The k mu <= cut^2 + delta
    are certified when the bordered residuals meet the cut: then k singular values lie at or below it
    (Courant-Fischer), the rest above (Weyl).  Else the values-only SVD decides; k = 0 raises NoConvergence.
    """
    if channel.dim_in != channel.dim_out:
        raise NotEndomorphic("fixed points need dim_in == dim_out")
    d, n = channel.dim_in, channel.dim_in ** 2
    a = hermitian_superoperator(channel.superoperator, d)
    a.flat[:: n + 1] -= 1.0
    mu = np.linalg.eigvalsh(a.T @ a)  # the same array on both sides: numpy runs a syrk
    cut = rank_cut(abs(mu[-1:]) ** 0.5, tol)  # mu_max = ||a||_2^2
    if k := np.count_nonzero(mu <= cut ** 2 + 4 * n * EPS * (mu.sum() + mu[-1])):  # sum mu = ||a||_F^2
        with suppress(NoConvergence):
            return _bordered_fixed_points(a, k, cut, d)
    sv = np.linalg.svd(a, compute_uv=False)  # uncertified: k is cut_rank's
    cut, k = rank_cut(sv, tol), n - cut_rank(sv, tol)
    if not k:
        raise NoConvergence(f"no fixed point: S - 1 has smallest singular value {sv[-1]:.3e} > {cut:.3e}")
    return _bordered_fixed_points(a, k, cut, d)


@dataclass(frozen=True)
class FixedStateResult:
    state: State
    residual: float
    is_full_rank: bool


def full_rank_fixed_state(channel: Channel, tol: Tolerances = DEFAULT_TOL) -> FixedStateResult:
    """Cesaro limit of the channel powers applied to the complete mixture.

    The limit is always a fixed state; it is full-rank, by the spectrum the State keeps, exactly
    when the channel is constrained.  Raises NoConvergence when the state still
    moves by more than rank_threshold under the Kraus operators.
    """
    rho = cesaro_average(channel, tol).mixture_limit
    state = State(rho / np.trace(rho).real, tol)
    residual = hs_norm(apply(channel, state) - state.matrix)  # on the Kraus operators, not on S_r
    if residual > tol.rank_threshold:  # the state is read off a kernel cut at rank_cut
        raise NoConvergence(f"Cesaro limit residual {residual:.3e} under the channel")
    return FixedStateResult(state, float(residual), full_rank(state.eig(tol)[0], tol))


def check_scheme_thirdlaw(scheme: MeasurementScheme, tol: Tolerances = DEFAULT_TOL) -> ThirdLawVerdict:
    """Full-rank ancilla state and constrained interaction channel."""
    w, _ = scheme.ancilla.eig(tol)
    if not full_rank(w, tol):
        return ThirdLawVerdict(False, float(w[-1]))
    return check_channel_thirdlaw(scheme.interaction, tol)


# ---------------------------------------------------------------------------
# preparing a pure state with rank-deficient resources only


def minimal_copy_count(rank_xi: int, system_dim: int, ancilla_dim: int) -> int:
    """Smallest D <= 12 with rank(xi)^D * N <= M^D, searched directly."""
    if rank_xi < 1:
        raise InfeasibleDimensions("resource state must have positive rank")
    for d_count in range(1, 13):
        if (rank_xi ** d_count) * system_dim <= ancilla_dim ** d_count:
            return d_count
    raise InfeasibleDimensions(f"no D <= 12 satisfies rank^D * {system_dim} <= {ancilla_dim}^D "
                               f"for rank {rank_xi}")


@dataclass(frozen=True)
class PurificationResult:
    copies: int
    restricted: State   # system state after the permutation, before relabelling
    state: State        # final output of the preparation channel
    fidelity: float


def purify_via_unconstrained(rho0: State, xi: State, target: State,
                             tol: Tolerances = DEFAULT_TOL) -> PurificationResult:
    """Prepare `target` exactly from a known full-rank state and D rank-deficient copies.

    A permutation on C^N (x) (C^M)^tensor-D moves every nonzero weight of rho0 (x) xi^(x)D into the
    n=0 slice; everything is diagonal in the joint eigenbasis, so the permutation acts on the weight
    vector directly.  The restriction to the system is then pure, and a measure-and-prepare channel
    relabels it to the target.  xi enters as its renormalised truncation to the r weights above rank_cut.
    """
    n_dim, m_dim = rho0.dim, xi.dim
    if target.dim != n_dim:
        raise NotFullRank("target must live on the system space")
    lam, v_rho = rho0.eig(tol)
    if not full_rank(lam, tol):
        raise NotFullRank("rho0 must be full-rank")
    p, _ = xi.eig(tol)
    r = cut_rank(np.abs(p), tol)
    copies = minimal_copy_count(r, n_dim, m_dim)  # raises when xi is full-rank
    p = np.where(np.arange(m_dim) < r, p, 0.0) / p[:r].sum()  # xi's rank-r truncation: positive weights

    weights = reduce(np.kron, [p] * copies, lam)
    moved = np.concatenate([weights[weights > 0], weights[weights <= 0]])

    system_weights = moved.reshape(n_dim, -1).sum(axis=1)
    restricted = State(v_rho @ np.diag(system_weights) @ v_rho.conj().T, tol)

    out = State(apply(preparation_channel(v_rho[:, 0], target, tol), restricted), tol)
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
    return Channel.measure_prepare([(pv, target), (eye - pv, eye / v.size)], tol)
