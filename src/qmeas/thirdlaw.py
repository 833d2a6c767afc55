"""Rank non-decrease verdicts for channels and measurement schemes.

A channel is *constrained* when every full-rank input state maps to a full-rank output.
One input decides it: the image of the identity, the frame operator F = Phi(1) = sum K K^dag,
is full-rank iff any full-rank input has a full-rank image, iff the dual map is faithful.
check_channel_thirdlaw and check_faithfulness cut F at rank_cut of its own spectrum, so an
idle factor id_k, which keeps that spectrum, moves neither.  A full-rank fixed state sigma suffices,
Phi(rho) >= (lambda_min(rho)/lambda_max(sigma)) sigma, but is not necessary: amplitude damping has F
full-rank and only a pure fixed state.  full_rank_fixed_state takes the Cesaro limit on the complete
mixture: 1/d itself when the channel fixes it (every unital channel), else Phi(1/d) normalised when the
channel fixes that (every idempotent one, as Phi^n(1/d) = Phi(1/d) for n >= 1), fixed meaning moved by at most
rank_threshold, the cut on the solver's residual; else cesaro_average solves for it by bordering with the
identity's coordinates, formed once per call, with a kernel dimension of one proved by one Cholesky of
the Gram of S - 1, or else read off that Gram's eigenvalues, each certified by the residuals, or else
decided by a values-only SVD.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .core import Channel, MeasurementScheme, State, apply, fidelity, row_blocks
from .errors import DimensionMismatch, InfeasibleDimensions, NoConvergence, NotEndomorphic, NotFullRank
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
    proves_definite,
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


def _borders(identity: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal n x k borders U and V, stacked: the identity's coordinates (a channel's dual fixes 1, a fixed state
    overlaps it by 1/sqrt d or more), then k - 1 columns of a fixed-seed draw, leaving numpy's global RNG alone."""
    g = np.random.default_rng(0).standard_normal((2, len(identity), k)) if k > 1 else np.empty((2, len(identity), 1))
    g[:, :, 0] = identity
    return np.linalg.qr(g)[0]


def _bordered_fixed_points(a: np.ndarray, k: int, cut: float, d: int, identity: np.ndarray, e: np.ndarray,
                           ea: float) -> FixedPoints:
    """For n x k borders U, V, M = a + U V^T: M^-1 U, M^-T V span a's kernels R, L (Govaerts, SIAM 2000), or
    L = e for k = 1 if ea = ||e^T a|| meets the cut.  NoConvergence if M is singular or a residual misses it."""
    borders = _borders(identity, k)
    pair = np.empty((1 if k == 1 and ea <= cut else 2, d * d, d * d))  # M; M^T if L != e
    np.add(a, borders[0] @ borders[1].T, out=pair[0])
    pair[1:] = pair[0].T
    try:
        right, *dual = np.linalg.qr(np.linalg.solve(pair, borders[:len(pair)]))[0].swapaxes(1, 2)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"bordered kernel solve: {exc}") from exc
    left = dual[0] if dual else e
    residual = max(hs_norm(a @ right.T), hs_norm(left @ a) if dual else ea)  # rows: the kernel vectors
    if not residual <= cut:
        raise NoConvergence(f"bordered kernel residual {residual:.3e} exceeds the rank cut")
    limit = np.linalg.solve(left @ right.T, left @ (identity / d)) @ right  # identity / d: 1/d's coordinates
    return FixedPoints(*(unembed_hermitian(x, d) for x in (right, left, limit)))


def cesaro_average(channel: Channel, tol: Tolerances = DEFAULT_TOL) -> FixedPoints:
    """Fixed points of a channel and its dual, and the exact Cesaro limit R (L^T R)^-1 L^T of 1/d.

    a = S_r - 1 in embed_hermitian's coordinates has kernels R and L of dimension k, its number of singular
    values at or below cut = rank_threshold max(1, ||a||_2).  Its left Gram g = a a^T (one syrk) has kernel L,
    and e, the identity's coordinates over sqrt d, is in it to within ||e^T a||, both formed once per call.  If
    that is at most rank_threshold, k = 1 is tried first: one Cholesky (proves_definite, Rump 2006) shows
    lambda_min(g + c e e^T) > cut_hi^2 + n eps (||a||_F^2 + c), for c = ||a||_F^2 and
    cut_hi = rank_threshold max(1, ||a||_F) >= cut; the band covers g's rounding, gamma_n ||a||_F^2
    (Higham, 2002, 3.5), and the update's.  By interlacing, n - 1 singular values then lie above the cut, and a
    k = 1 bordered residual at most rank_threshold puts the last at or below it.  Else the eigenvalues mu of g
    are the squared singular values to within delta = 4 n eps (||a||_F^2 + mu_max), g's rounding plus a
    backward-stable eigensolve's, p(n) eps ||g||_2.  The k mu <= cut^2 + delta are certified when the bordered
    residuals meet the cut: then k singular values lie at or below it (Courant-Fischer), the rest above (Weyl).
    Else the values-only SVD decides; k = 0 raises NoConvergence.
    """
    if channel.dim_in != channel.dim_out:
        raise NotEndomorphic("fixed points need dim_in == dim_out")
    d, n = channel.dim_in, channel.dim_in ** 2
    a = hermitian_superoperator(channel.superoperator, d)
    a.flat[:: n + 1] -= 1.0
    g = a @ a.T  # the same array on both sides: numpy runs a syrk
    identity = embed_hermitian(np.eye(d))
    e = identity[None] / d ** 0.5  # one row: a channel's dual fixes 1, so e a = 0
    ea = hs_norm(e @ a)
    border = d, identity, e, ea
    if ea <= tol.rank_threshold:
        block = g[:: d + 1, :: d + 1]  # a view of g on e's support, the coordinates of 1
        fro2, saved = hs_norm(a) ** 2, block.copy()
        block += fro2 / d  # g + c e e^T, c = ||a||_F^2
        certified = proves_definite(g, tol.rank_threshold ** 2 * max(1.0, fro2) + 2 * n * EPS * fro2)
        block[...] = saved
        if certified:
            with suppress(NoConvergence):
                return _bordered_fixed_points(a, 1, tol.rank_threshold, *border)
    mu = np.linalg.eigvalsh(g)
    cut = rank_cut(abs(mu[-1:]) ** 0.5, tol)  # mu_max = ||a||_2^2
    if k := np.count_nonzero(mu <= cut ** 2 + 4 * n * EPS * (mu.sum() + mu[-1])):  # sum mu = ||a||_F^2
        with suppress(NoConvergence):
            return _bordered_fixed_points(a, k, cut, *border)
    sv = np.linalg.svd(a, compute_uv=False)  # uncertified: k is cut_rank's
    cut, k = rank_cut(sv, tol), n - cut_rank(sv, tol)
    if not k:
        raise NoConvergence(f"no fixed point: S - 1 has smallest singular value {sv[-1]:.3e} > {cut:.3e}")
    return _bordered_fixed_points(a, k, cut, *border)


@dataclass(frozen=True)
class FixedStateResult:
    state: State
    residual: float
    is_full_rank: bool


def full_rank_fixed_state(channel: Channel, tol: Tolerances = DEFAULT_TOL) -> FixedStateResult:
    """Cesaro limit of the channel powers applied to the complete mixture.

    The limit is always a fixed state; its full-rank verdict reads the spectrum the State keeps.
    Two exits come first, with no fixed-point solve: 1/d when the channel moves it by at most rank_threshold
    (every unital channel), then rho_1 = Phi(1/d) normalised when the channel moves that by at most
    rank_threshold (every idempotent one: preparations, block preparations, conditional expectations).
    Phi(rho_1) = rho_1 gives Phi^n(1/d) = rho_1 for n >= 1, so the Cesaro mean ((N - 1) rho_1 + 1/d) / N tends
    to rho_1.  Else cesaro_average solves for the limit.  Each candidate is a plain matrix, and only the one
    returned is validated as a State.  Raises NoConvergence when the solver's limit still moves by more than
    rank_threshold under the Kraus operators.
    """
    if channel.dim_in != channel.dim_out:
        raise NotEndomorphic("fixed points need dim_in == dim_out")
    rho = np.eye(channel.dim_in) / channel.dim_in
    for solve in (False, True, None):  # whether the next candidate is the solver's limit; None: no next one
        image = apply(channel, rho)
        residual = hs_norm(image - rho)  # on the Kraus operators, not on S_r
        if residual <= tol.rank_threshold:  # a fixed state is its own Cesaro limit
            state = State(rho, tol)
            return FixedStateResult(state, float(residual), full_rank(state.eig(tol)[0], tol))
        if solve is None:  # the solver's state is read off a kernel cut at rank_cut
            raise NoConvergence(f"Cesaro limit residual {residual:.3e} under the channel")
        rho = cesaro_average(channel, tol).mixture_limit if solve else image
        rho = rho / np.trace(rho).real


def check_scheme_thirdlaw(scheme: MeasurementScheme, tol: Tolerances = DEFAULT_TOL) -> ThirdLawVerdict:
    """Full-rank ancilla state and constrained interaction channel."""
    w, _ = scheme.ancilla.eig(tol)
    if not full_rank(w, tol):
        return ThirdLawVerdict(False, float(w[-1]))
    return check_channel_thirdlaw(scheme.interaction, tol)


# ---------------------------------------------------------------------------
# preparing a pure state with rank-deficient resources only


def minimal_copy_count(rank_xi: int, system_dim: int, ancilla_dim: int) -> int:
    """Least D with rank(xi)^D * N <= M^D, in exact integers; one exists iff 1 <= rank(xi) < M."""
    if not 1 <= rank_xi < ancilla_dim:
        raise InfeasibleDimensions(f"no D satisfies rank^D * {system_dim} <= {ancilla_dim}^D for rank {rank_xi}: "
                                   "the resource needs 1 <= rank < M")
    copies, kept, room = 1, rank_xi * system_dim, ancilla_dim  # N r^D nonzero weights, M^D slots in slice 0
    while kept > room:
        copies, kept, room = copies + 1, kept * rank_xi, room * ancilla_dim
    return copies


@dataclass(frozen=True)
class PurificationResult:
    copies: int
    restricted: State   # system state after the permutation, before relabelling
    state: State        # final output of the preparation channel
    fidelity: float


def purify_via_unconstrained(rho0: State, xi: State, target: State,
                             tol: Tolerances = DEFAULT_TOL) -> PurificationResult:
    """Prepare `target` exactly from a known full-rank state and D rank-deficient copies.

    A permutation on C^N (x) (C^M)^tensor-D, diagonal in the joint eigenbasis, moves the N r^D nonzero weights
    of rho0 (x) xi^(x)D, r = rank(xi) at rank_cut, into the n = 0 slice of M^D slots; the least D that fits them
    is minimal_copy_count's, and the system's restriction is then |v_0><v_0|, rho0's top eigenvector, in closed
    form.  xi enters only through r.  A measure-and-prepare channel relabels |v_0><v_0| to the target.
    """
    if target.dim != rho0.dim:
        raise DimensionMismatch("target must live on the system space")
    lam, v_rho = rho0.eig(tol)
    if not full_rank(lam, tol):
        raise NotFullRank("rho0 must be full-rank")
    copies = minimal_copy_count(cut_rank(np.abs(xi.eig(tol)[0]), tol), rho0.dim, xi.dim)  # raises unless 1 <= r < M
    top = v_rho[:, 0]
    restricted = State(np.outer(top, top.conj()), tol)
    out = State(apply(preparation_channel(top, target, tol), restricted), tol)
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
