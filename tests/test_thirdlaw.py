import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmeas import thirdlaw
from qmeas.algebra import fixed_point_space
from qmeas.core import Channel, Instrument, State, apply, compose, scheme_to_instrument
from qmeas.errors import InfeasibleDimensions, NoConvergence, NotEndomorphic, NotFullRank
from qmeas.linalg import (
    DEFAULT_TOL,
    EPS,
    Tolerances,
    cut_rank,
    dagger,
    embed_hermitian,
    full_rank,
    hermitian_superoperator,
    hs_norm,
    numerical_rank,
    rank_cut,
    unembed_hermitian,
    vec,
)
from qmeas.models import (
    build_extremal_model,
    build_luders_scheme,
    build_rank_drop_channel,
    build_shift_scheme,
    build_swap_scheme,
    completely_unsharp_pair,
    pointer_observable,
    random_bistochastic_channel,
    random_channel,
    random_constrained_channel,
    random_full_rank_state,
    random_low_rank_preparation,
    random_state_of_rank,
    random_unitary,
    swap_unitary,
    trivial_swap_scheme,
)
from qmeas.thirdlaw import (
    cesaro_average,
    check_channel_thirdlaw,
    check_faithfulness,
    check_scheme_thirdlaw,
    full_rank_fixed_state,
    minimal_copy_count,
    purify_via_unconstrained,
)


class TestChannelVerdict:
    def test_unitary_swap_constrained(self):
        assert check_channel_thirdlaw(Channel.unitary(swap_unitary(2))).constrained

    def test_qutrit_rank_drop_fixture(self):
        ch = build_rank_drop_channel()
        assert check_channel_thirdlaw(ch).constrained
        out = apply(ch, np.diag([0.0, 0.5, 0.5]).astype(complex))
        assert numerical_rank(out) == 1

    def test_pure_preparation_unconstrained(self):
        kraus = tuple(np.outer([1.0, 0.0], e).astype(complex) for e in np.eye(2))
        verdict = check_channel_thirdlaw(Channel(kraus))
        assert not verdict.constrained
        assert verdict.min_output_eigenvalue < 1e-12

    @pytest.mark.parametrize("floor, constrained", [(1e-10, False), (5.5e-9, False), (6.5e-9, True),
                                                     (1e-7, True)])
    def test_preparation_channel_at_the_rank_cut(self, floor, constrained):
        # rho -> tr(rho) sigma; Phi(1) = 3 sigma, whose smallest eigenvalue 3 floor sits on either
        # side of its rank_cut, rank_threshold (1e-8) times 3 * 0.6, so it alone decides the verdict
        sigma = (0.6, 0.4 - floor, floor)
        eye = np.eye(3)
        kraus = tuple(np.sqrt(s) * np.outer(eye[i], eye[j]) for i, s in enumerate(sigma) for j in range(3))
        verdict = check_channel_thirdlaw(Channel(kraus))
        assert verdict.constrained is constrained
        assert verdict.min_output_eigenvalue == pytest.approx(3 * floor, rel=1e-6)


class TestFaithfulness:
    def test_identity(self):
        assert check_faithfulness(Channel.identity(3))

    def test_dephase_to_pure_output(self):
        kraus = tuple(np.outer([1.0, 0.0], e).astype(complex) for e in np.eye(2))
        assert not check_faithfulness(Channel(kraus))

    def test_agreement_with_mixture_test(self):
        for seed in range(60):
            if seed % 3 == 0:
                ch = random_channel(3, 3, 2 + seed % 3, seed)
            elif seed % 3 == 1:
                ch = random_bistochastic_channel(3, 2, seed)
            else:
                ch = random_low_rank_preparation(3, 1 + seed % 2, seed)
            assert check_faithfulness(ch) == check_channel_thirdlaw(ch).constrained


    def test_frame_operator_is_summed_by_row_blocks(self):
        ch = random_constrained_channel(20, 0)
        tracemalloc.start()
        try:
            faithful = check_faithfulness(ch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert faithful
        assert peak < ch.kraus.nbytes / 2  # a product stack and its conjugate cost 2.0x

    def test_route_is_independent_of_the_image_route(self, monkeypatch):
        def image_route(*args):
            raise AssertionError("check_faithfulness called apply")

        monkeypatch.setattr(thirdlaw, "apply", image_route)
        assert check_faithfulness(random_constrained_channel(4, 1))
        assert not check_faithfulness(random_low_rank_preparation(3, 1, 0))


class TestFixedState:
    def test_phase_unitary(self):
        u = np.diag(np.exp(1j * np.array([0.3, 1.1, 2.0])))
        ch = Channel.unitary(u)
        res = full_rank_fixed_state(ch)
        assert res.is_full_rank
        assert res.residual < 1e-10
        assert np.abs(res.state.matrix - np.eye(3) / 3).max() < 1e-12

    def test_shift_measurement_channel(self):
        inst = scheme_to_instrument(build_shift_scheme(3, (0.5, 0.3, 0.2)))
        res = full_rank_fixed_state(inst.total_channel())
        assert res.is_full_rank
        assert np.abs(res.state.matrix - np.eye(3) / 3).max() < 1e-8

    def test_constrained_random(self):
        for seed in range(5):
            res = full_rank_fixed_state(random_constrained_channel(3, seed))
            assert res.is_full_rank
            assert res.residual < 1e-8

    def test_unconstrained_yields_deficient_fixed_state(self):
        ch = random_low_rank_preparation(3, 2, 4)
        res = full_rank_fixed_state(ch)
        assert not res.is_full_rank
        assert res.residual < 1e-8

    def test_rejects_rectangular(self):
        with pytest.raises(NotEndomorphic):
            full_rank_fixed_state(random_channel(2, 3, 2, 0))

    def test_a_map_without_a_fixed_point_raises(self):
        # Kraus operators scaled by sqrt(1 + 5e-8), accepted at atol 1e-7: S - 1 has no singular value
        # at the rank cut, so the kernel is empty and there is no limit state to normalise
        tol = Tolerances(1e-7, 1e-8)
        kraus = np.sqrt(1 + 5e-8) * random_constrained_channel(4, 3).kraus
        for call in (lambda: cesaro_average(Channel(kraus, tol), tol),
                     lambda: full_rank_fixed_state(Channel(kraus, tol), tol),
                     lambda: fixed_point_space(Instrument.from_kraus([kraus], tol=tol), tol)):
            with pytest.raises(NoConvergence, match=r"smallest singular value 4\.\d+e-08 > 1\.\d+e-08"):
                call()

    def test_the_rank_step_is_one_gram_eigvalsh_and_no_svd(self, monkeypatch):
        # the full-rank verdict reads the limit state's kept spectrum, not an SVD of its matrix, and the
        # kernel dimension is certified from the Gram of S_r - 1 with no SVD of S_r either
        channels = [random_constrained_channel(4, 0), random_low_rank_preparation(4, 2, 0),
                    Channel.unitary(random_unitary(4, np.random.default_rng(1)))]
        calls = recorded_linalg(monkeypatch)
        for ch in channels:
            full_rank_fixed_state(ch)
        assert calls == [("eigvalsh", (16, 16))] * len(channels)

    def test_residual_is_cut_at_rank_threshold(self, monkeypatch):
        exact = thirdlaw.cesaro_average

        def perturbed(channel, tol):  # the limit moved by 5e-9 Z off the fixed state 1/2
            fixed = exact(channel, tol)
            return dataclasses.replace(fixed, mixture_limit=fixed.mixture_limit + np.diag([5e-9, -5e-9]))
        monkeypatch.setattr(thirdlaw, "cesaro_average", perturbed)
        ch = Channel.measure_prepare([(np.eye(2), np.eye(2) / 2)])  # every state to 1/2
        assert 1e-9 < full_rank_fixed_state(ch).residual < 1e-8
        with pytest.raises(NoConvergence):
            full_rank_fixed_state(ch, Tolerances(rank_threshold=1e-9))

    def test_cesaro_invariance_and_idempotence(self):
        for seed in range(3):
            ch = random_constrained_channel(3, seed)
            s = ch.superoperator
            fixed = cesaro_average(ch)
            right = fixed.fixed.reshape(len(fixed.fixed), -1).T  # columns vec(F_i)
            left = fixed.dual_fixed.reshape(len(fixed.dual_fixed), -1).T
            avg = right @ np.linalg.solve(dagger(left) @ right, dagger(left))
            assert hs_norm(avg @ s - avg) < 1e-10
            assert hs_norm(avg @ avg - avg) < 1e-12
            assert hs_norm((avg @ vec(np.eye(3) / 3)).reshape(3, 3) - fixed.mixture_limit) < 1e-12

    @pytest.mark.parametrize("gamma", [0.2, 0.1, 0.01])
    def test_slowly_mixing_amplitude_damping(self, gamma):
        p = 0.3
        a = np.sqrt(gamma)
        kraus = (
            np.sqrt(p) * np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]]),
            np.sqrt(p) * np.array([[0.0, a], [0.0, 0.0]]),
            np.sqrt(1 - p) * np.array([[np.sqrt(1 - gamma), 0.0], [0.0, 1.0]]),
            np.sqrt(1 - p) * np.array([[0.0, 0.0], [a, 0.0]]),
        )
        res = full_rank_fixed_state(Channel(kraus))
        assert res.is_full_rank
        assert np.abs(res.state.matrix - np.diag([p, 1 - p])).max() < 1e-10


class TestRankAtTheCut:
    """A State's rank is read off its kept spectrum; on both sides of the cut it is numerical_rank's."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("offset", [-1e-6, 1e-6])
    def test_kept_spectrum_decides_as_the_svd(self, offset, seed):
        w, rng = DEFAULT_TOL.rank_threshold * (1 + offset), np.random.default_rng(seed)
        u2, u3 = random_unitary(2, rng), random_unitary(3, rng)
        qubit = State(u2 @ np.diag([1 - w, w]) @ dagger(u2))
        xi = State(u3 @ np.diag([1 - w, w, 0.0]) @ dagger(u3))  # rank 2 or 1 on a qutrit
        full = offset > 0
        assert (numerical_rank(qubit.matrix) == 2) is full_rank(qubit.eig()[0]) is full
        assert numerical_rank(xi.matrix) == cut_rank(np.abs(xi.eig()[0])) == (2 if full else 1)
        if full:  # a rank-2 resource on a qutrit needs two copies for a qubit system
            res = purify_via_unconstrained(random_full_rank_state(2, seed), xi, random_full_rank_state(2, seed + 1))
            assert res.copies == 2
        for decide in (build_swap_scheme, build_extremal_model,
                       lambda rho0: purify_via_unconstrained(rho0, State.pure([1.0, 0.0]), rho0)):
            if full:
                decide(qubit)
            else:
                with pytest.raises(NotFullRank):
                    decide(qubit)


def full_svd_fixed_points(channel, tol=DEFAULT_TOL):
    """Dense reference: both kernels of S_r - 1 read off one full SVD at the same cut."""
    d = channel.dim_in
    u, sv, vh = np.linalg.svd(hermitian_superoperator(channel.superoperator, d) - np.eye(d * d))
    rank = cut_rank(sv, tol)
    right, left = vh[rank:], u[:, rank:].T
    limit = np.linalg.solve(left @ right.T, left @ embed_hermitian(np.eye(d) / d)) @ right
    return unembed_hermitian(right, d), unembed_hermitian(left, d), unembed_hermitian(limit, d)


def recorded_linalg(monkeypatch):
    """Wrap np.linalg.svd and np.linalg.eigvalsh; the returned list records each call's shape (and compute_uv)."""
    calls, svd, eigvalsh = [], np.linalg.svd, np.linalg.eigvalsh

    def recorded_svd(a, *args, **kwargs):
        calls.append(("svd", np.shape(a), args[1] if len(args) > 1 else kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    def recorded_eigvalsh(a, *args, **kwargs):
        calls.append(("eigvalsh", np.shape(a)))
        return eigvalsh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", recorded_svd)
    monkeypatch.setattr(np.linalg, "eigvalsh", recorded_eigvalsh)
    return calls


def span_projector(basis):
    """Orthogonal projector onto the span of a stacked HS-orthonormal Hermitian basis."""
    x = embed_hermitian(basis)
    return x.T @ x


def slowly_mixing_channel(d, eps=1e-3):
    """(1 - eps) id + eps Psi for a constrained Psi: a unique fixed state, spectral gap about eps."""
    kraus = np.sqrt(eps) * random_constrained_channel(d, 3).kraus
    return Channel(np.concatenate([np.sqrt(1 - eps) * np.eye(d)[None], kraus]))


KERNEL_REGIMES = {  # name -> (channel, kernel dimension k of S_r - 1)
    "k=1 constrained": (lambda: random_constrained_channel(5, 0), 1),
    "k=d unitary": (lambda: Channel.unitary(random_unitary(5, np.random.default_rng(2))), 5),
    "k>n/2 swap interaction": (lambda: build_swap_scheme(State.diagonal([0.7, 0.3])).interaction, 40),
    "k=n identity": (lambda: Channel.identity(4), 16),
    "slowly mixing": (lambda: slowly_mixing_channel(4), 1),
}


class TestBorderedKernels:
    @pytest.mark.parametrize("regime", sorted(KERNEL_REGIMES))
    def test_matches_the_full_svd_reference(self, regime):
        build, k = KERNEL_REGIMES[regime]
        ch = build()
        fixed = cesaro_average(ch)
        right, left, limit = full_svd_fixed_points(ch)
        assert len(fixed.fixed) == len(right) == len(fixed.dual_fixed) == len(left) == k
        assert np.abs(span_projector(fixed.fixed) - span_projector(right)).max() < 1e-9
        assert np.abs(span_projector(fixed.dual_fixed) - span_projector(left)).max() < 1e-9
        assert np.abs(fixed.mixture_limit - limit).max() < 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_a_unital_channel_with_one_fixed_point_is_bordered_by_its_kernels(self, seed):
        # U = V = the identity's coordinates span both kernels of a, so M = a + U V^T has a's nonzero
        # singular values and 1: M is as well conditioned as a's spectral gap allows
        a = hermitian_superoperator(random_bistochastic_channel(4, 3, seed).superoperator, 4) - np.eye(16)
        sv = np.linalg.svd(a, compute_uv=False)
        assert cut_rank(sv) == 15
        u, v = thirdlaw._borders(16, 1)
        assert np.abs(np.abs(u.T @ embed_hermitian(np.eye(4))) - 2).max() < 1e-14 and np.array_equal(u, v)
        bordered = np.linalg.svd(a + u @ v.T, compute_uv=False)
        assert np.abs(np.sort(bordered) - np.sort(np.append(sv[:15], 1.0))).max() < 1e-13

    def test_the_transposed_solve_returns_the_identity_border(self):
        # u_1 = v_1 = +-1's coordinates over sqrt d, and a^T v_1 = 0 for a trace-preserving map:
        # M^T v_1 = a^T v_1 + V U^T v_1 = v_1, so M^-T V's first column is the identity's, as L = e takes it
        channels = [build() for build, _ in KERNEL_REGIMES.values()] + [
            family(d, seed) for family, _ in CHANNEL_FAMILIES.values() for d in range(2, 9)
            for seed in range(2)]
        channels += [random_channel(d, d, 3, d) for d in range(2, 9)]
        for ch in channels:
            d, n = ch.dim_in, ch.dim_in ** 2
            a = hermitian_superoperator(ch.superoperator, d) - np.eye(n)
            u, v = thirdlaw._borders(n, n - cut_rank(np.linalg.svd(a, compute_uv=False)))
            assert np.array_equal(u[:, 0], v[:, 0])
            assert np.abs(np.abs(v[:, 0]) - np.abs(embed_hermitian(np.eye(d))) / np.sqrt(d)).max() < 1e-15
            y = np.linalg.solve((a + u @ v.T).T, v)[:, 0]
            assert min(np.abs(y - v[:, 0]).max(), np.abs(y + v[:, 0]).max()) < 1e-13

    @pytest.mark.parametrize("regime", sorted(KERNEL_REGIMES))
    def test_k_1_factors_m_alone_and_k_above_1_m_and_its_transpose_in_one_call(self, monkeypatch, regime):
        build, k = KERNEL_REGIMES[regime]
        ch, solve, shapes = build(), np.linalg.solve, []
        n = ch.dim_in ** 2

        def recorded_solve(a, b):
            shapes.append(np.shape(a))
            return solve(a, b)
        monkeypatch.setattr(np.linalg, "solve", recorded_solve)
        fixed = cesaro_average(ch)
        assert shapes == [(1 if k == 1 else 2, n, n), (k, k)]  # the kernel solve, then the limit's
        if k == 1:
            assert np.array_equal(fixed.dual_fixed[0], np.eye(ch.dim_in) / np.sqrt(ch.dim_in))

    def test_a_dual_off_the_identity_by_more_than_the_cut_takes_the_transposed_solve(self, monkeypatch):
        # K_i (1 + 1e-7 Y), Y = diag(1, -1, 0), for a unital qutrit channel, accepted at atol 1e-6.
        # tr(Y 1/3) = 0 keeps the eigenvalue 1 to second order, so k = 1, but
        # ||e^T a|| = ||Phi^*(1) - 1||_F / sqrt 3 = 1.6e-7 misses the cut: L = e would fail its residual
        tol = Tolerances(atol_equality=1e-6)
        tilt, e = np.eye(3) + 1e-7 * np.diag([1.0, -1.0, 0.0]), embed_hermitian(np.eye(3)) / np.sqrt(3)
        ch = Channel(random_bistochastic_channel(3, 3, 0).kraus @ tilt, tol)
        a = hermitian_superoperator(ch.superoperator, 3) - np.eye(9)
        sv = np.linalg.svd(a, compute_uv=False)
        assert cut_rank(sv, tol) == 8 and hs_norm(e @ a) > rank_cut(sv, tol)
        solve, shapes = np.linalg.solve, []
        monkeypatch.setattr(np.linalg, "solve", lambda m, b: shapes.append(np.shape(m)) or solve(m, b))
        fixed = cesaro_average(ch, tol)
        assert shapes == [(2, 9, 9), (1, 1)]
        right, left, limit = full_svd_fixed_points(ch, tol)
        assert np.abs(span_projector(fixed.fixed) - span_projector(right)).max() < 1e-12
        assert np.abs(span_projector(fixed.dual_fixed) - span_projector(left)).max() < 1e-12
        assert np.abs(fixed.mixture_limit - limit).max() < 1e-12
        assert np.abs(span_projector(fixed.dual_fixed) - np.outer(e, e)).max() > 1e-7

    def test_no_svd_returns_singular_vectors(self, monkeypatch):
        # a certified call: one eigvalsh of the n x n Gram, no SVD; a fallback call: one values-only SVD more
        certified = [build() for build, _ in KERNEL_REGIMES.values()]
        fallback = [leaky_chain(1e-7), Channel(np.sqrt(1 + 5e-8) * random_constrained_channel(4, 3).kraus,
                                               Tolerances(1e-7, 1e-8))]
        calls = recorded_linalg(monkeypatch)
        for ch in certified:
            cesaro_average(ch)
        want = [("eigvalsh", (ch.dim_in ** 2,) * 2) for ch in certified]
        assert calls == want
        cesaro_average(fallback[0])
        with pytest.raises(NoConvergence, match="smallest singular value"):
            cesaro_average(fallback[1], Tolerances(1e-7, 1e-8))
        want += [("eigvalsh", (9, 9)), ("svd", (9, 9), False), ("eigvalsh", (16, 16)), ("svd", (16, 16), False)]
        assert calls == want

    def test_repeated_calls_are_bitwise_equal_and_leave_the_global_rng(self):
        ch = random_constrained_channel(6, 1)
        np.random.seed(12345)
        before = np.random.get_state()
        first, second = cesaro_average(ch), cesaro_average(ch)
        after = np.random.get_state()
        assert before[0] == after[0] and np.array_equal(before[1], after[1]) and before[2:] == after[2:]
        for a, b in zip((first.fixed, first.dual_fixed, first.mixture_limit),
                        (second.fixed, second.dual_fixed, second.mixture_limit)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("degenerate, channel", [
        (lambda b: np.zeros_like(b), lambda: Channel.unitary(random_unitary(4, np.random.default_rng(0)))),
        (lambda b: np.repeat(b[:, :, :1], b.shape[2], axis=2),  # every column the same: rank 1
         lambda: Channel.unitary(random_unitary(4, np.random.default_rng(0)))),
        (lambda b: np.zeros_like(b), lambda: Channel.identity(3)),  # M = 0: the solve itself fails
        (lambda b: np.zeros_like(b), lambda: random_constrained_channel(3, 0)),  # k = 1: M = a, R from 0
    ], ids=["zero", "rank-1", "zero-on-identity", "zero-on-k=1"])
    def test_degenerate_borders_raise_instead_of_a_wrong_kernel(self, monkeypatch, degenerate, channel):
        borders = thirdlaw._borders
        monkeypatch.setattr(thirdlaw, "_borders", lambda n, k: degenerate(borders(n, k)))
        with pytest.raises(NoConvergence):
            cesaro_average(channel())


CHANNEL_FAMILIES = {
    "constrained": (lambda d, seed: random_constrained_channel(d, seed), True),
    "bistochastic": (lambda d, seed: random_bistochastic_channel(d, 3, seed), True),
    "low-rank preparation": (lambda d, seed: random_low_rank_preparation(d, d - 1, seed), False),
}


def leaky_chain(gamma):
    """A classical 3-state chain, measured and prepared in the computational basis: states 0 and 1 exchange
    with probability 1/2, and each leaks gamma / 2 to state 2, which leaks gamma / 2 back to each.  S - 1 has
    one singular value 1.5 gamma (the mode (1, 1, -2)) next to singular values 1 (the coherences)."""
    t = np.array([[0.5 - gamma / 2, 0.5, gamma / 2], [0.5, 0.5 - gamma / 2, gamma / 2],
                  [gamma / 2, gamma / 2, 1 - gamma]])  # column x: the state prepared after outcome x
    return Channel.measure_prepare([(np.diag(e), np.diag(col)) for e, col in zip(np.eye(3), t.T)])


def gram_band(a, tol=DEFAULT_TOL):
    """cesaro_average's statistic: the Gram's eigenvalues mu, the cut, and delta = 4 n eps (||a||_F^2 + mu_max)."""
    mu = np.linalg.eigvalsh(a.T @ a)
    return mu, rank_cut(abs(mu[-1:]) ** 0.5, tol), 4 * len(a) * EPS * (hs_norm(a) ** 2 + mu[-1])


def svd_fixed_points(a, d, tol=DEFAULT_TOL):
    """The kernels with k decided by the values-only SVD alone, as cesaro_average's fallback computes them."""
    sv = np.linalg.svd(a, compute_uv=False)
    if not cut_rank(sv, tol) < d * d:
        raise NoConvergence("no fixed point")
    return thirdlaw._bordered_fixed_points(a, d * d - cut_rank(sv, tol), rank_cut(sv, tol), d)


class TestGramCertificate:
    """The Gram's eigenvalues propose k, the bordered residuals certify it, and the SVD decides the rest."""

    def test_the_chain_puts_one_singular_value_at_one_and_a_half_gamma_under_a_band_top_of_2_5e_7(self):
        for gamma in (1e-9, 1e-7, 1e-6):
            a = hermitian_superoperator(leaky_chain(gamma).superoperator, 3) - np.eye(9)
            sv = np.linalg.svd(a, compute_uv=False)
            mu, cut, delta = gram_band(a)
            assert abs(sv[-2] - 1.5 * gamma) < 1e-6 * gamma and sv[-1] < 1e-15
            assert np.allclose(sv[:-2], [1 + gamma / 2] + [1.0] * 6, rtol=0, atol=1e-15)
            assert 2.5e-7 < (cut ** 2 + delta) ** 0.5 < 2.55e-7

    def test_a_singular_value_in_the_band_takes_one_fallback_svd(self, monkeypatch):
        calls = recorded_linalg(monkeypatch)
        fixed = cesaro_average(leaky_chain(1e-7))  # two candidates; the SVD puts 1.5e-7 above the cut
        assert calls == [("eigvalsh", (9, 9)), ("svd", (9, 9), False)] and len(fixed.fixed) == 1
        assert np.abs(fixed.mixture_limit - np.eye(3) / 3).max() < 1e-8  # eps over the 1.5e-7 gap

    def test_a_singular_value_above_the_band_is_certified(self, monkeypatch):
        calls = recorded_linalg(monkeypatch)
        fixed = cesaro_average(leaky_chain(1e-6))
        assert calls == [("eigvalsh", (9, 9))] and len(fixed.fixed) == 1

    def test_a_singular_value_just_under_the_cut_raises_as_the_svd_path_does(self, monkeypatch):
        # k = 2 at the cut, but the bordered residual of the slow mode, 1.3e-8, misses it
        calls = recorded_linalg(monkeypatch)
        with pytest.raises(NoConvergence, match=r"bordered kernel residual 1\.3\d\de-08 exceeds the rank cut"):
            cesaro_average(leaky_chain(1e-9))
        assert calls == [("eigvalsh", (9, 9)), ("svd", (9, 9), False)]
        a = hermitian_superoperator(leaky_chain(1e-9).superoperator, 3) - np.eye(9)
        with pytest.raises(NoConvergence, match=r"bordered kernel residual 1\.3\d\de-08 exceeds the rank cut"):
            svd_fixed_points(a, 3)

    @settings(max_examples=40, deadline=None)
    @given(log_gamma=st.floats(-10, -3), useed=st.integers(0, 2 ** 31 - 1))
    def test_the_kernel_dimension_is_the_svds(self, log_gamma, useed):
        u = random_unitary(3, np.random.default_rng(useed))
        ch = Channel(tuple(u @ k @ dagger(u) for k in leaky_chain(10.0 ** log_gamma).kraus))
        a = hermitian_superoperator(ch.superoperator, 3) - np.eye(9)
        try:
            want = svd_fixed_points(a, 3)
        except NoConvergence:
            with pytest.raises(NoConvergence):
                cesaro_average(ch)
        else:
            got = cesaro_average(ch)
            assert len(got.fixed) == len(want.fixed) == 9 - cut_rank(np.linalg.svd(a, compute_uv=False))
            assert np.abs(span_projector(got.fixed) - span_projector(want.fixed)).max() < 1e-9

    def test_the_gram_eigenvalues_are_the_squared_singular_values_within_a_quarter_delta(self):
        channels = [build() for build, _ in KERNEL_REGIMES.values()] + [
            family(d, seed) for family, _ in CHANNEL_FAMILIES.values() for d in range(2, 9) for seed in range(2)]
        for ch in channels:
            n = ch.dim_in ** 2
            a = hermitian_superoperator(ch.superoperator, ch.dim_in) - np.eye(n)
            mu, _, delta = gram_band(a)
            assert np.abs(mu - np.linalg.svd(a, compute_uv=False)[::-1] ** 2).max() <= delta / 4


class TestUnitaryInvariance:
    @settings(max_examples=30, deadline=None)
    @given(family=st.sampled_from(sorted(CHANNEL_FAMILIES)), d=st.integers(2, 4),
           seed=st.integers(0, 2 ** 31 - 1), useed=st.integers(0, 2 ** 31 - 1))
    def test_verdicts_and_fixed_state_follow_conjugation(self, family, d, seed, useed):
        build, constrained = CHANNEL_FAMILIES[family]
        ch = build(d, seed)
        u = random_unitary(d, np.random.default_rng(useed))
        conj = Channel(tuple(u @ k @ dagger(u) for k in ch.kraus))

        def routes(c):
            return (check_channel_thirdlaw(c).constrained, check_faithfulness(c),
                    full_rank_fixed_state(c).is_full_rank)
        assert routes(ch) == routes(conj) == (constrained,) * 3
        rho = full_rank_fixed_state(ch).state.matrix
        assert np.abs(full_rank_fixed_state(conj).state.matrix - u @ rho @ dagger(u)).max() < 1e-10


def prepare_near_the_cut(d, lam_f, k=1):
    """rho -> tr(rho) diag(w) (x) id_k, with frame operator F = d diag(w) (x) 1_k and
    lambda_min(F) = lam_f; the other weights of w are equal."""
    w = np.full(d, (1 - lam_f / d) / (d - 1))
    w[-1] = lam_f / d
    channel = Channel.measure_prepare([(np.eye(d), np.diag(w))])
    return channel if k == 1 else Channel(np.kron(channel.kraus, np.eye(k)))


def three_routes(channel):
    """Route 1 (image), route 2 (faithful), route 3 (fixed)."""
    return (check_channel_thirdlaw(channel).constrained, check_faithfulness(channel),
            full_rank_fixed_state(channel).is_full_rank)


NEAR_THE_CUT = [(2, 2e-8, 1), (8, 5e-8, 1), (16, 1e-7, 1), (4, 5e-8, 1), (4, 5e-8, 2), (4, 5e-8, 4)]


class TestRoutesNearTheCut:
    """Routes 1 and 2 threshold one operator, F = Phi(1), at rank_cut of its own spectrum; an
    idle factor id_k keeps that spectrum, so it moves neither route."""

    @pytest.mark.parametrize("d, lam_f", [(2, 2e-8), (8, 5e-8), (16, 1e-7)])
    def test_image_and_faithful_routes_agree(self, d, lam_f):
        image, faithful, _ = three_routes(prepare_near_the_cut(d, lam_f))
        assert image == faithful

    def test_an_idle_factor_keeps_the_image_verdict(self):
        verdicts = [check_channel_thirdlaw(prepare_near_the_cut(4, 5e-8, k)).constrained for k in (1, 2, 4)]
        assert len(set(verdicts)) == 1

    @pytest.mark.parametrize("d, lam_f, k", NEAR_THE_CUT)
    def test_a_full_rank_fixed_state_implies_a_faithful_dual(self, d, lam_f, k):
        _, faithful, fixed = three_routes(prepare_near_the_cut(d, lam_f, k))
        assert faithful or not fixed

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(2, 16), log_lam=st.floats(-10, -5), k=st.sampled_from([2, 3]),
           useed=st.integers(0, 2 ** 31 - 1))
    def test_the_routes_follow_the_cut_on_f(self, d, log_lam, k, useed):
        # F = d diag(w) has lambda_max (d - lam_f) / (d - 1); within rounding of its cut the
        # sandwich (route 1) and the Gram (route 2) that form F may split, so those draws are skipped
        lam_f = 10.0 ** log_lam
        cut = rank_cut(np.array([(d - lam_f) / (d - 1)]))
        assume(abs(lam_f - cut) > 1e-6 * cut)
        u = random_unitary(d, np.random.default_rng(useed))
        phi = Channel(tuple(u @ kraus @ dagger(u) for kraus in prepare_near_the_cut(d, lam_f).kraus))
        idle = Channel(np.kron(phi.kraus, np.eye(k)))
        for channel in (phi, idle):
            assert check_channel_thirdlaw(channel).constrained == check_faithfulness(channel) == (lam_f > cut)
            if channel.dim_in <= 12:  # route 3 only where the fixed-point solve is cheap
                assert lam_f > cut or not full_rank_fixed_state(channel).is_full_rank


class TestSchemeVerdict:
    def test_luders_scheme_constrained(self):
        scheme = build_luders_scheme(completely_unsharp_pair())
        assert check_scheme_thirdlaw(scheme).constrained

    def test_pure_ancilla_swap_not_constrained(self):
        scheme = trivial_swap_scheme(State.pure([1.0, 0.0]), pointer_observable(2))
        assert not check_scheme_thirdlaw(scheme).constrained

    def test_extremal_model_constrained(self):
        assert check_scheme_thirdlaw(build_extremal_model()).constrained


class TestCompositionClosure:
    def test_constrained_pairs_compose_constrained(self):
        for seed in range(10):
            a = random_constrained_channel(3, seed)
            b = random_constrained_channel(3, seed + 100)
            assert check_channel_thirdlaw(compose(b, a)).constrained

    def test_corollary_channel_families(self):
        rng = np.random.default_rng(0)
        ds, da = 2, 3
        xi = random_full_rank_state(da, 5)
        w, v = np.linalg.eigh(xi.matrix)
        attach = Channel(tuple(
            np.kron(np.eye(ds), np.sqrt(wi) * v[:, i:i + 1]) for i, wi in enumerate(w)
        ))
        assert check_channel_thirdlaw(attach).constrained

        u = random_unitary(ds * da, rng)
        trace_out = Channel(tuple(
            np.kron(np.eye(ds), e.reshape(1, -1)).astype(complex) for e in np.eye(da)
        ))
        assert check_channel_thirdlaw(trace_out).constrained
        open_dynamics = compose(trace_out, compose(Channel.unitary(u), attach))
        assert check_channel_thirdlaw(open_dynamics).constrained

        assert check_channel_thirdlaw(random_bistochastic_channel(3, 3, 1)).constrained
        assert check_channel_thirdlaw(Channel.unitary(random_unitary(3, rng))).constrained


class TestBistochasticRank:
    def test_rank_non_decreasing_sample(self):
        for seed in range(20):
            d = 2 + seed % 3
            ch = random_bistochastic_channel(d, 2 + seed % 2, seed)
            for rank in range(1, d + 1):
                rho = random_state_of_rank(d, rank, seed * 10 + rank)
                assert numerical_rank(apply(ch, rho.matrix)) >= rank


class TestPurification:
    def test_copy_count_examples(self):
        assert minimal_copy_count(1, 2, 2) == 1
        assert minimal_copy_count(1, 3, 2) == 2
        assert minimal_copy_count(2, 2, 3) == 2

    def test_copy_count_matches_brute_force(self):
        for r in (1, 2, 3):
            for n in (2, 3, 4):
                for m in (2, 3, 4):
                    brute = None
                    for d in range(1, 13):
                        if (r ** d) * n <= m ** d:
                            brute = d
                            break
                    if brute is None:
                        with pytest.raises(InfeasibleDimensions):
                            minimal_copy_count(r, n, m)
                    else:
                        assert minimal_copy_count(r, n, m) == brute

    def test_qubit_protocol_exact(self):
        rho0 = random_full_rank_state(2, 3)
        xi = State.pure([0.0, 1.0])
        target = random_full_rank_state(2, 9)
        res = purify_via_unconstrained(rho0, xi, target)
        assert res.copies == 1
        assert res.fidelity > 1.0 - 1e-9

    def test_rank2_resource_on_qutrit_ancilla(self):
        rho0 = random_full_rank_state(2, 1)
        xi = random_state_of_rank(3, 2, 2)
        target = State.pure(np.array([1.0, 1j]) / np.sqrt(2))
        res = purify_via_unconstrained(rho0, xi, target)
        assert res.copies == 2
        assert res.fidelity > 1.0 - 1e-9

    def test_a_resource_weight_at_the_cut_is_truncated_and_the_rest_renormalised(self):
        # xi = diag(1 - 0.99e-8, 0.99e-8, 0) has rank 1 at the cut 1e-8: the protocol acts on |0><0|
        rho0 = State.diagonal([0.6, 0.4])
        res = purify_via_unconstrained(rho0, State.diagonal([1 - 0.99e-8, 0.99e-8, 0.0]), rho0)
        assert res.copies == 1
        assert np.abs(res.restricted.eig()[0] - [1.0, 0.0]).max() < 1e-15
        assert abs(np.trace(res.state.matrix) - 1) < 1e-15 and res.fidelity > 1 - 1e-12

    def test_full_rank_resource_rejected(self):
        rho0 = random_full_rank_state(2, 3)
        xi = random_full_rank_state(2, 4)
        with pytest.raises(InfeasibleDimensions):
            purify_via_unconstrained(rho0, xi, rho0)
