import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeas import algebra
from qmeas.algebra import (
    OperatorSubspace,
    commutant_residual,
    decompose,
    effect_blocks,
    fixed_point_space,
    hermitian_basis,
    subspace_distance,
    verify_algebra,
)
from qmeas.core import Instrument, Observable, Operation, State, luders_instrument, scheme_to_instrument
from qmeas.errors import DecompositionMismatch, DimensionMismatch, NotAnAlgebra
from qmeas.linalg import Tolerances, cut_rank, dagger, hs_norm
from qmeas.models import (
    build_luders_scheme,
    build_shift_scheme,
    build_swap_scheme,
    completely_unsharp_pair,
    pointer_observable,
    random_constrained_scheme,
    random_full_rank_state,
    random_povm,
    random_unitary,
    shift_observable,
    trivial_instrument,
    trivial_swap_scheme,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def swap_instrument():
    return scheme_to_instrument(build_swap_scheme(State(np.diag([0.7, 0.3]).astype(complex))))


def shift_instrument():
    return scheme_to_instrument(build_shift_scheme(3, (0.5, 0.3, 0.2)))


class TestFixedPointSpace:
    def test_partial_swap_keeps_first_factor(self):
        space = fixed_point_space(swap_instrument())
        assert space.dim == 4
        assert len(space) == 4
        assert verify_algebra(space)

    def test_dephasing_keeps_diagonal(self):
        space = fixed_point_space(shift_instrument())
        assert len(space) == 3
        for a in space.basis:
            assert np.abs(a - np.diag(np.diag(a))).max() < 1e-10
            for b in space.basis:
                assert hs_norm(a @ b - b @ a) < 1e-10

    def test_measure_and_prepare_keeps_scalars(self):
        scheme = trivial_swap_scheme(
            State(np.diag([0.6, 0.4]).astype(complex)), pointer_observable(2)
        )
        space = fixed_point_space(scheme_to_instrument(scheme))
        assert len(space) == 1
        eye = np.eye(2, dtype=complex)
        assert hs_norm(eye - space.project(eye)) < 1e-10

    def test_unsharp_luders_keeps_diagonal(self):
        space = fixed_point_space(luders_instrument(completely_unsharp_pair()))
        assert len(space) == 2


class TestVerifyAlgebra:
    def test_scalars(self):
        assert verify_algebra(OperatorSubspace(2, (np.eye(2, dtype=complex) / np.sqrt(2),)))

    def test_product_closure_failure(self):
        span = OperatorSubspace(2, (np.eye(2, dtype=complex) / np.sqrt(2), SX / np.sqrt(2), SY / np.sqrt(2)))
        assert not verify_algebra(span)

    def test_tuple_and_stack_give_the_same_subspace(self):
        mats = (np.eye(2, dtype=complex) / np.sqrt(2), SX / np.sqrt(2), SY / np.sqrt(2))
        from_tuple, from_stack = OperatorSubspace(2, mats), OperatorSubspace(2, np.stack(mats))
        assert from_tuple.basis.shape == from_stack.basis.shape == (3, 2, 2)
        assert np.array_equal(from_tuple.basis, from_stack.basis)
        assert len(from_tuple) == len(from_stack) == 3
        x = np.array([[1.0, 2.0j], [3.0, 4.0]])
        stack = np.stack([x, SX, np.eye(2)])
        for space in (from_tuple, from_stack):
            assert np.abs(space.project(x) - (x - np.trace(x @ SZ) * SZ / 2)).max() < 1e-12
            projected = space.project(stack)
            for m, got in zip(stack, projected):
                assert np.abs(got - space.project(m)).max() < 1e-12
        assert verify_algebra(from_tuple) == verify_algebra(from_stack) is False
        with pytest.raises(DimensionMismatch):
            OperatorSubspace(2, (np.eye(4),))

    def test_adjoint_closure_failure(self):
        raiser = np.zeros((2, 2), dtype=complex)
        raiser[0, 1] = 1.0
        span = OperatorSubspace(2, (np.eye(2, dtype=complex) / np.sqrt(2), raiser))
        assert not verify_algebra(span)

    def test_closure_is_cut_at_atol_equality(self):
        # span{1, h}, h with eigenvalues 1, 1 + 3e-8, -1: h^2 misses the span by about 1e-8
        span = OperatorSubspace(3, hermitian_basis([np.eye(3), np.diag([1.0, 1.0 + 3e-8, -1.0])], 3))
        assert len(span) == 2
        assert not verify_algebra(span)
        assert verify_algebra(span, Tolerances(atol_equality=1e-7))

    def test_hermitian_basis_spans_and_orthonormalizes(self):
        basis = hermitian_basis([SX, 2.0 * SX, SY], 2)
        assert len(basis) == 2
        for b in basis:
            assert np.abs(b - b.conj().T).max() < 1e-12
            assert abs(hs_norm(b) - 1.0) < 1e-12


class TestDecompose:
    def test_partial_swap_single_factor(self):
        inst = swap_instrument()
        deco = decompose(fixed_point_space(inst), inst)
        assert [(b.dim_k, b.dim_r) for b in deco.blocks] == [(2, 2)]
        assert deco.reconstruction_residual < 1e-7
        omega = deco.blocks[0].omega.matrix
        assert np.abs(omega - np.diag([0.7, 0.3])).max() < 1e-8

    def test_dephasing_three_singletons(self):
        inst = shift_instrument()
        deco = decompose(fixed_point_space(inst), inst)
        assert sorted((b.dim_k, b.dim_r) for b in deco.blocks) == [(1, 1)] * 3
        assert deco.reconstruction_residual < 1e-7
        ranks = sorted(int(round(np.trace(b.projection).real)) for b in deco.blocks)
        assert ranks == [1, 1, 1]

    def test_unsharp_luders_two_singletons(self):
        inst = luders_instrument(completely_unsharp_pair())
        deco = decompose(fixed_point_space(inst), inst)
        assert sorted((b.dim_k, b.dim_r) for b in deco.blocks) == [(1, 1)] * 2

    def test_block_units_reproduce_span(self):
        inst = swap_instrument()
        space = fixed_point_space(inst)
        deco = decompose(space, inst)
        assert subspace_distance(algebra._block_units(deco.blocks), list(space.basis), 4) < 1e-7

    @pytest.mark.parametrize("eps", [1e-3, 1e-7, 1e-11])
    def test_subspace_distance_is_the_projector_distance(self, eps):
        rng = np.random.default_rng(7)
        def spans(count):
            g = rng.standard_normal((count, 3, 3)) + 1j * rng.standard_normal((count, 3, 3))
            return g, g + eps * rng.standard_normal((count, 3, 3))
        def projector(mats):
            q, _ = np.linalg.qr(np.array(mats).reshape(len(mats), -1).T)
            return q @ q.conj().T
        a, b = spans(4)
        reference = np.linalg.norm(projector(a) - projector(b), 2)
        assert abs(subspace_distance(a, b, 3) - reference) < 1e-14 + 1e-6 * reference
        assert subspace_distance(a, b[:3], 3) == 1.0

    def test_rejects_non_algebra(self):
        span = OperatorSubspace(2, (np.eye(2, dtype=complex) / np.sqrt(2), SX / np.sqrt(2), SY / np.sqrt(2)))
        with pytest.raises(NotAnAlgebra):
            decompose(span, trivial_instrument(pointer_observable(2)))

    def test_one_cesaro_average_and_one_superoperator_svd(self, monkeypatch):
        inst = swap_instrument()
        d2 = inst.dim ** 2
        calls = {"cesaro_average": 0, "svd": 0}
        cesaro_average, svd = algebra.cesaro_average, np.linalg.svd

        def counted_cesaro_average(*args, **kwargs):
            calls["cesaro_average"] += 1
            return cesaro_average(*args, **kwargs)

        def counted_svd(a, *args, **kwargs):
            if np.shape(a) == (d2, d2):  # the superoperator's, which needs only its singular values
                calls["svd"] += 1
                calls["compute_uv"] = kwargs.get("compute_uv", True)
            return svd(a, *args, **kwargs)
        monkeypatch.setattr(algebra, "cesaro_average", counted_cesaro_average)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        decompose(fixed_point_space(inst), inst)
        assert calls == {"cesaro_average": 1, "svd": 1, "compute_uv": False}

    # the center's kernel from the commutator map's R factor against one from an SVD of the whole map
    @pytest.mark.parametrize("seed", [0, 5, 11])
    @pytest.mark.parametrize("kind", ["random-4", "random-6", "swap-4", "luders-4", "shift-5"])
    def test_center_kernel_from_the_r_factor_leaves_the_decomposition_unchanged(self, kind, seed,
                                                                                   monkeypatch):
        rng = np.random.default_rng(seed)
        scheme = {
            "random-4": lambda: random_constrained_scheme(4, 4, 2, seed),
            "random-6": lambda: random_constrained_scheme(6, 4, 2, seed),
            "swap-4": lambda: build_swap_scheme(random_full_rank_state(4, seed)),
            "luders-4": lambda: build_luders_scheme(random_povm(4, 3, seed, mode="completely-unsharp")),
            "shift-5": lambda: build_shift_scheme(5, 0.5 * rng.dirichlet(np.ones(5)) + 0.1),
        }[kind]()
        inst = scheme_to_instrument(scheme)
        space = fixed_point_space(inst)
        got = decompose(space, inst)

        def svd_kernel(a, tol):
            _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
            return vh[cut_rank(s, tol):].conj().T
        monkeypatch.setattr(algebra, "kernel_basis", svd_kernel)
        want = decompose(space, inst)
        assert [(b.dim_k, b.dim_r) for b in got.blocks] == [(b.dim_k, b.dim_r) for b in want.blocks]
        for a, b in zip(got.blocks, want.blocks):
            assert np.abs(np.diag(a.omega.matrix) - np.diag(b.omega.matrix)).max() < 1e-12
        assert abs(got.reconstruction_residual - want.reconstruction_residual) < 1e-12

    @pytest.mark.parametrize("make", [
        swap_instrument,
        lambda: scheme_to_instrument(build_swap_scheme(State(np.diag([0.5, 0.3, 0.2]).astype(complex)))),
        shift_instrument,
        lambda: luders_instrument(completely_unsharp_pair()),
    ], ids=["swap-2", "swap-3", "shift", "luders"])
    def test_span_without_fixed_point_record_reads_the_total_channel(self, make):
        inst = make()
        space = fixed_point_space(inst)
        bare = OperatorSubspace(space.dim, space.basis)
        assert bare.fixed_points is None
        with_record, without = decompose(space, inst), decompose(bare, inst)
        assert ([(b.dim_k, b.dim_r) for b in with_record.blocks]
                == [(b.dim_k, b.dim_r) for b in without.blocks])
        for a, b in zip(with_record.blocks, without.blocks):
            assert np.allclose(np.linalg.eigvalsh(a.omega.matrix), np.linalg.eigvalsh(b.omega.matrix),
                               rtol=0, atol=1e-9)
        assert without.reconstruction_residual < 1e-7

    @settings(max_examples=20, deadline=None)
    @given(name=st.sampled_from(("swap", "shift", "luders")), useed=st.integers(0, 2 ** 31 - 1))
    def test_dimensions_follow_unitary_conjugation(self, name, useed):
        inst = {"swap": swap_instrument, "shift": shift_instrument,
                "luders": lambda: luders_instrument(completely_unsharp_pair())}[name]()
        u = random_unitary(inst.dim, np.random.default_rng(useed))
        conj = Instrument(tuple(Operation(tuple(u @ k @ dagger(u) for k in op.kraus))
                                for op in inst.operations), inst.outcomes)
        blocks, decos, spectra = [], [], []
        for i in (inst, conj):
            space = fixed_point_space(i)
            deco = decompose(space, i)
            assert deco.reconstruction_residual < 1e-7
            blocks.append((len(space), sorted((b.dim_k, b.dim_r) for b in deco.blocks)))
            decos.append(deco)
            spectra.append(effect_blocks(i.induced_observable(), deco).spectra())
        assert blocks[0] == blocks[1]
        # the conjugate's block alpha is the one whose central projection is U P_alpha U^dag
        ours, theirs = decos[0].blocks, decos[1].blocks
        match = [min(range(len(theirs)),
                     key=lambda b: hs_norm(u @ blk.projection @ dagger(u) - theirs[b].projection))
                 for blk in ours]
        assert sorted(match) == list(range(len(ours)))
        for alpha, beta in enumerate(match):
            assert np.allclose(np.linalg.eigvalsh(ours[alpha].omega.matrix),
                               np.linalg.eigvalsh(theirs[beta].omega.matrix), rtol=0, atol=1e-9)
            for per_outcome, conj_per_outcome in zip(*spectra):
                assert np.allclose(per_outcome[alpha], conj_per_outcome[beta], rtol=0, atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(name=st.sampled_from(("swap", "shift", "luders")), data=st.data())
    def test_outcome_relabelling_permutes_effect_blocks(self, name, data):
        inst = {"swap": swap_instrument, "shift": shift_instrument,
                "luders": lambda: luders_instrument(completely_unsharp_pair())}[name]()
        perm = data.draw(st.permutations(range(len(inst))))
        relabelled = Instrument(tuple(inst.operations[x] for x in perm),
                                tuple(inst.outcomes[x] for x in perm))
        decos, spectra = [], []
        for i in (inst, relabelled):
            deco = decompose(fixed_point_space(i), i)
            decos.append(deco)
            spectra.append(effect_blocks(i.induced_observable(), deco).spectra())
        blocks, relabelled_blocks = decos[0].blocks, decos[1].blocks
        assert (sorted((b.dim_k, b.dim_r) for b in blocks)
                == sorted((b.dim_k, b.dim_r) for b in relabelled_blocks))
        # the same block of each decomposition is the one with the same central projection
        match = [min(range(len(blocks)), key=lambda a: hs_norm(blocks[a].projection - b.projection))
                 for b in relabelled_blocks]
        for x, y in enumerate(perm):
            for alpha, beta in enumerate(match):
                assert np.allclose(spectra[1][x][alpha], spectra[0][y][beta], atol=1e-8)


class TestEffectBlocks:
    def test_partial_swap_readout_blocks(self):
        inst = swap_instrument()
        deco = decompose(fixed_point_space(inst), inst)
        eb = effect_blocks(inst.induced_observable(), deco)
        spectra = eb.spectra()
        for x, per_block in enumerate(spectra):
            assert len(per_block) == 1
            assert np.abs(np.sort(per_block[0]) - np.array([0.0, 1.0])).max() < 1e-8

    def test_shift_scalar_blocks(self):
        inst = shift_instrument()
        deco = decompose(fixed_point_space(inst), inst)
        eb = effect_blocks(inst.induced_observable(), deco)
        q = (0.5, 0.3, 0.2)
        got = [sorted(float(b[0, 0].real) for b in per_outcome) for per_outcome in eb.blocks]
        for per_outcome in got:
            assert np.abs(np.array(per_outcome) - np.array(sorted(q))).max() < 1e-10
        assert max(eb.residuals) < 1e-8

    def test_rejects_noncommuting_observable(self):
        inst = shift_instrument()
        deco = decompose(fixed_point_space(inst), inst)
        psi = np.ones(3, dtype=complex) / np.sqrt(3)
        proj = np.outer(psi, psi.conj())
        obs = Observable((proj, np.eye(3) - proj))
        with pytest.raises(DecompositionMismatch):
            effect_blocks(obs, deco)

    def test_commutator_and_reconstruction_are_cut_at_atol_equality(self):
        inst = shift_instrument()
        deco = decompose(fixed_point_space(inst), inst)
        e = np.diag([0.5, 0.3, 0.2]).astype(complex)
        e[0, 1] = e[1, 0] = 1e-8  # commutes with the diagonal fixed points up to about 1e-8
        obs = Observable((e, np.eye(3) - e))
        with pytest.raises(DecompositionMismatch):
            effect_blocks(obs, deco)
        eb = effect_blocks(obs, deco, Tolerances(atol_equality=1e-7))
        assert 1e-9 < max(eb.residuals) < 1e-7



class TestCommutant:
    def test_fixed_points_commute_with_induced_effects(self):
        for inst in (swap_instrument(), shift_instrument(),
                     luders_instrument(completely_unsharp_pair())):
            space = fixed_point_space(inst)
            assert commutant_residual(space, inst.induced_observable()) < 1e-8

    def test_detects_noncommuting_observable(self):
        space = fixed_point_space(shift_instrument())
        psi = np.ones(3, dtype=complex) / np.sqrt(3)
        proj = np.outer(psi, psi.conj())
        obs = Observable((proj, np.eye(3) - proj))
        assert commutant_residual(space, obs) > 0.1

    def test_sharp_pointer_forces_trivial_algebra(self):
        # rank-one readout effects leave only scalars fixed
        scheme = trivial_swap_scheme(
            State(np.diag([0.5, 0.5]).astype(complex)), shift_observable(2, (0.9, 0.1))
        )
        space = fixed_point_space(scheme_to_instrument(scheme))
        assert len(space) == 1
