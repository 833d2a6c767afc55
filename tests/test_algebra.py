from math import isqrt

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
    subspace_distance,
    verify_algebra,
)
from qmeas.core import Instrument, Observable, Operation, State, luders_instrument, scheme_to_instrument
from qmeas.errors import DecompositionMismatch, DegenerateCenter, DimensionMismatch, NotAnAlgebra
from qmeas.linalg import (
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
    unembed_hermitian,
)
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


def block_instrument(shape, rng, kraus_count=4):
    """A two-outcome instrument on C^d, d = sum k r over the (k, r) of shape, whose dual fixed
    algebra is U ((+)_alpha L(C^k) (x) 1_{C^r}) U^dag; returns it with U and the total effect
    of outcome "0" on each block's R.

    Its Kraus operators are (+)_alpha 1_k (x) A_{alpha,i}, with A_{alpha,i} the rows of a random
    isometry C^r -> C^kraus_count (x) C^r, a random channel on R_alpha whose dual fixes only the
    scalars; even i go to outcome "0", odd i to "1", and all are conjugated by a random U."""
    d = sum(k * r for k, r in shape)
    kraus, effects, at = np.zeros((kraus_count, d, d), dtype=complex), [], 0
    for k, r in shape:
        g = rng.standard_normal((kraus_count * r, r)) + 1j * rng.standard_normal((kraus_count * r, r))
        a = np.linalg.qr(g)[0].reshape(kraus_count, r, r)
        kraus[:, at:at + k * r, at:at + k * r] = np.kron(np.eye(k), a)
        effects.append((dagger(a[::2]) @ a[::2]).sum(axis=0))
        at += k * r
    u = random_unitary(d, rng)
    kraus = u @ kraus @ dagger(u)
    return Instrument((Operation(kraus[::2]), Operation(kraus[1::2])), ("0", "1")), u, effects


# The center-kernel construction decompose used before the generic pair, kept as a reference: the
# center is the kernel of the commutator map, a generic central element's eigenvalue clusters give
# each block's columns Q, and the block algebra Q^dag A Q is split by a generic pair of its own.

def hermitian_basis(mats, dim, tol=DEFAULT_TOL):
    """HS-orthonormal Hermitian basis, stacked, of the *-closed complex span of mats."""
    m = algebra._stack(mats, dim)
    rows = embed_hermitian(np.stack([hermitianize(m), (m - dagger(m)) / 2j], axis=1))
    _, s, vh = np.linalg.svd(rows.reshape(-1, dim * dim), full_matrices=False)
    return unembed_hermitian(vh[:cut_rank(s, tol)], dim)


def center_kernel_decompose(space, tol=DEFAULT_TOL, seed=0):
    rng = np.random.default_rng(seed)
    b = space.basis
    commutator_map = np.moveaxis(algebra._commutators(b, b), 0, -1).reshape(-1, len(b))
    center = hermitian_basis(np.tensordot(kernel_basis(commutator_map, tol).T, b, axes=1), space.dim, tol)
    w, v = hermitian_eig(np.tensordot(rng.standard_normal(len(center)), center, axes=1), tol)
    clusters = eigenvalue_clusters(w, tol)
    assert len(clusters) == len(center)
    blocks = []
    for q in (v[:, idx] for idx in clusters):
        block_basis = hermitian_basis(dagger(q) @ b @ q, q.shape[1], tol)
        dim_k = isqrt(len(block_basis))
        dim_r = q.shape[1] // dim_k
        assert dim_k * dim_k == len(block_basis) and dim_k * dim_r == q.shape[1]
        x, y = np.tensordot(rng.standard_normal((2, len(block_basis))), block_basis, axes=1)
        w, v_block = hermitian_eig(x, tol)
        frames = np.stack([v_block[:, idx] for idx in eigenvalue_clusters(w, tol)])
        a, _, bh = np.linalg.svd(dagger(frames[0]) @ y @ frames[1:])
        fact = q @ np.concatenate([frames[0], *(frames[1:] @ dagger(a @ bh))], axis=1)
        omega = partial_trace(dagger(fact) @ space.fixed_points.mixture_limit @ fact, (dim_k, dim_r), "first")
        w_om = hermitian_eig(hermitianize(omega) / np.trace(omega).real, tol)[0]
        blocks.append(algebra.FactorBlock(q @ dagger(q), dim_k, dim_r, fact, State(np.diag(w_om))))
    units = algebra._block_units([(blk.factorizer, blk.dim_k, blk.dim_r) for blk in blocks])
    residual = subspace_distance(units, b, space.dim, tol)
    return algebra.FactorDecomposition(space, tuple(blocks), residual)


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

    @pytest.mark.parametrize("t", [0.5e-9, 0.9e-9, 1.1e-9, 1.5e-9, 2.5e-9])
    def test_decompose_splits_exactly_the_spans_it_accepts(self, t):
        # the scalars tilted by t towards diag(1, -1, 1, -1): the identity misses the span by
        # about t in its largest entry, and the certificate's subspace distance is sin t
        span = OperatorSubspace(4, (np.cos(t) * np.eye(4) / 2 + np.sin(t) * np.diag([1.0, -1, 1, -1]) / 2,))
        inst = Instrument.from_kraus([[np.eye(4)]])
        assert verify_algebra(span) is (t < DEFAULT_TOL.atol_equality)
        if t < DEFAULT_TOL.atol_equality:
            assert decompose(span, inst).reconstruction_residual == pytest.approx(t, rel=1e-6)
        else:
            with pytest.raises(NotAnAlgebra):
                decompose(span, inst)


class TestDecompose:
    def test_partial_swap_single_factor(self):
        inst = swap_instrument()
        deco = decompose(fixed_point_space(inst), inst)
        assert [(b.dim_k, b.dim_r) for b in deco.blocks] == [(2, 2)]
        assert deco.reconstruction_residual <= DEFAULT_TOL.atol_equality
        omega = deco.blocks[0].omega.matrix
        assert np.abs(omega - np.diag([0.7, 0.3])).max() < 1e-8

    def test_dephasing_three_singletons(self):
        inst = shift_instrument()
        deco = decompose(fixed_point_space(inst), inst)
        assert sorted((b.dim_k, b.dim_r) for b in deco.blocks) == [(1, 1)] * 3
        assert deco.reconstruction_residual <= DEFAULT_TOL.atol_equality
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
        units = algebra._block_units([(b.factorizer, b.dim_k, b.dim_r) for b in deco.blocks])
        assert subspace_distance(units, list(space.basis), 4) <= DEFAULT_TOL.atol_equality

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

    def test_one_cesaro_average_and_one_superoperator_eigvalsh(self, monkeypatch):
        inst = swap_instrument()
        d2 = inst.dim ** 2
        calls = {"cesaro_average": 0, "eigvalsh": 0, "svd": 0}
        cesaro_average, svd, eigvalsh = algebra.cesaro_average, np.linalg.svd, np.linalg.eigvalsh

        def counted_cesaro_average(*args, **kwargs):
            calls["cesaro_average"] += 1
            return cesaro_average(*args, **kwargs)

        def counted(name, call):
            def counted_call(a, *args, **kwargs):
                if np.shape(a) == (d2, d2):  # the superoperator's, or its Gram's: the certified kernel needs no SVD
                    calls[name] += 1
                return call(a, *args, **kwargs)
            return counted_call
        monkeypatch.setattr(algebra, "cesaro_average", counted_cesaro_average)
        monkeypatch.setattr(np.linalg, "svd", counted("svd", svd))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", eigvalsh))
        decompose(fixed_point_space(inst), inst)
        assert calls == {"cesaro_average": 1, "eigvalsh": 1, "svd": 0}

    # the generic pair against the center-kernel reference, blocks matched by central projection
    @pytest.mark.parametrize("seed", [0, 5, 11])
    @pytest.mark.parametrize("kind", ["random-4", "random-6", "swap-4", "luders-4", "shift-5"])
    def test_generic_pair_matches_the_center_kernel_construction(self, kind, seed):
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
        got, want = decompose(space, inst), center_kernel_decompose(space)
        assert len(got.blocks) == len(want.blocks)
        match = [min(want.blocks, key=lambda b: hs_norm(a.projection - b.projection)) for a in got.blocks]
        assert len({id(b) for b in match}) == len(match)
        for a, b in zip(got.blocks, match):
            assert hs_norm(a.projection - b.projection) < 1e-9
            assert (a.dim_k, a.dim_r) == (b.dim_k, b.dim_r)
            assert np.abs(np.diag(a.omega.matrix) - np.diag(b.omega.matrix)).max() < 1e-12
        assert got.reconstruction_residual < 1e-12 and want.reconstruction_residual < 1e-12

    def test_calls_neither_kernel_basis_nor_hermitian_basis(self, monkeypatch):
        import qmeas

        def forbidden(*args, **kwargs):
            raise AssertionError("decompose must not build a center")
        for module in vars(qmeas).values():
            for name in ("kernel_basis", "hermitian_basis"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        assert not hasattr(algebra, "kernel_basis") and not hasattr(algebra, "hermitian_basis")
        inst, _, _ = block_instrument([(2, 1), (1, 2)], np.random.default_rng(3))
        deco = decompose(fixed_point_space(inst), inst)
        assert sorted((b.dim_k, b.dim_r) for b in deco.blocks) == [(1, 2), (2, 1)]

    @settings(max_examples=60, deadline=None)
    @given(shape=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3)
           .filter(lambda shape: sum(k * r for k, r in shape) <= 9),
           useed=st.integers(0, 2 ** 31 - 1))
    def test_mixed_blocks(self, shape, useed):
        inst, u, effects = block_instrument(shape, np.random.default_rng(useed))
        space = fixed_point_space(inst)
        assert len(space) == sum(k * k for k, _ in shape)
        deco = decompose(space, inst)
        assert sorted((b.dim_k, b.dim_r) for b in deco.blocks) == sorted(shape)
        assert deco.reconstruction_residual <= DEFAULT_TOL.atol_equality
        eb = effect_blocks(inst.induced_observable(), deco)
        assert max(eb.residuals) < 1e-9
        # block alpha of the decomposition is the prescribed block with projection U P_alpha U^dag
        at, prescribed = 0, []
        for k, r in shape:
            p = np.zeros((len(u), len(u)))
            p[at:at + k * r, at:at + k * r] = np.eye(k * r)
            prescribed.append(u @ p @ dagger(u))
            at += k * r
        for blk, comps in zip(deco.blocks, eb.blocks[0]):
            alpha = min(range(len(shape)), key=lambda a: hs_norm(prescribed[a] - blk.projection))
            assert hs_norm(prescribed[alpha] - blk.projection) < 1e-8
            assert (blk.dim_k, blk.dim_r) == shape[alpha]
            assert np.allclose(np.linalg.eigvalsh(comps), np.linalg.eigvalsh(effects[alpha]),
                               rtol=0, atol=1e-9)

    # blocks (2, 1) and (1, 2); x = U diag(1, 0, 0, 0) U^dag merges a cluster of the first block
    # with the second block's, so one linked component has clusters of sizes 1 and 3
    @pytest.mark.parametrize("bad_x", ["identity", "coincident"])
    @pytest.mark.parametrize("bad_pairs", [1, 4, 5])
    def test_degenerate_pairs_are_resampled(self, bad_x, bad_pairs, monkeypatch):
        inst, u, _ = block_instrument([(2, 1), (1, 2)], np.random.default_rng(17))
        space = fixed_point_space(inst)
        x = np.eye(4) if bad_x == "identity" else u @ np.diag([1.0, 0, 0, 0]) @ dagger(u)
        coeff = np.einsum("nij,ji->n", space.basis, x).real  # <B_n, x>, B_n Hermitian
        default_rng, draws = np.random.default_rng, []

        class BadPairs:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def standard_normal(self, size):
                draw = self.rng.standard_normal(size)
                if len(draws) < bad_pairs:
                    draw[0] = coeff
                draws.append(size)
                return draw
        monkeypatch.setattr(np.random, "default_rng", BadPairs)
        if bad_pairs == 5:
            with pytest.raises(DegenerateCenter, match=r"in 5 draw\(s\): no draw reached the certificate"):
                decompose(space, inst)
            assert len(draws) == 5
        else:
            deco = decompose(space, inst)
            assert len(draws) == bad_pairs + 1
            assert sorted((b.dim_k, b.dim_r) for b in deco.blocks) == [(1, 2), (2, 1)]
            assert deco.reconstruction_residual < 1e-12

    @pytest.mark.parametrize("excess", [0.0, 1.0])
    def test_the_reported_residual_is_the_thresholded_distance(self, excess, monkeypatch):
        # the distance is lifted to atol_equality (1 + excess): at the threshold the first
        # pair's split is returned with that distance, above it all five pairs are refused
        inst, _, _ = block_instrument([(2, 1), (1, 2)], np.random.default_rng(17))
        space = fixed_point_space(inst)
        distance, seen = algebra.subspace_distance, []

        def lifted(*args):
            seen.append(max(distance(*args), DEFAULT_TOL.atol_equality * (1 + excess)))
            return seen[-1]
        monkeypatch.setattr(algebra, "subspace_distance", lifted)
        if excess:
            with pytest.raises(DegenerateCenter, match=r"in 5 draw\(s\): smallest certificate residual "
                                                       r"2\.000e-09 > atol_equality 1\.000e-09"):
                decompose(space, inst)
            assert len(seen) == 5
        else:
            deco = decompose(space, inst)
            assert seen == [DEFAULT_TOL.atol_equality] and deco.reconstruction_residual == seen[0]

    def test_the_scalars_are_refused_after_one_draw(self, monkeypatch):
        inst = scheme_to_instrument(random_constrained_scheme(4, 4, 2, 3))
        space, distance = fixed_point_space(inst), algebra.subspace_distance
        monkeypatch.setattr(algebra, "subspace_distance", lambda *args: max(distance(*args), 3e-9))
        assert len(space) == 1
        with pytest.raises(DegenerateCenter, match=r"in 1 draw\(s\): smallest certificate residual 3\.000e-09"):
            decompose(space, inst)

    def test_the_scalars_take_the_identity_factorizer(self, monkeypatch):
        inst = scheme_to_instrument(random_constrained_scheme(4, 4, 2, 3))
        space = fixed_point_space(inst)
        rng = np.random.default_rng(0)
        noise = hermitianize(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        noisy = OperatorSubspace(space.dim, space.basis + 1e-14 * noise, space.fixed_points)

        class NoDraws:
            def __init__(self, seed):
                pass

            def standard_normal(self, size):
                raise AssertionError("the scalars need no generic pair")
        monkeypatch.setattr(np.random, "default_rng", NoDraws)
        deco, moved = decompose(space, inst), decompose(noisy, inst)
        assert len(space) == 1 and [(b.dim_k, b.dim_r) for b in deco.blocks] == [(1, 4)]
        assert np.array_equal(deco.blocks[0].factorizer, moved.blocks[0].factorizer)
        # the factorizer is the limit state's eigenbasis: it makes omega diagonal
        w = deco.blocks[0].factorizer
        rho = dagger(w) @ space.fixed_points.mixture_limit @ w
        assert np.abs(rho - np.diag(np.diag(rho))).max() < 1e-14

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
        assert without.reconstruction_residual <= DEFAULT_TOL.atol_equality

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
            assert deco.reconstruction_residual <= DEFAULT_TOL.atol_equality
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
