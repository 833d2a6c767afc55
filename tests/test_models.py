import numpy as np
import pytest

from qmeas.algebra import decompose, fixed_point_space
from qmeas.classify import classify
from qmeas import models
from qmeas.core import (Channel, Instrument, Observable, Operation, State, apply, scheme_to_instrument,
                        superop_distance)
from qmeas.errors import BadDistribution, NotCompletelyUnsharp, NotFullRank, ValidationError
from qmeas.linalg import Tolerances, hermitian_eig, hs_norm, matrix_sqrt_psd, numerical_rank
from qmeas.models import (
    CATALOG,
    build_extremal_model,
    build_ideality_example,
    build_luders_scheme,
    build_shift_scheme,
    build_swap_scheme,
    luders_interaction_channel,
    pointer_observable,
    random_bistochastic_channel,
    random_channel,
    random_constrained_channel,
    random_constrained_scheme,
    random_full_rank_state,
    random_instrument,
    random_low_rank_preparation,
    random_povm,
    random_state_of_rank,
    random_unitary,
    shift_observable,
    swap_unitary,
    table1_observables,
)
from qmeas.properties import (
    check_extremal,
    check_first_kind,
    check_ideal,
    check_non_disturbance,
    check_repeatable,
)
from qmeas.thirdlaw import check_channel_thirdlaw, check_scheme_thirdlaw


def _entry_instrument(built):
    if "instrument" in built:
        return built["instrument"]
    return scheme_to_instrument(built["scheme"])


def _check_expectation(key, want, built):
    if key == "non_disturbance":
        got = check_non_disturbance(built["instrument"], built.get("other", built["observable"]))
    elif key == "commutator_norm_min":
        got = max(
            hs_norm(e @ f - f @ e)
            for e in built["observable"].effects
            for f in built["other"].effects
        )
        assert got > want
        return
    elif key == "constrained":
        if "scheme" in built:
            got = check_scheme_thirdlaw(built["scheme"]).constrained
        elif "channel" in built:
            got = check_channel_thirdlaw(built["channel"]).constrained
        else:
            got = check_channel_thirdlaw(_entry_instrument(built).total_channel()).constrained
    elif key == "first_kind":
        got = check_first_kind(_entry_instrument(built))
    elif key == "repeatable":
        got = check_repeatable(_entry_instrument(built))
    elif key == "ideal":
        got = check_ideal(_entry_instrument(built))
    elif key == "extremal":
        got = check_extremal(_entry_instrument(built)).extremal
    elif key == "gram_rank":
        got = check_extremal(_entry_instrument(built)).gram_rank
    elif key == "block_dims":
        inst = _entry_instrument(built)
        deco = decompose(fixed_point_space(inst), inst)
        assert len(deco.blocks) == 1
        got = (deco.blocks[0].dim_k, deco.blocks[0].dim_r)
    else:
        raise AssertionError(f"unhandled expectation key {key!r}")
    assert got == want, f"{key}: wanted {want!r}, measured {got!r}"


class TestCatalog:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_entry_meets_expectations(self, name):
        entry = CATALOG[name]
        built = entry.build()
        assert entry.expected
        for key, want in entry.expected.items():
            _check_expectation(key, want, built)

    def test_names_match_keys(self):
        for name, entry in CATALOG.items():
            assert entry.name == name
            assert entry.description


class TestTableObservables:
    def test_classes_hit_their_labels(self):
        reps = table1_observables()
        assert set(reps) == {"small-rank", "sharp", "norm-1", "completely-unsharp"}
        c = classify(reps["small-rank"])
        assert c.is_small_rank and c.is_sharp
        c = classify(reps["sharp"])
        assert c.is_sharp and not c.is_small_rank
        c = classify(reps["norm-1"])
        assert c.is_norm1 and not c.is_sharp
        c = classify(reps["completely-unsharp"])
        assert c.is_completely_unsharp


class TestGenerators:
    def test_seeds_reproduce_bitwise(self):
        a = random_channel(3, 3, 2, 11)
        b = random_channel(3, 3, 2, 11)
        for ka, kb in zip(a.kraus, b.kraus):
            assert np.array_equal(ka, kb)
        pa = random_povm(3, 3, 4)
        pb = random_povm(3, 3, 4)
        for ea, eb in zip(pa.effects, pb.effects):
            assert np.array_equal(ea, eb)
        assert np.array_equal(
            random_full_rank_state(4, 2).matrix, random_full_rank_state(4, 2).matrix
        )

    def test_povm_resolves_identity(self):
        obs = random_povm(2, 3, 7)
        total = sum(obs.effects)
        assert np.abs(total - np.eye(2)).max() < 1e-12

    @pytest.mark.parametrize("mode,flag", [
        ("sharp", "is_sharp"),
        ("norm1-unsharp", "is_norm1"),
        ("completely-unsharp", "is_completely_unsharp"),
        ("small-rank", "is_small_rank"),
    ])
    def test_mode_targets_class(self, mode, flag):
        for seed in range(5):
            obs = random_povm(4, 2, seed, mode=mode)
            c = classify(obs)
            assert getattr(c, flag)
            if mode == "norm1-unsharp":
                assert not c.is_sharp

    def test_full_rank_state_eigenvalue_floor(self):
        for seed in range(8):
            st = random_full_rank_state(4, seed)
            w = np.linalg.eigvalsh(st.matrix)
            assert w[0] >= 0.05 / 4 - 1e-12

    def test_state_of_rank(self):
        for rank in (1, 2, 3):
            st = random_state_of_rank(3, rank, 5)
            assert numerical_rank(st.matrix) == rank

    def test_bistochastic_fixes_mixture(self):
        ch = random_bistochastic_channel(3, 3, 2)
        mix = np.eye(3, dtype=complex) / 3
        assert np.abs(apply(ch, mix) - mix).max() < 1e-12

    def test_constrained_channel_verdict(self):
        for seed in range(5):
            assert check_channel_thirdlaw(random_constrained_channel(3, seed)).constrained

    def test_low_rank_preparation_collapses(self):
        for seed in range(5):
            rank = 1 + seed % 2
            ch = random_low_rank_preparation(3, rank, seed)
            assert not check_channel_thirdlaw(ch).constrained
            out = apply(ch, np.eye(3, dtype=complex) / 3)
            assert numerical_rank(out) <= rank

    def test_constrained_scheme_verdict(self):
        for seed in range(3):
            scheme = random_constrained_scheme(2, 2, 2, seed)
            assert check_scheme_thirdlaw(scheme).constrained

    def test_random_instrument_sums_to_channel(self):
        inst = random_instrument(3, 2, 8)
        total = inst.total_channel()
        acc = sum(k.conj().T @ k for k in total.kraus)
        assert np.abs(acc - np.eye(3)).max() < 1e-10

    def test_random_unitary_is_unitary(self):
        rng = np.random.default_rng(3)
        u = random_unitary(4, rng)
        assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12


class TestGuards:
    def test_shift_rejects_bad_weights(self):
        with pytest.raises(BadDistribution):
            build_shift_scheme(3, (0.5, 0.5))
        with pytest.raises(BadDistribution):
            build_shift_scheme(3, (0.7, 0.2, 0.2))
        with pytest.raises(BadDistribution):
            build_shift_scheme(3, (0.98, 0.01, 0.01))
        with pytest.raises(BadDistribution):
            build_shift_scheme(1, (1.0,))

    def test_shift_weights_sum_is_cut_at_atol_equality(self):
        build_shift_scheme(3, (0.5 + 5e-10, 0.3, 0.2))
        with pytest.raises(BadDistribution, match=r"weights sum to 1\.00000000\d*, not 1$"):
            build_shift_scheme(3, (0.5 + 2e-9, 0.3, 0.2))
        with pytest.raises(BadDistribution, match=r"smallest weight 0\.05 must"):
            build_shift_scheme(3, (0.5, 0.45, 0.05))

    def test_luders_scheme_needs_completely_unsharp(self):
        with pytest.raises(NotCompletelyUnsharp):
            build_luders_scheme(pointer_observable(2))

    def test_extremal_model_needs_full_rank_ancilla(self):
        with pytest.raises(NotFullRank):
            build_extremal_model(State.pure([1.0, 0.0]))

    def test_swap_scheme_needs_full_rank_ancilla(self):
        with pytest.raises(NotFullRank):
            build_swap_scheme(State.pure([0.0, 1.0]))

    @pytest.mark.parametrize("build", [build_swap_scheme, build_extremal_model])
    def test_ancilla_rank_is_cut_at_the_ancilla_tolerances(self, build):
        weights = [1.0 - 5e-8, 5e-8]  # 5e-8: above the default rank cut 1e-8, below 1e-6
        assert build(State.diagonal(weights)).ancilla_dim == 2
        with pytest.raises(NotFullRank):
            build(State.diagonal(weights, Tolerances(rank_threshold=1e-6)))


class TestReductionsAcceptTheirOutput:
    EFFECTS = (np.diag([1 - 5e-9, 5e-9]), np.diag([5e-9, 1 - 5e-9]))

    def test_trivial_instrument_of_effects_with_eigenvalues_below_the_cut(self):
        # measure_prepare_kraus keeps both 5e-9 eigenvalues (below the rank cut, far above
        # round-off), so the induced effects are the given ones
        inst = models.trivial_instrument(Observable(self.EFFECTS))
        assert np.abs(inst.induced_observable().effects - self.EFFECTS).max() < 1e-15

    def test_user_objects_are_validated_as_tightly_as_before(self):
        cut = tuple(np.diag(np.where(e > 0.5, e, 0.0)) for e in map(np.diag, self.EFFECTS))
        with pytest.raises(ValidationError):
            Observable(cut)
        with pytest.raises(ValidationError):
            Instrument(tuple(Operation((np.sqrt(e),)) for e in cut))
        with pytest.raises(ValidationError):
            Channel(np.sqrt(cut))


# ---------------------------------------------------------------------------
# loop references: the builders entry by entry, as written before each became
# one array construction; the constructions must return the same arrays


def _ket(index, dim):
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return v


def _unit(i, j, rows, cols=None):
    return np.outer(_ket(i, rows), _ket(j, cols or rows).conj())


def _loop_pointer(dim):
    return [_unit(x, x, dim) for x in range(dim)]


def _loop_swap(dim):
    u = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for a in range(dim):
        for b in range(dim):
            u[b * dim + a, a * dim + b] = 1.0
    return u


def _loop_shift_unitary(n):
    u = np.zeros((n * n, n * n), dtype=np.complex128)
    for m in range(n):
        for k in range(n):
            u += np.kron(_unit(k, k, n), _unit((m + k) % n, m, n))
    return u


def _loop_shift_observable(n, q):
    return [np.diag([q[(x - m) % n] for m in range(n)]).astype(np.complex128) for x in range(n)]


def _loop_luders_interaction(observable):
    n, d = len(observable), observable.dim
    roots = matrix_sqrt_psd(observable.effects)
    kraus = []
    for x in range(n):
        k = np.zeros((d * n, d * n), dtype=np.complex128)
        for a in range(n):
            k += np.kron(roots[(x + a) % n], _unit((x + a) % n, a, n))
        kraus.append(k)
    return kraus


def _loop_channel(dim_in, dim_out, kraus_count, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim_out * kraus_count, dim_in)) + 1j * rng.standard_normal(
        (dim_out * kraus_count, dim_in))
    q, _ = np.linalg.qr(g)
    return [q[i * dim_out:(i + 1) * dim_out, :] for i in range(kraus_count)]


def _loop_constrained_channel(dim, seed):
    kraus = [np.sqrt(0.9) * k for k in _loop_channel(dim, dim, max(2, dim // 2 + 1), seed)]
    for i in range(dim):
        for j in range(dim):
            k = np.zeros((dim, dim), dtype=np.complex128)
            k[i, j] = np.sqrt(0.1 / dim)
            kraus.append(k)
    return kraus


def _loop_instrument(dim, outcomes, seed):
    rng = np.random.default_rng(seed)
    total = _loop_channel(dim, dim, outcomes * 2, int(rng.integers(2 ** 31)))
    return [(total[2 * x], total[2 * x + 1]) for x in range(outcomes)]


def _loop_povm_generic(dim, outcomes, rng):
    blocks = []
    for _ in range(outcomes):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        blocks.append(g @ g.conj().T)
    w, v = np.linalg.eigh(sum(blocks))
    whiten = (v / np.sqrt(w)) @ v.conj().T
    return Observable(tuple(whiten @ b @ whiten for b in blocks))


def _loop_low_rank_preparation(dim, rank, seed):
    w, v = hermitian_eig(random_state_of_rank(dim, rank, seed).matrix)
    return Channel(tuple(np.sqrt(wi) * np.outer(v[:, i], _ket(j, dim).conj())
                         for i, wi in enumerate(w) if wi > 1e-14 for j in range(dim)))


def _loop_ideality_operation(keep):
    return Operation(tuple([_unit(keep, keep, 3)] + [_unit(k, 1, 3) / np.sqrt(6.0) for k in range(3)]))


def _same(got, want):
    assert np.array_equal(got, np.array(want))


class TestSingleConstructions:
    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    def test_permutations_and_pointer(self, dim):
        _same(pointer_observable(dim).effects, _loop_pointer(dim))
        _same(swap_unitary(dim), _loop_swap(dim))

    @pytest.mark.parametrize("n, seed", [(2, 0), (3, 1), (5, 2), (8, 3)])
    def test_shift_register(self, n, seed):
        q = 0.5 * np.random.default_rng(seed).dirichlet(np.ones(n)) + 0.5 / n
        _same(build_shift_scheme(n, q).interaction.kraus, [_loop_shift_unitary(n)])
        _same(shift_observable(n, q).effects, _loop_shift_observable(n, q))

    @pytest.mark.parametrize("dim, outcomes, seed", [(2, 2, 0), (3, 4, 1), (4, 3, 2), (8, 4, 3)])
    def test_luders_interaction(self, dim, outcomes, seed):
        obs = random_povm(dim, outcomes, seed, mode="completely-unsharp")
        _same(luders_interaction_channel(obs).kraus, _loop_luders_interaction(obs))

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 32])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_random_channels(self, dim, seed):
        _same(random_channel(dim, dim + 1, 3, seed).kraus, _loop_channel(dim, dim + 1, 3, seed))
        _same(random_constrained_channel(dim, seed).kraus, _loop_constrained_channel(dim, seed))

    @pytest.mark.parametrize("dim, outcomes, seed", [(2, 2, 0), (3, 3, 5), (5, 2, 11)])
    def test_random_instrument(self, dim, outcomes, seed):
        got = random_instrument(dim, outcomes, seed)
        for op, pair in zip(got.operations, _loop_instrument(dim, outcomes, seed), strict=True):
            _same(op.kraus, pair)

    # the modes that draw a generic POVM; "sharp" and "norm1-unsharp" draw none
    @pytest.mark.parametrize("mode", [None, "completely-unsharp", "small-rank"])
    @pytest.mark.parametrize("dim, outcomes, seed", [(3, 2, 0), (4, 3, 5), (6, 2, 11)])
    def test_random_povm_modes(self, mode, dim, outcomes, seed, monkeypatch):
        got = random_povm(dim, outcomes, seed, mode=mode)
        monkeypatch.setattr(models, "_random_povm_generic", _loop_povm_generic)
        _same(got.effects, random_povm(dim, outcomes, seed, mode=mode).effects)

    @pytest.mark.parametrize("dim, rank, seed", [(2, 1, 0), (4, 2, 5), (8, 3, 11), (12, 6, 3)])
    def test_low_rank_preparation_is_the_same_map(self, dim, rank, seed):
        got, want = random_low_rank_preparation(dim, rank, seed), _loop_low_rank_preparation(dim, rank, seed)
        assert len(got.kraus) == len(want.kraus) == rank * dim
        assert superop_distance(got, want) <= 1e-14

    def test_ideality_reprepare_is_the_same_map(self):
        _, instrument = build_ideality_example()
        for op, keep in zip(instrument.operations, (0, 2), strict=True):
            want = _loop_ideality_operation(keep)
            assert len(op.kraus) == len(want.kraus) == 4
            assert superop_distance(op, want) <= 1e-14
