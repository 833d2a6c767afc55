import numpy as np
import pytest

from qmeas.algebra import decompose, fixed_point_space
from qmeas.classify import classify
from qmeas.core import State, apply, scheme_to_instrument
from qmeas.errors import BadDistribution, NotCompletelyUnsharp, NotFullRank
from qmeas.linalg import hs_norm, numerical_rank
from qmeas.models import (
    CATALOG,
    build_extremal_model,
    build_luders_scheme,
    build_shift_scheme,
    build_swap_scheme,
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

    def test_luders_scheme_needs_completely_unsharp(self):
        with pytest.raises(NotCompletelyUnsharp):
            build_luders_scheme(pointer_observable(2))

    def test_extremal_model_needs_full_rank_ancilla(self):
        with pytest.raises(NotFullRank):
            build_extremal_model(State.pure([1.0, 0.0]))

    def test_swap_scheme_needs_full_rank_ancilla(self):
        with pytest.raises(NotFullRank):
            build_swap_scheme(State.pure([0.0, 1.0]))
