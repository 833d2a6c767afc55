import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeas.classify import ObservableClassification, classify
from qmeas.core import Observable
from qmeas.linalg import Tolerances, dagger
from qmeas.models import (
    CATALOG,
    build_ideality_example,
    completely_unsharp_pair,
    pointer_observable,
    random_povm,
    random_unitary,
    shift_observable,
    table1_observables,
)

FLAGS = tuple(f.name for f in dataclasses.fields(ObservableClassification) if f.name.startswith("is_"))


class TestClassifyExamples:
    def test_norm1_ideality_model(self):
        obs, _ = build_ideality_example()
        c = classify(obs)
        assert c.is_norm1
        assert not c.is_sharp
        assert not c.is_small_rank
        assert not c.is_completely_unsharp
        assert c.per_effect_ranks == (2, 2)

    def test_completely_unsharp_pair(self):
        c = classify(completely_unsharp_pair())
        assert c.is_completely_unsharp
        assert c.is_non_degenerate
        assert c.is_commutative
        assert not c.is_norm1
        assert not c.is_small_rank

    def test_degenerate_sharp_rank2(self):
        effects = tuple(np.kron(np.eye(2), p) for p in pointer_observable(2).effects)
        c = classify(Observable(effects))
        assert c.is_sharp
        assert c.per_effect_ranks == (2, 2)
        assert not c.is_small_rank
        assert not c.is_non_degenerate

    def test_multiplicity_is_cut_at_rank_cut(self):
        e = np.diag([0.5, 0.5 - 1e-7])
        obs = Observable((e, np.eye(2) - e))
        assert classify(obs).is_non_degenerate
        assert not classify(obs, Tolerances(rank_threshold=1e-6)).is_non_degenerate

    def test_rank1_sharp_qubit(self):
        c = classify(pointer_observable(2))
        assert c.is_sharp and c.is_small_rank and c.is_non_degenerate

    def test_trivial_observable(self):
        obs = Observable((np.eye(2) * 0.3, np.eye(2) * 0.7))
        c = classify(obs)
        assert c.is_trivial
        assert c.is_commutative

    def test_shift_observable_commutative_unsharp(self):
        c = classify(shift_observable(3, (0.5, 0.3, 0.2)))
        assert c.is_commutative
        assert c.is_completely_unsharp
        assert c.is_non_degenerate


class TestClassifyLattice:
    def _random_mix(self, count):
        cases = []
        modes = [None, "sharp", "completely-unsharp", "small-rank"]
        for seed in range(count):
            mode = modes[seed % len(modes)]
            dim = 2 + (seed % 3)
            outcomes = 2 if dim == 2 or mode == "sharp" else 2 + (seed % 2)
            if mode == "sharp" and outcomes > dim:
                outcomes = dim
            cases.append(random_povm(dim, outcomes, seed, mode=mode))
        for seed in range(count // 4):
            cases.append(random_povm(4, 2, seed, mode="norm1-unsharp"))
        return cases

    def test_implications_on_500_observables(self):
        for obs in self._random_mix(400):
            c = classify(obs)
            if c.is_sharp:
                assert c.is_norm1 and c.is_commutative
            if c.is_completely_unsharp:
                assert not c.is_norm1 and not c.is_small_rank
                assert all(r == obs.dim for r in c.per_effect_ranks)
            if c.is_small_rank:
                assert c.is_non_degenerate


# the flags that hold, and the ranks, of every catalog and Table 1 observable
PINNED = {
    "extremal-two-qubit.observable": ({"is_sharp", "is_norm1", "is_commutative"}, (2, 2)),
    "ideality-qutrit.observable": ({"is_norm1", "is_commutative", "is_non_degenerate"}, (2, 2)),
    "luders-unsharp-qubit.observable": (
        {"is_commutative", "is_non_degenerate", "is_completely_unsharp"}, (2, 2)),
    "nondisturbance-two-qubit.observable": ({"is_norm1", "is_commutative", "is_non_degenerate"}, (3, 3)),
    "nondisturbance-two-qubit.other": ({"is_norm1", "is_commutative", "is_non_degenerate"}, (3, 3)),
    "shift-first-kind.observable": (
        {"is_commutative", "is_non_degenerate", "is_completely_unsharp"}, (3, 3, 3)),
    "small-rank": ({"is_sharp", "is_norm1", "is_commutative", "is_small_rank", "is_non_degenerate"},
                   (1, 1)),
    "sharp": ({"is_sharp", "is_norm1", "is_commutative"}, (2, 2)),
    "norm-1": ({"is_norm1", "is_commutative", "is_non_degenerate"}, (2, 2)),
    "completely-unsharp": ({"is_commutative", "is_non_degenerate", "is_completely_unsharp"}, (2, 2)),
}


def _pinned_observables() -> dict[str, Observable]:
    found = {f"{name}.{key}": obj for name, entry in CATALOG.items()
             for key, obj in entry.build().items() if isinstance(obj, Observable)}
    return {**found, **table1_observables()}


class TestPinnedFlags:
    def test_every_catalog_and_table1_observable_is_pinned(self):
        assert set(_pinned_observables()) == set(PINNED)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_flags_and_ranks(self, name):
        c = classify(_pinned_observables()[name])
        assert {flag for flag in FLAGS if getattr(c, flag)} == PINNED[name][0]
        assert c.per_effect_ranks == PINNED[name][1]


class TestSymmetries:
    @settings(max_examples=60, deadline=None)
    @given(mode=st.sampled_from((None, "sharp", "completely-unsharp", "small-rank", "norm1-unsharp")),
           dim=st.integers(2, 4), seed=st.integers(0, 2 ** 31 - 1), data=st.data())
    def test_unitary_conjugation_and_relabelling(self, mode, dim, seed, data):
        if mode == "norm1-unsharp":
            dim, outcomes = 4, 2
        else:
            outcomes = data.draw(st.integers(2, dim if mode == "sharp" else 3))
        obs = random_povm(dim, outcomes, seed, mode=mode)
        u = random_unitary(dim, np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1))))
        perm = data.draw(st.permutations(range(outcomes)))
        moved = Observable(tuple(u @ obs.effects[x] @ dagger(u) for x in perm),
                           tuple(obs.outcomes[x] for x in perm))
        c, cm = classify(obs), classify(moved)
        assert all(getattr(c, flag) == getattr(cm, flag) for flag in FLAGS)
        assert cm.per_effect_ranks == tuple(c.per_effect_ranks[x] for x in perm)
        assert np.allclose(cm.per_effect_norms, [c.per_effect_norms[x] for x in perm], atol=1e-12)
