import numpy as np

from qmeas.classify import classify
from qmeas.core import Observable
from qmeas.linalg import kron
from qmeas.models import (
    build_ideality_example,
    completely_unsharp_pair,
    pointer_observable,
    random_povm,
    shift_observable,
)


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
        effects = tuple(kron(np.eye(2), p) for p in pointer_observable(2).effects)
        c = classify(Observable(effects))
        assert c.is_sharp
        assert c.per_effect_ranks == (2, 2)
        assert not c.is_small_rank
        assert not c.is_non_degenerate

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
