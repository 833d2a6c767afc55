"""Classify observables into the structural classes the impossibility results sort by.

Flags are decided numerically: an eigenvalue counts as 0 or 1 when it sits
within rank_threshold of it (relative to max(1, largest eigenvalue)), and
eigenvalue multiplicities are detected with cluster_gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Observable
from .linalg import DEFAULT_TOL, Tolerances, eigenvalue_clusters, hermitian_eig, numerical_rank


@dataclass(frozen=True)
class ObservableClassification:
    is_trivial: bool
    is_sharp: bool
    is_norm1: bool
    is_commutative: bool
    is_small_rank: bool
    is_non_degenerate: bool
    is_completely_unsharp: bool
    per_effect_ranks: tuple[int, ...]
    per_effect_norms: tuple[float, ...]


def _positive_eigenvalues(e: np.ndarray, tol: Tolerances) -> np.ndarray:
    w, _ = hermitian_eig(e, tol)
    cut = tol.rank_threshold * max(1.0, float(w[0]))
    return w[w > cut]


def classify(observable: Observable, tol: Tolerances = DEFAULT_TOL) -> ObservableClassification:
    effects = observable.effects
    d = observable.dim
    atol = tol.atol_equality

    ranks = tuple(numerical_rank(e, tol) for e in effects)
    norms = tuple(float(hermitian_eig(e, tol)[0][0]) for e in effects)

    commutative = all(
        np.abs(a @ b - b @ a).max() <= atol
        for i, a in enumerate(effects)
        for b in effects[i + 1:]
    )
    sharp = all(
        np.abs(a @ b - (a if i == j else 0)).max() <= atol
        for i, a in enumerate(effects)
        for j, b in enumerate(effects)
    )
    trivial = all(
        np.abs(e - (np.trace(e).real / d) * np.eye(d)).max() <= atol for e in effects
    )
    norm1 = all(abs(n - 1.0) <= tol.rank_threshold for n in norms)
    small_rank = any(r == 1 for r in ranks)

    non_degenerate = False
    for e in effects:
        pos = _positive_eigenvalues(e, tol)
        clusters = eigenvalue_clusters(pos, tol.cluster_gap)
        if pos.size and len(clusters) == pos.size:
            non_degenerate = True
            break

    completely_unsharp = all(
        r == d and n < 1.0 - tol.rank_threshold for r, n in zip(ranks, norms)
    )

    return ObservableClassification(
        is_trivial=trivial,
        is_sharp=sharp,
        is_norm1=norm1,
        is_commutative=commutative,
        is_small_rank=small_rank,
        is_non_degenerate=non_degenerate,
        is_completely_unsharp=completely_unsharp,
        per_effect_ranks=ranks,
        per_effect_norms=norms,
    )
