"""Classify observables into the structural classes the impossibility results sort by.

Flags are decided numerically: an eigenvalue counts as 0 or 1 when it sits
within rank_threshold of it (relative to max(1, largest eigenvalue)), and
eigenvalue multiplicities are detected with cluster_gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Observable
from .linalg import DEFAULT_TOL, Tolerances, eigenvalue_clusters, hermitian_eig, rank_cut


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


def classify(observable: Observable, tol: Tolerances = DEFAULT_TOL) -> ObservableClassification:
    """Every flag from one eigendecomposition per effect and one product E_x E_y per pair."""
    effects = np.array(observable.effects)
    n, d = len(effects), observable.dim
    atol = tol.atol_equality

    spectra = [hermitian_eig(e, tol)[0] for e in effects]  # descending
    ranks = tuple(int(np.count_nonzero(s > rank_cut(s, tol))) for s in map(np.abs, spectra))
    norms = tuple(float(w[0]) for w in spectra)
    positive = [w[w > rank_cut(w, tol)] for w in spectra]

    products = effects[:, None] @ effects[None]  # [x, y] = E_x E_y
    commutative = np.abs(products - products.swapaxes(0, 1)).max() <= atol
    sharp = np.abs(products - np.eye(n)[:, :, None, None] * effects[:, None]).max() <= atol
    scalars = np.trace(effects, axis1=1, axis2=2).real[:, None, None] / d * np.eye(d)
    trivial = np.abs(effects - scalars).max() <= atol
    norm1 = all(abs(v - 1.0) <= tol.rank_threshold for v in norms)

    return ObservableClassification(
        is_trivial=bool(trivial),
        is_sharp=bool(sharp),
        is_norm1=norm1,
        is_commutative=bool(commutative),
        is_small_rank=any(r == 1 for r in ranks),
        is_non_degenerate=any(p.size and len(eigenvalue_clusters(p, tol.cluster_gap)) == p.size
                              for p in positive),
        is_completely_unsharp=all(r == d and v < 1.0 - tol.rank_threshold
                                  for r, v in zip(ranks, norms)),
        per_effect_ranks=ranks,
        per_effect_norms=norms,
    )
