"""Classify observables into the structural classes the impossibility results sort by.

is_trivial, is_sharp and is_commutative cut a residual at atol_equality: the largest entry of E_x - tr[E_x]/d 1,
E_x E_y - delta_xy E_x and E_x E_y - E_y E_x.  The ranks, norms and clusters behind the other flags are cut at
rank_threshold: an eigenvalue counts as 0 below linalg.rank_cut and as 1 when linalg.attains_one holds, and
eigenvalues closer than rank_cut fall in one linalg.eigenvalue_clusters cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Observable
from .linalg import DEFAULT_TOL, Tolerances, attains_one, cut_rank, eigenvalue_clusters


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
    """Every flag from the effect stack's kept eigendecomposition and one product E_x E_y per pair."""
    effects = observable.effects
    n, d = len(effects), observable.dim
    atol = tol.atol_equality

    spectra = observable.eig(tol)[0]  # [x] descending
    ranks = tuple(cut_rank(np.abs(w), tol) for w in spectra)
    norms = tuple(float(w[0]) for w in spectra)
    positive = [w[:cut_rank(w, tol)] for w in spectra]

    products = effects[:, None] @ effects[None]  # [x, y] = E_x E_y
    commutative = np.abs(products - products.swapaxes(0, 1)).max() <= atol
    sharp = np.abs(products - np.eye(n)[:, :, None, None] * effects[:, None]).max() <= atol
    scalars = np.trace(effects, axis1=1, axis2=2).real[:, None, None] / d * np.eye(d)
    trivial = np.abs(effects - scalars).max() <= atol
    norm1 = all(attains_one(v, tol) for v in norms)

    return ObservableClassification(
        is_trivial=bool(trivial),
        is_sharp=bool(sharp),
        is_norm1=norm1,
        is_commutative=bool(commutative),
        is_small_rank=any(r == 1 for r in ranks),
        is_non_degenerate=any(p.size and len(eigenvalue_clusters(p, tol)) == p.size for p in positive),
        is_completely_unsharp=all(r == d and not attains_one(v, tol) for r, v in zip(ranks, norms)),
        per_effect_ranks=ranks,
        per_effect_norms=norms,
    )
