"""Worked measurement models and seeded random generators.

The builders return exact matrices for the handful of models the test
suite and the CLI lean on: a commuting-pair non-disturbance model on two
qubits, the modular Luders scheme for completely unsharp observables,
a shift-register first-kind model, a norm-1 ideality model on C^3, an
extremal two-qubit scheme with a qubit ancilla, and a partial-swap
non-disturbance scheme.

Generators take an integer seed and are bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    Channel,
    Instrument,
    MeasurementScheme,
    Observable,
    State,
    compose,
    luders_instrument,
    measure_prepare_kraus,
)
from .errors import BadDistribution, NotCompletelyUnsharp, NotFullRank, ValidationError
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    dagger,
    full_rank,
    matrix_sqrt_psd,
    psd_root,
)


def _ket(index: int, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return v


def _proj(vector: np.ndarray) -> np.ndarray:
    return np.outer(vector, vector.conj())


def _permutation(images: np.ndarray) -> np.ndarray:
    """Unitary sending the basis vector e_j to e_images[j]."""
    return np.eye(len(images), dtype=np.complex128)[:, images]


def pointer_observable(dim: int, tol: Tolerances = DEFAULT_TOL) -> Observable:
    """Sharp reading of the computational basis."""
    eye = np.eye(dim, dtype=np.complex128)
    return Observable(eye[:, :, None] * eye[:, None, :], tol=tol)


# ---------------------------------------------------------------------------
# two-qubit non-disturbance model


def build_nondisturbance_example(tol: Tolerances = DEFAULT_TOL) -> tuple[Observable, Observable, Instrument]:
    """Binary E and F on two qubits: E's instrument leaves F exactly invariant
    although E and F do not commute."""
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    a0, a1, a2, a3, a4, a5 = p0, p0 / 2.0, p1 / 2.0, _proj(plus) / 2.0, _proj(minus) / 2.0, p1

    e0 = np.kron(a0, p0) + np.kron(a2 + a4, p1)
    e1 = np.kron(a1 + a3, p1) + np.kron(a5, p0)
    f0 = np.kron(a0, p0) + np.kron(a1 + a4, p1)
    f1 = np.kron(a2 + a3, p1) + np.kron(a5, p0)

    out00, out10 = _proj(_ket(0, 4)), _proj(_ket(2, 4))  # prepared |00><00|, |10><10|
    instrument = Instrument.from_kraus([measure_prepare_kraus(pairs, tol) for pairs in (
        [(np.kron(a0, p0) + np.kron(a4, p1), out00), (np.kron(a2, p1), out10)],
        [(np.kron(a5, p0) + np.kron(a3, p1), out10), (np.kron(a1, p1), out00)])], tol=tol)
    return Observable((e0, e1), tol=tol), Observable((f0, f1), tol=tol), instrument


def trivial_instrument(observable: Observable, outputs: tuple[State, ...] | None = None) -> Instrument:
    """I_x(rho) = tr[E_x rho] sigma_x; measure-and-reprepare with no coherence kept."""
    if outputs is None:
        outputs = tuple(State.complete_mixture(observable.dim, observable.tol) for _ in observable.effects)
    families = [measure_prepare_kraus([pair], observable.tol) for pair in zip(observable.effects, outputs)]
    return Instrument.from_kraus(families, observable.outcomes, observable.tol)


# ---------------------------------------------------------------------------
# modular Luders scheme


def luders_interaction_channel(observable: Observable) -> Channel:
    """K_x = sum_a sqrt(E_{x+a}) (x) |x+a><a| (indices mod N); always trace-preserving."""
    n, d, tol = len(observable), observable.dim, observable.tol
    x, a = np.arange(n)[:, None], np.arange(n)
    kraus = np.zeros((n, d, n, d, n), dtype=np.complex128)  # K_x[(s, y), (t, a)]
    kraus[x, :, (x + a) % n, :, a] = psd_root(*observable.eig(tol), tol)[(x + a) % n]
    return Channel(kraus.reshape(n, d * n, d * n), tol)


def build_luders_scheme(observable: Observable) -> MeasurementScheme:
    """Constrained scheme whose instrument is the Luders instrument of the observable.

    Exists exactly for completely unsharp observables; the interaction maps
    rho (x) 1/N to sum_x sqrt(E_x) rho sqrt(E_x) (x) |x><x|.
    """
    from .classify import classify

    n, tol = len(observable), observable.tol
    if not classify(observable, tol).is_completely_unsharp:
        raise NotCompletelyUnsharp("every effect must have spectrum inside (0, 1)")
    return MeasurementScheme(
        system_dim=observable.dim,
        ancilla=State.complete_mixture(n, tol),
        interaction=luders_interaction_channel(observable),
        pointer=pointer_observable(n, tol),
    )


# ---------------------------------------------------------------------------
# shift-register first-kind model


def build_shift_scheme(n: int, q, tol: Tolerances = DEFAULT_TOL) -> MeasurementScheme:
    """Unitary shift interaction with diagonal ancilla state q.

    Induces E_x = sum_n q(x-n)|n><n| and a first-kind instrument.  Uniform q
    makes the observable trivial (flagged by the classifier, not an error).
    """
    q = np.asarray(q, dtype=float)
    if n < 2 or q.shape != (n,):
        raise BadDistribution(f"need n >= 2 weights, got shape {q.shape} for n={n}")
    if abs(q.sum() - 1.0) > tol.atol_equality:
        raise BadDistribution(f"weights sum to {float(q.sum())!r}, not 1")
    if q.min() <= 0.05:
        raise BadDistribution(f"smallest weight {float(q.min())!r} must exceed 0.05")
    k, m = np.divmod(np.arange(n * n), n)  # U = sum_k |k><k| (x) sum_m |m+k><m|
    return MeasurementScheme(
        system_dim=n,
        ancilla=State.diagonal(q, tol),
        interaction=Channel.unitary(_permutation(k * n + (m + k) % n), tol),
        pointer=pointer_observable(n, tol),
    )


def shift_observable(n: int, q, tol: Tolerances = DEFAULT_TOL) -> Observable:
    """The diagonal observable the shift scheme measures."""
    q = np.asarray(q, dtype=float)
    x, m = np.arange(n)[:, None], np.arange(n)
    effects = np.zeros((n, n, n), dtype=np.complex128)
    effects[x, m, m] = q[(x - m) % n]
    return Observable(effects, tol=tol)


# ---------------------------------------------------------------------------
# ideality model on C^3


def build_ideality_example(tol: Tolerances = DEFAULT_TOL) -> tuple[Observable, Instrument]:
    """Binary norm-1 observable on C^3 with an ideal (but not repeatable) instrument."""
    d = 3
    e_minus = np.diag([1.0, 0.5, 0.0]).astype(np.complex128)
    e_plus = np.diag([0.0, 0.5, 1.0]).astype(np.complex128)

    # rho -> <1|rho|1> 1/6 = tr[rho |1><1|/2] times the complete mixture
    reprepare = measure_prepare_kraus([(_proj(_ket(1, d)) / 2.0, State.complete_mixture(d, tol))], tol)

    families = [np.concatenate([_proj(_ket(keep, d))[None], reprepare]) for keep in (0, 2)]
    instrument = Instrument.from_kraus(families, ("minus", "plus"), tol)
    return Observable((e_minus, e_plus), ("minus", "plus"), tol), instrument


# ---------------------------------------------------------------------------
# extremal two-qubit model


def extremal_model_kraus() -> dict[tuple[int, int], np.ndarray]:
    """Kraus operators K_{x,f} = V_f (x) |phi_f><x| of the measurement channel."""
    v0 = np.diag([np.sqrt(0.25), np.sqrt(0.75)]).astype(np.complex128)
    v1 = np.array([[0.0, np.sqrt(0.25)], [np.sqrt(0.75), 0.0]], dtype=np.complex128)
    phis = (_ket(0, 2), np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2.0))
    return {(x, f): np.kron(v, np.outer(phi, _ket(x, 2).conj()))
            for x in range(2) for f, (v, phi) in enumerate(zip((v0, v1), phis))}


def extremal_instrument(tol: Tolerances = DEFAULT_TOL) -> Instrument:
    """The instrument the extremal scheme induces, from its analytic Kraus form."""
    ks = extremal_model_kraus()
    return Instrument.from_kraus([(ks[(x, 0)], ks[(x, 1)]) for x in range(2)], tol=tol)


EXTREMAL_ANCILLA = (2.0 / 3.0, 1.0 / 3.0)  # the weights of the extremal scheme's default ancilla


def build_extremal_model(xi: State | None = None) -> MeasurementScheme:
    """Scheme on system C^2 (x) C^2 with qubit ancilla measuring 1 (x) |x><x|.

    The interaction first swaps the second system qubit with the ancilla,
    then applies the (non-unitary) measurement channel on the system; the
    ancilla state may be any full-rank qubit state; the default is diag(EXTREMAL_ANCILLA).
    """
    xi = State.diagonal(EXTREMAL_ANCILLA) if xi is None else xi
    if xi.dim != 2 or not full_rank(xi.eig(xi.tol)[0], xi.tol):
        raise NotFullRank("ancilla state must be a full-rank qubit state")
    e1 = Channel.unitary(np.kron(np.eye(2), swap_unitary(2)), xi.tol)
    # the measurement channel on the system, the ancilla idle
    e2 = Channel(tuple(np.kron(k, np.eye(2)) for k in extremal_model_kraus().values()), xi.tol)
    return MeasurementScheme(
        system_dim=4,
        ancilla=xi,
        interaction=compose(e2, e1),
        pointer=pointer_observable(2, xi.tol),
    )


def swap_unitary(dim: int) -> np.ndarray:
    a, b = np.divmod(np.arange(dim * dim), dim)
    return _permutation(b * dim + a)


# ---------------------------------------------------------------------------
# partial-swap non-disturbance scheme


def build_swap_scheme(xi: State) -> MeasurementScheme:
    """Swap the second system factor with the ancilla and read it out.

    Measures 1 (x) |x><x| on the system pair; the fixed-point algebra of the
    induced instrument is everything on the first factor.
    """
    if not full_rank(xi.eig(xi.tol)[0], xi.tol):
        raise NotFullRank("ancilla state must be full-rank")
    d = xi.dim
    return MeasurementScheme(
        system_dim=d * d,
        ancilla=xi,
        interaction=Channel.unitary(np.kron(np.eye(d), swap_unitary(d)), xi.tol),
        pointer=pointer_observable(d, xi.tol),
    )


def trivial_swap_scheme(xi: State, pointer: Observable) -> MeasurementScheme:
    """Full swap of system and ancilla: measures the pointer, prepares xi."""
    if pointer.dim != xi.dim:
        raise ValidationError("pointer and ancilla dimensions must match")
    return MeasurementScheme(
        system_dim=xi.dim,
        ancilla=xi,
        interaction=Channel.unitary(swap_unitary(xi.dim), xi.tol),
        pointer=pointer,
    )


# ---------------------------------------------------------------------------
# rank-drop channel fixture


def build_rank_drop_channel(tol: Tolerances = DEFAULT_TOL) -> Channel:
    """Constrained C^3 channel that still shrinks the rank of some low-rank inputs.

    rho -> tr[rho |0><0|] rho_0 + tr[rho (1-|0><0|)] |1><1| with rho_0 full-rank.
    """
    p0 = _proj(_ket(0, 3))
    rho0 = np.diag([0.5, 1.0 / 3.0, 1.0 / 6.0])
    return Channel.measure_prepare([(p0, rho0), (np.eye(3) - p0, _proj(_ket(1, 3)))], tol)


# ---------------------------------------------------------------------------
# seeded random generators


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_full_rank_state(dim: int, seed: int, tol: Tolerances = DEFAULT_TOL) -> State:
    """Random state with smallest eigenvalue at least 0.05/dim."""
    rng = np.random.default_rng(seed)
    floor = 0.05 / dim
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    raw = g @ g.conj().T
    raw = raw / np.trace(raw).real
    return State((1.0 - dim * floor) * raw + floor * np.eye(dim), tol)


def random_state_of_rank(dim: int, rank: int, seed: int) -> State:
    """Random state of exact rank with eigenvalues at least 0.05/rank."""
    rng = np.random.default_rng(seed)
    u = random_unitary(dim, rng)
    w = rng.dirichlet(np.ones(rank)) * (1.0 - 0.05) + 0.05 / rank
    w = w / w.sum()
    vals = np.concatenate([w, np.zeros(dim - rank)])
    return State((u * vals) @ u.conj().T)


def random_channel(dim_in: int, dim_out: int, kraus_count: int, seed: int) -> Channel:
    """Haar-style channel from a random isometry into dim_out * kraus_count."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim_out * kraus_count, dim_in)) + 1j * rng.standard_normal(
        (dim_out * kraus_count, dim_in))
    q, _ = np.linalg.qr(g)
    q.setflags(write=False)  # the Channel keeps q's memory instead of copying it
    return Channel(q.reshape(kraus_count, dim_out, dim_in))


def random_constrained_channel(dim: int, seed: int) -> Channel:
    """Random channel mixed with weight 0.1 of the completely depolarizing one; always constrained."""
    base = random_channel(dim, dim, max(2, dim // 2 + 1), seed).kraus
    kraus = np.zeros((len(base) + dim * dim, dim, dim), dtype=np.complex128)
    kraus[:len(base)] = np.sqrt(0.9) * base
    # the scaled matrix units e_ij, in (i, j) order, are the rows of a scaled identity
    np.fill_diagonal(kraus[len(base):].reshape(dim * dim, dim * dim), np.sqrt(0.1 / dim))
    kraus.setflags(write=False)  # the Channel keeps this stack instead of copying it
    return Channel(kraus)


def random_bistochastic_channel(dim: int, mix_count: int, seed: int) -> Channel:
    """Convex mixture of random unitaries; fixes the complete mixture."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(mix_count)) * 0.8 + 0.2 / mix_count
    probs = probs / probs.sum()
    kraus = tuple(np.sqrt(p) * random_unitary(dim, rng) for p in probs)
    return Channel(kraus)


def random_low_rank_preparation(dim: int, rank: int, seed: int) -> Channel:
    """rho -> tr[rho] sigma with rank(sigma) = rank; never constrained for rank < dim."""
    return Channel.measure_prepare([(np.eye(dim), random_state_of_rank(dim, rank, seed))])


def random_povm(dim: int, outcomes: int, seed: int, mode: str | None = None) -> Observable:
    """Random observable; mode targets one classifier class.

    None: unconstrained draw (PSD blocks whitened by their sum).
    'sharp': projections onto random orthogonal subspaces.
    'norm1-unsharp': each effect pins one basis vector, shares the rest (dim > outcomes).
    'completely-unsharp': unconstrained draw mixed toward tr-weighted identity (eps = 0.2).
    'small-rank': first effect is rank one.
    """
    rng = np.random.default_rng(seed)
    if mode is None:
        return _random_povm_generic(dim, outcomes, rng)
    if mode == "sharp":
        u = random_unitary(dim, rng)
        bounds = _random_bounds(dim, outcomes, rng)
        return Observable(tuple(u[:, a:b] @ u[:, a:b].conj().T for a, b in zip(bounds, bounds[1:])))
    if mode == "norm1-unsharp":
        if dim <= outcomes:
            raise ValidationError("norm1-unsharp mode needs dim > outcomes")
        u = random_unitary(dim, rng)
        shares = np.stack([_interior_weights(outcomes, rng) for _ in range(dim - outcomes)])
        weights = np.concatenate([np.eye(outcomes), shares])  # [j, x]: the weight of |u_j><u_j| in E_x
        return Observable(np.einsum("jx,aj,bj->xab", weights, u, u.conj()))
    if mode == "completely-unsharp":
        e, eps = _random_povm_generic(dim, outcomes, rng).effects, 0.2
        traces = np.trace(e, axis1=1, axis2=2).real
        return Observable((1.0 - eps) * e + (eps * (traces / dim))[:, None, None] * np.eye(dim))
    if mode == "small-rank":
        v = random_unitary(dim, rng)[:, 0]
        lead = 0.7 * _proj(v)
        rest = _random_povm_generic(dim, max(outcomes - 1, 1), rng)
        root = matrix_sqrt_psd(np.eye(dim) - lead)
        effects = (lead,) + tuple(root @ e @ root for e in rest.effects)
        return Observable(effects)
    raise ValidationError(f"unknown mode {mode!r}")


def _random_povm_generic(dim: int, outcomes: int, rng: np.random.Generator) -> Observable:
    r = rng.standard_normal((outcomes, 2, dim, dim))  # per outcome: real part, then imaginary
    g = r[:, 0] + 1j * r[:, 1]
    blocks = g @ dagger(g)
    w, v = np.linalg.eigh(blocks.sum(0))
    whiten = (v / np.sqrt(w)) @ v.conj().T
    return Observable(whiten @ blocks @ whiten)


def _random_bounds(total: int, parts: int, rng: np.random.Generator) -> list[int]:
    """0 = b_0 < b_1 < ... < b_parts = total: parts non-empty consecutive ranges."""
    if parts > total:
        raise ValidationError("cannot split into more parts than dimensions")
    cuts = sorted(rng.choice(np.arange(1, total), size=parts - 1, replace=False)) if parts > 1 else []
    return [0, *cuts, total]


def _interior_weights(count: int, rng: np.random.Generator) -> np.ndarray:
    w = rng.dirichlet(np.ones(count)) * 0.8 + 0.2 / count
    return w / w.sum()


def random_constrained_scheme(system_dim: int, ancilla_dim: int, outcomes: int,
                              seed: int) -> MeasurementScheme:
    """Random scheme passing the third-law gate: full-rank ancilla, blended interaction."""
    rng = np.random.default_rng(seed)
    return MeasurementScheme(
        system_dim=system_dim,
        ancilla=random_full_rank_state(ancilla_dim, int(rng.integers(2 ** 31))),
        interaction=random_constrained_channel(system_dim * ancilla_dim, int(rng.integers(2 ** 31))),
        pointer=random_povm(ancilla_dim, outcomes, int(rng.integers(2 ** 31))),
    )


def random_instrument(dim: int, outcomes: int, seed: int) -> Instrument:
    """Random instrument: Kraus operators of a random channel split across outcomes."""
    rng = np.random.default_rng(seed)
    total = random_channel(dim, dim, outcomes * 2, int(rng.integers(2 ** 31)))
    return Instrument.from_kraus(total.kraus.reshape(outcomes, 2, dim, dim))


# ---------------------------------------------------------------------------
# class representatives and the model catalog


def completely_unsharp_pair(tol: Tolerances = DEFAULT_TOL) -> Observable:
    """Binary diagonal qubit pair diag(3/4, 1/4), diag(1/4, 3/4)."""
    return Observable((np.diag([0.75, 0.25]).astype(np.complex128),
                       np.diag([0.25, 0.75]).astype(np.complex128)), tol=tol)


def table1_observables(tol: Tolerances = DEFAULT_TOL) -> dict[str, Observable]:
    """One representative per observable class column."""
    norm1, _ = build_ideality_example(tol)
    return {
        "small-rank": pointer_observable(2, tol),
        "sharp": Observable(np.kron(np.eye(2), pointer_observable(2, tol).effects), tol=tol),  # 1 (x) |x><x|
        "norm-1": norm1,
        "completely-unsharp": completely_unsharp_pair(tol),
    }


@dataclass(frozen=True)
class CatalogEntry:
    """Named bundle of exportable objects plus the facts tests hold it to."""

    name: str
    description: str
    builder: Callable[[Tolerances], dict]
    expected: dict

    def build(self, tol: Tolerances = DEFAULT_TOL) -> dict:
        return self.builder(tol)  # every object built at tol


def _catalog_luders_cu(tol: Tolerances) -> dict:
    obs = completely_unsharp_pair(tol)
    return {"observable": obs, "scheme": build_luders_scheme(obs), "instrument": luders_instrument(obs, tol)}


def _catalog_extremal(tol: Tolerances) -> dict:
    instrument = extremal_instrument(tol)
    return {"scheme": build_extremal_model(State.diagonal(EXTREMAL_ANCILLA, tol)), "instrument": instrument,
            "observable": instrument.induced_observable()}


def _catalog_swap(tol: Tolerances) -> dict:
    xi = State.diagonal([0.7, 0.3], tol)
    return {"scheme": build_swap_scheme(xi), "xi": xi}


CATALOG: dict[str, CatalogEntry] = {
    entry.name: entry
    for entry in (
        CatalogEntry(
            "nondisturbance-two-qubit",
            "commuting-pair model: E's instrument preserves a non-commuting F",
            lambda tol: dict(zip(("observable", "other", "instrument"), build_nondisturbance_example(tol))),
            {"non_disturbance": True, "commutator_norm_min": 0.1},
        ),
        CatalogEntry(
            "luders-unsharp-qubit",
            "modular scheme realizing the Luders instrument of a completely unsharp pair",
            _catalog_luders_cu,
            {"constrained": True, "first_kind": True, "non_disturbance": True, "extremal": True},
        ),
        CatalogEntry(
            "shift-first-kind",
            "unitary shift register measuring a commutative unsharp observable first-kind",
            lambda tol: {"observable": shift_observable(3, (0.5, 0.3, 0.2), tol),
                         "scheme": build_shift_scheme(3, (0.5, 0.3, 0.2), tol)},
            {"constrained": True, "first_kind": True},
        ),
        CatalogEntry(
            "ideality-qutrit",
            "norm-1 observable on C^3 with an ideal, non-repeatable instrument",
            lambda tol: dict(zip(("observable", "instrument"), build_ideality_example(tol))),
            {"ideal": "true", "repeatable": False},
        ),
        CatalogEntry(
            "extremal-two-qubit",
            "constrained scheme achieving an extremal instrument for a sharp rank-2 pair",
            _catalog_extremal,
            {"constrained": True, "extremal": True, "gram_rank": 8},
        ),
        CatalogEntry(
            "swap-nondisturbance",
            "partial swap readout whose fixed points are the whole first factor",
            _catalog_swap,
            {"constrained": True, "block_dims": (2, 2)},
        ),
        CatalogEntry(
            "rank-drop-qutrit",
            "constrained channel that still collapses a rank-2 input",
            lambda tol: {"channel": build_rank_drop_channel(tol)},
            {"constrained": True},
        ),
    )
}
