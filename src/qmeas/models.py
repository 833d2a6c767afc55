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
    Operation,
    State,
    compose,
    luders_instrument,
    measure_prepare_kraus,
)
from .errors import BadDistribution, NotCompletelyUnsharp, NotFullRank, ValidationError
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    hermitian_eig,
    kron,
    matrix_sqrt_psd,
    numerical_rank,
)


def _ket(index: int, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return v


def _proj(vector: np.ndarray) -> np.ndarray:
    return np.outer(vector, vector.conj())


def pointer_observable(dim: int) -> Observable:
    """Sharp reading of the computational basis."""
    return Observable(tuple(_proj(_ket(x, dim)) for x in range(dim)))


# ---------------------------------------------------------------------------
# two-qubit non-disturbance model


def build_nondisturbance_example() -> tuple[Observable, Observable, Instrument]:
    """Binary E and F on two qubits: E's instrument leaves F exactly invariant
    although E and F do not commute."""
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    a0 = p0.copy()
    a1 = p0 / 2.0
    a2 = p1 / 2.0
    a3 = _proj(plus) / 2.0
    a4 = _proj(minus) / 2.0
    a5 = p1.copy()

    e0 = kron(a0, p0) + kron(a2 + a4, p1)
    e1 = kron(a1 + a3, p1) + kron(a5, p0)
    f0 = kron(a0, p0) + kron(a1 + a4, p1)
    f1 = kron(a2 + a3, p1) + kron(a5, p0)

    out00, out10 = _proj(_ket(0, 4)), _proj(_ket(2, 4))  # prepared |00><00|, |10><10|
    op0 = Operation(measure_prepare_kraus([(kron(a0, p0) + kron(a4, p1), out00), (kron(a2, p1), out10)]))
    op1 = Operation(measure_prepare_kraus([(kron(a5, p0) + kron(a3, p1), out10), (kron(a1, p1), out00)]))
    instrument = Instrument((op0, op1))
    return Observable((e0, e1)), Observable((f0, f1)), instrument


def trivial_instrument(observable: Observable, outputs: tuple[State, ...] | None = None) -> Instrument:
    """I_x(rho) = tr[E_x rho] sigma_x; measure-and-reprepare with no coherence kept."""
    if outputs is None:
        outputs = tuple(State.complete_mixture(observable.dim) for _ in observable.effects)
    ops = tuple(Operation(measure_prepare_kraus([pair])) for pair in zip(observable.effects, outputs))
    return Instrument(ops, observable.outcomes)


# ---------------------------------------------------------------------------
# modular Luders scheme


def luders_interaction_channel(observable: Observable) -> Channel:
    """K_x = sum_a sqrt(E_{x+a}) (x) |x+a><a| (indices mod N); always trace-preserving."""
    n = len(observable)
    d = observable.dim
    roots = matrix_sqrt_psd(observable.effects)
    kraus = []
    for x in range(n):
        k = np.zeros((d * n, d * n), dtype=np.complex128)
        for a in range(n):
            k += kron(roots[(x + a) % n], np.outer(_ket((x + a) % n, n), _ket(a, n).conj()))
        kraus.append(k)
    return Channel(tuple(kraus))


def build_luders_scheme(observable: Observable, tol: Tolerances = DEFAULT_TOL) -> MeasurementScheme:
    """Constrained scheme whose instrument is the Luders instrument of the observable.

    Exists exactly for completely unsharp observables; the interaction maps
    rho (x) 1/N to sum_x sqrt(E_x) rho sqrt(E_x) (x) |x><x|.
    """
    from .classify import classify

    if not classify(observable, tol).is_completely_unsharp:
        raise NotCompletelyUnsharp("every effect must have spectrum inside (0, 1)")
    n = len(observable)
    return MeasurementScheme(
        system_dim=observable.dim,
        ancilla=State.complete_mixture(n),
        interaction=luders_interaction_channel(observable),
        pointer=pointer_observable(n),
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
    if abs(q.sum() - 1.0) > tol.atol_equality * n:
        raise BadDistribution(f"weights sum to {q.sum()!r}, not 1")
    if q.min() <= 0.05:
        raise BadDistribution(f"smallest weight {q.min()!r} must exceed 0.05")
    u = np.zeros((n * n, n * n), dtype=np.complex128)
    for m in range(n):
        for k in range(n):
            u += kron(np.outer(_ket(k, n), _ket(k, n).conj()),
                      np.outer(_ket((m + k) % n, n), _ket(m, n).conj()))
    return MeasurementScheme(
        system_dim=n,
        ancilla=State.diagonal(q),
        interaction=Channel.unitary(u),
        pointer=pointer_observable(n),
    )


def shift_observable(n: int, q) -> Observable:
    """The diagonal observable the shift scheme measures."""
    q = np.asarray(q, dtype=float)
    effects = tuple(
        np.diag([q[(x - m) % n] for m in range(n)]).astype(np.complex128)
        for x in range(n)
    )
    return Observable(effects)


# ---------------------------------------------------------------------------
# ideality model on C^3


def build_ideality_example() -> tuple[Observable, Instrument]:
    """Binary norm-1 observable on C^3 with an ideal (but not repeatable) instrument."""
    d = 3
    e_minus = np.diag([1.0, 0.5, 0.0]).astype(np.complex128)
    e_plus = np.diag([0.0, 0.5, 1.0]).astype(np.complex128)

    def op(keep: int) -> Operation:
        kraus = [_proj(_ket(keep, d))]
        for k in range(d):
            kraus.append(np.outer(_ket(k, d), _ket(1, d).conj()) / np.sqrt(6.0))
        return Operation(tuple(kraus))

    instrument = Instrument((op(0), op(2)), ("minus", "plus"))
    return Observable((e_minus, e_plus), ("minus", "plus")), instrument


# ---------------------------------------------------------------------------
# extremal two-qubit model


def extremal_model_kraus() -> dict[tuple[int, int], np.ndarray]:
    """Kraus operators K_{x,f} = V_f (x) |phi_f><x| of the measurement channel."""
    v0 = np.diag([np.sqrt(0.25), np.sqrt(0.75)]).astype(np.complex128)
    v1 = np.array([[0.0, np.sqrt(0.25)], [np.sqrt(0.75), 0.0]], dtype=np.complex128)
    phi0 = _ket(0, 2)
    phi1 = np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2.0)
    vs = (v0, v1)
    phis = (phi0, phi1)
    return {
        (x, f): kron(vs[f], np.outer(phis[f], _ket(x, 2).conj()))
        for x in range(2)
        for f in range(2)
    }


def extremal_instrument() -> Instrument:
    """The instrument the extremal scheme induces, from its analytic Kraus form."""
    ks = extremal_model_kraus()
    ops = tuple(Operation((ks[(x, 0)], ks[(x, 1)])) for x in range(2))
    return Instrument(ops)


def build_extremal_model(xi: State | None = None) -> MeasurementScheme:
    """Scheme on system C^2 (x) C^2 with qubit ancilla measuring 1 (x) |x><x|.

    The interaction first swaps the second system qubit with the ancilla,
    then applies the (non-unitary) measurement channel on the system; the
    ancilla state may be any full-rank qubit state.
    """
    if xi is None:
        xi = State.diagonal([2.0 / 3.0, 1.0 / 3.0])
    if numerical_rank(xi.matrix) < 2 or xi.dim != 2:
        raise NotFullRank("ancilla state must be a full-rank qubit state")
    swap = swap_unitary(2)
    e1 = Channel.unitary(kron(np.eye(2), swap))
    ks = extremal_model_kraus()
    measure = Channel(tuple(ks.values()))
    e2 = Channel(tuple(np.kron(k, np.eye(2)) for k in measure.kraus))
    return MeasurementScheme(
        system_dim=4,
        ancilla=xi,
        interaction=compose(e2, e1),
        pointer=pointer_observable(2),
    )


def swap_unitary(dim: int) -> np.ndarray:
    u = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for a in range(dim):
        for b in range(dim):
            u[b * dim + a, a * dim + b] = 1.0
    return u


# ---------------------------------------------------------------------------
# partial-swap non-disturbance scheme


def build_swap_scheme(xi: State) -> MeasurementScheme:
    """Swap the second system factor with the ancilla and read it out.

    Measures 1 (x) |x><x| on the system pair; the fixed-point algebra of the
    induced instrument is everything on the first factor.
    """
    if numerical_rank(xi.matrix) < xi.dim:
        raise NotFullRank("ancilla state must be full-rank")
    d = xi.dim
    interaction = Channel.unitary(kron(np.eye(d), swap_unitary(d)))
    return MeasurementScheme(
        system_dim=d * d,
        ancilla=xi,
        interaction=interaction,
        pointer=pointer_observable(d),
    )


def trivial_swap_scheme(xi: State, pointer: Observable) -> MeasurementScheme:
    """Full swap of system and ancilla: measures the pointer, prepares xi."""
    if pointer.dim != xi.dim:
        raise ValidationError("pointer and ancilla dimensions must match")
    return MeasurementScheme(
        system_dim=xi.dim,
        ancilla=xi,
        interaction=Channel.unitary(swap_unitary(xi.dim)),
        pointer=pointer,
    )


# ---------------------------------------------------------------------------
# rank-drop channel fixture


def build_rank_drop_channel() -> Channel:
    """Constrained C^3 channel that still shrinks the rank of some low-rank inputs.

    rho -> tr[rho |0><0|] rho_0 + tr[rho (1-|0><0|)] |1><1| with rho_0 full-rank.
    """
    p0 = _proj(_ket(0, 3))
    rho0 = np.diag([0.5, 1.0 / 3.0, 1.0 / 6.0])
    return Channel(measure_prepare_kraus([(p0, rho0), (np.eye(3) - p0, _proj(_ket(1, 3)))]))


# ---------------------------------------------------------------------------
# seeded random generators


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_full_rank_state(dim: int, seed: int, min_eigenvalue: float | None = None) -> State:
    """Random state with smallest eigenvalue at least min_eigenvalue (default 0.05/dim)."""
    rng = np.random.default_rng(seed)
    floor = 0.05 / dim if min_eigenvalue is None else min_eigenvalue
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    raw = g @ g.conj().T
    raw = raw / np.trace(raw).real
    return State((1.0 - dim * floor) * raw + floor * np.eye(dim))


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
    kraus = tuple(q[i * dim_out:(i + 1) * dim_out, :] for i in range(kraus_count))
    return Channel(kraus)


def random_constrained_channel(dim: int, seed: int, mixing: float = 0.1) -> Channel:
    """Random channel blended with the completely depolarizing one; always constrained."""
    base = random_channel(dim, dim, max(2, dim // 2 + 1), seed)
    kraus = [np.sqrt(1.0 - mixing) * k for k in base.kraus]
    for i in range(dim):
        for j in range(dim):
            k = np.zeros((dim, dim), dtype=np.complex128)
            k[i, j] = np.sqrt(mixing / dim)
            kraus.append(k)
    return Channel(tuple(kraus))


def random_bistochastic_channel(dim: int, mix_count: int, seed: int) -> Channel:
    """Convex mixture of random unitaries; fixes the complete mixture."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(mix_count)) * 0.8 + 0.2 / mix_count
    probs = probs / probs.sum()
    kraus = tuple(np.sqrt(p) * random_unitary(dim, rng) for p in probs)
    return Channel(kraus)


def random_low_rank_preparation(dim: int, rank: int, seed: int) -> Channel:
    """rho -> tr[rho] sigma with rank(sigma) = rank; never constrained for rank < dim."""
    sigma = random_state_of_rank(dim, rank, seed)
    w, v = hermitian_eig(sigma.matrix)
    kraus = []
    for i, wi in enumerate(w):
        if wi > 1e-14:
            for j in range(dim):
                kraus.append(np.sqrt(wi) * np.outer(v[:, i], _ket(j, dim).conj()))
    return Channel(tuple(kraus))


def random_povm(dim: int, outcomes: int, seed: int, mode: str | None = None,
                tol: Tolerances = DEFAULT_TOL) -> Observable:
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
        sizes = _random_partition(dim, outcomes, rng)
        effects, start = [], 0
        for s in sizes:
            cols = u[:, start:start + s]
            effects.append(cols @ cols.conj().T)
            start += s
        return Observable(tuple(effects))
    if mode == "norm1-unsharp":
        if dim <= outcomes:
            raise ValidationError("norm1-unsharp mode needs dim > outcomes")
        u = random_unitary(dim, rng)
        effects = []
        shares = np.stack([_interior_weights(outcomes, rng) for _ in range(dim - outcomes)])
        for x in range(outcomes):
            e = _proj(u[:, x])
            for extra in range(dim - outcomes):
                e = e + shares[extra, x] * _proj(u[:, outcomes + extra])
            effects.append(e)
        return Observable(tuple(effects))
    if mode == "completely-unsharp":
        base = _random_povm_generic(dim, outcomes, rng)
        eps = 0.2
        effects = tuple(
            (1.0 - eps) * e + eps * (np.trace(e).real / dim) * np.eye(dim)
            for e in base.effects
        )
        return Observable(effects)
    if mode == "small-rank":
        v = random_unitary(dim, rng)[:, 0]
        lead = 0.7 * _proj(v)
        rest = _random_povm_generic(dim, max(outcomes - 1, 1), rng)
        root = matrix_sqrt_psd(np.eye(dim) - lead, tol)
        effects = (lead,) + tuple(root @ e @ root for e in rest.effects)
        return Observable(effects)
    raise ValidationError(f"unknown mode {mode!r}")


def _random_povm_generic(dim: int, outcomes: int, rng: np.random.Generator) -> Observable:
    blocks = []
    for _ in range(outcomes):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        blocks.append(g @ g.conj().T)
    total = sum(blocks)
    w, v = np.linalg.eigh(total)
    whiten = (v / np.sqrt(w)) @ v.conj().T
    return Observable(tuple(whiten @ b @ whiten for b in blocks))


def _random_partition(total: int, parts: int, rng: np.random.Generator) -> list[int]:
    if parts > total:
        raise ValidationError("cannot split into more parts than dimensions")
    cuts = sorted(rng.choice(np.arange(1, total), size=parts - 1, replace=False)) if parts > 1 else []
    bounds = [0, *cuts, total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


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
    ops = tuple(
        Operation((total.kraus[2 * x], total.kraus[2 * x + 1]))
        for x in range(outcomes)
    )
    return Instrument(ops)


# ---------------------------------------------------------------------------
# class representatives and the model catalog


def completely_unsharp_pair() -> Observable:
    """Binary diagonal qubit pair diag(3/4, 1/4), diag(1/4, 3/4)."""
    return Observable((np.diag([0.75, 0.25]).astype(np.complex128),
                       np.diag([0.25, 0.75]).astype(np.complex128)))


def table1_observables() -> dict[str, Observable]:
    """One representative per observable class column."""
    qubit_sharp = Observable((np.diag([1.0, 0.0]).astype(np.complex128),
                              np.diag([0.0, 1.0]).astype(np.complex128)))
    rank2_sharp = Observable(tuple(
        kron(np.eye(2), _proj(_ket(x, 2))) for x in range(2)
    ))
    norm1, _ = build_ideality_example()
    return {
        "small-rank": qubit_sharp,
        "sharp": rank2_sharp,
        "norm-1": norm1,
        "completely-unsharp": completely_unsharp_pair(),
    }


@dataclass(frozen=True)
class CatalogEntry:
    """Named bundle of exportable objects plus the facts tests hold it to."""

    name: str
    description: str
    build: Callable[[], dict]
    expected: dict


def _catalog_nondisturbance() -> dict:
    e, f, instrument = build_nondisturbance_example()
    return {"observable": e, "other": f, "instrument": instrument}


def _catalog_luders_cu() -> dict:
    obs = completely_unsharp_pair()
    return {"observable": obs, "scheme": build_luders_scheme(obs),
            "instrument": luders_instrument(obs)}


def _catalog_shift() -> dict:
    q = (0.5, 0.3, 0.2)
    return {"observable": shift_observable(3, q), "scheme": build_shift_scheme(3, q)}


def _catalog_ideality() -> dict:
    obs, instrument = build_ideality_example()
    return {"observable": obs, "instrument": instrument}


def _catalog_extremal() -> dict:
    scheme = build_extremal_model()
    return {"scheme": scheme, "instrument": extremal_instrument(),
            "observable": extremal_instrument().induced_observable()}


def _catalog_swap() -> dict:
    xi = State.diagonal([0.7, 0.3])
    scheme = build_swap_scheme(xi)
    return {"scheme": scheme, "xi": xi}


def _catalog_rank_drop() -> dict:
    return {"channel": build_rank_drop_channel()}


CATALOG: dict[str, CatalogEntry] = {
    entry.name: entry
    for entry in (
        CatalogEntry(
            "nondisturbance-two-qubit",
            "commuting-pair model: E's instrument preserves a non-commuting F",
            _catalog_nondisturbance,
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
            _catalog_shift,
            {"constrained": True, "first_kind": True},
        ),
        CatalogEntry(
            "ideality-qutrit",
            "norm-1 observable on C^3 with an ideal, non-repeatable instrument",
            _catalog_ideality,
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
            _catalog_rank_drop,
            {"constrained": True},
        ),
    )
}
