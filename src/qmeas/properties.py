"""Operational property checks for instruments, in the Heisenberg picture.

Every check runs the dual maps on an operator basis rather than sampling
states: non-disturbance and first-kindness compare I_X^*(A) with A on the
relevant effects, repeatability compares I_x^*(E_y) with delta_xy E_x, and
ideality tests invariance on a basis of operators supported where the
effect attains 1.  Extremality is decided by linear independence of the
products of a minimal Kraus family, which is necessary and sufficient.
`decide` is the one decision path for all five: the CLI's check verbs,
`evaluate_properties` and Table 1's witnesses go through it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .classify import ObservableClassification
from .core import (
    BLOCK_ENTRIES,
    Instrument,
    MeasurementScheme,
    Observable,
    apply,
    apply_dual,
    kraus_from_rows,
    row_blocks,
    scheme_to_instrument,
)
from .errors import QmeasError, SchemeMismatch
from .linalg import DEFAULT_TOL, Tolerances, attains_one, cut_rank, dagger, numerical_rank, rank_cut

POSSIBLE = "possible"
IMPOSSIBLE = "impossible"
NOT_COVERED = "not_covered"

IDEAL_TRUE = "true"
IDEAL_FALSE = "false"
IDEAL_NOT_APPLICABLE = "not_applicable"


def check_repeatable(instrument: Instrument, tol: Tolerances = DEFAULT_TOL) -> bool:
    """I_x^*(E_y) = delta_xy E_x for all outcome pairs."""
    effects = instrument.induced_observable().effects
    targets = np.eye(len(effects))[:, :, None, None] * effects  # [x, y] = delta_xy E_y
    return all(
        np.abs(apply_dual(op, effects) - target).max() <= tol.atol_equality
        for op, target in zip(instrument.operations, targets)
    )


def check_ideal(instrument: Instrument, tol: Tolerances = DEFAULT_TOL) -> str:
    """'true'/'false' when every effect attains norm one, else 'not_applicable'.

    Ideality asks that states certain of an outcome pass undisturbed; such
    states exist only for norm-1 effects, and they span the operators living
    on the eigenvalue-1 eigenspace Q_x, so invariance is tested on the units
    |q_i><q_j| of an orthonormal basis of Q_x.
    """
    w, v = instrument.induced_observable().eig(tol)
    if not attains_one(w[:, 0], tol).all():
        return IDEAL_NOT_APPLICABLE
    for op, wx, vx in zip(instrument.operations, w, v):
        q = vx[:, attains_one(wx, tol)]
        units = np.einsum("ai,bj->ijab", q, q.conj()).reshape(-1, instrument.dim, instrument.dim)
        if np.abs(apply(op, units) - units).max() > tol.atol_equality:
            return IDEAL_FALSE
    return IDEAL_TRUE


@dataclass(frozen=True)
class ExtremalResult:
    """extremal: at most d^2 outcomes, and the gram_rank of the Kraus products equals their
    product_count, sum m_x^2 (each outcome gives at least one product, and all must be independent)."""

    extremal: bool
    kraus_ranks: tuple[int, ...]
    gram_rank: int
    product_count: int


def check_extremal(instrument: Instrument, tol: Tolerances = DEFAULT_TOL) -> ExtremalResult:
    """Linear independence of all products K_i^dag K_j of minimal Kraus families.

    The criterion is basis-independent: any other minimal family spans the same product set.
    Each family's Kraus rank is decided at rank_cut on its weights |K_i|_F^2.
    The rows vec(K_a^dag K_b) are made one row block (a slice of a's of one family) at a time.
    Several blocks are folded into one running R factor, which keeps their singular values.  The
    fold stops at d^2 rows whose smallest singular value exceeds rank_cut at W = sum_x |f_x|_F^2:
    W bounds the largest singular value of all products and more rows lower none, so the rank is d^2.
    """
    kraus, dim, minimal = [op.kraus for op in instrument.operations], instrument.dim, {}
    for count in {len(k) for k in kraus}:  # one stacked reduction per Kraus count
        same = [x for x, k in enumerate(kraus) if len(k) == count]
        rows = np.stack([kraus[x].reshape(count, -1) for x in same])
        minimal.update(zip(same, kraus_from_rows(rows, dim, dim)))
    families = [f[:cut_rank((np.abs(f) ** 2).sum(axis=(1, 2)), tol)] for _, f in sorted(minimal.items())]
    count, span = sum(len(f) ** 2 for f in families), dim ** 2
    ranks, few = tuple(len(f) for f in families), len(families) <= span
    blocks = ((dagger(a)[:, None] @ f[None]).reshape(-1, span)  # rows vec(K_a^dag K_b)
              for f in families if len(f) for a in row_blocks(f, len(f)))
    if count * span <= BLOCK_ENTRIES:  # one block goes to the SVD: a QR only adds cost
        r = np.concatenate([np.empty((0, span)), *blocks])
    else:
        cut, r = rank_cut(np.array([sum(np.vdot(f, f).real for f in families)]), tol), np.empty((0, span))
        for b in blocks:
            r = np.linalg.qr(np.concatenate([r, b]), mode="r")
            if len(r) == span and np.linalg.svd(r, compute_uv=False)[-1] > cut:
                # the rank is span, which numerical_rank(r) would find again: its cut is at most the one at W
                return ExtremalResult(few and span == count, ranks, span, count)
    gram_rank = numerical_rank(r, tol)
    return ExtremalResult(few and gram_rank == count, ranks, gram_rank, count)


# ---------------------------------------------------------------------------
# class-level feasibility verdicts


THEOREM_ROWS = ("non_disturbance", "first_kind", "repeatable", "ideal", "extremal")


@dataclass(frozen=True)
class Cell:
    """One Table 1 cell: can a constrained scheme realize the row's property for this class?

    witness names, for a possible cell, the CATALOG entry whose scheme
    realizes the property for an observable of the class.
    """

    verdict: str
    reason: str
    witness: str | None = None


def theorem_predicates(c: ObservableClassification, dim: int) -> dict[str, Cell]:
    """The cell of every THEOREM_ROWS row for an observable's class."""
    if c.is_completely_unsharp:
        non_disturbance = Cell(POSSIBLE, "completely unsharp: a commuting observable survives undisturbed",
                               "luders-unsharp-qubit")
    elif c.is_norm1:
        non_disturbance = Cell(IMPOSSIBLE, "norm-1 effects: not every observable commuting with E "
                                           "can stay undisturbed")
    elif c.is_small_rank:
        non_disturbance = Cell(IMPOSSIBLE, "a rank-1 effect collapses the fixed-point algebra to scalars")
    else:
        non_disturbance = Cell(NOT_COVERED, "between the decided classes")

    if c.is_commutative and c.is_completely_unsharp:
        first_kind = Cell(POSSIBLE, "commutative and completely unsharp: own-observable invariance "
                                    "attainable", "luders-unsharp-qubit")
    else:
        first_kind = Cell(IMPOSSIBLE, "first-kindness needs a commutative completely unsharp observable")

    if min(c.per_effect_ranks) ** 2 < dim:
        extremal = Cell(IMPOSSIBLE, "an effect has rank below sqrt(dim)")
    elif len(c.per_effect_ranks) > dim ** 2:
        # each outcome gives at least one product K^dag K, and the products must be independent
        extremal = Cell(IMPOSSIBLE, "more outcomes than dim^2: extremality needs n <= d^2")
    elif c.is_completely_unsharp:
        extremal = Cell(POSSIBLE, "completely unsharp: a Luders instrument with independent effects",
                        "luders-unsharp-qubit")
    elif c.is_norm1:
        extremal = Cell(POSSIBLE, "norm-1 with rank bound met: a non-unitary qubit-ancilla scheme",
                        "extremal-two-qubit")
    else:
        extremal = Cell(NOT_COVERED, "rank bound satisfied but no catalog witness")

    return {
        "non_disturbance": non_disturbance,
        "first_kind": first_kind,
        "repeatable": Cell(IMPOSSIBLE, "repeatability is excluded outright under rank non-decrease"),
        "ideal": Cell(IMPOSSIBLE, "ideality is excluded outright under rank non-decrease"),
        "extremal": extremal,
    }


# ---------------------------------------------------------------------------
# extremal scheme identity


def check_extremal_scheme_identity(scheme: MeasurementScheme, instrument: Instrument,
                                   tol: Tolerances = DEFAULT_TOL) -> bool:
    """E^*(A (x) Z_x) = I_x^*(A) (x) 1_A on a spanning set of system operators.

    The identity characterizes schemes implementing extremal instruments;
    for non-extremal ones it fails.  Raises SchemeMismatch when the scheme
    does not implement the instrument at all.
    """
    induced = scheme_to_instrument(scheme, tol)
    if len(induced) != len(instrument) or induced.dim != instrument.dim:
        raise SchemeMismatch("outcome sets or dimensions differ")
    dist = max(
        np.abs(a.superoperator - b.superoperator).max()
        for a, b in zip(induced.operations, instrument.operations)
    )
    if dist > tol.atol_equality:
        raise SchemeMismatch(f"scheme's instrument is {dist:.3e} away from the claimed one")

    ds = scheme.system_dim
    units = np.eye(ds * ds, dtype=np.complex128).reshape(-1, ds, ds)  # the matrix units e_ab
    eye_a = np.eye(scheme.ancilla_dim)
    return all(
        np.abs(apply_dual(scheme.interaction, np.kron(units, z))
               - np.kron(apply_dual(op, units), eye_a)).max() <= tol.atol_equality
        for z, op in zip(scheme.pointer.effects, instrument.operations)
    )


# ---------------------------------------------------------------------------
# the one decision path


def decide(row: str, instrument: Instrument, tol: Tolerances = DEFAULT_TOL,
           against: Observable | None = None) -> tuple[bool, dict]:
    """Decide one THEOREM_ROWS property on an instrument: the verdict and the fields behind it.

    The verdict's key leads the fields.  first_kind and non_disturbance hold when
    I_X^*(F) = F within atol_equality for every effect F of the instrument's own
    observable and of `against`, and report the residual max |I_X^*(F) - F|.
    """
    if row in ("first_kind", "non_disturbance"):
        invariant = instrument.induced_observable() if row == "first_kind" else against
        if invariant is None:
            raise QmeasError("non_disturbance needs an observable to hold invariant")
        f = invariant.effects
        residual = float(np.abs(apply_dual(instrument.total_channel(), f) - f).max())
        holds = residual <= tol.atol_equality
        return holds, {row: holds, "residual": residual}
    if row == "repeatable":
        holds = check_repeatable(instrument, tol)
        return holds, {row: holds}
    if row == "ideal":
        ideal = check_ideal(instrument, tol)
        return ideal == IDEAL_TRUE, {row: ideal}
    if row == "extremal":
        result = check_extremal(instrument, tol)
        return result.extremal, asdict(result)
    raise QmeasError(f"unknown property {row!r}")


def check_non_disturbance(instrument: Instrument, other: Observable,
                          tol: Tolerances = DEFAULT_TOL) -> bool:
    """I_X^*(F_y) = F_y for every effect of the other observable."""
    return decide("non_disturbance", instrument, tol, other)[0]


def check_first_kind(instrument: Instrument, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Non-disturbance of the instrument's own observable."""
    return decide("first_kind", instrument, tol)[0]


@dataclass(frozen=True)
class PropertyReport:
    first_kind: bool
    repeatable: bool
    ideal: str
    extremal: ExtremalResult
    non_disturbance: bool | None = None
    residuals: dict = field(default_factory=dict)


def evaluate_properties(instrument: Instrument, tol: Tolerances = DEFAULT_TOL,
                        against: Observable | None = None) -> PropertyReport:
    """decide on every row, non_disturbance only when `against` is given."""
    fields = {row: decide(row, instrument, tol, against)[1] for row in THEOREM_ROWS
              if row != "non_disturbance" or against is not None}
    return PropertyReport(
        **{row: f[row] for row, f in fields.items() if row != "extremal"},
        extremal=ExtremalResult(**fields["extremal"]),
        residuals={row: f["residual"] for row, f in fields.items() if "residual" in f},
    )
