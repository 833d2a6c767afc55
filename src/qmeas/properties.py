"""Operational property checks for instruments, in the Heisenberg picture.

Every check runs the dual maps on an operator basis rather than sampling
states: non-disturbance and first-kindness compare I_X^*(A) with A on the
relevant effects, repeatability compares I_x^*(E_y) with delta_xy E_x, and
ideality tests invariance on a basis of operators supported where the
effect attains 1.  Extremality is decided by linear independence of the
products of a minimal Kraus family, which is necessary and sufficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classify import ObservableClassification
from .core import (
    Channel,
    Instrument,
    MeasurementScheme,
    Observable,
    apply,
    apply_dual,
    kraus_from_rows,
    row_blocks,
    scheme_to_instrument,
    superop_distance,
)
from .errors import SchemeMismatch
from .linalg import DEFAULT_TOL, Tolerances, attains_one, dagger, hermitian_eig, numerical_rank

IDEAL_BASIS_RESIDUAL = 1e-8
SCHEME_IDENTITY_RESIDUAL = 1e-7
SCHEME_IMPLEMENTS_RESIDUAL = 1e-8

POSSIBLE = "possible"
IMPOSSIBLE = "impossible"
NOT_COVERED = "not_covered"

IDEAL_TRUE = "true"
IDEAL_FALSE = "false"
IDEAL_NOT_APPLICABLE = "not_applicable"


def invariance(channel: Channel, effects, tol: Tolerances = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether Phi^*(F) = F within atol_equality for every effect F, and max |Phi^*(F) - F|.

    Phi is an instrument's total channel I_X.
    """
    f = np.asarray(effects, dtype=np.complex128)
    residual = float(np.abs(apply_dual(channel, f) - f).max())
    return residual <= tol.atol_equality, residual


def check_non_disturbance(instrument: Instrument, other: Observable,
                          tol: Tolerances = DEFAULT_TOL) -> bool:
    """I_X^*(F_y) = F_y for every effect of the other observable."""
    return invariance(instrument.total_channel(), other.effects, tol)[0]


def check_first_kind(instrument: Instrument, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Non-disturbance of the instrument's own observable."""
    return check_non_disturbance(instrument, instrument.induced_observable(), tol)


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
    w, v = hermitian_eig(instrument.induced_observable().effects, tol)
    if not attains_one(w[:, 0], tol).all():
        return IDEAL_NOT_APPLICABLE
    for op, wx, vx in zip(instrument.operations, w, v):
        q = vx[:, attains_one(wx, tol)]
        units = np.einsum("ai,bj->ijab", q, q.conj()).reshape(-1, instrument.dim, instrument.dim)
        if np.abs(apply(op, units) - units).max() > IDEAL_BASIS_RESIDUAL:
            return IDEAL_FALSE
    return IDEAL_TRUE


@dataclass(frozen=True)
class ExtremalResult:
    """extremal: the gram_rank of the Kraus products equals their product_count, sum m_x^2."""

    extremal: bool
    kraus_ranks: tuple[int, ...]
    gram_rank: int
    product_count: int


def check_extremal(instrument: Instrument, tol: Tolerances = DEFAULT_TOL) -> ExtremalResult:
    """Linear independence of all products K_i^dag K_j of minimal Kraus families.

    The criterion is basis-independent: any other minimal family spans the
    same product set.  Products spanning several row blocks are reduced by a QR of
    each block: the stacked R factors keep their singular values, so numerical_rank's
    cut is unchanged.
    """
    families = [kraus_from_rows(op.kraus.reshape(len(op.kraus), -1), op.dim_out, op.dim_in, tol)
                for op in instrument.operations]
    products = np.concatenate([
        (dagger(f)[:, None] @ f[None]).reshape(len(f) ** 2, -1)  # rows vec(K_a^dag K_b)
        for f in families
    ])
    blocks = list(row_blocks(products))  # one block goes to the SVD as it is: a QR would only add cost
    r = np.concatenate([np.linalg.qr(b, mode="r") for b in blocks]) if len(blocks) > 1 else products
    gram_rank = numerical_rank(r, tol)
    return ExtremalResult(gram_rank == len(products), tuple(len(f) for f in families),
                          gram_rank, len(products))


# ---------------------------------------------------------------------------
# class-level feasibility verdicts


THEOREM_ROWS = ("non_disturbance", "first_kind", "repeatable", "ideal", "extremal")


@dataclass(frozen=True)
class TheoremPredicates:
    """Row verdicts: can a constrained scheme realize the property for this class?

    witnesses names, for each possible row, the CATALOG entry whose scheme
    realizes the property for an observable of the class.
    """

    verdicts: dict
    reasons: dict
    witnesses: dict


def theorem_predicates(c: ObservableClassification, dim: int) -> TheoremPredicates:
    verdicts: dict[str, str] = {}
    reasons: dict[str, str] = {}
    witnesses: dict[str, str] = {}

    if c.is_completely_unsharp:
        verdicts["non_disturbance"] = POSSIBLE
        reasons["non_disturbance"] = "completely unsharp: a commuting observable survives undisturbed"
        witnesses["non_disturbance"] = "luders-unsharp-qubit"
    elif c.is_norm1:
        verdicts["non_disturbance"] = IMPOSSIBLE
        reasons["non_disturbance"] = ("norm-1 effects: not every observable commuting with E "
                                      "can stay undisturbed")
    elif c.is_small_rank:
        verdicts["non_disturbance"] = IMPOSSIBLE
        reasons["non_disturbance"] = "a rank-1 effect collapses the fixed-point algebra to scalars"
    else:
        verdicts["non_disturbance"] = NOT_COVERED
        reasons["non_disturbance"] = "between the decided classes"

    if c.is_commutative and c.is_completely_unsharp:
        verdicts["first_kind"] = POSSIBLE
        reasons["first_kind"] = "commutative and completely unsharp: own-observable invariance attainable"
        witnesses["first_kind"] = "luders-unsharp-qubit"
    else:
        verdicts["first_kind"] = IMPOSSIBLE
        reasons["first_kind"] = "first-kindness needs a commutative completely unsharp observable"

    verdicts["repeatable"] = IMPOSSIBLE
    reasons["repeatable"] = "repeatability is excluded outright under rank non-decrease"
    verdicts["ideal"] = IMPOSSIBLE
    reasons["ideal"] = "ideality is excluded outright under rank non-decrease"

    if min(c.per_effect_ranks) ** 2 < dim:
        verdicts["extremal"] = IMPOSSIBLE
        reasons["extremal"] = "an effect has rank below sqrt(dim)"
    elif c.is_completely_unsharp:
        verdicts["extremal"] = POSSIBLE
        reasons["extremal"] = "completely unsharp: a Luders instrument with independent effects"
        witnesses["extremal"] = "luders-unsharp-qubit"
    elif c.is_norm1:
        verdicts["extremal"] = POSSIBLE
        reasons["extremal"] = "norm-1 with rank bound met: a non-unitary qubit-ancilla scheme"
        witnesses["extremal"] = "extremal-two-qubit"
    else:
        verdicts["extremal"] = NOT_COVERED
        reasons["extremal"] = "rank bound satisfied but no catalog witness"

    return TheoremPredicates(verdicts, reasons, witnesses)


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
        superop_distance(a, b)
        for a, b in zip(induced.operations, instrument.operations)
    )
    if dist > SCHEME_IMPLEMENTS_RESIDUAL * instrument.dim:
        raise SchemeMismatch(f"scheme's instrument is {dist:.3e} away from the claimed one")

    ds = scheme.system_dim
    units = np.eye(ds * ds, dtype=np.complex128).reshape(-1, ds, ds)  # the matrix units e_ab
    eye_a = np.eye(scheme.ancilla_dim)
    return all(
        np.abs(apply_dual(scheme.interaction, np.kron(units, z))
               - np.kron(apply_dual(op, units), eye_a)).max() <= SCHEME_IDENTITY_RESIDUAL
        for z, op in zip(scheme.pointer.effects, instrument.operations)
    )


# ---------------------------------------------------------------------------
# one-call report


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
    """All property verdicts; each invariance residual is computed once and thresholded."""
    obs = instrument.induced_observable()
    total = instrument.total_channel()
    residuals = {}
    first_kind, residuals["first_kind"] = invariance(total, obs.effects, tol)
    non_disturbance = None
    if against is not None:
        non_disturbance, residuals["non_disturbance"] = invariance(total, against.effects, tol)
    return PropertyReport(
        first_kind=first_kind,
        repeatable=check_repeatable(instrument, tol),
        ideal=check_ideal(instrument, tol),
        extremal=check_extremal(instrument, tol),
        non_disturbance=non_disturbance,
        residuals=residuals,
    )
