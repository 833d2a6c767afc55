"""Verification toolkit for quantum measurements under rank non-decrease constraints."""

from .linalg import DEFAULT_TOL, Tolerances
from .core import (
    Channel,
    Instrument,
    MeasurementScheme,
    Observable,
    Operation,
    State,
    apply,
    apply_dual,
    compose,
    fidelity,
    luders_instrument,
    scheme_to_instrument,
)
from .classify import classify
from .thirdlaw import (
    check_channel_thirdlaw,
    check_faithfulness,
    check_scheme_thirdlaw,
    full_rank_fixed_state,
    purify_via_unconstrained,
)
from .algebra import decompose, effect_blocks, fixed_point_space
from .properties import (
    check_extremal,
    check_first_kind,
    check_ideal,
    check_non_disturbance,
    check_repeatable,
    decide,
    evaluate_properties,
    theorem_predicates,
)

__all__ = [
    "DEFAULT_TOL",
    "Tolerances",
    "Channel",
    "Instrument",
    "MeasurementScheme",
    "Observable",
    "Operation",
    "State",
    "apply",
    "apply_dual",
    "compose",
    "fidelity",
    "luders_instrument",
    "scheme_to_instrument",
    "classify",
    "check_channel_thirdlaw",
    "check_faithfulness",
    "check_scheme_thirdlaw",
    "full_rank_fixed_state",
    "purify_via_unconstrained",
    "decompose",
    "effect_blocks",
    "fixed_point_space",
    "check_extremal",
    "check_first_kind",
    "check_ideal",
    "check_non_disturbance",
    "check_repeatable",
    "decide",
    "evaluate_properties",
    "theorem_predicates",
]

__version__ = "0.1.0"
