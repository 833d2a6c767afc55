"""Command-line interface.

Verdict-style commands exit 0 on an affirmative answer, 1 on a negative
one, and 2 on usage or input errors; they never raise to the shell.
Reports are emitted as JSON (--json) or aligned text (--human, default),
carrying the command echo, the tolerances used, verdicts, and residuals.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import modelfile
from .classify import classify
from .core import (
    Channel,
    Instrument,
    MeasurementScheme,
    Observable,
    State,
    luders_instrument,
    scheme_to_instrument,
    superop_distance,
)
from .errors import QmeasError
from .linalg import Tolerances
from .algebra import decompose, effect_blocks, fixed_point_space
from .models import (
    CATALOG,
    build_luders_scheme,
    build_swap_scheme,
    completely_unsharp_pair,
    random_full_rank_state,
    table1_observables,
)
from .properties import (
    IDEAL_TRUE,
    POSSIBLE,
    THEOREM_ROWS,
    check_extremal,
    check_ideal,
    check_repeatable,
    invariance_residual,
    theorem_predicates,
)
from .thirdlaw import (
    check_channel_thirdlaw,
    check_scheme_thirdlaw,
    minimal_copy_count,
    purify_via_unconstrained,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2

CHECK_VERBS = ("channel-thirdlaw", "scheme-thirdlaw", "nondisturbance", "firstkind",
               "repeatable", "ideal", "extremal")

# Table 1's columns, each with the classify flag of its observable class
TABLE1_COLUMNS = {
    "small-rank": "is_small_rank",
    "sharp": "is_sharp",
    "norm-1": "is_norm1",
    "completely-unsharp": "is_completely_unsharp",
}

# the check verb that decides each Table 1 row
ROW_VERBS = {
    "non_disturbance": "nondisturbance",
    "first_kind": "firstkind",
    "repeatable": "repeatable",
    "ideal": "ideal",
    "extremal": "extremal",
}


def _tolerances(args: argparse.Namespace) -> Tolerances:
    atol = args.tol_atol
    if atol is None:
        raw = os.environ.get("QMEAS_TOL_ATOL", Tolerances().atol_equality)
        try:
            atol = float(raw)
        except ValueError:
            raise QmeasError(f"QMEAS_TOL_ATOL={raw!r} is not a number") from None
    rank = args.tol_rank if args.tol_rank is not None else Tolerances().rank_threshold
    return Tolerances(atol_equality=atol, rank_threshold=rank)


def _emit(report: dict, args: argparse.Namespace) -> None:
    if args.json:
        print(json.dumps(report, indent=2))
        return
    _emit_human(report)


def _emit_human(report: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _emit_human(value, indent + 1)
        elif isinstance(value, (list, tuple)):
            print(f"{pad}{key}: {json.dumps(value)}")
        else:
            print(f"{pad}{key}: {value}")


def _echo(args: argparse.Namespace, tol: Tolerances) -> dict:
    return {
        "command": " ".join(sys.argv[1:]) if sys.argv[1:] else args.cmd,
        "tolerances": {"atol_equality": tol.atol_equality, "rank_threshold": tol.rank_threshold},
        "seed": args.seed,
    }


def cmd_classify(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    obj = modelfile.load(args.path, tol)
    if not isinstance(obj, Observable):
        raise QmeasError(f"{args.path}: expected an observable, got {type(obj).__name__}")
    c = classify(obj, tol)
    report = _echo(args, tol)
    report["classification"] = {
        "outcomes": len(obj),
        "dim": obj.dim,
        "is_sharp": c.is_sharp,
        "is_norm1": c.is_norm1,
        "is_completely_unsharp": c.is_completely_unsharp,
        "is_commutative": c.is_commutative,
        "is_small_rank": c.is_small_rank,
        "is_trivial": c.is_trivial,
        "is_non_degenerate": c.is_non_degenerate,
        "per_effect_ranks": list(c.per_effect_ranks),
        "per_effect_norms": [float(n) for n in c.per_effect_norms],
    }
    _emit(report, args)
    return EXIT_YES


def _expect(obj, kind: type, what: str):
    if not isinstance(obj, kind):
        raise QmeasError(f"expected {what}, got {type(obj).__name__}")
    return obj


def run_check(verb: str, obj, tol: Tolerances,
              against: Observable | None = None) -> tuple[bool, dict]:
    """Decide one check verb on a loaded model object.

    Returns the verdict and the report fields behind it.  The instrument
    verbs read a scheme as the instrument it induces; nondisturbance needs
    `against`, the observable that must stay invariant.
    """
    if verb in ("channel-thirdlaw", "scheme-thirdlaw"):
        verdict = (check_channel_thirdlaw(_expect(obj, Channel, "a channel"), tol)
                   if verb == "channel-thirdlaw" else
                   check_scheme_thirdlaw(_expect(obj, MeasurementScheme, "a scheme"), tol))
        return verdict.constrained, {"constrained": verdict.constrained,
                                     "min_output_eigenvalue": verdict.min_output_eigenvalue}

    if isinstance(obj, MeasurementScheme):
        obj = scheme_to_instrument(obj, tol)
    instrument = _expect(obj, Instrument, "an instrument or scheme")
    if verb in ("firstkind", "nondisturbance"):
        if verb == "firstkind":
            key, effects = "first_kind", instrument.induced_observable().effects
        elif against is None:
            raise QmeasError("nondisturbance requires --against OBSERVABLE_FILE")
        else:
            key = "non_disturbance"
            effects = _expect(against, Observable, "an observable for --against").effects
        residual = invariance_residual(instrument.total_channel(), effects)
        holds = residual <= tol.atol_equality
        return holds, {key: holds, "residual": residual}
    if verb == "repeatable":
        holds = check_repeatable(instrument, tol)
        return holds, {"repeatable": holds}
    if verb == "ideal":
        ideal = check_ideal(instrument, tol)
        return ideal == IDEAL_TRUE, {"ideal": ideal}
    if verb == "extremal":
        result = check_extremal(instrument, tol)
        return result.extremal, {"extremal": result.extremal,
                                 "kraus_ranks": list(result.kraus_ranks),
                                 "gram_rank": result.gram_rank,
                                 "product_count": result.product_count}
    raise QmeasError(f"unknown check {verb!r}")


def cmd_check(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    obj = modelfile.load(args.path, tol)
    against = modelfile.load(args.against, tol) if args.against else None
    holds, fields = run_check(args.what, obj, tol, against)
    report = _echo(args, tol)
    report.update(fields)
    _emit(report, args)
    return EXIT_YES if holds else EXIT_NO


# ---------------------------------------------------------------------------
# feasibility table


def _witness_holds(name: str, objects: dict, row: str, column: str, tol: Tolerances) -> bool:
    """Run a catalog witness for one "yes" cell.

    Its scheme must be constrained and have the row's property, the
    observable it measures must lie in the column's class, and its catalog
    entry must claim both facts.
    """
    expected = CATALOG[name].expected
    scheme = objects["scheme"]
    instrument = scheme_to_instrument(scheme, tol)
    constrained, _ = run_check("scheme-thirdlaw", scheme, tol)
    holds, _ = run_check(ROW_VERBS[row], instrument, tol, objects.get("other", objects["observable"]))
    in_class = getattr(classify(instrument.induced_observable(), tol), TABLE1_COLUMNS[column])
    claimed = expected.get("constrained") is True and expected.get(row) is True
    return constrained and holds and in_class and claimed


def cmd_table1(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    report = _echo(args, tol)
    representatives = table1_observables()

    cells: dict[str, dict] = {row: {} for row in THEOREM_ROWS}
    built: dict[str, dict] = {}
    all_verified = True
    for column in TABLE1_COLUMNS:
        obs = representatives[column]
        predicates = theorem_predicates(classify(obs, tol), obs.dim)
        for row in THEOREM_ROWS:
            if predicates.verdicts[row] != POSSIBLE:
                cells[row][column] = {"verdict": "x", "anchor": predicates.reasons[row]}
                continue
            name = predicates.witnesses[row]
            if name not in built:
                built[name] = CATALOG[name].build()
            verified = _witness_holds(name, built[name], row, column, tol)
            cells[row][column] = {"verdict": "yes", "witness": name, "witness_verified": verified}
            all_verified = all_verified and verified

    report["columns"] = list(TABLE1_COLUMNS)
    report["rows"] = cells
    report["match"] = all_verified
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        _render_table(report)
    return EXIT_YES if all_verified else EXIT_NO


def _render_table(report: dict) -> None:
    columns = report["columns"]
    mark = {"yes": "yes", "x": " x "}
    width = max(len(c) for c in columns) + 2
    header = " " * 18 + "".join(c.rjust(width) for c in columns)
    print(header)
    for row in THEOREM_ROWS:
        cells = report["rows"][row]
        line = row.ljust(18)
        for c in columns:
            line += mark[cells[c]["verdict"]].rjust(width)
        print(line)
    print(f"match: {report['match']}")
    for row in THEOREM_ROWS:
        for c in columns:
            cell = report["rows"][row][c]
            if "witness" in cell:
                print(f"  {row}/{c}: witness {cell['witness']} verified={cell['witness_verified']}")
            else:
                print(f"  {row}/{c}: {cell['anchor']}")


# ---------------------------------------------------------------------------
# demos


def cmd_demo(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    report = _echo(args, tol)

    if args.name == "purify":
        rho0 = random_full_rank_state(2, args.seed)
        xi = State.pure(np.array([1.0, 0.0]))
        target = random_full_rank_state(2, args.seed + 1)
        result = purify_via_unconstrained(rho0, xi, target, tol)
        report["copies"] = result.copies
        report["minimal_copies_check"] = minimal_copy_count(1, 2, 2)
        report["fidelity"] = result.fidelity
        report["target_reached"] = result.fidelity > 1.0 - 1e-9
        _emit(report, args)
        return EXIT_YES if report["target_reached"] else EXIT_NO

    if args.name == "luders-scheme":
        obs = completely_unsharp_pair()
        scheme = build_luders_scheme(obs, tol)
        induced = scheme_to_instrument(scheme, tol)
        reference = luders_instrument(obs, tol)
        residual = max(
            superop_distance(a, b)
            for a, b in zip(induced.operations, reference.operations)
        )
        constrained = check_scheme_thirdlaw(scheme, tol).constrained
        report["constrained"] = constrained
        report["instrument_residual"] = residual
        report["effects"] = [[float(v) for v in np.diag(e).real] for e in obs.effects]
        _emit(report, args)
        return EXIT_YES if constrained and residual < 1e-9 else EXIT_NO

    if args.name == "decompose":
        xi = State.diagonal([0.7, 0.3])
        scheme = build_swap_scheme(xi)
        instrument = scheme_to_instrument(scheme, tol)
        space = fixed_point_space(instrument, tol)
        decomposition = decompose(space, instrument, tol, seed=args.seed)
        blocks = [(b.dim_k, b.dim_r) for b in decomposition.blocks]
        omega_dist = float(
            np.linalg.norm(decomposition.blocks[0].omega.matrix - xi.matrix)
        ) if blocks == [(2, 2)] else float("inf")
        eb = effect_blocks(instrument.induced_observable(), decomposition, tol)
        report["fixed_space_dim"] = space.dim
        report["blocks"] = blocks
        report["reconstruction_residual"] = decomposition.reconstruction_residual
        report["omega_matches_ancilla"] = omega_dist < 1e-8
        report["omega_distance"] = omega_dist
        report["effect_block_spectra"] = [
            [[float(v) for v in spec] for spec in per_outcome]
            for per_outcome in eb.spectra()
        ]
        _emit(report, args)
        ok = blocks == [(2, 2)] and omega_dist < 1e-8
        return EXIT_YES if ok else EXIT_NO

    raise QmeasError(f"unknown demo {args.name!r}")


# ---------------------------------------------------------------------------
# catalog export


def cmd_gen(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    report = _echo(args, tol)

    if args.list or args.name is None:
        report["catalog"] = {name: entry.description for name, entry in sorted(CATALOG.items())}
        _emit(report, args)
        return EXIT_YES

    entry = CATALOG.get(args.name)
    if entry is None:
        raise QmeasError(f"unknown catalog entry {args.name!r}; use --list")
    objects = entry.build()
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for key, obj in sorted(objects.items()):
        path = os.path.join(out_dir, f"{args.name}.{key}.json")
        modelfile.save(obj, path)
        written.append(path)
    report["entry"] = args.name
    report["description"] = entry.description
    report["expected"] = {k: (list(v) if isinstance(v, tuple) else v)
                          for k, v in entry.expected.items()}
    report["written"] = written
    _emit(report, args)
    return EXIT_YES


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol-atol", type=float, default=None,
                        help="equality tolerance (env QMEAS_TOL_ATOL overrides the default)")
    parser.add_argument("--tol-rank", type=float, default=None, help="rank threshold")
    parser.add_argument("--seed", type=int, default=0, help="seed for any randomized step")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="machine-readable report")
    fmt.add_argument("--human", action="store_true", help="aligned text report (default)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qmeas",
                                     description="measurement models under the third law")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("classify", help="classify an observable file")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("check", help="run one verdict check on a model file")
    p.add_argument("what", choices=CHECK_VERBS)
    p.add_argument("path")
    p.add_argument("--against", default=None, help="observable file for nondisturbance")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("table1", help="reproduce the five-property feasibility table")
    _add_common(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("demo", help="run a named walkthrough")
    p.add_argument("name", choices=["purify", "luders-scheme", "decompose"])
    _add_common(p)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("gen", help="export catalog models as JSON files")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--list", action="store_true", help="list catalog entries")
    p.add_argument("--out", default=None, help="output directory")
    _add_common(p)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (QmeasError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a crash is an error, never "does not hold"
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
