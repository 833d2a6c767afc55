"""Command-line interface.

Each subcommand decides one verdict and returns it with the report fields
behind it; `main` owns the rest of the run.  A report is the echo (the
argv given, the tolerances used, the seed) followed by the command's
fields; for `check`, the verdict key comes first.  It is printed as JSON
(--json) or aligned text (--human, default).  Exit 0 means the verdict
holds, 1 that it does not, and 2 a usage or input error; `main` never
raises to the shell.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import modelfile
from .classify import ObservableClassification, classify
from .core import (
    Channel,
    Instrument,
    MeasurementScheme,
    Observable,
    State,
    luders_instrument,
    scheme_to_instrument,
)
from .errors import QmeasError
from .linalg import DEFAULT_TOL, Tolerances
from .algebra import decompose, effect_blocks, fixed_point_space
from .models import (
    CATALOG,
    build_luders_scheme,
    build_swap_scheme,
    completely_unsharp_pair,
    random_full_rank_state,
    table1_observables,
)
from .properties import POSSIBLE, THEOREM_ROWS, decide, theorem_predicates
from .thirdlaw import (
    check_channel_thirdlaw,
    check_scheme_thirdlaw,
    purify_via_unconstrained,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2

# each property check verb and the Table 1 row it decides: the row's name without underscores
VERB_ROWS = {row.replace("_", ""): row for row in THEOREM_ROWS}
CHECK_VERBS = ("channel-thirdlaw", "scheme-thirdlaw", *VERB_ROWS)

# Table 1's columns, each with the classify flag of its observable class
TABLE1_COLUMNS = {
    "small-rank": "is_small_rank",
    "sharp": "is_sharp",
    "norm-1": "is_norm1",
    "completely-unsharp": "is_completely_unsharp",
}


def _tolerances(args: argparse.Namespace) -> Tolerances:
    atol = args.tol_atol
    if atol is None:
        raw = os.environ.get("QMEAS_TOL_ATOL", DEFAULT_TOL.atol_equality)
        try:
            atol = float(raw)
        except ValueError:
            raise QmeasError(f"QMEAS_TOL_ATOL={raw!r} is not a number") from None
    rank = args.tol_rank if args.tol_rank is not None else DEFAULT_TOL.rank_threshold
    return Tolerances(atol_equality=atol, rank_threshold=rank)


def cmd_classify(args: argparse.Namespace, tol: Tolerances) -> tuple[bool, dict]:
    obs = modelfile.load(args.path, tol)
    if not isinstance(obs, Observable):
        raise QmeasError(f"{args.path}: expected an observable, got {type(obs).__name__}")
    return True, {"classification": {"outcomes": len(obs), "dim": obs.dim,
                                     **dataclasses.asdict(classify(obs, tol))}}


def _expect(obj, kind: type, what: str):
    if not isinstance(obj, kind):
        raise QmeasError(f"expected {what}, got {type(obj).__name__}")
    return obj


def run_check(verb: str, obj, tol: Tolerances,
              against: Observable | None = None) -> tuple[bool, dict]:
    """Decide one check verb on a loaded model object.

    Returns the verdict and the report fields behind it.  The property
    verbs read a scheme as the instrument it induces and are decided by
    `decide`; nondisturbance needs `against`, the observable that must stay
    invariant.
    """
    if verb in ("channel-thirdlaw", "scheme-thirdlaw"):
        verdict = (check_channel_thirdlaw(_expect(obj, Channel, "a channel"), tol)
                   if verb == "channel-thirdlaw" else
                   check_scheme_thirdlaw(_expect(obj, MeasurementScheme, "a scheme"), tol))
        return verdict.constrained, dataclasses.asdict(verdict)

    if isinstance(obj, MeasurementScheme):
        obj = scheme_to_instrument(obj, tol)
    instrument = _expect(obj, Instrument, "an instrument or scheme")
    if verb == "nondisturbance":
        if against is None:
            raise QmeasError("nondisturbance requires --against OBSERVABLE_FILE")
        _expect(against, Observable, "an observable for --against")
    if verb not in VERB_ROWS:
        raise QmeasError(f"unknown check {verb!r}")
    return decide(VERB_ROWS[verb], instrument, tol, against)


def cmd_check(args: argparse.Namespace, tol: Tolerances) -> tuple[bool, dict]:
    if args.against and args.what != "nondisturbance":
        raise QmeasError(f"--against is only for nondisturbance, not {args.what}")
    obj = modelfile.load(args.path, tol)
    against = modelfile.load(args.against, tol) if args.against else None
    return run_check(args.what, obj, tol, against)


# ---------------------------------------------------------------------------
# feasibility table


def _witness(name: str, tol: Tolerances) -> tuple[dict, Instrument, bool, ObservableClassification]:
    """A catalog witness's objects, the instrument its scheme induces, whether the scheme is
    constrained, and the class of the observable it measures: what every cell naming it shares."""
    objects = CATALOG[name].build()
    instrument = scheme_to_instrument(objects["scheme"], tol)
    constrained = check_scheme_thirdlaw(objects["scheme"], tol).constrained
    return objects, instrument, constrained, classify(instrument.induced_observable(), tol)


def _witness_holds(name: str, witness: tuple, row: str, column: str, tol: Tolerances) -> bool:
    """Run a catalog witness for one "yes" cell.

    Its scheme must be constrained and have the row's property, the
    observable it measures must lie in the column's class, and its catalog
    entry must claim both facts.
    """
    objects, instrument, constrained, classification = witness
    expected = CATALOG[name].expected
    holds, _ = decide(row, instrument, tol, objects.get("other", objects["observable"]))
    in_class = getattr(classification, TABLE1_COLUMNS[column])
    claimed = expected.get("constrained") is True and expected.get(row) is True
    return constrained and holds and in_class and claimed


def cmd_table1(args: argparse.Namespace, tol: Tolerances) -> tuple[bool, dict]:
    representatives = table1_observables()

    cells: dict[str, dict] = {row: {} for row in THEOREM_ROWS}
    built: dict[str, tuple] = {}
    all_verified = True
    for column in TABLE1_COLUMNS:
        obs = representatives[column]
        for row, cell in theorem_predicates(classify(obs, tol), obs.dim).items():
            if cell.verdict != POSSIBLE:
                cells[row][column] = {"verdict": "x", "anchor": cell.reason}
                continue
            name = cell.witness
            if name not in built:
                built[name] = _witness(name, tol)
            verified = _witness_holds(name, built[name], row, column, tol)
            cells[row][column] = {"verdict": "yes", "witness": name, "witness_verified": verified}
            all_verified = all_verified and verified

    return all_verified, {"columns": list(TABLE1_COLUMNS), "rows": cells, "match": all_verified}


def _render_table(report: dict) -> None:
    columns = report["columns"]
    mark = {"yes": "yes", "x": " x "}
    width = max(len(c) for c in columns) + 2
    print(" " * 18 + "".join(c.rjust(width) for c in columns))
    for row in THEOREM_ROWS:
        print(row.ljust(18) + "".join(mark[report["rows"][row][c]["verdict"]].rjust(width) for c in columns))
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


def cmd_demo(args: argparse.Namespace, tol: Tolerances) -> tuple[bool, dict]:
    if args.name == "purify":
        xi = State.pure(np.array([1.0, 0.0]))
        result = purify_via_unconstrained(random_full_rank_state(2, args.seed), xi,
                                          random_full_rank_state(2, args.seed + 1), tol)
        reached = result.fidelity > 1.0 - tol.atol_equality
        return reached, {"copies": result.copies, "fidelity": result.fidelity, "target_reached": reached}

    if args.name == "luders-scheme":
        obs = completely_unsharp_pair()
        scheme = build_luders_scheme(obs, tol)
        pairs = zip(scheme_to_instrument(scheme, tol).operations, luders_instrument(obs, tol).operations)
        residual = max(float(np.abs(a.superoperator - b.superoperator).max()) for a, b in pairs)
        constrained = check_scheme_thirdlaw(scheme, tol).constrained
        return constrained and residual <= tol.atol_equality, {
            "constrained": constrained,
            "instrument_residual": residual,
            "effects": [[float(v) for v in np.diag(e).real] for e in obs.effects],
        }

    if args.name == "decompose":
        xi = State.diagonal([0.7, 0.3])
        instrument = scheme_to_instrument(build_swap_scheme(xi), tol)
        space = fixed_point_space(instrument, tol)
        decomposition = decompose(space, instrument, tol, seed=args.seed)
        blocks = [(b.dim_k, b.dim_r) for b in decomposition.blocks]
        omega_dist = float(
            np.abs(decomposition.blocks[0].omega.matrix - xi.matrix).max()
        ) if blocks == [(2, 2)] else float("inf")
        eb = effect_blocks(instrument.induced_observable(), decomposition, tol)
        return blocks == [(2, 2)] and omega_dist <= tol.atol_equality, {
            "fixed_space_dim": len(space),
            "blocks": blocks,
            "reconstruction_residual": decomposition.reconstruction_residual,
            "omega_matches_ancilla": omega_dist <= tol.atol_equality,
            "omega_distance": omega_dist,
            "effect_block_spectra": [[[float(v) for v in spec] for spec in per_outcome]
                                     for per_outcome in eb.spectra()],
        }

    raise QmeasError(f"unknown demo {args.name!r}")


# ---------------------------------------------------------------------------
# catalog export


def cmd_gen(args: argparse.Namespace, tol: Tolerances) -> tuple[bool, dict]:
    if args.list or args.name is None:
        return True, {"catalog": {name: entry.description for name, entry in sorted(CATALOG.items())}}

    entry = CATALOG.get(args.name)
    if entry is None:
        raise QmeasError(f"unknown catalog entry {args.name!r}; use --list")
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for key, obj in sorted(entry.build().items()):
        path = os.path.join(out_dir, f"{args.name}.{key}.json")
        modelfile.save(obj, path)
        written.append(path)
    return True, {
        "entry": args.name,
        "description": entry.description,
        "expected": {k: (list(v) if isinstance(v, tuple) else v) for k, v in entry.expected.items()},
        "written": written,
    }


# ---------------------------------------------------------------------------
# argument plumbing and the command lifecycle


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qmeas parser; built once per process, since parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-atol", type=float, default=None,
                        help="equality tolerance (env QMEAS_TOL_ATOL overrides the default); "
                             "both tolerances must be at least 64 eps, about 1.4e-14 (else exit 2)")
    common.add_argument("--tol-rank", type=float, default=None, help="rank threshold of every decision")
    common.add_argument("--seed", type=int, default=0, help="seed for any randomized step")
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="machine-readable report")
    fmt.add_argument("--human", action="store_true", help="aligned text report (default)")
    common.set_defaults(render=_emit_human)

    parser = argparse.ArgumentParser(prog="qmeas",
                                     description="measurement models under the third law")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("classify", parents=[common], help="classify an observable file")
    p.add_argument("path")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("check", parents=[common], help="run one verdict check on a model file")
    p.add_argument("what", choices=CHECK_VERBS)
    p.add_argument("path")
    p.add_argument("--against", default=None, help="observable file for nondisturbance")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("table1", parents=[common],
                       help="reproduce the five-property feasibility table")
    p.set_defaults(func=cmd_table1, render=_render_table)

    p = sub.add_parser("demo", parents=[common], help="run a named walkthrough")
    p.add_argument("name", choices=["purify", "luders-scheme", "decompose"])
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("gen", parents=[common], help="export catalog models as JSON files")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--list", action="store_true", help="list catalog entries")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse argv (default sys.argv[1:]), run its command, print the report and return the exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_YES if exc.code == 0 else EXIT_ERROR
    try:
        tol = _tolerances(args)
        holds, fields = args.func(args, tol)
        report = {
            "command": " ".join(argv),
            "tolerances": dataclasses.asdict(tol),
            "seed": args.seed,
            **fields,
        }
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            args.render(report)
    except (QmeasError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a crash is an error, never "does not hold"
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_YES if holds else EXIT_NO


if __name__ == "__main__":
    sys.exit(main())
