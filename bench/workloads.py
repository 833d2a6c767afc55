"""The benchmark's three workloads.

Each workload's ``setup(seed, workdir)`` builds one pass of tasks from the
seed, with freshly constructed input objects, so the cached superoperator
and Choi matrices of one pass never reach the next.  A task's ``run`` is
the timed call; its ``check`` is the untimed oracle and returns a failure
description, or None when the output is correct.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# Stages are called through their modules, so the tracer's rebinding of
# each module attribute reaches the calls made from here.
from qmeas import algebra, cli, core, modelfile, properties, thirdlaw
from qmeas.core import Channel, Instrument, MeasurementScheme, Observable
from qmeas.models import (
    CATALOG,
    build_extremal_model,
    build_luders_scheme,
    build_shift_scheme,
    build_swap_scheme,
    random_bistochastic_channel,
    random_constrained_channel,
    random_constrained_scheme,
    random_full_rank_state,
    random_low_rank_preparation,
    random_povm,
    random_unitary,
)

LUDERS_ORACLE = 1e-9        # superop_distance to luders_instrument
OMEGA_ORACLE = 1e-8         # swap block state against the ancilla spectrum
DUAL_ORACLE = 1e-8          # induced dual superoperator against scheme_dual_superoperator
DUAL_ORACLE_MAX_DIM = 6     # the oracle costs seconds above this system dimension
RECONSTRUCTION_ORACLE = 1e-6


@dataclass
class Task:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    routes_agree: Callable[[Any], bool] | None = None


def _seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(2 ** 31, size=count)]


# ---------------------------------------------------------------------------
# catalog-cli: in-process `qmeas ... --json` calls on the catalog model files

CHECK_VERBS = {
    "channel": ("channel-thirdlaw",),
    "scheme": ("scheme-thirdlaw", "firstkind", "repeatable", "ideal", "extremal",
               "nondisturbance"),
    "instrument": ("firstkind", "repeatable", "ideal", "extremal", "nondisturbance"),
}

# CATALOG[...].expected keys and the check verb each one decides
EXPECTED_KEY_VERB = {
    "constrained": ("scheme-thirdlaw", "channel-thirdlaw"),
    "first_kind": ("firstkind",),
    "repeatable": ("repeatable",),
    "ideal": ("ideal",),
    "extremal": ("extremal",),
    "non_disturbance": ("nondisturbance",),
}

# exit codes no published fact decides, pinned from the seed (see README.md)
SEED_PINNED = {
    ("nondisturbance-two-qubit.instrument", "firstkind"): 1,
    ("nondisturbance-two-qubit.instrument", "repeatable"): 1,
    ("nondisturbance-two-qubit.instrument", "ideal"): 0,
    ("nondisturbance-two-qubit.instrument", "extremal"): 1,
    ("luders-unsharp-qubit.instrument", "repeatable"): 1,
    ("luders-unsharp-qubit.instrument", "ideal"): 1,
    ("luders-unsharp-qubit.instrument", "nondisturbance"): 0,
    ("luders-unsharp-qubit.scheme", "nondisturbance"): 0,
    ("shift-first-kind.scheme", "extremal"): 1,
    ("shift-first-kind.scheme", "nondisturbance"): 0,
    ("ideality-qutrit.instrument", "firstkind"): 0,
    ("ideality-qutrit.instrument", "extremal"): 1,
    ("ideality-qutrit.instrument", "nondisturbance"): 0,
    ("extremal-two-qubit.instrument", "firstkind"): 1,
    ("extremal-two-qubit.instrument", "repeatable"): 1,
    ("extremal-two-qubit.instrument", "ideal"): 1,
    ("extremal-two-qubit.instrument", "nondisturbance"): 1,
    ("extremal-two-qubit.scheme", "firstkind"): 1,
    ("extremal-two-qubit.scheme", "nondisturbance"): 1,
    ("swap-nondisturbance.scheme", "firstkind"): 1,
    ("swap-nondisturbance.scheme", "extremal"): 1,
    ("swap-nondisturbance.scheme", "nondisturbance"): 1,
}


def _kind(obj) -> str | None:
    for cls, kind in ((Channel, "channel"), (MeasurementScheme, "scheme"),
                      (Instrument, "instrument"), (Observable, "observable")):
        if isinstance(obj, cls):
            return kind
    return None


def _expected_exit(entry, stem: str, kind: str, verb: str) -> int:
    """Expected exit code of `check verb` on one file: the catalog's expected
    facts, then the paper's Table 1, then the exit pinned from the seed."""
    for key, verbs in EXPECTED_KEY_VERB.items():
        if verb in verbs and key in entry.expected:
            value = entry.expected[key]
            return 0 if value is True or value == "true" else 1
    if kind == "scheme" and verb in ("repeatable", "ideal"):
        return 1  # never holds for a constrained scheme
    return SEED_PINNED[(stem, verb)]


def _cli_task(label: str, argv: list[str], expected: int) -> Task:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(result):
        code, out, err = result
        if code != expected:
            return f"exit {code}, expected {expected}: {err.strip()[:200]}"
        try:
            json.loads(out)
        except ValueError:
            return "stdout is not one JSON report"
        return None

    return Task(label, run, check)


def catalog_cli(seed: int, workdir: str) -> list[Task]:
    """About 60 CLI calls: gen, classify, every check verb, table1, the demos."""
    models = os.path.join(workdir, "models")
    gen_dir = os.path.join(workdir, "gen")
    os.makedirs(models, exist_ok=True)
    files: dict[str, tuple[Any, str, Any]] = {}  # stem -> (entry, path, object)
    for name, entry in CATALOG.items():
        for key, obj in sorted(entry.build().items()):
            stem = f"{name}.{key}"
            path = os.path.join(models, stem + ".json")
            modelfile.save(obj, path)
            files[stem] = (entry, path, obj)

    tasks = [_cli_task(f"gen {name}", ["gen", name, "--out", gen_dir, "--json"], 0)
             for name in CATALOG]
    observables = [(stem, path, obj) for stem, (_, path, obj) in files.items()
                   if _kind(obj) == "observable"]
    tasks += [_cli_task(f"classify {stem}", ["classify", path, "--json"], 0)
              for stem, path, _ in observables]
    for stem, (entry, path, obj) in files.items():
        kind = _kind(obj)
        for verb in CHECK_VERBS.get(kind, ()):
            argv = ["check", verb, path, "--json"]
            if verb == "nondisturbance":
                argv += ["--against", _against(stem, obj, files, observables)]
            expected = _expected_exit(entry, stem, kind, verb)
            tasks.append(_cli_task(f"check {verb} {stem}", argv, expected))
    tasks.append(_cli_task("table1", ["table1", "--json"], 0))
    demo_seed = str(seed % 1000)
    tasks += [_cli_task(f"demo {name}", ["demo", name, "--seed", demo_seed, "--json"], 0)
              for name in ("purify", "luders-scheme", "decompose")]
    return tasks


def _against(stem: str, obj, files: dict, observables: list) -> str:
    """Observable file for nondisturbance: the entry's `other`, else its own
    observable, else the first catalog observable of the system dimension."""
    entry_name = stem.split(".")[0]
    for key in ("other", "observable"):
        if f"{entry_name}.{key}" in files:
            return files[f"{entry_name}.{key}"][1]
    dim = obj.system_dim if isinstance(obj, MeasurementScheme) else obj.dim
    return next(path for _, path, o in observables if o.dim == dim)


# ---------------------------------------------------------------------------
# scheme-reports: the full report on one measurement scheme


@dataclass
class SchemeReport:
    constrained: bool
    instrument: Instrument
    first_kind: bool
    repeatable: bool
    ideal: str
    extremal: bool
    is_algebra: bool
    decomposition: Any
    effect_blocks: Any


def scheme_report(scheme: MeasurementScheme) -> SchemeReport:
    verdict = thirdlaw.check_scheme_thirdlaw(scheme)
    instrument = core.scheme_to_instrument(scheme)
    props = properties.evaluate_properties(instrument)
    space = algebra.fixed_point_space(instrument)
    is_algebra = algebra.verify_algebra(space)
    decomposition = algebra.decompose(space, instrument)
    blocks = algebra.effect_blocks(instrument.induced_observable(), decomposition)
    return SchemeReport(verdict.constrained, instrument, props.first_kind, props.repeatable,
                        props.ideal, props.extremal.extremal, is_algebra, decomposition, blocks)


def _report_failures(r: SchemeReport) -> list[str]:
    """Facts every constrained scheme's report must show (PAPER.md, Table 1)."""
    out = []
    if not r.constrained:
        out.append("scheme not constrained")
    if r.repeatable or r.ideal == "true":
        out.append("repeatable or ideal under a constrained scheme")
    if not r.is_algebra:
        out.append("fixed-point space is not an algebra")
    if not r.decomposition.reconstruction_residual < RECONSTRUCTION_ORACLE:
        out.append(f"reconstruction residual {r.decomposition.reconstruction_residual:.3e}")
    return out


def _scheme_task(label: str, scheme: MeasurementScheme,
                 oracle: Callable[[SchemeReport], list[str]]) -> Task:
    def check(r: SchemeReport):
        failures = _report_failures(r) + oracle(r)
        return "; ".join(failures) or None
    return Task(label, lambda: scheme_report(scheme), check)


def _dual_oracle(scheme: MeasurementScheme) -> Callable[[SchemeReport], list[str]]:
    def oracle(r: SchemeReport) -> list[str]:
        if scheme.system_dim > DUAL_ORACLE_MAX_DIM:
            return []
        dist = max(
            float(np.linalg.norm(op.dual_superoperator - core.scheme_dual_superoperator(scheme, x)))
            for x, op in enumerate(r.instrument.operations))
        return [] if dist < DUAL_ORACLE else [f"dual superoperator off by {dist:.3e}"]
    return oracle


def _swap_oracle(d: int, xi) -> Callable[[SchemeReport], list[str]]:
    # decompose returns omega diagonal descending in its own R basis, so omega
    # equals xi up to that unitary freedom: compare with xi's sorted spectrum
    reference = np.diag(np.sort(np.linalg.eigvalsh(xi.matrix))[::-1])

    def oracle(r: SchemeReport) -> list[str]:
        blocks = [(b.dim_k, b.dim_r) for b in r.decomposition.blocks]
        if blocks != [(d, d)]:
            return [f"blocks {blocks}, expected {[(d, d)]}"]
        dist = float(np.linalg.norm(r.decomposition.blocks[0].omega.matrix - reference))
        return [] if dist < OMEGA_ORACLE else [f"omega off xi by {dist:.3e}"]
    return oracle


def _luders_oracle(obs: Observable) -> Callable[[SchemeReport], list[str]]:
    def oracle(r: SchemeReport) -> list[str]:
        reference = core.luders_instrument(obs)
        dist = max(core.superop_distance(a, b)
                   for a, b in zip(r.instrument.operations, reference.operations))
        return [] if dist < LUDERS_ORACLE else [f"Luders instrument off by {dist:.3e}"]
    return oracle


def _fact_oracle(name: str, want: Callable[[SchemeReport], bool]):
    return lambda r: [] if want(r) else [f"{name} does not hold"]


RANDOM_DIMS = ((2, 2), (4, 4), (6, 4), (8, 4))
SWAP_DIMS = (2, 3, 4)
LUDERS_DIMS = ((2, 2), (4, 3), (8, 4))
SHIFT_SIZES = (3, 5, 8)


def scheme_reports(seed: int, workdir: str) -> list[Task]:
    """14 schemes: random constrained, swap, Luders, shift, and the extremal model."""
    seeds = iter(_seeds(seed, 16))
    tasks = []
    for ds, da in RANDOM_DIMS:
        scheme = random_constrained_scheme(ds, da, 2, next(seeds))
        tasks.append(_scheme_task(f"random ds={ds} da={da}", scheme, _dual_oracle(scheme)))
    for d in SWAP_DIMS:
        xi = random_full_rank_state(d, next(seeds))
        tasks.append(_scheme_task(f"swap d={d}", build_swap_scheme(xi), _swap_oracle(d, xi)))
    for d, n in LUDERS_DIMS:
        obs = random_povm(d, n, next(seeds), mode="completely-unsharp")
        tasks.append(_scheme_task(f"luders d={d} n={n}", build_luders_scheme(obs),
                                  _luders_oracle(obs)))
    for n in SHIFT_SIZES:
        rng = np.random.default_rng(next(seeds))
        q = 0.5 * rng.dirichlet(np.ones(n)) + 0.5 / n
        tasks.append(_scheme_task(f"shift n={n}", build_shift_scheme(n, q / q.sum()),
                                  _fact_oracle("first kind", lambda r: r.first_kind)))
    tasks.append(_scheme_task("extremal", build_extremal_model(),
                              _fact_oracle("extremal", lambda r: r.extremal)))
    return tasks


# ---------------------------------------------------------------------------
# channel-routes: the three third-law routes on one channel


def channel_routes_run(channel: Channel) -> tuple[bool, bool, bool]:
    return (thirdlaw.check_channel_thirdlaw(channel).constrained,
            thirdlaw.check_faithfulness(channel),
            thirdlaw.full_rank_fixed_state(channel).is_full_rank)


def _route_task(label: str, channel: Channel, constrained: bool) -> Task:
    def check(routes):
        if routes != (constrained,) * 3:
            return f"routes (image, faithful, fixed) = {routes}, expected all {constrained}"
        return None
    return Task(label, lambda: channel_routes_run(channel), check,
                routes_agree=lambda routes: len(set(routes)) == 1)


ROUTE_DIMS = (2, 4, 8, 12, 16, 20)


def channel_routes(seed: int, workdir: str) -> list[Task]:
    """Four channel families at six dimensions; only the preparation is unconstrained."""
    seeds = iter(_seeds(seed, 4 * len(ROUTE_DIMS)))
    tasks = []
    for d in ROUTE_DIMS:
        tasks.append(_route_task(f"constrained d={d}",
                                 random_constrained_channel(d, next(seeds)), True))
        tasks.append(_route_task(f"bistochastic d={d}",
                                 random_bistochastic_channel(d, 3, next(seeds)), True))
        tasks.append(_route_task(f"low-rank-prep d={d}",
                                 random_low_rank_preparation(d, max(1, d // 2), next(seeds)),
                                 False))
        u = random_unitary(d, np.random.default_rng(next(seeds)))
        tasks.append(_route_task(f"unitary d={d}", Channel.unitary(u), True))
    return tasks


WORKLOADS: dict[str, Callable[[int, str], list[Task]]] = {
    "catalog-cli": catalog_cli,
    "scheme-reports": scheme_reports,
    "channel-routes": channel_routes,
}
