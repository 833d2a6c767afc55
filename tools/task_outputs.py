"""Record every benchmark task's output, and compare two records.

    python3 tools/task_outputs.py 0 5 11 --out change.json [--root CHECKOUT] [--verdicts]
    python3 tools/task_outputs.py --compare parent.json change.json [--ignore KEY ...]

The first form runs one pass of each workload in bench/workloads.py at each seed, with
the qmeas sources of CHECKOUT/src (default: this checkout), and writes each task's
output, together with every FixedPoints record cesaro_average returned during the task
and that call's rank step: which of np.linalg.cholesky, eigvalsh and svd ran inside it,
in order; and every FixedStateResult full_rank_fixed_state returned (state, residual and
is_full_rank).  Arrays are stored byte for byte.  The second form prints the first task
whose output differs, each call whose rank step moved or that one side made alone, and
the largest float difference over all tasks, and for each workload one line with the count
of its tasks that differ and their largest float difference; it exits 1 when anything differs.  --ignore
skips every field or JSON key of that name, for a change that redefines one reported value
and should move nothing else.  --verdicts writes the verdict-only projection instead: exit
codes, verdicts, route triples, block dimensions, rank steps and route 3's is_full_rank,
each array as its shape, each JSON report parsed, and no float, so that a BLAS build does
not move it; tests/task_verdicts.json holds it at seeds 0, 5 and 11.
The workloads are imported read-only; BLAS is pinned to one thread, as the benchmark
pins it, so that two records of one commit are equal.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QMEAS_TOL_ATOL", None)  # the CLI reads it; keep the defaults pinned

import argparse
import base64
import dataclasses
import importlib.util
import itertools
import json
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RANK_STEPS = ("cholesky", "eigvalsh", "svd")


def encode(x, workdir: str):
    """A JSON-ready copy of a task output: dataclasses by field, arrays as dtype, shape and bytes."""
    if isinstance(x, np.ndarray):
        return {"dtype": x.dtype.str, "shape": list(x.shape),
                "bytes": base64.b64encode(np.ascontiguousarray(x).tobytes()).decode()}
    if isinstance(x, np.generic):
        return encode(np.asarray(x), workdir)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        fields = {f.name: encode(getattr(x, f.name), workdir) for f in dataclasses.fields(x)}
        return {"class": type(x).__name__, "fields": fields}
    if isinstance(x, (list, tuple)):
        return [encode(v, workdir) for v in x]
    if isinstance(x, dict):
        return {str(k): encode(v, workdir) for k, v in x.items()}
    if isinstance(x, str):
        return x.replace(workdir, "<workdir>")
    if x is None or isinstance(x, (bool, int, float)):
        return x
    raise TypeError(f"cannot record a {type(x).__name__}")


def record(seeds: list[int], root: str) -> dict:
    sys.path.insert(0, os.path.join(root, "src"))
    spec = importlib.util.spec_from_file_location("bench_workloads", os.path.join(root, "bench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses resolve the module's annotations through it
    spec.loader.exec_module(workloads)
    from qmeas import algebra, thirdlaw

    fixed_points, rank_steps, fixed_states, out = [], [], [], {}
    cesaro_average, linalg = thirdlaw.cesaro_average, {name: getattr(np.linalg, name) for name in RANK_STEPS}
    full_rank_fixed_state = thirdlaw.full_rank_fixed_state

    def recorded_cesaro_average(*args, **kwargs):
        steps = []
        for name, step in linalg.items():
            setattr(np.linalg, name, lambda *a, _name=name, _step=step, **k: steps.append(_name) or _step(*a, **k))
        try:
            fixed_points.append(cesaro_average(*args, **kwargs))
        finally:
            for name, step in linalg.items():
                setattr(np.linalg, name, step)
        rank_steps.append(steps)
        return fixed_points[-1]

    def recorded_full_rank_fixed_state(*args, **kwargs):
        fixed_states.append(full_rank_fixed_state(*args, **kwargs))
        return fixed_states[-1]
    thirdlaw.cesaro_average = algebra.cesaro_average = recorded_cesaro_average
    thirdlaw.full_rank_fixed_state = recorded_full_rank_fixed_state
    try:
        for seed in seeds:
            for name, setup in workloads.WORKLOADS.items():
                with tempfile.TemporaryDirectory() as workdir:
                    for task in setup(seed, workdir):
                        for calls in (fixed_points, rank_steps, fixed_states):
                            calls.clear()
                        try:
                            result = {"output": task.run()}
                        except Exception as exc:  # a raising task is recorded by what it raised
                            result = {"raised": f"{type(exc).__name__}: {exc}"}
                        result["fixed_points"], result["rank_steps"] = list(fixed_points), list(rank_steps)
                        result["fixed_states"] = list(fixed_states)
                        key = f"{name} seed={seed} {task.label}"
                        while key in out:
                            key += "'"
                        out[key] = encode(result, workdir)
    finally:
        thirdlaw.cesaro_average = algebra.cesaro_average = cesaro_average
        thirdlaw.full_rank_fixed_state = full_rank_fixed_state
    return out


def verdicts(x):
    """The verdict-only projection of a record or of any part of it: dataclasses by their fields, arrays by
    their shapes, JSON reports parsed, floats left out."""
    if isinstance(x, dict) and "bytes" in x:
        return x["shape"]
    if isinstance(x, dict):
        if x.keys() == {"class", "fields"}:  # a dataclass, as encode writes it
            return verdicts(x["fields"])
        return {k: verdicts(v) for k, v in x.items() if type(v) is not float}
    if isinstance(x, list):
        return [verdicts(v) for v in x if type(v) is not float]
    return verdicts(json.loads(x)) if isinstance(x, str) and x.startswith("{") else x


class Comparison:
    """Walks two records side by side; keeps the first difference and the largest float difference."""

    def __init__(self, ignore=()) -> None:
        self.ignore = set(ignore)
        self.first: str | None = None
        self.largest = (0.0, "")
        self.differing: set[str] = set()
        self.diffs: dict[str, list[float]] = {}  # each task's float differences

    def differ(self, task: str, path: str, what: str) -> None:
        self.differing.add(task)
        if self.first is None:
            self.first = f"{task} at {path or '/'}: {what}"

    def float_difference(self, task: str, path: str, diff: float) -> None:
        if not diff <= self.largest[0] and self.largest[0] == self.largest[0]:  # a NaN difference is the largest
            self.largest = (diff, f"{task} at {path}")
        self.diffs.setdefault(task, []).append(diff)

    def walk(self, task: str, path: str, a, b) -> None:
        if isinstance(a, dict) and isinstance(b, dict) and "bytes" in a and "bytes" in b:
            self.arrays(task, path, a, b)
        elif isinstance(a, dict) and isinstance(b, dict):
            for k in sorted((a.keys() | b.keys()) - self.ignore):
                if k not in a or k not in b:
                    self.differ(task, f"{path}/{k}", "present on one side only")
                else:
                    self.walk(task, f"{path}/{k}", a[k], b[k])
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.differ(task, path, f"length {len(a)} != {len(b)}")
            for i, (x, y) in enumerate(zip(a, b)):
                self.walk(task, f"{path}/{i}", x, y)
        elif isinstance(a, str) and isinstance(b, str) and a != b:
            try:
                self.walk(task, path + "(json)", json.loads(a), json.loads(b))
            except ValueError:
                self.differ(task, path, f"{a[:80]!r} != {b[:80]!r}")
        elif isinstance(a, float) and isinstance(b, float):
            if not (a == b or a != a and b != b):
                self.differ(task, path, f"{a!r} != {b!r}")
                self.float_difference(task, path, abs(a - b))
        elif type(a) is not type(b) or a != b:
            self.differ(task, path, f"{a!r} != {b!r}")

    def arrays(self, task: str, path: str, a: dict, b: dict) -> None:
        if a == b:
            return
        x, y = (np.frombuffer(base64.b64decode(r["bytes"]), dtype=r["dtype"]).reshape(r["shape"]) for r in (a, b))
        if x.shape != y.shape or x.dtype != y.dtype:
            self.differ(task, path, f"array {x.dtype}{list(x.shape)} != {y.dtype}{list(y.shape)}")
            return
        if x.dtype.kind not in "fc":
            self.differ(task, path, "arrays differ")
            return
        diff = float(np.abs(x - y).max())
        self.differ(task, path, f"arrays differ by up to {diff:.3e}")
        self.float_difference(task, path, diff)


def compare(a: dict, b: dict, ignore=()) -> int:
    c, tasks = Comparison(ignore), [*a, *(k for k in b if k not in a)]
    for task in tasks:
        if task not in a or task not in b:
            c.differ(task, "", "task recorded on one side only")
        else:
            c.walk(task, "", a[task], b[task])
    print(f"{len(a)} and {len(b)} tasks; {len(c.differing)} differ")
    workloads: dict[str, list[str]] = {}
    for task in tasks:
        workloads.setdefault(task.split(" ", 1)[0], []).append(task)
    for name, mine in workloads.items():
        diff = np.max([d for task in mine for d in c.diffs.get(task, [])], initial=0.0)  # NaN if any is
        print(f"  {name}: {len(c.differing.intersection(mine))} of {len(mine)} tasks differ, "
              f"largest float difference {diff:.3e}")
    moved = [f"{task} call {i}: {x} -> {y}" for task in a if task in b
             for i, (x, y) in enumerate(itertools.zip_longest(a[task].get("rank_steps", []),
                                                              b[task].get("rank_steps", []), fillvalue="no call"))
             if x != y]
    print(f"rank step moved in {len(moved)} calls" + "".join(f"\n  {line}" for line in moved))
    print(f"first difference: {c.first or 'none'}")
    diff, where = c.largest
    print(f"largest float difference: {diff:.3e}" + (f" at {where}" if where else ""))
    return 1 if c.differing else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="*", type=int)
    parser.add_argument("--out", help="record file to write")
    parser.add_argument("--root", default=ROOT, help="checkout whose src/ and bench/workloads.py are run")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two record files")
    parser.add_argument("--ignore", action="append", default=[], metavar="KEY",
                        help="field to leave out of --compare")
    parser.add_argument("--verdicts", action="store_true", help="write the verdict-only projection")
    args = parser.parse_args(argv)
    if args.compare:
        records = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                records.append(json.load(fh))
        return compare(*records, args.ignore)
    if not args.seeds or not args.out:
        parser.error("give seeds and --out, or --compare A B")
    out = record(args.seeds, os.path.abspath(args.root))
    with open(args.out, "w", encoding="utf-8") as fh:
        if args.verdicts:  # one task a line, so that a moved verdict reads as a one-line diff
            lines = (f"{json.dumps(task)}: {json.dumps(verdicts(r))}" for task, r in out.items())
            fh.write("{\n" + ",\n".join(lines) + "\n}\n")
        else:
            json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
