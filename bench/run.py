"""Benchmark for qmeas: closed loop, one client, BLAS pinned to one thread.

    python3 bench/run.py --workload all --seed 0 --seconds 30 [--trace 0|1]

runs every workload in its own process (``--workload NAME`` runs one in
this process) and prints each metric by name with its unit.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the run spends half its time untraced
and half traced, and the metrics are the per-layer totals of the traced
half plus the tracing overhead.  See README.md in this directory.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("QMEAS_TOL_ATOL", None)  # the CLI reads it; keep the defaults pinned

import argparse
import contextlib
import ctypes
import glob
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("catalog-cli", "scheme-reports", "channel-routes")


def git_sha() -> str:
    """HEAD of the checkout's own .git, read without running git; 'unknown' outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads_in_use(np) -> int | None:
    """Thread count OpenBLAS reports, or None when it cannot be queried."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_metadata(np, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(np),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


class Run:
    """Task samples, set-up times and failures of one measured phase."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}  # task label -> its execution times
        self.pass_s: list[float] = []              # summed task time of each full pass
        self.setup_s: list[float] = []
        self.failures: list[tuple[str, str]] = []
        self.routes_tasks = 0
        self.routes_agree = 0

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.samples.values())

    def fastest(self, label: str) -> float:
        return min(self.samples[label])


# A pass gives each task one sample, and a cheap task's time jitters more,
# relative to its size, than an expensive one's.  After every full pass the
# tasks costing under CHEAP_SHARE of it run again, with fresh inputs, for
# about FILL_SHARE of the pass time.
CHEAP_SHARE = 0.02
FILL_SHARE = 0.25


def measure(setup, seed: int, workdir: str, budget: float, tracer=None) -> Run:
    """Run whole passes while the next one is expected to end within budget seconds.

    Traced phases skip the extra runs of cheap tasks, so their per-pass
    counts stay exact.
    """
    untraced = tracer.paused if tracer is not None else contextlib.nullcontext
    run = Run()

    def build():
        t0 = time.perf_counter()
        with untraced():
            tasks = setup(seed, workdir)
        run.setup_s.append(time.perf_counter() - t0)
        return tasks

    def execute(task) -> float:
        t = time.perf_counter()
        try:
            result, error = task.run(), None
        except Exception as exc:  # a raising task is a failed task, not a crash
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        run.samples.setdefault(task.label, []).append(dt)
        if tracer is not None:
            tracer.fold()
        with untraced():
            failure = error or task.check(result)
        if failure:
            run.failures.append((task.label, failure))
        if task.routes_agree is not None:
            run.routes_tasks += 1
            run.routes_agree += int(result is not None and task.routes_agree(result))
        return dt

    start = time.perf_counter()
    while True:
        pass_s = sum(execute(task) for task in build())
        run.pass_s.append(pass_s)
        cheap = {label for label in run.samples if run.fastest(label) < CHEAP_SHARE * pass_s}
        if cheap and tracer is None:
            round_s = sum(run.fastest(label) for label in cheap) + statistics.median(run.setup_s)
            for _ in range(int(FILL_SHARE * pass_s / round_s)):
                for task in build():
                    if task.label in cheap:
                        execute(task)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(run.pass_s) > budget:
            return run


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    """Latencies of one pass, each task at its fastest execution in the run.

    On a shared host, a slower execution of the same task on the same inputs
    measures other tenants' load as much as the code, which is the reasoning
    of Python's timeit.  Each task type counts once, as in the mix.
    """
    fastest = [run.fastest(label) for label in run.samples]
    deciles = statistics.quantiles(fastest, n=10, method="inclusive")
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "tasks_per_s": (len(fastest) / sum(fastest), "1/s"),
        "task_p50_ms": (1e3 * deciles[4], "ms"),
        "task_p90_ms": (1e3 * deciles[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    from workloads import WORKLOADS

    print("meta " + json.dumps(run_metadata(np, seed)))
    setup = WORKLOADS[name]
    tmp_root = os.path.join(HERE, ".tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root)
    try:
        if not trace:
            run = measure(setup, seed, workdir, seconds)
            metrics = end_to_end(run)
        else:
            from tracer import Tracer

            plain = measure(setup, seed, workdir, seconds / 2)
            tracer = Tracer()
            with tracer.installed():
                run = measure(setup, seed, workdir, seconds / 2, tracer)
            metrics = tracer.metrics(len(run.pass_s))
            metrics["thirdlaw.routes_agree_ratio"] = (
                run.routes_agree / run.routes_tasks if run.routes_tasks else 0.0, "ratio")
            metrics["trace.overhead_ratio"] = (
                statistics.median(run.pass_s) / statistics.median(plain.pass_s), "ratio")
            run.failures += plain.failures
            for label, times in plain.samples.items():
                run.samples[label] += times
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = run.attempted
    print(f"workload {name}: {len(run.pass_s)} {'traced ' if trace else ''}passes "
          f"of {len(run.samples)} tasks, "
          f"{attempted} task runs, {len(run.setup_s)} set-ups, "
          f"failed_fraction {len(run.failures) / attempted} ({len(run.failures)}/{attempted})")
    for label, why in sorted(set(run.failures)):
        print(f"  FAILED {label}: {why}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<44} {value:>14.6g} {unit}")
    return {
        "correct": not run.failures,
        "attempted": attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak_rss_mb is that workload's own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qmeas", "__init__.py")):
        print(f"error: no qmeas sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
