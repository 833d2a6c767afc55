"""One pass of each benchmark workload at seed 0: every task's oracle accepts its output.

The workloads live in bench/workloads.py, outside the package, and are loaded
from that file; a wrong output shows here before a benchmark run reports it.
"""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from qmeas import algebra, thirdlaw

WORKLOADS_PY = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module's annotations through it
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_task_passes_its_oracle(name, tmp_path, monkeypatch):
    monkeypatch.delenv("QMEAS_TOL_ATOL", raising=False)  # the benchmark pins the default tolerances
    tasks = workloads.WORKLOADS[name](0, str(tmp_path))
    assert tasks
    failures = {task.label: task.check(task.run()) for task in tasks}
    assert {label: f for label, f in failures.items() if f is not None} == {}


@pytest.mark.parametrize("name", ["catalog-cli", "channel-routes", "scheme-reports"])
def test_every_fixed_point_kernel_is_certified_without_an_svd(name, tmp_path, monkeypatch):
    # cesaro_average's Gram eigenvalues and bordered residuals decide k on every benchmark input: a call
    # that falls back to the values-only SVD (as an inflated band would make every call do) shows here
    monkeypatch.delenv("QMEAS_TOL_ATOL", raising=False)
    tasks = workloads.WORKLOADS[name](0, str(tmp_path))
    if name == "catalog-cli":  # only the decompose demo computes fixed points
        tasks = [task for task in tasks if task.label == "demo decompose"]
    cesaro_average, svd, svds, per_call = thirdlaw.cesaro_average, np.linalg.svd, [], []

    def counted_cesaro_average(*args, **kwargs):
        before = len(svds)
        result = cesaro_average(*args, **kwargs)
        per_call.append(len(svds) - before)
        return result
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: svds.append(1) or svd(*args, **kwargs))
    for module in (thirdlaw, algebra):
        monkeypatch.setattr(module, "cesaro_average", counted_cesaro_average)
    for task in tasks:
        task.run()
    assert per_call and per_call == [0] * len(per_call)


@pytest.mark.parametrize("name, certified, refused, no_call", [
    ("channel-routes", 6, set(),
     {f"{family} d={d}" for family in ("bistochastic", "unitary", "low-rank-prep") for d in workloads.ROUTE_DIMS}),
    ("scheme-reports", 7, {f"swap d={d}" for d in workloads.SWAP_DIMS} | {f"shift n={n}" for n in workloads.SHIFT_SIZES}
     | {"luders d=2 n=2"}, set()),
])
def test_one_cholesky_certifies_every_one_dimensional_kernel(name, certified, refused, no_call, tmp_path,
                                                             monkeypatch):
    # each task makes one cesaro_average call, and its Cholesky proves k = 1 wherever the kernel is one-dimensional:
    # a band or shift grown too wide would send every call back to the Gram's eigensolve without failing a task.
    # Route 3 returns a unital channel's fixed 1/d, and a preparation's fixed image of 1/d, with no call
    monkeypatch.delenv("QMEAS_TOL_ATOL", raising=False)
    proves_definite, verdicts = thirdlaw.proves_definite, {}
    for task in workloads.WORKLOADS[name](0, str(tmp_path)):
        calls = verdicts.setdefault(task.label, [])
        monkeypatch.setattr(thirdlaw, "proves_definite", lambda *args: calls.append(proves_definite(*args)) or calls[-1])
        task.run()
    assert verdicts == {label: [] if label in no_call else [label not in refused] for label in verdicts}
    assert sum(v == [True] for v in verdicts.values()) == certified
