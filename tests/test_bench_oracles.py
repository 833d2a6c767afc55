"""One pass of each benchmark workload at seed 0: every task's oracle accepts its output.

The workloads live in bench/workloads.py, outside the package, and are loaded
from that file; a wrong output shows here before a benchmark run reports it.
"""

import importlib.util
import pathlib
import sys

import pytest

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
