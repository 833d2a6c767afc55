"""tools/task_outputs.py records every benchmark task's output and finds the first that moved."""

import base64
import collections
import copy
import importlib.util
import pathlib

import numpy as np
import pytest

from qmeas import algebra, thirdlaw

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "task_outputs.py"
RANK_STEPS = {name: getattr(np.linalg, name) for name in ("cholesky", "eigvalsh", "svd")}


def _load_tool():
    spec = importlib.util.spec_from_file_location("task_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def seed_0():
    """The tool, and its record of one pass of every workload at seed 0."""
    tool, cesaro_average = _load_tool(), thirdlaw.cesaro_average
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("QMEAS_TOL_ATOL", raising=False)
        record = tool.record([0], str(TOOL.parents[1]))
    assert thirdlaw.cesaro_average is algebra.cesaro_average is cesaro_average  # the recorder is unbound again
    assert all(getattr(np.linalg, name) is step for name, step in RANK_STEPS.items())
    return tool, record


def test_a_record_equals_itself_and_a_moved_entry_is_found(capsys, seed_0):
    tool, record = seed_0
    assert len(record) == 100 and sum(len(r["fixed_points"]) for r in record.values()) == 39
    assert tool.compare(record, copy.deepcopy(record)) == 0
    assert "0 differ" in capsys.readouterr().out

    moved = copy.deepcopy(record)
    task = next(label for label in moved if label.startswith("scheme-reports"))
    limit = moved[task]["fixed_points"][0]["fields"]["mixture_limit"]
    x = np.frombuffer(base64.b64decode(limit["bytes"]), dtype=limit["dtype"]).copy()
    before = x[0]
    x[0] += 1e-13
    limit["bytes"] = base64.b64encode(x.tobytes()).decode()
    assert tool.compare(record, moved) == 1
    out = capsys.readouterr().out
    assert f"first difference: {task} at /fixed_points/0/fields/mixture_limit" in out
    assert f"largest float difference: {abs(x[0] - before):.3e} at {task}" in out
    assert tool.compare(record, moved, ["mixture_limit"]) == 0


def test_each_call_records_its_rank_step_and_a_moved_step_is_reported(capsys, seed_0):
    # one Cholesky proves k = 1; it refuses the unitaries (k = d) and the swap, shift and d = 2 Luders
    # totals, whose kernel dimension one eigvalsh of the Gram then reads
    tool, record = seed_0
    steps = {label: r["rank_steps"] for label, r in record.items()}
    assert all(len(steps[label]) == len(r["fixed_points"]) for label, r in record.items())
    census = collections.Counter((label.split()[0], tuple(s)) for label, calls in steps.items() for s in calls)
    assert census == {("channel-routes", ("cholesky",)): 18, ("scheme-reports", ("cholesky",)): 7,
                      ("channel-routes", ("cholesky", "eigvalsh")): 6,
                      ("scheme-reports", ("cholesky", "eigvalsh")): 7,
                      ("catalog-cli", ("cholesky", "eigvalsh")): 1}
    refused = sorted(label.split(" ", 2)[2] for label, calls in steps.items() for s in calls if s != ["cholesky"])
    assert refused == sorted([*(f"unitary d={d}" for d in (2, 4, 8, 12, 16, 20)),
                              *(f"swap d={d}" for d in (2, 3, 4)), *(f"shift n={n}" for n in (3, 5, 8)),
                              "luders d=2 n=2", "demo decompose"])

    moved = copy.deepcopy(record)
    task = next(label for label, calls in steps.items() if calls == [["cholesky"]])
    moved[task]["rank_steps"][0] = ["cholesky", "eigvalsh"]
    assert tool.compare(record, moved) == 1
    out = capsys.readouterr().out
    assert f"rank step moved in 1 calls\n  {task} call 0: ['cholesky'] -> ['cholesky', 'eigvalsh']" in out
    assert tool.compare(record, record) == 0
    assert "rank step moved in 0 calls" in capsys.readouterr().out
