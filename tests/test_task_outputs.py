"""tools/task_outputs.py records every benchmark task's output and finds the first that moved."""

import base64
import copy
import importlib.util
import pathlib

import numpy as np

from qmeas import algebra, thirdlaw

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "task_outputs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("task_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_record_equals_itself_and_a_moved_entry_is_found(capsys, monkeypatch):
    monkeypatch.delenv("QMEAS_TOL_ATOL", raising=False)
    tool, cesaro_average = _load_tool(), thirdlaw.cesaro_average
    record = tool.record([0], str(TOOL.parents[1]))
    assert thirdlaw.cesaro_average is algebra.cesaro_average is cesaro_average  # the recorder is unbound again
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
