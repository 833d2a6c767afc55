"""tools/task_outputs.py records every benchmark task's output and finds the first that moved."""

import base64
import collections
import copy
import importlib.util
import json
import pathlib

import numpy as np
import pytest

from qmeas import algebra, thirdlaw

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "task_outputs.py"
VERDICTS = pathlib.Path(__file__).with_name("task_verdicts.json")
RANK_STEPS = {name: getattr(np.linalg, name) for name in ("cholesky", "eigvalsh", "svd")}


def _load_tool():
    spec = importlib.util.spec_from_file_location("task_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def seeds_0_5_11():
    """The tool, and its record of one pass of every workload at seeds 0, 5 and 11."""
    tool, cesaro_average = _load_tool(), thirdlaw.cesaro_average
    full_rank_fixed_state = thirdlaw.full_rank_fixed_state
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("QMEAS_TOL_ATOL", raising=False)
        record = tool.record([0, 5, 11], str(TOOL.parents[1]))
    assert thirdlaw.cesaro_average is algebra.cesaro_average is cesaro_average  # the recorders are unbound again
    assert thirdlaw.full_rank_fixed_state is full_rank_fixed_state
    assert all(getattr(np.linalg, name) is step for name, step in RANK_STEPS.items())
    return tool, record


@pytest.fixture(scope="module")
def seed_0(seeds_0_5_11):
    tool, record = seeds_0_5_11
    return tool, {label: r for label, r in record.items() if " seed=0 " in label}


def test_every_task_verdict_equals_the_committed_projection(capsys, tmp_path, monkeypatch, seeds_0_5_11):
    # exit codes, verdicts, route triples, block dimensions and rank steps of all 300 tasks, with no float: a change
    # that means to move one rewrites the file with --verdicts and says why
    tool, record = seeds_0_5_11
    monkeypatch.setattr(tool, "record", lambda seeds, root: record)
    assert tool.main(["0", "5", "11", "--verdicts", "--out", str(tmp_path / "verdicts.json")]) == 0
    written = (tmp_path / "verdicts.json").read_text()
    assert tool.compare(json.loads(VERDICTS.read_text()), json.loads(written)) == 0, capsys.readouterr().out
    assert written == VERDICTS.read_text()


def test_a_record_equals_itself_and_a_moved_entry_is_found(capsys, seed_0):
    tool, record = seed_0
    assert len(record) == 100 and sum(len(r["fixed_points"]) for r in record.values()) == 21
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
    # the census of rank steps is pinned in task_verdicts.json
    tool, record = seed_0
    steps = {label: r["rank_steps"] for label, r in record.items()}
    assert all(len(steps[label]) == len(r["fixed_points"]) for label, r in record.items())

    moved = copy.deepcopy(record)
    task = next(label for label, calls in steps.items() if calls == [["cholesky"]])
    moved[task]["rank_steps"][0] = ["cholesky", "eigvalsh"]
    assert tool.compare(record, moved) == 1
    out = capsys.readouterr().out
    assert f"rank step moved in 1 calls\n  {task} call 0: ['cholesky'] -> ['cholesky', 'eigvalsh']" in out
    assert tool.compare(record, record) == 0
    assert "rank step moved in 0 calls" in capsys.readouterr().out


def decode(array):
    return np.frombuffer(base64.b64decode(array["bytes"]), dtype=array["dtype"]).reshape(array["shape"])


def test_each_route_3_result_is_recorded_and_a_unital_channel_returns_its_own_mixture(capsys, seed_0):
    # every channel-routes task records one FixedStateResult; the bistochastic and unitary channels fix 1/d,
    # which route 3 returns with no cesaro_average call, the preparations fix their image of 1/d, which it
    # returns likewise, and the constrained channels take one call each
    tool, record = seed_0
    routes = {label.split(" ", 2)[2]: r for label, r in record.items() if label.startswith("channel-routes")}
    assert len(routes) == 24 and all(len(r["fixed_states"]) == 1 for r in routes.values())
    assert sum(len(r["fixed_states"]) for r in record.values()) == 24
    for label, r in routes.items():
        fields = r["fixed_states"][0]["fields"]
        state, d = decode(fields["state"]["fields"]["matrix"]), int(label.split("=")[1])
        unital = label.split()[0] in ("bistochastic", "unitary")
        assert len(r["fixed_points"]) == label.startswith("constrained")
        assert fields["is_full_rank"] is not label.startswith("low-rank-prep")
        assert tool.verdicts(r["fixed_states"][0]) == {"state": {"matrix": [d, d], "tol": {}},
                                                       "is_full_rank": fields["is_full_rank"]}
        assert fields["residual"] <= 1e-8 and (np.array_equal(state, np.eye(d) / d) or not unital)

    moved = copy.deepcopy(record)
    task = next(label for label in moved if label.startswith("channel-routes") and "unitary" in label)
    moved[task]["fixed_states"][0]["fields"]["residual"] += 1e-16
    assert tool.compare(record, moved) == 1
    assert f"first difference: {task} at /fixed_states/0/fields/residual" in capsys.readouterr().out


def test_a_rank_step_made_on_one_side_only_is_counted(capsys, seed_0):
    tool, record = seed_0
    task = next(label for label, r in record.items() if r["rank_steps"] == [["cholesky"]])
    lost = copy.deepcopy(record)
    lost[task]["rank_steps"], lost[task]["fixed_points"] = [], []
    assert tool.compare(record, lost) == 1
    assert f"rank step moved in 1 calls\n  {task} call 0: ['cholesky'] -> no call" in capsys.readouterr().out
    assert tool.compare(lost, record) == 1
    assert f"rank step moved in 1 calls\n  {task} call 0: no call -> ['cholesky']" in capsys.readouterr().out


def test_each_workload_reports_its_differing_tasks_and_their_largest_float_difference(capsys, seed_0):
    tool, record = seed_0
    totals = collections.Counter(label.split(" ", 1)[0] for label in record)
    assert tool.compare(record, copy.deepcopy(record)) == 0
    out = capsys.readouterr().out
    for name, total in totals.items():
        assert f"\n  {name}: 0 of {total} tasks differ, largest float difference 0.000e+00\n" in out

    moved = copy.deepcopy(record)
    schemes = [label for label, r in moved.items() if label.startswith("scheme-reports") and r["fixed_points"]]
    for task, shift in zip(schemes, (1e-13, 3e-13)):
        limit = moved[task]["fixed_points"][0]["fields"]["mixture_limit"]
        x = np.frombuffer(base64.b64decode(limit["bytes"]), dtype=limit["dtype"]).copy()
        x[0] += shift
        limit["bytes"] = base64.b64encode(x.tobytes()).decode()
    routes = [label for label in moved if label.startswith("channel-routes")]
    moved[routes[0]]["fixed_states"][0]["fields"]["residual"] = float("nan")
    moved[routes[1]]["fixed_states"][0]["fields"]["residual"] += 1e-16  # a later, finite difference
    assert tool.compare(record, moved) == 1
    out = capsys.readouterr().out
    first, second = (decode(record[task]["fixed_points"][0]["fields"]["mixture_limit"]) for task in schemes[:2])
    largest = max(abs(first.flat[0] + 1e-13 - first.flat[0]), abs(second.flat[0] + 3e-13 - second.flat[0]))
    assert f"\n  catalog-cli: 0 of {totals['catalog-cli']} tasks differ, largest float difference 0.000e+00\n" in out
    assert (f"\n  scheme-reports: 2 of {totals['scheme-reports']} tasks differ, "
            f"largest float difference {largest:.3e}\n") in out
    assert f"\n  channel-routes: 2 of {totals['channel-routes']} tasks differ, largest float difference nan\n" in out
    assert f"largest float difference: nan at {routes[0]} at /fixed_states/0/fields/residual" in out
