"""Tests for the benchmark's span tracer."""

import sys

import numpy as np
import pytest

import qmeas.cli  # loads every qmeas module, so the binding snapshots compare whole
import qmeas.core
from qmeas.errors import NonHermitian
from tracer import VALIDATED, Span, Tracer, self_times


def _bindings() -> dict:
    """Every attribute of every qmeas module, plus the validated types' __post_init__."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "qmeas" or name.startswith("qmeas.")):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    for cls_name in VALIDATED:
        cls = getattr(qmeas.core, cls_name)
        out[(cls_name, "__post_init__")] = cls.__dict__["__post_init__"]
    return out


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("next", 11.0, 12.0, -1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])


def test_wrapped_calls_nest_and_fold_into_stage_totals():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0, 7.0, 10.0]))
    inner = tracer.wrap("linalg.kernel_basis", lambda: None)

    def body():
        inner()
        inner()
    outer = tracer.wrap("algebra.fixed_point_space", body)
    outer()
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("algebra.fixed_point_space", -1), ("linalg.kernel_basis", 0), ("linalg.kernel_basis", 0)]
    tracer.fold()
    assert tracer.spans == []
    assert tracer.calls["linalg.kernel_basis"] == 2
    assert tracer.self_s["linalg.kernel_basis"] == pytest.approx(2.0 + 3.0)
    assert tracer.self_s["algebra.fixed_point_space"] == pytest.approx(10.0 - 5.0)


def test_bindings_are_restored_after_a_traced_run():
    from qmeas import thirdlaw
    from qmeas.models import random_constrained_channel

    before = _bindings()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert thirdlaw.apply is not before[("qmeas.thirdlaw", "apply")]
            thirdlaw.check_channel_thirdlaw(random_constrained_channel(3, seed=1))
            raise RuntimeError("leave the traced block by an exception")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    tracer.fold()
    assert tracer.calls["thirdlaw.check_channel_thirdlaw"] == 1
    assert tracer.calls["core.apply"] == 1
    assert tracer.calls["core.validate"] >= 1  # State built inside the check
    assert tracer.counts["core.kraus_applied"] == len(random_constrained_channel(3, 1).kraus)


def test_errors_are_counted_when_a_wrapped_call_raises():
    from qmeas import linalg

    tracer = Tracer()
    with tracer.installed():
        with pytest.raises(NonHermitian):
            linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        linalg.hermitian_eig(np.eye(2))
    tracer.fold()
    metrics = tracer.metrics(passes=1)
    assert metrics["linalg.hermitian_eig.calls"][0] == 2
    assert metrics["linalg.errors"][0] == 1
    assert metrics["core.errors"][0] == 0
