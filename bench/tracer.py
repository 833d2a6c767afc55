"""Span tracer that times qmeas stages from outside the package.

The tracer rebinds each stage function in every ``qmeas`` module namespace
that holds it, and wraps ``__post_init__`` of the validated value types as
the stage ``core.validate``.  Each wrapped call records a span (name, start,
end, parent).  A span's self time is its duration minus the durations of
its child spans; spans nest strictly on one thread, so children never
overlap.  Functions that are not stages are timed as part of the stage
that calls them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import qmeas.core

# layer -> stage functions of that layer's module; a layer is the sum of its stages
STAGES = {
    "linalg": ("hermitian_eig", "numerical_rank", "kernel_basis", "matrix_sqrt_psd",
               "partial_trace"),
    "core": ("validate", "apply", "apply_dual", "kraus_from_choi", "scheme_to_instrument"),
    "thirdlaw": ("check_channel_thirdlaw", "check_faithfulness", "full_rank_fixed_state",
                 "cesaro_average", "check_scheme_thirdlaw"),
    "algebra": ("fixed_point_space", "verify_algebra", "decompose", "effect_blocks"),
    "properties": ("evaluate_properties", "check_first_kind", "check_repeatable",
                   "check_ideal", "check_extremal", "check_non_disturbance"),
    "classify": ("classify",),
    "modelfile": ("load", "save"),
    "cli": ("main",),
}

# value types whose __post_init__ is the stage core.validate
VALIDATED = ("State", "Observable", "Operation", "Channel", "Instrument")

COUNTS = ("core.kraus_applied", "core.scheme_to_instrument.kraus_out",
          "algebra.decompose.blocks")


def _counts(stage: str, args: tuple, result) -> tuple[tuple[str, int], ...]:
    """Work counts recorded at a stage boundary."""
    if stage in ("core.apply", "core.apply_dual"):
        return (("core.kraus_applied", len(args[0].kraus)),)
    if stage == "core.scheme_to_instrument":
        return (("core.scheme_to_instrument.kraus_out",
                 sum(len(op.kraus) for op in result.operations)),)
    if stage == "algebra.decompose":
        return (("algebra.decompose.blocks", len(result.blocks)),)
    return ()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its child spans cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


class Tracer:
    """Records spans and counts while installed; aggregates them with fold()."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.enabled = True
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, stage: str, fn):
        """Wrapper that records one span per call of fn under the name stage."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(stage, self.clock(), 0.0, parent)
            self.spans.append(span)
            self._stack.append(index)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                span.end = self.clock()
                self._stack.pop()
                if not ok:
                    self.errors[stage] += 1
            for name, n in _counts(stage, args, result):
                self.counts[name] += n
            return result
        return traced

    def fold(self) -> None:
        """Move finished spans into the per-stage totals."""
        if self._stack:
            raise RuntimeError("fold() called inside an open span")
        for span, own in zip(self.spans, self_times(self.spans)):
            self.calls[span.name] += 1
            self.self_s[span.name] += own
        self.spans.clear()

    @contextmanager
    def paused(self):
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    @contextmanager
    def installed(self):
        """Rebind every stage in every loaded qmeas module; restore on exit."""
        for layer in STAGES:
            importlib.import_module(f"qmeas.{layer}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "qmeas" or name.startswith("qmeas."))]
        patches: list[tuple[object, str, object]] = []
        try:
            for layer, stages in STAGES.items():
                home = sys.modules[f"qmeas.{layer}"]
                for stage in stages:
                    if stage == "validate":
                        continue
                    original = getattr(home, stage)
                    wrapper = self.wrap(f"{layer}.{stage}", original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                patches.append((module, attr, original))
                                setattr(module, attr, wrapper)
            for cls_name in VALIDATED:
                cls = getattr(qmeas.core, cls_name)
                original = cls.__dict__["__post_init__"]
                patches.append((cls, "__post_init__", original))
                setattr(cls, "__post_init__", self.wrap("core.validate", original))
            yield self
        finally:
            for target, attr, original in reversed(patches):
                setattr(target, attr, original)

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer and per-stage totals, divided by the number of passes traced."""
        out: dict[str, tuple[float, str]] = {}
        per = 1.0 / passes
        for layer, stages in STAGES.items():
            names = [f"{layer}.{s}" for s in stages]
            out[f"{layer}.calls"] = (sum(self.calls[n] for n in names) * per, "count/pass")
            out[f"{layer}.self_s"] = (sum(self.self_s[n] for n in names) * per, "s/pass")
            out[f"{layer}.errors"] = (sum(self.errors[n] for n in names) * per, "count/pass")
            for n in names:
                out[f"{n}.calls"] = (self.calls[n] * per, "count/pass")
                out[f"{n}.self_s"] = (self.self_s[n] * per, "s/pass")
        for name in COUNTS:
            out[name] = (self.counts[name] * per, "count/pass")
        return out
