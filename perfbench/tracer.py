"""Span tracer that wraps the package's public layer functions from outside.

The package itself has no tracing hooks, so the traced run replaces each
public function and method named in ``TARGETS`` by a wrapper that records a
span (name, start, end, parent, rows) and calls the original. Every module
attribute bound to the same function object is replaced, because modules
import some functions by name (``hybrid`` calls ``neural.adam_step`` as
``adam_step``). ``Tracer.installed()`` restores the originals on exit, so an
untraced run executes the unwrapped code.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# (module, class or None, attribute, position of the batch argument counting
# ``self`` for methods, or None when the call has no batch)
TARGETS = (
    ("qsim", "ModelKernel", "expectations", 2),
    ("qsim", "ModelKernel", "grad", 2),
    ("qsim", None, "run", 2),
    ("qsim", None, "prob_grad", 2),
    ("hybrid", None, "train", None),
    ("hybrid", None, "evaluate", None),
    ("hybrid", None, "rollout", None),
    ("hybrid", None, "agreement", 1),
    ("hybrid", "HybridModel", "forward", 1),
    ("hybrid", "HybridModel", "loss_grads", 1),
    ("neural", "ClassicalFilmNet", "forward", 1),
    ("neural", "ClassicalFilmNet", "backward", 1),
    ("neural", None, "adam_step", None),
    ("neural", None, "cross_entropy", 0),
    ("oracle", None, "nodewise_dijkstra", None),
    ("dyngraph", None, "advance", None),
    ("dyngraph", None, "synth_city", None),
    ("features", None, "build_feature_vector", None),
    ("features", None, "edge_betweenness", None),
    ("features", None, "generate_dataset", None),
    ("features", "Dataset", "feature_matrix", None),
    ("analysis", None, "sample_fourier", None),
    ("analysis", None, "fisher_matrix", None),
    ("analysis", None, "fisher_spectrum", None),
)

PACKAGE = "quakeroute"


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level
    rows: int


@dataclass
class LayerStats:
    calls: int = 0
    rows: int = 0
    total_ns: int = 0
    self_ns: int = 0
    single_row_ns: list = field(default_factory=list)


def _rows(args, position) -> int:
    """Leading batch size of the batch argument; 1 for unbatched calls."""
    if position is None or position >= len(args):
        return 1
    shape = np.shape(args[position]) if args[position] is not None else ()
    return int(shape[0]) if len(shape) >= 2 else 1


class Tracer:
    """Collects spans in memory while installed; the caller reads ``spans``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, batch_arg):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0, 0, stack[-1] if stack else -1,
                        _rows(args, batch_arg))
            stack.append(len(spans))
            spans.append(span)
            span.start_ns = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        patches = []  # (owner, attribute, original)
        try:
            for module_name, cls_name, attr, batch_arg in TARGETS:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                name = f"{module_name}.{attr}"
                if cls_name is not None:
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    setattr(cls, attr, self._wrap(name, original, batch_arg))
                    patches.append((cls, attr, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original, batch_arg)
                for owner in modules:
                    for key, value in list(vars(owner).items()):
                        if value is original:
                            setattr(owner, key, wrapper)
                            patches.append((owner, key, original))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    """Per-name calls, rows, total and self time.

    Self time is a span's duration minus that of its direct children; spans of
    this single-threaded program never overlap their siblings.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.end_ns - span.start_ns
    stats: dict[str, LayerStats] = {}
    for i, span in enumerate(spans):
        s = stats.setdefault(span.name, LayerStats())
        duration = span.end_ns - span.start_ns
        s.calls += 1
        s.rows += span.rows
        s.total_ns += duration
        s.self_ns += duration - child_ns[i]
        if span.rows == 1:
            s.single_row_ns.append(duration)
    return stats


def child_count(spans: list[Span], child: str, parent: str) -> int:
    """Number of ``child`` spans whose direct parent is a ``parent`` span."""
    return sum(1 for s in spans
               if s.name == child and s.parent >= 0
               and spans[s.parent].name == parent)
