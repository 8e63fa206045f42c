"""In-memory span tracing around the simulator's layer entry points.

A :class:`Tracer` records one span per call into a public function of a
simulator layer: its name, the span that was open when it started (its
parent), its start and end on ``time.perf_counter`` and an optional
integer tag.  Spans stay in memory; :meth:`Tracer.write` dumps them
when the run ends.

:func:`instrument` installs the wrappers by patching the layer classes
for the duration of a ``with`` block and restores the originals on
exit, so untraced runs execute the unmodified program.  The wrapped
entry points, with the span name each one records:

=========================================  =======================
``MappedNetwork.apply_drift``              ``mapping.drift``
``MappedNetwork.map_network``              ``mapping.map``
``select_range`` of both mapping policies  ``mapping.select``
AT ``score_fn`` given to ``select_range``  ``mapping.at_score``
``MappedLayer.program``                    ``mapping.program``
``MappedLayer.hardware_matrix``            ``mapping.read``
``MappedNetwork.gradient_sign_matrices``   ``tuning.grad``
``MappedNetwork.apply_tuning_sweep``       ``tuning.sweep``
``MappedNetwork.score``                    ``tuning.eval``
``OnlineTuner.tune``                       ``tuning.tune``
``Sequential.forward`` / ``backward``      ``nn.forward`` / ``nn.backward``
``<Layer subclass>.forward`` / ``backward``  ``nn.<Class>.forward`` / ...
``TiledMatrix.apply_drift``                ``crossbar.drift``
``TiledMatrix.program_pulses``             ``crossbar.pulse``
``TiledMatrix.read_conductances``          ``crossbar.read``
``TiledMatrix.aged_bounds``                ``crossbar.aged_bounds``
``train_baseline`` / ``skewed_train``      ``training.train``
=========================================  =======================

The AT score spans carry the mapped layer's model index ``k`` as their
tag, which lets :func:`summarize` measure the prefix work (forwards of
layers ``0..k-1``) that every candidate of layer ``k`` repeats.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List

_clock = time.perf_counter


class Tracer:
    """Span recorder for one single-threaded process.

    ``spans`` holds ``[name, parent, start, end, tag]`` lists in the
    order the spans opened, so a parent always precedes its children;
    ``parent`` is the index of the enclosing span or ``-1``.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []

    def open(self, name: str, tag: int = -1) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, _clock(), 0.0, tag])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, tag: int = -1) -> Iterator[int]:
        idx = self.open(name, tag)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one ``name`` span per call.

        The body inlines :meth:`open`/:meth:`close`: it runs on every
        layer call of the traced run, so it is kept to two clock reads
        and four list operations.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, _clock(), 0.0, -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][3] = _clock()
                stack.pop()

        return traced

    def write(self, path) -> None:
        """Dump spans and counts as JSON (one span list per line)."""
        with open(path, "w") as handle:
            handle.write('{"counts": ')
            json.dump(dict(self.counts), handle, sort_keys=True)
            handle.write(',\n"spans": [\n')
            for i, span in enumerate(self.spans):
                handle.write(("," if i else "") + json.dumps(span) + "\n")
            handle.write("]}\n")


def wrapper_cost_s() -> float:
    """Host seconds one span wrapper adds to a call (median of 5 trials)."""
    calls = 20000

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("calibrate", noop)
    costs = []
    for _ in range(5):
        start = _clock()
        for _ in range(calls):
            noop()
        middle = _clock()
        for _ in range(calls):
            traced()
        costs.append((_clock() - middle - (middle - start)) / calls)
        tracer.spans.clear()
    return statistics.median(costs)


def _layer_classes() -> List[type]:
    """Every imported ``Layer`` subclass that defines its own compute."""
    import repro.nn.layers  # noqa: F401 - registers every layer class
    from repro.nn.layers.base import Layer

    found, todo = [], [Layer]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls is not Layer:
            found.append(cls)
    return sorted(found, key=lambda c: c.__qualname__)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Patch the layer entry points to record spans into ``tracer``."""
    import repro.core.framework as framework
    from repro.crossbar.tiling import TiledMatrix
    from repro.mapping.aging_aware import AgingAwareMapper
    from repro.mapping.fresh import FreshMapper
    from repro.mapping.network import MappedLayer, MappedNetwork
    from repro.nn.model import Sequential
    from repro.tuning.online import OnlineTuner

    plain = [
        (MappedNetwork, "apply_drift", "mapping.drift"),
        (MappedNetwork, "map_network", "mapping.map"),
        (FreshMapper, "select_range", "mapping.select"),
        (MappedLayer, "program", "mapping.program"),
        (MappedLayer, "hardware_matrix", "mapping.read"),
        (MappedNetwork, "gradient_sign_matrices", "tuning.grad"),
        (MappedNetwork, "apply_tuning_sweep", "tuning.sweep"),
        (MappedNetwork, "score", "tuning.eval"),
        (OnlineTuner, "tune", "tuning.tune"),
        (Sequential, "backward", "nn.backward"),
        (TiledMatrix, "apply_drift", "crossbar.drift"),
        (TiledMatrix, "program_pulses", "crossbar.pulse"),
        (TiledMatrix, "read_conductances", "crossbar.read"),
        (TiledMatrix, "aged_bounds", "crossbar.aged_bounds"),
        (framework, "train_baseline", "training.train"),
        (framework, "skewed_train", "training.train"),
    ]
    for cls in _layer_classes():
        for method in ("forward", "backward"):
            if method in vars(cls):
                plain.append((cls, method, f"nn.{cls.__name__}.{method}"))

    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in plain]
    forward = Sequential.forward
    select_range = AgingAwareMapper.select_range
    counts = tracer.counts

    def traced_forward(model, x, training=False):
        counts["nn.forward_samples"] += len(x)
        idx = tracer.open("nn.forward")
        try:
            return forward(model, x, training=training)
        finally:
            tracer.close(idx)

    def traced_select_range(mapper, layer, score_fn=None):
        k = layer.layer_index

        def scored(r_lo, r_hi):
            counts["mapping.at_candidates"] += 1
            idx = tracer.open("mapping.at_score", k)
            try:
                return score_fn(r_lo, r_hi)
            finally:
                tracer.close(idx)

        with tracer.span("mapping.select"):
            return select_range(mapper, layer, scored if score_fn else None)

    try:
        for owner, attr, name in plain:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
        Sequential.forward = traced_forward
        AgingAwareMapper.select_range = traced_select_range
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
        Sequential.forward = forward
        AgingAwareMapper.select_range = select_range


def summarize(spans: List[list]) -> Dict[str, dict]:
    """Per-name ``calls``, inclusive ``total_s`` and ``self_s``.

    Also returns, under the pseudo-name ``"mapping.at_prefix"``, the
    forward time spent inside AT score spans in layers upstream of the
    layer being scored: for a score span tagged ``k``, the first ``k``
    layer spans of each ``nn.forward`` below it (``Sequential.forward``
    calls its layers in order).
    """
    n = len(spans)
    child_s = [0.0] * n
    score_tag = [-1] * n
    position = [0] * n  # children seen so far, per span
    prefix_s = 0.0
    for i, (name, parent, start, end, tag) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += end - start
            score_tag[i] = score_tag[parent]
            if spans[parent][0] == "nn.forward":
                if position[parent] < score_tag[i]:
                    prefix_s += end - start
                position[parent] += 1
        if name == "mapping.at_score":
            score_tag[i] = tag
    out: Dict[str, dict] = {}
    for i, (name, _parent, start, end, _tag) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_s[i]
    out["mapping.at_prefix"] = {"calls": 0, "total_s": prefix_s, "self_s": prefix_s}
    return out


def check_nesting(spans: List[list]) -> List[str]:
    """Violations of span nesting (empty if none).

    Every span must end after it starts and lie inside its parent's
    interval, and its children's durations must not exceed its own.
    """
    problems = []
    child_s: Dict[int, float] = defaultdict(float)
    for i, (name, parent, start, end, _tag) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} ({name}) ends before it starts")
        if parent >= 0:
            _pname, _pp, p_start, p_end, _pt = spans[parent]
            if start < p_start or end > p_end:
                problems.append(f"span {i} ({name}) leaves its parent {parent}")
            child_s[parent] += end - start
    for parent, total in child_s.items():
        _name, _pp, start, end, _tag = spans[parent]
        if total > end - start:
            problems.append(f"children of span {parent} exceed it")
    return problems
