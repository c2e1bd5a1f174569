"""Span tracing from outside the package.

While installed, the tracer replaces each traced function in the namespace
of every module that calls it (``training`` imports ``query_batch`` by name,
so patching ``vlpkg.models`` alone would miss those calls) and restores the
originals on exit. Each call becomes one span:

    (span id, name, start, end, parent span id, thread id, count, unit)

kept in memory and written out when the run ends. ``count`` is the number of
rows a scatter call adds, else 0. ``unit`` is the train step or test query
the span belongs to (``"step 3"``, ``"query 17"``), or ``""`` outside both. A span opened in a worker
thread with nothing open in that thread takes the main thread's innermost
open span as its parent, so the loss terms that ``train_step`` fans out to
its pool and the queries ``evaluate`` fans out to its pool hang under the
step or the evaluation that caused them. Self time is a span's duration
minus the union of its children's intervals. Children in two worker threads
overlap, so busy time summed over a layer can exceed wall time.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

from vlpkg import data, distances, evaluation, models, reference, sampling, training


def _n_ids(args, kwargs):
    """Rows scattered by GradBuffer.add_entities / add_relations(self, ids, grads)."""
    return int(np.asarray(args[1]).size)


# Spans that open a unit of work: a train step, and a test query, which runs
# from its candidate_scores call to the next one in the same thread.
STEP, QUERY, EVALUATE = ("training.train_step", "evaluation.candidate_scores",
                         "evaluation.evaluate")

# (owner, attribute, span name, count function or None). The owner is the
# namespace the call is looked up in, or the class for methods.
TARGETS = [
    (data, "load_dataset", "data.load_dataset", None),
    (data, "augment_reciprocal", "data.augment_reciprocal", None),
    (data, "FilterIndex", "data.FilterIndex", None),
    (distances, "hash_file", "distances.hash_file", None),
    (distances, "compute_distances", "distances.compute_distances", None),
    (distances.DistanceIndex, "save", "distances.save", None),
    (distances.DistanceIndex, "load", "distances.load", None),
    (distances.DistanceIndex, "distance", "distances.distance", None),
    (reference, "select_references", "reference.select_references", None),
    (reference.ReferenceTable, "save", "reference.save", None),
    (reference.ReferenceTable, "load", "reference.load", None),
    (training, "gather_references", "reference.gather_references", None),
    (training, "aggregate_batch", "reference.aggregate_batch", None),
    (training, "aggregate_pullback", "reference.aggregate_pullback", None),
    (evaluation, "context_vector", "reference.context_vector", None),
    (evaluation, "cosine_all", "reference.cosine_all", None),
    (training, "draw_negative_batch", "sampling.draw_negative_batch", None),
    (sampling.PreSampler, "sample", "sampling.PreSampler.sample", None),
    (training, "negative_weights", "sampling.negative_weights", None),
    (models, "query_batch", "models.query_batch", None),
    (reference, "query_batch", "models.query_batch", None),
    (training, "query_batch", "models.query_batch", None),
    (training, "pair_scores", "models.pair_scores", None),
    (training, "pair_score_pullback", "models.pair_score_pullback", None),
    (training, "query_pullback", "models.query_pullback", None),
    (reference, "query_pullback", "models.query_pullback", None),
    (evaluation, "score_fg_all", "models.score_fg_all", None),
    (training, "train_step", "training.train_step", None),
    (training, "postweight_scores", "training.postweight_scores", None),
    (training, "loss_l1", "training.loss_l1", None),
    (training, "loss_l2", "training.loss_l2", None),
    (training.GradBuffer, "add_entities", "training.scatter", _n_ids),
    (training.GradBuffer, "add_relations", "training.scatter", _n_ids),
    (training, "adam_apply", "training.adam_apply", None),
    (evaluation, "evaluate", "evaluation.evaluate", None),
    (evaluation, "candidate_scores", "evaluation.candidate_scores", None),
    (evaluation, "rank_from_scores", "evaluation.rank_from_scores", None),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.phases = []             # (phase name, start, end)
        self._ids = itertools.count(1)
        self._steps = itertools.count(1)
        self._queries = itertools.count(1)
        self._step = 0               # the open train step; 0 outside one
        self._local = threading.local()
        self._main_stack = self._stack()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _unit(self):
        if self._step:
            return f"step {self._step}"
        query = getattr(self._local, "query", 0)
        return f"query {query}" if query else ""

    def wrap(self, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else 0)
            sid = next(tracer._ids)
            n = count(args, kwargs) if count is not None else 0
            if name == STEP:
                tracer._step = next(tracer._steps)
            elif name == QUERY:
                tracer._local.query = next(tracer._queries)
            unit = tracer._unit()
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if name == STEP:
                    tracer._step = 0
                elif name == EVALUATE:
                    tracer._local.query = 0
                tracer.spans.append((sid, name, start, end, parent,
                                     threading.get_ident(), n, unit))

        return traced

    def __enter__(self):
        for owner, attr, name, count in TARGETS:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(name, raw.__func__, count))
            else:
                patched = self.wrap(name, raw, count)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)
        return self

    def __exit__(self, *exc):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
        return False

    @contextlib.contextmanager
    def phase(self, name):
        """Marks a benchmark phase (setup, load, train, eval) on the timeline."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phases.append((name, start, time.perf_counter()))

    def write(self, path, meta):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta, "phases": self.phases,
                       "span_fields": ["id", "name", "start", "end", "parent",
                                       "thread", "count", "unit"],
                       "spans": self.spans}, handle)


def self_times(spans):
    """{span id: self seconds}: duration minus the union of child intervals."""
    children = defaultdict(list)
    for sid, _, start, end, parent, *_ in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _, start, end, *_ in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


class Summary:
    """Per-phase, per-name aggregates of a trace.

    A span belongs to a phase by its start time. Within the train phase a
    span counts towards the steps only if it belongs to a step, which leaves
    out the validation pass ``train()`` runs; within the eval phase every
    span counts towards the queries.
    """

    def __init__(self, tracer):
        spans = tracer.spans
        selfs = self_times(spans)
        bounds = sorted((start, end, name) for name, start, end in tracer.phases)
        starts = [b[0] for b in bounds]

        def phase_of(t):
            i = bisect.bisect_right(starts, t) - 1
            if i >= 0 and t <= bounds[i][1]:
                return bounds[i][2]
            return None

        self.self_s = defaultdict(float)    # (phase, name) -> self seconds
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.step_ms = []
        for sid, name, start, end, _, _, n, unit in spans:
            phase = phase_of(start)
            if phase == "train":
                if not unit.startswith("step "):
                    continue
                if name == STEP:
                    self.step_ms.append(1e3 * (end - start))
            key = (phase, name)
            self.self_s[key] += selfs[sid]
            self.calls[key] += 1
            self.counts[key] += n
        self.steps = len(self.step_ms)
        step_wall = sum(self.step_ms) / 1e3
        step_busy = sum(v for (p, _), v in self.self_s.items() if p == "train")
        self.step_busy_over_wall = step_busy / step_wall if step_wall else 0.0

    def per(self, phase, name, denom, what="self", scale=1.0):
        table = {"self": self.self_s, "calls": self.calls,
                 "count": self.counts}[what]
        return scale * table.get((phase, name), 0) / denom if denom else 0.0
