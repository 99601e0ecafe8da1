"""Out-of-program tracing for the corrpose benchmark.

The package itself carries no instrumentation, so the benchmark wraps the
public functions of each layer from outside: every module attribute (and
class attribute) bound to a traced function is swapped for a wrapper that
records a span ``(id, parent, name, start, end)`` and, where the layer
exposes it in a return value, a counter.  Spans are kept in memory and
reduced to per-layer self times when the traced iteration ends.

A span's parent is the innermost open span on the same thread.  Spans opened
by pool worker threads have no open span on their own thread and attach to
the iteration's root span, so the root's self time is the orchestrator's
(``experiments.self_s``): wall time not covered by any layer span.  With one
thread the self times add up to the traced wall time exactly; with a pool
they exceed it by the time two workers were busy at once, reported as
``trace.thread_overlap_s``.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

ROOT_NAME = "experiments"


@dataclass(frozen=True)
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float


class Tracer:
    """Spans and counters of one traced iteration."""

    def __init__(self):
        # list.append and next() on a counter are atomic under the
        # interpreter lock; counters are per thread and merged on reading
        self.spans: list[Span] = []
        self.factor_nnz: list[int] = []
        self.final_chi2: list[float] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._thread_counts: list[Counter] = []
        self.root = 0
        self.root_start = self.root_end = 0.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, n=1) -> None:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = Counter()
            with self._lock:
                self._thread_counts.append(counts)
        counts[key] += n

    @property
    def counts(self) -> Counter:
        total = Counter()
        for counts in self._thread_counts:
            total.update(counts)
        return total

    @contextmanager
    def root_span(self):
        """Time the whole iteration; worker-thread spans attach here."""
        self.root = next(self._ids)
        self.root_start = time.perf_counter()
        try:
            yield
        finally:
            self.root_end = time.perf_counter()

    def wrap(self, name: str, fn, on_return=None):
        """A span-recording wrapper around ``fn``.

        ``on_return(tracer, args, result, outermost)`` turns the return value
        into counters; ``outermost`` is False when the call is nested inside
        another span of the same name (e.g. ``log_many`` calling
        ``log_many_masked``), so work is counted once.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            outermost = all(entry[1] != name for entry in stack)
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else tracer.root
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, parent, name, start, end))
            if on_return is not None:
                on_return(tracer, args, result, outermost)
            return result

        return traced


# ---------------------------------------------------------------------------
# counters derived from return values
# ---------------------------------------------------------------------------

def _count_mats(key):
    def hook(tracer, args, result, outermost):
        if outermost:
            tracer.count(key, int(np.shape(args[0])[0]))
    return hook


def _count_log(tracer, args, result, outermost):
    if isinstance(result, tuple):  # log_many_masked: (twists, mask)
        ok = result[1]
        tracer.count("log_masked.attempted", int(ok.shape[0]))
        tracer.count("log_masked.kept", int(ok.sum()))
    if outermost:
        tracer.count("liegroup.log_many.mats", int(np.shape(args[0])[0]))


def _solve_report(tracer, args, result, outermost):
    report = result[1]
    tracer.count("graph.solve.iterations", int(report.iterations))
    tracer.final_chi2.append(float(report.final_chi2))


def _splu_nnz(tracer, args, result, outermost):
    tracer.factor_nnz.append(int(result.L.nnz + result.U.nnz))


def _cho_nnz(tracer, args, result, outermost):
    n = int(result[0].shape[0])
    tracer.factor_nnz.append(n * (n + 1) // 2)


def _count_rows(key):
    def hook(tracer, args, result, outermost):
        tracer.count(key, int(result[0].shape[0]))
    return hook


def _count_calls(key):
    def hook(tracer, args, result, outermost):
        tracer.count(key)
    return hook


# ---------------------------------------------------------------------------
# what gets traced
# ---------------------------------------------------------------------------

def _targets():
    """(owner, attribute, span name, counter hook) for every traced function.

    Module-level functions are re-bound in every corrpose module that holds
    them; class attributes and scipy entry points are patched on their owner.
    """
    from corrpose import belief, convert, experiments, graph, liegroup, mc, ssc

    return [
        (graph, "generate_grid_world", "graph.generate", None),
        (graph, "solve", "graph.solve", _solve_report),
        (graph._System, "assemble", "graph.assemble", None),
        (scipy.sparse.linalg, "splu", "graph.factor", _splu_nnz),
        (scipy.linalg, "cho_factor", "graph.factor", _cho_nnz),
        (graph.Marginals, "__init__", "graph.marginals_build", None),
        (graph.Marginals, "pair_belief", "graph.pair_belief",
         _count_calls("graph.pair_belief.count")),
        (ssc, "tail_to_tail", "ssc.tail_to_tail", None),
        (ssc, "head_to_tail", "ssc.head_to_tail", None),
        (ssc, "params_many", "ssc.params_many", None),
        (experiments, "lie_pair_to_ssc", "experiments.lie_pair_to_ssc", None),
        (liegroup, "exp_many", "liegroup.exp_many", _count_mats("liegroup.exp_many.mats")),
        (liegroup, "log_many", "liegroup.log_many", _count_log),
        (liegroup, "log_many_masked", "liegroup.log_many", _count_log),
        (liegroup, "inv_many", "liegroup.inv_many", None),
        (mc, "sample_joint", "mc.sample_joint", None),
        (mc, "mc_relative_cov", "mc.mc_relative_cov", None),
        (mc, "containment_fraction", "mc.containment_fraction", None),
        (belief, "between", "belief.between", None),
        (belief, "between_ignoring_correlation", "belief.between_ignoring_correlation", None),
        (belief, "compose_chain", "belief.compose_chain", None),
        (convert, "ut_convert", "convert.ut_convert", None),
        (convert, "sigma_points", "convert.ut_convert", _count_rows("convert.sigma_points.count")),
    ]


def _corrpose_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "corrpose" or k.startswith("corrpose."))]


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    from corrpose.liegroup import Pose

    undo = []

    def rebind(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        modules = _corrpose_modules()
        for owner, attr, name, hook in _targets():
            fn = owner.__dict__[attr]
            wrapper = tracer.wrap(name, fn, hook)
            if isinstance(owner, type) or not owner.__name__.startswith("corrpose"):
                rebind(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        rebind(mod, key, wrapper)

        pose_init = Pose.__init__

        @functools.wraps(pose_init)
        def counted_init(self, R, t):
            tracer.count("liegroup.pose_init.count")
            pose_init(self, R, t)

        rebind(Pose, "__init__", counted_init)
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(tracer: Tracer) -> dict[str, float]:
    """Busy seconds per span name, excluding time covered by child spans.

    The root span's self time is reported under ``ROOT_NAME``.
    """
    children = defaultdict(list)
    for s in tracer.spans:
        children[s.parent].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for s in tracer.spans:
        out[s.name] += (s.end - s.start) - _covered(children[s.id], s.start, s.end)
    out[ROOT_NAME] = (tracer.root_end - tracer.root_start) - _covered(
        children[tracer.root], tracer.root_start, tracer.root_end
    )
    return dict(out)


def inclusive_ms(tracer: Tracer, name: str) -> list[float]:
    """Per-call durations in milliseconds of every span with this name."""
    return [1e3 * (s.end - s.start) for s in tracer.spans if s.name == name]
