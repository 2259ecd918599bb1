"""Spans recorded from outside the program by wrapping slin's public functions.

`install` replaces each traced function with a wrapper in every namespace it
is looked up from: a name imported with ``from .x import y`` is a separate
binding in the importing module, so ``slin.lift.lie_derivative`` and
``slin.verify.lie_derivative`` are wrapped as well as ``slin.poly``'s.

Spans (id, name, start, end, parent) are kept in memory, up to a cap, and
written out when the benchmark ends. Inclusive and self time per span name
are accumulated as spans close; self time is a span's duration minus the
time its traced children cover. Counts are recorded per operation, so the
benchmark can keep those of operations that finished and drop the partial
counts of one stopped by its budget.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


KEEP_SPANS = 200_000  # spans written out; the totals cover every span


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.aggregate = False  # only spans inside an operation are totalled
        self._stack = []  # [id, name, start, child seconds]
        self._next_id = 0

    def _enter(self, name):
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self):
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if self.aggregate:
            self.inclusive[name] += duration
            self.self_time[name] += duration - child
        if len(self.spans) < KEEP_SPANS:
            self.spans.append(
                (span_id, name, start, end, parent[0] if parent is not None else -1)
            )

    @contextmanager
    def span(self, name):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def wrap(self, name, fn, count=None):
        """``fn`` inside a span; ``count(counts, args, result)`` runs after it returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced


def _count_edges(counts, args, wdg):
    counts["depgraph.edges"] += len(wdg.weights)


def _count_add(counts, args, enlarged):
    counts["lift.span_calls"] += 1
    counts["lift.span_rows"] += bool(enlarged)


def _count_express(counts, args, combo):
    counts["lift.span_calls"] += 1
    counts["lift.express_calls"] += 1
    counts["lift.express_hits"] += combo is not None


def _counter(key):
    def count(counts, args, result):
        counts[key] += 1

    return count


def _count_compiled(counts, args, cf):
    counts["numeric.field_terms"] += len(cf.coeff)


def _count_kernel(counts, args, completed):
    _comp_ptr, _coeff, _term_ptr, _fvar, fexp, y = args[:6]
    # Four field evaluations per step (one multiply per unit of exponent),
    # then 3 stage updates and 3 weighted-sum multiplies per component.
    per_step = 4 * sum(fexp) + 6 * len(y)
    counts["numeric.steps"] += completed
    counts["numeric.mults"] += completed * per_step


# (module or module:Class, attribute, span name, count hook)
TRACED = (
    ("slin.sysparse", "parse_system", "sysparse.parse_system", None),
    ("slin.depgraph", "build_wdg", "depgraph.build_wdg", _count_edges),
    ("slin.lift", "build_wdg", "depgraph.build_wdg", _count_edges),
    ("slin.depgraph", "scc_decomposition", "depgraph.scc_decomposition", None),
    ("slin.lift", "scc_decomposition", "depgraph.scc_decomposition", None),
    ("slin.depgraph", "check_condition", "depgraph.check_condition", None),
    ("slin.lift", "check_condition", "depgraph.check_condition", None),
    ("slin.depgraph", "build_skeleton", "depgraph.build_skeleton", None),
    ("slin.lift", "build_skeleton", "depgraph.build_skeleton", None),
    ("slin.lift", "superlinearize", "lift.superlinearize", None),
    ("slin.lift", "prop1_lift", "lift.prop1_lift", None),
    ("slin.lift:SpanSolver", "add", "lift.span_add", _count_add),
    ("slin.lift:SpanSolver", "express", "lift.span_express", _count_express),
    ("slin.poly:Polynomial", "substitute", "poly.substitute", _counter("poly.substitute_calls")),
    ("slin.poly", "lie_derivative", "poly.lie_derivative", _counter("poly.lie_derivative_calls")),
    ("slin.lift", "lie_derivative", "poly.lie_derivative", _counter("poly.lie_derivative_calls")),
    ("slin.verify", "lie_derivative", "poly.lie_derivative", _counter("poly.lie_derivative_calls")),
    ("slin.verify", "verify_symbolic", "verify.verify_symbolic", None),
    ("slin.verify", "verify_numeric", "verify.verify_numeric", None),
    ("slin.verify", "simulate", "verify.simulate", None),
    ("slin.verify", "integrate", "numeric.integrate", None),
    ("slin.document", "lift_to_document", "document.lift_to_document", None),
    ("slin.document", "document_to_lift", "document.document_to_lift", None),
    ("slin.numeric", "compile_field", "numeric.compile_field", _count_compiled),
    ("slin.numeric", "RK4_KERNEL", "numeric.rk4_kernel", _count_kernel),
)


def _resolve(path):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def install(tracer: Tracer):
    """Wrap every traced function; returns a callable that restores them."""
    saved = []
    for path, attr, name, count in TRACED:
        owner = _resolve(path)
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, count))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore
