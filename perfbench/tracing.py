"""In-memory span recording around the layers of the answering path.

The traced run does not go through ``QueryAnswerer.answer()``: it sends
each read through the same public functions ``answer()`` calls for a
``REF_GCOV`` query on the columnar engine with the cache off, and
records one span per call::

    optimizer.gcov.gcov
      -> reformulation.jucq.jucq_for_cover
      -> storage.planner.Planner.plan
      -> columnar.engine.run_columnar
           (ColumnarIndexSet.order, spanned only when it builds a run)
      -> TripleStore.decode_row (one span over the whole decode loop)

Writes go through ``QueryAnswerer.insert``/``delete``, one span per
call.  Every span carries its name, start, end, parent and the id of
the request whose root span it hangs under.  Spans stay in memory
until :meth:`Tracer.dump` writes them out when the run ends.
"""

from __future__ import annotations

import json
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional

from repro.columnar.engine import run_columnar
from repro.encoding.hierarchy import HierarchyInterval
from repro.optimizer.gcov import gcov
from repro.reformulation.jucq import jucq_for_cover

#: The spans directly under a read's root span, in pipeline order.
READ_STAGES = (
    "optimizer.gcov",
    "reformulation.jucq",
    "storage.plan",
    "columnar.exec",
    "storage.decode",
)
WRITE_STAGES = ("core.insert", "core.delete")
INDEX_BUILD = "columnar.index_build"


class Span:
    """One timed call; a context manager that opens under the
    innermost span still open in its tracer."""

    __slots__ = (
        "tracer", "span_id", "request_id", "name", "parent",
        "start", "end", "attrs",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = len(tracer.spans)
        self.request_id = tracer.request_id
        self.parent: Optional[int] = None
        self.start = self.end = 0.0
        tracer.spans.append(self)

    def __enter__(self) -> "Span":
        stack = self.tracer._stack
        self.parent = stack[-1].span_id if stack else None
        stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *_exc) -> bool:
        self.end = perf_counter()
        self.tracer._stack.pop()
        return False

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict:
        return {
            "id": self.span_id,
            "request": self.request_id,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class Tracer:
    """Keeps every span of a run in memory, grouped by request."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.request_id = -1
        self._stack: List[Span] = []

    def request(self, kind: str, label: str) -> Span:
        """Open the root span of a new request (``kind`` is ``read``
        or ``write``)."""
        self.request_id += 1
        return Span(self, "request", {"kind": kind, "label": label})

    def span(self, name: str) -> Span:
        return Span(self, name, {})

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def trace_index_builds(tracer: Tracer, indexes):
    """Span ``indexes.order`` whenever the run it returns is not
    current (``has_current`` false), i.e. when the call sorts a run.
    Returns a function that removes the wrapper."""
    build = indexes.order

    def order(name):
        if indexes.has_current(name):
            return build(name)
        with tracer.span(INDEX_BUILD):
            return build(name)

    indexes.order = order
    return lambda: delattr(indexes, "order")


def collapsed_branches(jucq) -> int:
    """Union branches replaced by interval atoms, counted as the
    answerer's ``details["interval"]["branches_collapsed"]`` counts
    them."""
    collapsed = 0
    for union in jucq.fragments:
        for disjunct in union.disjuncts:
            for atom in disjunct.atoms:
                for term in atom.as_tuple():
                    if isinstance(term, HierarchyInterval):
                        collapsed += max(0, term.branches - 1)
    return collapsed


def qerrors(plan) -> List[float]:
    """Per executed plan node, max(est/act, act/est) with both sides
    clamped to at least one row."""
    errors = []
    for node in plan.walk():
        if node.actual_rows is None:
            continue
        estimated = max(float(node.estimated_rows), 1.0)
        actual = max(float(node.actual_rows), 1.0)
        errors.append(max(estimated / actual, actual / estimated))
    return errors


def traced_read(tracer: Tracer, answerer, query, label: str):
    """Answer *query* as ``answerer.answer(query, REF_GCOV)`` would on
    the columnar engine, one span per layer call; returns the answer."""
    store = answerer.store
    indexes = store.columnar()
    builds_before = indexes.build_count
    with tracer.request("read", label) as root:
        with tracer.span("optimizer.gcov"):
            search = gcov(
                query,
                answerer.schema,
                store,
                answerer.backend,
                answerer.policy,
                encoding=answerer.encoding,
            )
        with tracer.span("reformulation.jucq"):
            jucq = jucq_for_cover(
                search.cover,
                answerer.schema,
                answerer.policy,
                encoding=answerer.encoding,
            )
        with tracer.span("storage.plan"):
            plan = answerer.executor.planner.plan(jucq)
        with tracer.span("columnar.exec"):
            rows, metrics = run_columnar(plan, store)
        with tracer.span("storage.decode"):
            answer = frozenset(store.decode_row(row) for row in rows)
    errors = qerrors(plan)
    root.attrs.update(
        covers_explored=search.explored_count,
        atoms=jucq.atom_count(),
        branches_collapsed=collapsed_branches(jucq),
        plan_nodes=sum(1 for _ in plan.walk()),
        # Rounded so that a count compared across runs does not differ
        # in float summation order only.
        qerror_p50=round(median(errors) if errors else 1.0, 6),
        qerror_max=round(max(errors, default=1.0), 6),
        rows_out=len(rows),
        peak_buffered_rows=metrics.peak_buffered_rows,
        index_builds=indexes.build_count - builds_before,
    )
    return answer


def traced_write(tracer: Tracer, answerer, write) -> bool:
    """Apply one write operation, one span per insert/delete call;
    returns False when any call was refused."""
    applied = True
    with tracer.request("write", write.label):
        for triple in write.triples:
            with tracer.span("core." + write.action):
                applied = getattr(answerer, write.action)(triple) and applied
    return applied


def per_request(tracer: Tracer) -> List[Dict]:
    """Fold the spans into one record per request: the root's
    attributes, its duration, and each stage's self time (its duration
    minus the part its child spans cover) in seconds."""
    records: Dict[int, Dict] = {}
    children: Dict[int, float] = {}
    for span in tracer.spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + span.seconds
    for span in tracer.spans:
        if span.name == "request":
            records[span.request_id] = dict(
                span.attrs, seconds=span.seconds, stages={}, stage_sum=0.0
            )
    for span in tracer.spans:
        if span.name == "request":
            continue
        record = records[span.request_id]
        self_time = span.seconds - children.get(span.span_id, 0.0)
        record["stages"][span.name] = (
            record["stages"].get(span.name, 0.0) + self_time
        )
        if span.name in READ_STAGES or span.name in WRITE_STAGES:
            record["stage_sum"] += span.seconds
    return [records[key] for key in sorted(records)]
