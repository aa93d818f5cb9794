"""What every reformulation strategy of :class:`QueryAnswerer` shares.

The paper treats UCQ and SCQ as the two extreme covers of one JUCQ
family, and GCov as a way to pick a cover inside it.  These tests pin
the behaviour the strategies must agree on, whatever path the
answerer takes internally:

* a budget overrun on a cover strategy (SCQ, JUCQ, GCov) falls back to
  other covers and never retries the cover that just failed;
* the fixed-UCQ strategies (UCQ, Virtuoso, Allegro) have no cover to
  fall back from, so an overrun raises straight away;
* SCQ is exactly the JUCQ of the per-atom cover: same answer, same
  physical plan;
* with a cache, every strategy reports a reformulation miss on first
  use and a hit once only the answers were retired.
"""

import re

import pytest

from repro import BudgetExceeded, QueryAnswerer, Strategy
from repro.cache import QueryCache
from repro.datasets import books_dataset, generate_lubm, lubm_queries
from repro.query import ConjunctiveQuery, Cover, TriplePattern, Variable
from repro.query.algebra import JoinOfUnions
from repro.rdf import Graph, Namespace, RDF_TYPE, Triple
from repro.schema import Constraint, Schema
from repro.storage import explain

EX = Namespace("http://example.org/")
x, y = Variable("x"), Variable("y")

COVER_STRATEGIES = (Strategy.REF_SCQ, Strategy.REF_JUCQ, Strategy.REF_GCOV)
UCQ_STRATEGIES = (
    Strategy.REF_UCQ,
    Strategy.REF_VIRTUOSO,
    Strategy.REF_ALLEGRO,
)


def _adversarial():
    """Twenty subclasses of C0 with 30 instances each and one ``p``
    edge: the per-atom cover materializes every typed instance for a
    one-row answer (the Example 1 blowup in miniature)."""
    schema = Schema(
        [Constraint.subclass(EX.term("C%d" % i), EX.C0) for i in range(1, 21)]
    )
    graph = Graph()
    for class_index in range(1, 21):
        for instance in range(30):
            graph.add(
                Triple(
                    EX.term("i%d_%d" % (class_index, instance)),
                    RDF_TYPE,
                    EX.term("C%d" % class_index),
                )
            )
    graph.add(Triple(EX.i1_0, EX.p, EX.o0))
    query = ConjunctiveQuery(
        [x, y], [TriplePattern(x, RDF_TYPE, EX.C0), TriplePattern(x, EX.p, y)]
    )
    return graph, schema, query


def _shape(reformulation):
    """A value identifying a reformulation up to object identity: two
    evaluations of the same cover compare equal."""
    if isinstance(reformulation, JoinOfUnions):
        return (
            tuple(reformulation.fragment_heads),
            tuple(reformulation.fragments),
        )
    return reformulation


def _fail_first_evaluation(answerer, monkeypatch):
    """Make the answerer's first evaluation overrun its budget; return
    the list the shapes of all evaluated reformulations go to."""
    evaluated = []
    real = answerer._evaluate

    def spy(query, *args, **kwargs):
        evaluated.append(_shape(query))
        if len(evaluated) == 1:
            raise BudgetExceeded("forced overrun", "rows", rows_produced=1)
        return real(query, *args, **kwargs)

    monkeypatch.setattr(answerer, "_evaluate", spy)
    return evaluated


class TestBudgetFallback:
    @pytest.mark.parametrize("strategy", COVER_STRATEGIES)
    def test_cover_strategies_fall_back_to_another_cover(
        self, strategy, monkeypatch
    ):
        graph, schema, query = _adversarial()
        answerer = QueryAnswerer(graph, schema)
        evaluated = _fail_first_evaluation(answerer, monkeypatch)
        report = answerer.answer(
            query,
            strategy,
            cover=Cover(query, [[0, 1]]),
            row_budget=10 ** 6,
            budget_fallbacks=3,
        )
        assert report.answer == frozenset({(EX.i1_0, EX.o0)})
        assert report.details["budget_exceeded"]["kind"] == "rows"
        assert report.details["budget_fallback_attempts"] == 1
        # The failed reformulation is never evaluated a second time.
        assert len(evaluated) == 2
        assert evaluated[1] != evaluated[0]
        if strategy is Strategy.REF_GCOV:
            failed_cover = report.details["cover"]
        elif strategy is Strategy.REF_SCQ:
            failed_cover = repr(Cover.per_atom(query))
        else:
            failed_cover = repr(Cover(query, [[0, 1]]))
        assert report.details["budget_fallback_cover"] != failed_cover

    @pytest.mark.parametrize("strategy", (Strategy.REF_SCQ, Strategy.REF_JUCQ))
    def test_real_overrun_falls_back_to_a_cheaper_cover(self, strategy):
        graph, schema, query = _adversarial()
        answerer = QueryAnswerer(graph, schema)
        per_atom = Cover.per_atom(query)
        report = answerer.answer(
            query, strategy, cover=per_atom, row_budget=900
        )
        assert report.answer == frozenset({(EX.i1_0, EX.o0)})
        assert report.details["budget_fallback_cover"] != repr(per_atom)

    @pytest.mark.parametrize("strategy", UCQ_STRATEGIES)
    def test_ucq_strategies_raise_without_fallback(
        self, strategy, monkeypatch
    ):
        graph, schema, query = _adversarial()
        answerer = QueryAnswerer(graph, schema)
        evaluated = _fail_first_evaluation(answerer, monkeypatch)
        with pytest.raises(BudgetExceeded):
            answerer.answer(
                query, strategy, row_budget=10 ** 6, budget_fallbacks=3
            )
        assert len(evaluated) == 1

    @pytest.mark.parametrize("strategy", UCQ_STRATEGIES)
    def test_ucq_strategies_real_overrun_raises(self, strategy):
        graph, schema, query = _adversarial()
        answerer = QueryAnswerer(graph, schema)
        with pytest.raises(BudgetExceeded):
            answerer.answer(query, strategy, row_budget=3, budget_fallbacks=3)


def _plan_text(report, answerer):
    """The full plan tree, with the existential variables reformulation
    invents renamed by first appearance: their names come from a
    process-wide counter, so two reformulations of one query differ in
    them and in nothing else."""
    text = explain(
        report.execution.plan, answerer.store, max_union_children=10 ** 6
    )
    names = {}
    return re.sub(
        r"\?_([a-z])\d+",
        lambda match: names.setdefault(
            match.group(0), "?_%s'%d" % (match.group(1), len(names))
        ),
        text,
    )


class TestScqIsThePerAtomJucq:
    @pytest.mark.parametrize("interval_encoding", (False, True))
    @pytest.mark.parametrize("engine", ("materialized", "columnar"))
    def test_books(self, interval_encoding, engine):
        graph, schema, query = books_dataset()
        answerer = QueryAnswerer(
            graph, schema, engine=engine, interval_encoding=interval_encoding
        )
        scq = answerer.answer(query, Strategy.REF_SCQ)
        jucq = answerer.answer(
            query, Strategy.REF_JUCQ, cover=Cover.per_atom(query)
        )
        assert scq.answer == jucq.answer
        assert _plan_text(scq, answerer) == _plan_text(jucq, answerer)

    @pytest.mark.parametrize("interval_encoding", (False, True))
    def test_lubm_queries(self, interval_encoding):
        answerer = QueryAnswerer(
            generate_lubm(universities=1, seed=3),
            interval_encoding=interval_encoding,
        )
        for name, query in sorted(lubm_queries().items()):
            scq = answerer.answer(query, Strategy.REF_SCQ)
            jucq = answerer.answer(
                query, Strategy.REF_JUCQ, cover=Cover.per_atom(query)
            )
            assert scq.answer == jucq.answer, name
            assert _plan_text(scq, answerer) == _plan_text(jucq, answerer), name


class TestReformulationCacheOutcome:
    @pytest.mark.parametrize("strategy", UCQ_STRATEGIES + COVER_STRATEGIES)
    def test_miss_then_hit(self, strategy):
        graph, schema, query = books_dataset()
        answerer = QueryAnswerer(graph, schema, cache=QueryCache())
        cover = Cover.per_atom(query)
        first = answerer.answer(query, strategy, cover=cover)
        assert first.details["cache"]["answer"] == "miss"
        assert first.details["cache"]["reformulation"] == "miss"
        # A data triple retires the cached answer but keeps the
        # reformulation: the next call re-evaluates a cached rewriting.
        assert answerer.insert(Triple(EX.fresh, EX.unrelated, EX.thing))
        second = answerer.answer(query, strategy, cover=cover)
        assert second.details["cache"]["answer"] == "miss"
        assert second.details["cache"]["reformulation"] == "hit"
        assert second.answer == first.answer
