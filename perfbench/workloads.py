"""The benchmark's workloads: data, request streams and answer oracle.

Every input comes from the ``--seed``: the LUBM generator seed, and the
order in which a workload rotates through its reads.  The answerer
under test only ever sees the generated graph and the requests.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, Iterator, List, Optional, Tuple

from repro.datasets import example1_query, generate_lubm, lubm_queries
from repro.datasets.lubm import UB, university_uri
from repro.rdf.namespaces import RDF_TYPE, RDFS_SUBCLASSOF
from repro.rdf.terms import URI
from repro.rdf.triples import Triple
from repro.saturation.engine import saturate
from repro.storage.executor import Executor
from repro.storage.store import TripleStore

BENCH_NS = "http://perfbench.example.org/"
#: The course LUBM Q1 and Q10 ask about; every written student takes it.
GRADUATE_COURSE0 = URI("http://www.Department0.University0.edu/GraduateCourse0")


class Read:
    __slots__ = ("label", "query", "live")

    def __init__(self, label: str, query, live: Tuple) -> None:
        self.label = label
        self.query = query
        #: The benchmark's own students present when the read runs, as
        #: (student, is-schema-write) pairs — the oracle's write log.
        self.live = live

    @property
    def key(self) -> Tuple:
        return (self.label, self.live)


class Write:
    __slots__ = ("label", "action", "triples", "schema")

    def __init__(
        self, action: str, student: URI, triples: List[Triple], schema: bool
    ) -> None:
        #: ``"insert"`` or ``"delete"``: the QueryAnswerer method applied
        #: to each triple.
        self.action = action
        self.triples = triples
        self.schema = schema
        self.label = "%s %s" % (action, student.value)


class WriteStream:
    """Inserts fresh graduate students and deletes them again.

    Each student is ``s type GraduateStudent`` plus ``s takesCourse
    GraduateCourse0``.  Every ``SCHEMA_EVERY``-th student is a schema
    write instead: a fresh class ``X subClassOf GraduateStudent`` plus
    ``s type X`` and the same course.  Once ``WINDOW`` students are
    live, inserts and deletes (oldest first) alternate, so the store
    size stays level.
    """

    # A student outlives the 2 * SCHEMA_EVERY writes between two schema
    # writes, so once the window is full a schema student is always live
    # and the share of reads that meet the known defect does not depend
    # on the seed's read order.
    WINDOW = 5
    SCHEMA_EVERY = 4

    def __init__(self, tag: str) -> None:
        self._tag = tag
        self._count = 0
        self._live: deque = deque()
        self._insert_next = True

    def live(self) -> Tuple:
        return tuple((student, schema) for student, schema, _ in self._live)

    def next(self) -> Write:
        if len(self._live) < self.WINDOW or self._insert_next:
            self._insert_next = False
            return self._insert()
        self._insert_next = True
        return self._delete()

    def drain(self) -> Iterator[Write]:
        """Delete every live student, oldest first."""
        while self._live:
            yield self._delete()

    def _delete(self) -> Write:
        student, schema, triples = self._live.popleft()
        return Write("delete", student, list(reversed(triples)), schema)

    def _insert(self) -> Write:
        index = self._count
        self._count += 1
        student = URI("%s%s/GradStudent%d" % (BENCH_NS, self._tag, index))
        schema = index % self.SCHEMA_EVERY == self.SCHEMA_EVERY - 1
        if schema:
            klass = URI("%s%s/GradClass%d" % (BENCH_NS, self._tag, index))
            triples = [
                Triple(klass, RDFS_SUBCLASSOF, UB.GraduateStudent),
                Triple(student, RDF_TYPE, klass),
            ]
        else:
            triples = [Triple(student, RDF_TYPE, UB.GraduateStudent)]
        triples.append(Triple(student, UB.takesCourse, GRADUATE_COURSE0))
        self._live.append((student, schema, triples))
        return Write("insert", student, triples, schema)


class Workload:
    """One named mix of requests over one LUBM scale."""

    def __init__(
        self,
        name: str,
        universities: int,
        reads: Dict,
        interval_encoding: bool = False,
        writes: bool = False,
        student_reads: Tuple[str, ...] = (),
        traced_cycles: int = 1,
        cycle_s: float = 1.0,
    ) -> None:
        self.name = name
        self.universities = universities
        self.reads = reads
        self.interval_encoding = interval_encoding
        self.writes = writes
        #: Reads whose answer gains every live benchmark student.
        self.student_reads = student_reads
        self.traced_cycles = traced_cycles
        #: Typical seconds per cycle at full scale on a 2-core VM: a run
        #: of S seconds sends round(S / cycle_s) cycles, so the same
        #: arguments always send the same requests.
        self.cycle_s = cycle_s

    def read_order(self, seed: int) -> List[str]:
        labels = sorted(self.reads)
        random.Random(seed).shuffle(labels)
        return labels

    def warm_read(self, seed: int, writes: Optional[WriteStream]) -> Read:
        """The unmeasured read sent before the loop."""
        label = self.read_order(seed)[0]
        live = writes.live() if writes is not None else ()
        return Read(label, self.reads[label], live)

    def cycles(self, seed: int, writes: Optional[WriteStream]) -> Iterator[List]:
        """Endless request cycles.  A cycle reads every label once
        (twice with writes), in the seed's order; with writes, every
        read follows one write."""
        order = self.read_order(seed)
        while True:
            cycle: List = []
            if writes is None:
                for label in order:
                    cycle.append(Read(label, self.reads[label], ()))
            else:
                # Two passes over the reads span the stream's period of
                # 2 * WINDOW writes, so each cycle has the same mix.
                for label in order + order:
                    cycle.append(writes.next())
                    cycle.append(Read(label, self.reads[label], writes.live()))
            yield cycle

    def expected(self, oracle: Dict, read_key: Tuple):
        """(expected answer, answer with the known schema-write defect
        or None) for one read, from the set-up oracle plus the write log.

        The known defect: the answerer's reformulation schema ignores
        inserted ``rdfs:subClassOf`` triples, so students typed with a
        fresh subclass of GraduateStudent are missed by reads that need
        that subclass edge."""
        label, live = read_key
        base = oracle[label]
        if label not in self.student_reads or not live:
            return base, None
        expected = base | {(student,) for student, _ in live}
        if not any(schema for _, schema in live):
            return expected, None
        return expected, base | {
            (student,) for student, schema in live if not schema
        }


def lubm_read(universities: int) -> Workload:
    # Interval encoding on: the benchmark's read-only workload is the one
    # that measures the encoding layer, write-read the one that bypasses it.
    return Workload(
        "lubm-read",
        universities,
        lubm_queries(),
        interval_encoding=True,
        traced_cycles=3,
        cycle_s=1.0,
    )


def example1(universities: int) -> Workload:
    # Not in BENCHMARK.json: GCov's allocation-heavy search swings with
    # the shared machine's load more than the other reads do, past the
    # bounds there.  Three constants with answers of about 2800, 470 and 20 rows at five
    # universities: with reads of about a second, fewer constants give
    # each more samples in a run.
    reads = {
        "Ex1-Univ%d" % index: example1_query(university_uri(index))
        for index in (0, 2, 4)
    }
    return Workload(
        "example1", universities, reads, interval_encoding=True, cycle_s=3.0
    )


def write_read(universities: int) -> Workload:
    queries = lubm_queries()
    reads = {name: queries[name] for name in ("Q1", "Q3", "Q10", "Q12")}
    return Workload(
        "write-read",
        universities,
        reads,
        writes=True,
        student_reads=("Q1", "Q10"),
        traced_cycles=2,
        cycle_s=1.6,
    )


#: name -> (constructor, universities, smoke-mode universities)
WORKLOADS = {
    "lubm-read": (lubm_read, 80, 1),
    "example1": (example1, 5, 1),
    "write-read": (write_read, 40, 1),
}


def make_workload(name: str, smoke: bool = False) -> Workload:
    build, universities, smoke_universities = WORKLOADS[name]
    return build(smoke_universities if smoke else universities)


def sat_oracle(workload: Workload, seed: int) -> Dict:
    """Each read's answer by saturation: ``saturate()`` over a freshly
    generated graph, then the query itself on the materialized engine —
    neither the cover search nor the columnar engine is involved."""
    graph = generate_lubm(universities=workload.universities, seed=seed)
    executor = Executor(TripleStore.from_graph(saturate(graph)))
    return {
        label: executor.run(query).answer()
        for label, query in workload.reads.items()
    }


class Checker:
    """Keeps each distinct answer once per read key, with how many
    measured and unmeasured reads returned it, for checking after the
    timed part of the run."""

    def __init__(self) -> None:
        self._answers: Dict[Tuple, List[List]] = {}

    def record(self, key: Tuple, answer, measured: bool) -> None:
        seen = self._answers.setdefault(key, [])
        for entry in seen:
            if entry[0] == answer:
                break
        else:
            entry = [answer, 0, 0]
            seen.append(entry)
        entry[1 if measured else 2] += 1

    def verdict(self, workload: Workload, oracle: Dict) -> Dict[str, int]:
        """Counts of measured reads that failed the oracle, of those
        that show exactly the known schema-write defect, and of reads
        (measured or not) with any other wrong answer."""
        failed = known = unexpected = 0
        for key, seen in self._answers.items():
            expected, defective = workload.expected(oracle, key)
            for answer, measured, unmeasured in seen:
                if answer == expected:
                    continue
                failed += measured
                if defective is not None and answer == defective:
                    known += measured
                else:
                    unexpected += measured + unmeasured
        return {"failed": failed, "known_defect": known, "unexpected": unexpected}
