"""One benchmark run: set-up, warm-up, traced and timed phases, oracle.

A run generates the LUBM graph from the seed, sets the answerer up
several times (``setup_s`` is the median), warms it, sends a fixed
number of whole request cycles — as many as the workload's typical
cycle time fits into the given seconds, so that two runs with the same
arguments send the same requests — and finally checks every answer
against the saturation oracle of :mod:`workloads`.  A traced run
follows each of its first measured cycles with the next cycle of the
mix, sent through the traced pipeline of :mod:`tracing`.

The machine the benchmark runs on is shared: its speed drifts by a
quarter and more over tens of seconds, while the latencies of the
program move much less between neighbouring moments.  So each latency
metric is taken at the run's best sustained speed — the lower decile of
samples spread over the whole run — rather than at its median, which
follows the drift:

* every operation counts at the lower decile of the latencies of its
  kind — its query for a read; insert or delete, plain or schema, for
  a write — and the kinds come in fixed proportions;
* ``query_p50_ms``/``query_p90_ms`` and ``write_p50_ms``/
  ``write_p90_ms`` are the median and 90th percentile of the reads'
  and the writes' latencies so counted;
* ``ops_per_s`` is the attempted operations over the time they take
  when so counted.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
from metrics import END_TO_END, PER_LAYER
from repro import QueryAnswerer, Strategy
from repro.datasets import generate_lubm
from workloads import Checker, Read, WriteStream, make_workload, sat_oracle

OUT = Path(__file__).resolve().parent / "out"

#: A run sets the answerer up at least ``SETUPS`` times, and more
#: (up to ``MAX_SETUPS``) until ``SETUP_SECONDS`` went into set-ups, so
#: that the median ``setup_s`` of a small graph rests on more samples.
SETUPS = 3
MAX_SETUPS = 25
SETUP_SECONDS = 2.0
#: Write operations per burst on the read-only workloads.  A burst
#: follows every measured read, on a second answerer over the same
#: graph: the writes never invalidate the runs the loop reads, and
#: their samples come from moments spread over the whole run.
WRITE_PROBE = 40
#: A traced run is flagged when the stage spans leave more than this
#: share of the untraced ``answer()`` median unaccounted for.
COVERAGE_TOLERANCE = 0.10


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _low(values):
    """The lower decile: a latency the run sustained, less its stalls."""
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def set_up(graph, workload):
    """Build the answerer and its SPO/POS/OSP runs; returns the
    answerer and the two timings in seconds."""
    start = perf_counter()
    answerer = QueryAnswerer(
        graph,
        engine="columnar",
        interval_encoding=workload.interval_encoding,
    )
    built = perf_counter()
    indexes = answerer.store.columnar()
    for order in ("spo", "pos", "osp"):
        indexes.order(order)
    return answerer, built - start, perf_counter() - built


def probe_writes(probe) -> None:
    """One burst of ``WRITE_PROBE`` timed writes on the probe loop's
    answerer, then deletes of the students still live: the answerers
    share one graph, which must be as generated when the next read
    runs."""
    stream = WriteStream("probe%d" % probe.bursts)
    probe.bursts += 1
    for _ in range(WRITE_PROBE):
        probe.write(stream.next())
    for write in stream.drain():
        probe.write(write)


def apply_write(answerer, write) -> bool:
    applied = True
    for triple in write.triples:
        applied = getattr(answerer, write.action)(triple) and applied
    return applied


class Loop:
    """Sends operations, keeps their latencies and failures, and hands
    every answer to the checker, to be checked after the run."""

    def __init__(self, answerer, checker, probe=None) -> None:
        self.answerer = answerer
        self.checker = checker
        #: The write-probe loop of a read-only workload: one burst
        #: follows every measured read.
        self.probe = probe
        self.bursts = 0
        self.read_s = {}  # label -> [seconds]
        #: Latencies of the untraced cycles interleaved with traced ones:
        #: the traced requests' baseline.
        self.paired_s = {}
        self.write_s = {}  # kind -> [seconds]
        self.schema_inserts = 0
        self.cycles = 0
        self.attempted = 0
        self.errors = 0  # raised or refused: always unexpected
        self.traced_errors = 0  # refused while traced: unexpected, unmeasured
        self.tracer = tracing.Tracer()

    def read(self, op, paired: bool = False) -> float:
        self.attempted += 1
        start = perf_counter()
        try:
            report = self.answerer.answer(op.query, Strategy.REF_GCOV)
        except Exception:  # the loop must go on; the failure is counted
            self._error()
            return perf_counter() - start
        elapsed = perf_counter() - start
        self.read_s.setdefault(op.label, []).append(elapsed)
        if paired:
            self.paired_s.setdefault(op.label, []).append(elapsed)
        self.checker.record(op.key, report.answer, True)
        return elapsed

    def write(self, op) -> float:
        self.attempted += 1
        start = perf_counter()
        try:
            applied = apply_write(self.answerer, op)
        except Exception:  # the loop must go on; the failure is counted
            self._error()
            return perf_counter() - start
        elapsed = perf_counter() - start
        if applied:
            kind = op.action + (" schema" if op.schema else "")
            self.write_s.setdefault(kind, []).append(elapsed)
            self.schema_inserts += op.schema and op.action == "insert"
        else:
            self.errors += 1
        return elapsed

    def traced(self, cycle) -> None:
        """Send *cycle* through the traced pipeline: not measured, but
        checked, and a refused write is an error."""
        indexes = self.answerer.store.columnar()
        untrace = tracing.trace_index_builds(self.tracer, indexes)
        try:
            for op in cycle:
                if isinstance(op, Read):
                    answer = tracing.traced_read(
                        self.tracer, self.answerer, op.query, op.label
                    )
                    self.checker.record(op.key, answer, False)
                elif not tracing.traced_write(self.tracer, self.answerer, op):
                    self.traced_errors += 1
        finally:
            untrace()

    def _error(self) -> None:
        if not self.errors:
            traceback.print_exc(file=sys.stderr)
        self.errors += 1

    def run(self, cycles, count: int, traced_cycles: int = 0) -> float:
        """Send *count* measured cycles; returns the loop's wall time.
        Each of the first *traced_cycles* measured cycles is followed by
        the next cycle of the mix, sent through the traced pipeline, so
        that the traced requests and their untraced baseline share the
        machine's state of the moment."""
        start = perf_counter()
        for index in range(count):
            cycle = next(cycles)
            paired = index < traced_cycles
            for op in cycle:
                if isinstance(op, Read):
                    self.read(op, paired)
                    if self.probe is not None:
                        probe_writes(self.probe)
                else:
                    self.write(op)
            self.cycles += 1
            if paired:
                self.traced(next(cycles))
        return perf_counter() - start

    def reads(self):
        return [value for values in self.read_s.values() for value in values]

    def writes(self):
        return [value for values in self.write_s.values() for value in values]


def sustained(samples):
    """Every sample of *samples* (kind -> latencies) replaced by the
    lower decile of its kind's latencies."""
    return [
        low for values in samples.values() for low in [_low(values)] * len(values)
    ]


def per_layer_metrics(loop, setups):
    """The per-layer metrics: medians per traced request, trace
    coverage against the interleaved untraced cycles, and set-up split."""
    records = tracing.per_request(loop.tracer)
    reads = [record for record in records if record["kind"] == "read"]
    writes = [record for record in records if record["kind"] == "write"]

    def stage_ms(name):
        return _median([r["stages"].get(name, 0.0) * 1e3 for r in reads])

    def count(name):
        return _median([r[name] for r in reads])

    untraced = {label: _median(values) for label, values in loop.paired_s.items()}
    return {
        "optimizer.gcov_ms": stage_ms("optimizer.gcov"),
        "optimizer.gcov_share": sum(r["stages"]["optimizer.gcov"] for r in reads)
        / sum(r["seconds"] for r in reads),
        "optimizer.covers_explored": count("covers_explored"),
        "reformulation.jucq_ms": stage_ms("reformulation.jucq"),
        "reformulation.atoms": count("atoms"),
        "encoding.branches_collapsed": count("branches_collapsed"),
        "storage.plan_ms": stage_ms("storage.plan"),
        "storage.plan_nodes": count("plan_nodes"),
        "cost.qerror_p50": count("qerror_p50"),
        "cost.qerror_max": count("qerror_max"),
        "columnar.exec_ms": stage_ms("columnar.exec"),
        "columnar.rows_out": count("rows_out"),
        "columnar.peak_buffered_rows": count("peak_buffered_rows"),
        "storage.decode_ms": stage_ms("storage.decode"),
        "columnar.index_build_ms": stage_ms(tracing.INDEX_BUILD),
        "columnar.index_builds": count("index_builds"),
        "columnar.index_reuse": sum(
            1 for r in reads if r["index_builds"] == 0
        ) / len(reads),
        "core.write_ms": _median([r["stage_sum"] * 1e3 for r in writes]),
        "core.unaccounted_ms": _median(
            [untraced[r["label"]] * 1e3 - r["stage_sum"] * 1e3 for r in reads]
        ),
        "trace.overhead_frac": sum(r["seconds"] for r in reads)
        / sum(untraced[r["label"]] for r in reads)
        - 1.0,
        "setup.answerer_s": _median([answerer_s for answerer_s, _ in setups]),
        "setup.index_build_s": _median([index_s for _, index_s in setups]),
    }, records


#: Per-request values that must repeat exactly between two runs with
#: the same seed.
COUNTS = (
    "covers_explored", "atoms", "plan_nodes", "index_builds",
    "qerror_p50", "qerror_max", "branches_collapsed",
)


def count_drift(records, path):
    """Compare this run's per-request counts with those an earlier run
    with the same workload, scale and seed left at *path*; returns the
    names of the counts that differ (and records the counts when none
    were recorded yet)."""
    counts = [
        [record["label"]] + [record[name] for name in COUNTS]
        for record in records
        if record["kind"] == "read"
    ]
    if not path.exists():
        path.write_text(json.dumps(counts))
        return []
    earlier = json.loads(path.read_text())
    drift = set()
    if len(earlier) != len(counts):
        return sorted(COUNTS)
    for before, now in zip(earlier, counts):
        for name, old, new in zip(("label",) + COUNTS, before, now):
            if old != new:
                drift.add(name)
    return sorted(drift)


def run_workload(name, seed, seconds, trace, smoke=False, out_dir=OUT):
    """One benchmark run; returns (info, result) as printed."""
    workload = make_workload(name, smoke)
    start = perf_counter()
    graph = generate_lubm(universities=workload.universities, seed=seed)
    generate_s = perf_counter() - start

    checker = Checker()
    setups = []
    answerer = probe = None
    while len(setups) < SETUPS or (
        len(setups) < MAX_SETUPS and sum(map(sum, setups)) < SETUP_SECONDS
    ):
        if probe is None and answerer is not None and not workload.writes:
            # The first answerer set up takes the write probes.
            probe = Loop(answerer, checker)
            gc.collect()
            gc.freeze()
        answerer = None
        gc.collect()
        answerer, answerer_s, index_s = set_up(graph, workload)
        setups.append((answerer_s, index_s))
    # Set-up objects live for the whole run: keep the collector from
    # re-walking them during the timed loop.
    gc.collect()
    gc.freeze()

    writes = None
    warm_errors = 0
    if workload.writes:
        # Fill the write window first, so that every measured cycle
        # meets the same mix of live students.
        writes = WriteStream("run")
        while len(writes.live()) < WriteStream.WINDOW:
            warm_errors += not apply_write(answerer, writes.next())
    first = workload.warm_read(seed, writes)
    checker.record(first.key, answerer.answer(first.query).answer, False)
    loop = Loop(answerer, checker, probe)
    count = max(1, round(seconds / workload.cycle_s))
    loop_s = loop.run(
        workload.cycles(seed, writes),
        count,
        traced_cycles=workload.traced_cycles if trace else 0,
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gc.unfreeze()
    reads = loop.reads()
    writer = loop if probe is None else probe
    read_lows = sustained(loop.read_s)
    write_lows = sustained(writer.write_s)
    # Probe writes are not part of the workload's operations: they count
    # only when they go wrong.
    probe_errors = probe.errors if probe else 0

    start = perf_counter()
    oracle = sat_oracle(workload, seed)
    oracle_s = perf_counter() - start
    verdict = checker.verdict(workload, oracle)
    failed = verdict["failed"] + loop.errors
    unexpected = (
        verdict["unexpected"]
        + loop.errors
        + loop.traced_errors
        + probe_errors
        + warm_errors
    )

    flags = []
    if unexpected:
        flags.append("%d wrong answers or errors beyond the known defect" % unexpected)
    if trace:
        values, records = per_layer_metrics(loop, setups)
        out_dir.mkdir(exist_ok=True)
        stem = "%s-u%d-seed%d" % (name, workload.universities, seed)
        loop.tracer.dump(out_dir / ("spans-%s.jsonl" % stem))
        drift = count_drift(records, out_dir / ("counts-%s.json" % stem))
        if drift:
            flags.append("counts differ from an earlier run with this seed: "
                         + ", ".join(drift))
        untraced_ms = _median(reads) * 1e3
        if abs(values["core.unaccounted_ms"]) > COVERAGE_TOLERANCE * untraced_ms:
            flags.append("stage spans miss %.2f ms of the %.2f ms answer() median"
                         % (values["core.unaccounted_ms"], untraced_ms))
        catalogue = PER_LAYER
    else:
        values = {
            "setup_s": _median([a + b for a, b in setups]),
            "query_p50_ms": _median(read_lows) * 1e3,
            "query_p90_ms": _p90(read_lows) * 1e3,
            "ops_per_s": loop.attempted
            / (sum(read_lows) + sum(sustained(loop.write_s))),
            "write_p50_ms": _median(write_lows) * 1e3,
            "write_p90_ms": _p90(write_lows) * 1e3,
            "ok_frac": 1.0 - failed / loop.attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        catalogue = END_TO_END
    for flag in flags:
        print("perfbench: FLAG: " + flag, file=sys.stderr)

    info = {
        "workload": name,
        "seed": seed,
        "universities": workload.universities,
        "triples": len(graph),
        "cycles": loop.cycles,
        "reads": len(reads),
        "queries": len(loop.read_s),
        "writes": len(loop.writes()),
        "probe_writes": len(probe.writes()) if probe else 0,
        # Schema writes: inserts of a fresh subclass plus its instance.
        "schema_write_share": writer.schema_inserts / max(1, len(writer.writes())),
        "failed_frac": failed / loop.attempted,
        "known_defect_failures": verdict["known_defect"],
        "loop_s": loop_s,
        "setups": len(setups),
        "generate_s": generate_s,
        "oracle_s": oracle_s,
        "flags": flags,
    }
    result = {
        "correct": unexpected == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": values[metric], "unit": catalogue[metric]["unit"]}
            for metric in catalogue
        },
    }
    return info, result


