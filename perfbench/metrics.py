"""The benchmark's metric catalogue.

``BENCHMARK.json`` at the repository root lists the same names, units
and directions (the tests check that they agree).  ``moves`` records,
before any change is measured, which end-to-end metric a per-layer
metric should move and on which workload of ``BENCHMARK.json``
(lubm-read, write-read); example1, which run.py also runs, is named
where it is the clearer test.
"""

END_TO_END = {
    "setup_s": {"unit": "s", "better": "lower", "bound": 0.25},
    "query_p50_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
    "query_p90_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
    "ops_per_s": {"unit": "1/s", "better": "higher", "bound": 0.25},
    "write_p50_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
    "write_p90_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
    "ok_frac": {"unit": "ratio", "better": "higher", "bound": 0.05},
    "peak_rss_mb": {"unit": "MB", "better": "lower", "bound": 0.1},
}

PER_LAYER = {
    "optimizer.gcov_ms": {
        "unit": "ms", "better": "lower",
        "moves": "query_p50_ms and ops_per_s on lubm-read (about a quarter "
                 "of its answer time; most of example1's), not write-read",
    },
    # Summed over the traced reads, not a median: the share of answer
    # time that ops_per_s responds to.
    "optimizer.gcov_share": {
        "unit": "ratio", "better": "lower",
        "moves": "query_p50_ms and ops_per_s on lubm-read (about a quarter "
                 "of its answer time; most of example1's), not write-read",
    },
    "optimizer.covers_explored": {
        "unit": "count", "better": "lower",
        "moves": "query_p50_ms and ops_per_s on lubm-read (and example1)",
    },
    "reformulation.jucq_ms": {
        "unit": "ms", "better": "lower",
        "moves": "query_p50_ms on lubm-read (and example1)",
    },
    "reformulation.atoms": {
        "unit": "count", "better": "lower",
        "moves": "query_p50_ms on lubm-read (and example1)",
    },
    "encoding.branches_collapsed": {
        "unit": "count", "better": "higher",
        "moves": "query_p50_ms on lubm-read (the interval-encoded "
                 "workload)",
    },
    "storage.plan_ms": {
        "unit": "ms", "better": "lower",
        "moves": "query_p50_ms on lubm-read (and example1)",
    },
    "storage.plan_nodes": {
        "unit": "count", "better": "lower",
        "moves": "query_p50_ms on lubm-read (and example1)",
    },
    "cost.qerror_p50": {
        "unit": "ratio", "better": "lower",
        "moves": "query_p50_ms on lubm-read (cover quality; and "
                 "example1)",
    },
    "cost.qerror_max": {
        "unit": "ratio", "better": "lower",
        "moves": "query_p50_ms on lubm-read (cover quality; and "
                 "example1)",
    },
    "columnar.exec_ms": {
        "unit": "ms", "better": "lower",
        "moves": "query_p50_ms, ops_per_s and peak_rss_mb on lubm-read",
    },
    "columnar.rows_out": {
        "unit": "count", "better": "lower",
        "moves": "query_p50_ms, ops_per_s and peak_rss_mb on lubm-read",
    },
    "columnar.peak_buffered_rows": {
        "unit": "count", "better": "lower",
        "moves": "peak_rss_mb and query_p50_ms on lubm-read",
    },
    "storage.decode_ms": {
        "unit": "ms", "better": "lower",
        "moves": "query_p90_ms on lubm-read (Q6 and Q14 decode thousands "
                 "of rows)",
    },
    "columnar.index_build_ms": {
        "unit": "ms", "better": "lower",
        "moves": "query_p50_ms and query_p90_ms on write-read; about zero "
                 "elsewhere",
    },
    "columnar.index_builds": {
        "unit": "count", "better": "lower",
        "moves": "query_p50_ms and query_p90_ms on write-read; zero "
                 "elsewhere",
    },
    "columnar.index_reuse": {
        "unit": "ratio", "better": "higher",
        "moves": "query_p50_ms and query_p90_ms on write-read; one "
                 "elsewhere",
    },
    "core.write_ms": {
        "unit": "ms", "better": "lower",
        "moves": "write_p50_ms on write-read",
    },
    "core.unaccounted_ms": {
        "unit": "ms", "better": "lower",
        "moves": "none: untraced answer() median minus the stage spans; "
                 "a large value means the spans miss part of the pipeline",
    },
    "trace.overhead_frac": {
        "unit": "ratio", "better": "lower",
        "moves": "none: traced over untraced time of the same reads, "
                 "minus one",
    },
    "setup.answerer_s": {
        "unit": "s", "better": "lower",
        "moves": "setup_s on every workload",
    },
    "setup.index_build_s": {
        "unit": "s", "better": "lower",
        "moves": "setup_s on every workload",
    },
}
