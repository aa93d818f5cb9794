#!/usr/bin/env python3
"""The repository benchmark: LUBM query answering through QueryAnswerer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload lubm-read --seed 1 --seconds 35 --trace 0

One process, one client thread, a closed loop: each request is sent
when the previous one has returned.  Every read is ``answer(query,
Strategy.REF_GCOV)`` on the columnar engine, with the answer cache off
and ``parallelism`` unset; writes are ``insert()``/``delete()``.
``--seconds`` sets how many request cycles a run sends: as many as the
workload's typical cycle time fits, so that the same arguments always
send the same requests, however fast the machine is at the time.

With ``--trace 0`` a run prints the end-to-end metrics.  With
``--trace 1`` it also sends a fixed number of request cycles through
the traced pipeline of ``tracing.py``, writes their spans to
``perfbench/out/``, and prints the per-layer metrics instead (see
``metrics.py`` for both lists).  ``--smoke`` runs at one university
for the benchmark's own tests (``python -m pytest perfbench``).

The last line of standard output is the result object; the line
before it, prefixed ``perfbench-info``, records the run's inputs and
sample counts.  The exit code is 2 when the repository sources are
missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("lubm-read", "example1", "write-read"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="one university: the benchmark's own tests use this",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no repro sources at %s; run from a repository checkout"
            % SRC,
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    from measure import run_workload

    info, result = run_workload(
        args.workload, args.seed, args.seconds, args.trace, smoke=args.smoke
    )
    print("perfbench-info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
