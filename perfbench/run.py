#!/usr/bin/env python3
"""Out-of-process benchmark of the NeuroSketch serving stack.

    python3 perfbench/run.py --workload {embedded,point,ingest} \
        --seed N --seconds S --trace {0,1}

Run it from the repository root. It imports ``src/repro`` from this
checkout and starts ``python -m repro serve`` from it, so there is nothing
to build. The last line on stdout is the result object (``correct``,
``attempted``, ``failed``, ``metrics``): the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before it
records the run: host, server flags, every check and both metric sets. A
failed check or request prints ``"correct": false`` and exits 1; a
checkout without ``src/repro`` exits 2 without a result. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("embedded", "point", "ingest")


def _exit_on_sigterm(signum, frame) -> None:
    # SystemExit unwinds through the finally blocks that stop the servers.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description="NeuroSketch serving benchmark"
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True, help="traffic seed")
    parser.add_argument("--seconds", type=float, required=True, help="measured seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    # A shell starts background jobs with SIGINT ignored, and a child
    # inherits that; the servers this run starts must stop on SIGINT. A
    # handled signal is reset to its default in the child.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if args.workload == "embedded":
        # Library use in one thread: BLAS too, so a neighbour on the other
        # core does not stall every matmul. Set before numpy loads; this
        # workload starts no server that would inherit it.
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        os.environ["OMP_NUM_THREADS"] = "1"

    from workloads import run_workload

    record, result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT
    )
    print(json.dumps(record, allow_nan=False))
    print(json.dumps(result, allow_nan=False))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
