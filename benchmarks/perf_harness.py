#!/usr/bin/env python
"""Standalone driver for the packed-vs-seed throughput benchmark.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/perf_harness.py                 # full run
    PYTHONPATH=src python benchmarks/perf_harness.py --scale 0.05 \\
        --repeats 1 --check -o BENCH_SMOKE.json                      # CI smoke

Runs ``repro bench`` with the same arguments: the flags are declared
once, in :func:`repro.cli.build_parser`, and the logic lives in
:mod:`repro.bench.perf`. The report schema is documented in
``docs/PERF.md``.
"""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["bench", *sys.argv[1:]]))
