"""Benchmark harness package (pytest-benchmark).

One benchmark per table/figure of the paper, plus the cycle-level
simulator cross-check, ablations and extensions.  Run with::

    pytest benchmarks/ --benchmark-only

Formatted tables are written to ``benchmarks/results/``.
``test_bench_scaling.py`` holds the batching, fleet and sweep-worker
throughput gates; it takes no ``benchmark`` fixture, so
``--benchmark-only`` skips it: run it by name.
"""
