"""The benchmark every performance or simplicity claim in this repo is measured with.

Six named workloads over seeded corpora, end-to-end metrics with regression
bounds, and per-layer metrics taken in a separate traced run.  Every layer
is measured from outside: by timing calls into its public functions and
reading the counters those calls already return.  See ``README.md`` beside
this file for the glossary, and ``BENCHMARK.json`` at the repo root for the
contract the driver checks.

    python benchmarks/suite/run.py --workload full-batch --seed 1 --seconds 8 --trace 0
    python -m benchmarks.suite --seed 1            # all six, untraced + traced
    python -m benchmarks.suite --seed 1 --sets 2   # agreement run
"""
