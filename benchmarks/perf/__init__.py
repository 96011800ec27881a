"""The perf ledger: four workloads, fresh-process repeats, traced layers.

Run ``python3 benchmarks/perf/run.py --list`` (or, with ``PYTHONPATH=src``,
``python -m benchmarks.perf --list``); README.md in this directory defines
every workload and metric.
"""
