"""The repository benchmark: five workloads, end-to-end and per-layer metrics.

``python3 bench/run.py`` is the entry point; ``bench/README.md`` explains
every workload and metric, and ``BENCHMARK.json`` at the repository root
lists the metric names, units, directions and regression bounds.
"""
