"""Absolute end-to-end + per-layer benchmark of the ACME campaign path.

See README.md in this directory; ``BENCHMARK.json`` at the repository
root names the command, the workloads and every metric.
"""
