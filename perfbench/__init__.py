"""End-to-end and per-layer benchmark of the §8 harness and its stack.

``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` runs one workload from the root of a source checkout and
prints a human-readable report followed by one JSON result line.
``BENCHMARK.json`` at the checkout root names the workloads, the metrics
and their bounds.
"""
