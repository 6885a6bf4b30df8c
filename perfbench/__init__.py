"""Closed-loop serving benchmark for the Xatu reproduction.

``python3 perfbench/run.py --workload <wide|deploy> --seed N
--seconds S --trace 0|1`` replays a seeded synthetic deployment through
the public serving API (:class:`repro.serve.ServeEngine`) and prints the
end-to-end metrics (``--trace 0``) or the per-layer ledger (``--trace 1``).
``BENCHMARK.json`` at the repository root names the workloads and metrics;
``perfbench/predictions.json`` records which end-to-end metric each layer
metric is expected to move, on which workload.
"""
