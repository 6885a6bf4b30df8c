#!/usr/bin/env python3
"""The end-to-end measurement, run in a fresh interpreter.

    python3 perfbench/fresh.py <work_dir>

:func:`serve_fresh` pickles the job into ``work_dir``; the child loads only
the pre-generated deliveries and the deployed artifacts, never the load
generator's state, like a ``cli serve`` process that has just started.  In
it:

* the closed loop (:func:`perfbench.loop.serve_for`) serves on inline
  shards, and the growth of the RSS high-water mark over it is the serving
  engine's memory: models, scaler, traffic matrix, A4/A5 stores, staging
  buffers and checkpoint serialisation;
* then the engine is built and closed repeatedly on the workload's
  deployment backend: registry load, one model per shard, the engine and
  shard spawn.  Spawn forks this small interpreter, so its cost does not
  depend on what the load generator left behind.

The child writes ``(run, peak_rss_mb, setup_s)`` back to ``work_dir``.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 41
JOB = "fresh-job.pkl"
RESULT = "fresh-result.pkl"


def serve_fresh(seconds: float, min_minutes: int, serve: dict):
    """Run ``serve_for(seconds, min_minutes, **serve)``, the peak-RSS
    reading and the set-up samples in a child interpreter; returns
    ``(run, peak_rss_mb, setup_s)``."""
    work_dir = Path(serve["work_dir"])
    with open(work_dir / JOB, "wb") as fh:
        pickle.dump((seconds, min_minutes, serve), fh)
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), str(work_dir)],
            stderr=subprocess.PIPE,
            text=True,
            timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"fresh-interpreter run failed:\n{proc.stderr}")
        with open(work_dir / RESULT, "rb") as fh:
            return pickle.load(fh)
    finally:
        (work_dir / JOB).unlink(missing_ok=True)
        (work_dir / RESULT).unlink(missing_ok=True)


def main(work_dir: str) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.loop import PeakRss, serve_for
    from perfbench.workloads import build_engine

    with open(Path(work_dir) / JOB, "rb") as fh:
        seconds, min_minutes, serve = pickle.load(fh)
    rss = PeakRss()
    rss.reset()
    run = serve_for(seconds, min_minutes, **serve)
    peak_rss_mb = rss.read_mb()

    workload = serve["workload"]
    setup_s = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        engine = build_engine(
            serve["inputs"],
            serve["artifact_dir"],
            workload.deployment_backend,
            workload.shards,
        )
        setup_s.append(time.perf_counter() - start)
        engine.close()
    with open(Path(work_dir) / RESULT, "wb") as fh:
        pickle.dump((run, peak_rss_mb, setup_s), fh)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    from perfbench.procs import reap_children

    try:
        main(sys.argv[1])
    finally:
        reap_children()
