#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 20 --trace 0

Every workload in turn::

    for w in wide deploy; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 0
    done

Run from the repository root.  With ``--trace 0`` the run measures the
end-to-end metrics with tracing off; with ``--trace 1`` it gives the
per-layer ledger instead (see :mod:`perfbench.ledger`).  Metric names and
units come from ``BENCHMARK.json``.  Human-readable lines go first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 on success; 1 when a minute failed, the alert digest did
not match the reference, the reference raised no alert (a vacuous check)
or the traced ledger covers less than 95% of the traced wall time; 2 when
the package sources or ``BENCHMARK.json`` are missing.  Before it exits,
the run waits for every process it started, shard workers and
multiprocessing's resource tracker included (:mod:`perfbench.procs`).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_COVERAGE = 0.95


def _bootstrap() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: package sources (src/repro) not found", file=sys.stderr)
        sys.exit(2)
    if not spec_path.is_file():
        print("perfbench: BENCHMARK.json not found", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return json.loads(spec_path.read_text())


def _percentile_ms(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) * 1000.0


def _check(runs, reference) -> tuple[bool, int, int, list[str]]:
    """Compare every pass with the reference stream.

    Returns ``(correct, attempted, failed, problems)``; on a digest
    mismatch every minute of the run counts as failed.
    """
    from perfbench.loop import alert_digest

    attempted = sum(run.minutes for run in runs)
    failed = sum(run.failed_minutes for run in runs)
    problems = []
    if not reference:
        problems.append("reference raised no alert: the digest check is vacuous")
    expected = alert_digest(reference)
    mismatched = sum(
        1 for run in runs for p in run.passes if alert_digest(p.alerts) != expected
    )
    if failed:
        problems.append(f"{failed} minute(s) failed")
    if mismatched:
        problems.append(f"{mismatched} pass(es) diverged from the reference digest")
        failed = attempted
    return not problems, attempted, failed, problems


def end_to_end(run, setup, prepared, peak_rss_mb) -> dict[str, float]:
    ticks = run.tick_s
    return {
        "minutes_per_s": run.minutes / run.loop_s,
        "flows_per_s": run.flows / run.loop_s,
        "tick_p50_ms": _percentile_ms(ticks, 50),
        "tick_p90_ms": _percentile_ms(ticks, 90),
        "setup_s": statistics.median(setup),
        "train_s": prepared.train_s,
        "peak_rss_mb": peak_rss_mb,
    }


FEATURE_PATH = (
    "online.stage_features",
    "matrix.feature_block",
    "signals.history_block",
    "signals.graph_block",
    "signals.scale",
    "nn.stage_pooled",
    "nn.lstm",
)
TRANSPORT_PATH = (
    "netflow.ingest",
    "serve.engine_self",
    "serve.dispatch",
    "serve.collect_wait",
    "matrix.add_batch",
)


def per_layer(
    parent, parent_run, shard, shard_run, offline, host, overhead, parity
) -> dict[str, float]:
    """Assemble the ledger.  ``parent`` is the traced run of the workload's
    deployment backend; ``shard`` the traced inline run that sees inside
    the shards (the same run for inline workloads)."""
    from perfbench.ledger import RESIDUAL_LAYERS, SERVING_LAYERS

    def per_min(ledger, run, layer):
        return ledger.self_s.get(layer, 0.0) * 1000.0 / run.minutes

    def count_per_min(ledger, run, name):
        return ledger.counts.get(name, 0.0) / run.minutes

    def coverage(ledger, run):
        return ledger.total_self_s(SERVING_LAYERS) / run.loop_s

    checkpoints = parent.calls.get("serve.checkpoint", 0)
    lstm_calls = shard.calls.get("nn.lstm", 0)
    loss = [p.loss_rate for p in parent_run.passes]
    metrics = {
        "netflow.ingest_ms": per_min(parent, parent_run, "netflow.ingest"),
        "netflow.datagrams": count_per_min(parent, parent_run, "netflow.datagrams"),
        "netflow.records": count_per_min(parent, parent_run, "netflow.records"),
        "netflow.loss_rate": sum(loss) / len(loss),
        "matrix.add_batch_ms": per_min(shard, shard_run, "matrix.add_batch"),
        "matrix.feature_block_ms": per_min(shard, shard_run, "matrix.feature_block"),
        "matrix.feature_block_calls": shard.calls.get("matrix.feature_block", 0)
        / shard_run.minutes,
        "serve.dispatch_ms": per_min(parent, parent_run, "serve.dispatch"),
        "serve.collect_wait_ms": per_min(parent, parent_run, "serve.collect_wait"),
        "serve.engine_self_ms": per_min(parent, parent_run, "serve.engine_self"),
        "serve.shard_skew": (
            sum(shard.skews) / len(shard.skews) if shard.skews else 1.0
        ),
        "serve.bytes_to_shards": count_per_min(
            parent, parent_run, "serve.bytes_to_shards"
        ),
        "serve.checkpoint_ms": (
            parent.self_s.get("serve.checkpoint", 0.0) * 1000.0 / checkpoints
            if checkpoints
            else 0.0
        ),
        "serve.checkpoint_bytes": (
            parent.counts.get("serve.checkpoint_bytes", 0.0) / checkpoints
            if checkpoints
            else 0.0
        ),
        "online.step_ms": per_min(shard, shard_run, "online.step"),
        "online.stage_features_ms": per_min(shard, shard_run, "online.stage_features"),
        "online.windows": count_per_min(shard, shard_run, "online.windows"),
        "online.cdet_ingest_ms": per_min(shard, shard_run, "online.cdet_ingest"),
        "signals.scale_ms": per_min(shard, shard_run, "signals.scale"),
        "signals.history_block_ms": per_min(shard, shard_run, "signals.history_block"),
        "signals.graph_block_ms": per_min(shard, shard_run, "signals.graph_block"),
        "signals.offline_window_ms": offline.self_s.get("signals.offline_window", 0.0)
        * 1000.0,
        "signals.offline_windows": float(offline.calls.get("signals.offline_window", 0)),
        "nn.stage_pooled_ms": per_min(shard, shard_run, "nn.stage_pooled"),
        "nn.lstm_ms": per_min(shard, shard_run, "nn.lstm"),
        "nn.customers_per_call": (
            shard.counts.get("nn.customers", 0.0) / lstm_calls if lstm_calls else 0.0
        ),
        "core.dataset_build_ms": offline.self_s.get("core.dataset_build", 0.0) * 1000.0,
        "core.fit_ms": offline.self_s.get("core.fit", 0.0) * 1000.0,
        "survival.calibrate_ms": offline.self_s.get("survival.calibrate", 0.0) * 1000.0,
        "core.offline_detect_ms": offline.self_s.get("core.offline_detect", 0.0)
        * 1000.0,
        "host.cpu_s": host["cpu_s"],
        "host.cpu_util": host["cpu_util"],
        "host.blas_threads": float(host["blas_threads"]),
        "host.nproc": float(host["nproc"]),
        "trace.coverage": min(
            coverage(parent, parent_run), coverage(shard, shard_run)
        ),
        "trace.overhead": overhead,
        "trace.feature_share": shard.total_self_s(FEATURE_PATH) / shard_run.loop_s,
        "trace.transport_share": shard.total_self_s(TRANSPORT_PATH)
        / shard_run.loop_s,
        "trace.residual_share": shard.total_self_s(RESIDUAL_LAYERS)
        / shard_run.loop_s,
        "parity.offline_alerts": float(parity[0]),
        "parity.online_alerts": float(parity[1]),
        "parity.agree": float(parity[2]),
    }
    return metrics


def _parity(offline_alerts, reference) -> tuple[int, int, int]:
    """(offline alerts, online alerts, alerts both raised) over the served
    minutes: same customer, same minute."""
    offline = set(offline_alerts)
    online = {(minute, customer) for minute, customer, _ in reference}
    return len(offline), len(online), len(offline & online)


def _print_thresholds(prepared) -> None:
    print(
        f"  threshold calibrated {prepared.calibrated_threshold:.6g}, "
        f"served {prepared.threshold:.6g}"
    )


def measure_end_to_end(workload, serve: dict, seed: int, seconds: float):
    """Untraced closed loop on inline shards, with set-up time and peak
    RSS, in a fresh interpreter that loads only the deliveries
    (:mod:`perfbench.fresh`).  The load generator's state kept for the
    offline recipe is dropped before it."""
    from perfbench.fresh import serve_fresh
    from perfbench.loop import reference_alerts

    prepared = workload.prepare(
        serve["inputs"], seed, serve["artifact_dir"], workload.train_repeats
    )
    _print_thresholds(prepared)
    serve["inputs"].context.clear()
    run, peak_rss_mb, setup = serve_fresh(seconds, workload.min_minutes, serve)
    reference = reference_alerts(**serve)
    print(f"  tick latency samples {len(run.tick_s)}, set-up samples {len(setup)}")
    return [run], reference, end_to_end(run, setup, prepared, peak_rss_mb)


def measure_ledger(workload, serve: dict, seed: int, seconds: float, host: dict):
    """Traced runs of the workload's deployment shape.

    Parent-side layers come from a traced run of ``deployment_backend``;
    in-shard layers from a traced inline run (process shards cannot send
    spans back); an untraced run of the same backend gives the tracing
    overhead.  The offline recipe is traced as well, run once; the offline
    detection the parity count compares with runs untraced.
    """
    from perfbench.ledger import OFFLINE_HOOKS, Ledger, traced
    from perfbench.loop import cpu_seconds, reference_alerts, serve_for

    offline = Ledger()
    with traced(offline, OFFLINE_HOOKS):
        prepared = workload.prepare(serve["inputs"], seed, serve["artifact_dir"], 1)
    _print_thresholds(prepared)
    offline_alerts = workload.offline_alerts(serve["inputs"], serve["artifact_dir"])
    backend = workload.deployment_backend
    budget = seconds / (2 if backend == "inline" else 3)
    untraced = serve_for(budget, 1, backend=backend, **serve)
    parent = Ledger()
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    with traced(parent):
        parent_run = serve_for(budget, 1, backend=backend, **serve)
    cpu_s = cpu_seconds() - cpu0
    wall = time.perf_counter() - wall0
    runs = [untraced, parent_run]
    shard, shard_run = parent, parent_run
    if backend != "inline":
        shard = Ledger()
        with traced(shard):
            shard_run = serve_for(budget, 1, **serve)
        runs.append(shard_run)
    reference = reference_alerts(**serve)
    host_use = dict(
        cpu_s=cpu_s,
        cpu_util=cpu_s / (wall * (host["nproc"] or 1)),
        blas_threads=host["blas_threads"],
        nproc=host["nproc"],
    )
    overhead = (untraced.minutes / untraced.loop_s) / (
        parent_run.minutes / parent_run.loop_s
    ) - 1.0
    metrics = per_layer(
        parent,
        parent_run,
        shard,
        shard_run,
        offline,
        host_use,
        overhead,
        _parity(offline_alerts, reference),
    )
    return runs, reference, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = _bootstrap()

    from perfbench.host import host_stamp
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    host = host_stamp()
    print("host " + json.dumps(host, sort_keys=True))

    work_dir = ROOT / ".perfbench-work" / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        serve = dict(
            workload=workload,
            inputs=workload.generate(args.seed),
            artifact_dir=work_dir / "artifacts",
            work_dir=work_dir,
        )
        if args.trace:
            runs, reference, metrics = measure_ledger(
                workload, serve, args.seed, args.seconds, host
            )
        else:
            runs, reference, metrics = measure_end_to_end(
                workload, serve, args.seed, args.seconds
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    correct, attempted, failed, problems = _check(runs, reference)
    if args.trace and metrics["trace.coverage"] < MIN_COVERAGE:
        correct = False
        problems.append(
            f"trace coverage {metrics['trace.coverage']:.3f} < {MIN_COVERAGE}"
        )

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(units) != set(metrics):
        differ = sorted(set(units) ^ set(metrics))
        print(f"perfbench: metric set differs from BENCHMARK.json: {differ}", file=sys.stderr)
        return 2

    print(
        f"workload {workload.name}: {attempted} minutes in "
        f"{sum(len(r.passes) for r in runs)} pass(es), "
        f"{len(reference)} reference alert(s), error_rate "
        f"{failed / attempted:.4f}"
    )
    for name in sorted(metrics):
        print(f"  {name:<28} {metrics[name]:>14.6g} {units[name]}")
    for problem in problems:
        print(f"FAIL: {problem}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct and not failed else 1


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    from perfbench.procs import become_subreaper, reap_children

    become_subreaper()
    try:
        status = main()
    finally:
        reap_children()
    sys.exit(status)
