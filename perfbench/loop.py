"""The closed loop: one caller delivers a minute, ticks, then sends the next.

A *pass* builds a fresh engine, replays every minute of the workload's
inputs through it, and closes it.  A run repeats whole passes until its
time budget and minimum minute count are both met, so every run measures
the same mix of minutes.  Each pass's merged alert stream is hashed and
compared with the stream of an inline single-shard reference pass over
the same inputs.
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from .workloads import Inputs, Workload, build_engine, deliver

__all__ = [
    "PassResult",
    "RunResult",
    "alert_digest",
    "serve_pass",
    "serve_for",
    "reference_alerts",
    "PeakRss",
    "cpu_seconds",
]


@dataclass
class PassResult:
    loop_s: float  # wall time of the minute loop (delivery + tick)
    tick_s: list[float]
    flows: int
    failed_minutes: int
    alerts: list[tuple[int, int, float]]
    loss_rate: float


@dataclass
class RunResult:
    passes: list[PassResult] = field(default_factory=list)

    @property
    def minutes(self) -> int:
        return sum(len(p.tick_s) for p in self.passes)

    @property
    def loop_s(self) -> float:
        return sum(p.loop_s for p in self.passes)

    @property
    def flows(self) -> int:
        return sum(p.flows for p in self.passes)

    @property
    def failed_minutes(self) -> int:
        return sum(p.failed_minutes for p in self.passes)

    @property
    def tick_s(self) -> list[float]:
        return [t for p in self.passes for t in p.tick_s]


def alert_digest(alerts: list[tuple[int, int, float]]) -> str:
    """SHA-256 of a merged alert stream: one ``minute,customer,survival``
    line per alert, survival in its exact ``repr``."""
    h = hashlib.sha256()
    for minute, customer, survival in alerts:
        h.update(f"{minute},{customer},{survival!r}\n".encode())
    return h.hexdigest()


def serve_pass(
    workload: Workload,
    inputs: Inputs,
    artifact_dir: Path,
    work_dir: Path,
    backend: str = "inline",
    shards: int | None = None,
    checkpoints: bool = True,
) -> PassResult:
    """Build an engine, serve every minute of ``inputs`` in a closed loop,
    and close it.  Only the minute loop is timed."""
    checkpoint_dir = None
    if checkpoints and workload.checkpoint_every:
        checkpoint_dir = work_dir / "checkpoints"
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    engine = build_engine(
        inputs,
        artifact_dir,
        backend,
        shards or workload.shards,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=workload.checkpoint_every,
    )
    tick_s: list[float] = []
    alerts: list[tuple[int, int, float]] = []
    flows = 0
    failed = 0
    try:
        loop_start = time.perf_counter()
        for index, minute in enumerate(inputs.minutes):
            flows += deliver(engine, inputs, index)
            tick_start = time.perf_counter()
            try:
                merged = engine.tick(minute)
            except Exception:  # a failed minute: reported, counted below
                traceback.print_exc(file=sys.stderr)
                merged = None
            tick_s.append(time.perf_counter() - tick_start)
            if merged is None or not all(engine.shard_health().values()):
                failed += 1
                continue
            alerts.extend((a.minute, a.customer_id, a.survival) for a in merged)
        loop_s = time.perf_counter() - loop_start
        loss_rate = engine.feed_health().loss_rate
    finally:
        engine.close()
        if checkpoint_dir is not None:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
    return PassResult(
        loop_s=loop_s,
        tick_s=tick_s,
        flows=flows,
        failed_minutes=failed,
        alerts=alerts,
        loss_rate=loss_rate,
    )


def serve_for(
    seconds: float,
    min_minutes: int,
    workload: Workload,
    inputs: Inputs,
    artifact_dir: Path,
    work_dir: Path,
    **kwargs,
) -> RunResult:
    """Repeat whole passes until ``seconds`` of wall time and
    ``min_minutes`` served minutes are both reached."""
    run = RunResult()
    start = time.perf_counter()
    while (
        not run.passes
        or time.perf_counter() - start < seconds
        or run.minutes < min_minutes
    ):
        run.passes.append(
            serve_pass(workload, inputs, artifact_dir, work_dir, **kwargs)
        )
    return run


def reference_alerts(
    workload: Workload, inputs: Inputs, artifact_dir: Path, work_dir: Path
) -> list[tuple[int, int, float]]:
    """The inline single-shard alert stream for one pass (no checkpoints)."""
    result = serve_pass(
        workload, inputs, artifact_dir, work_dir, shards=1, checkpoints=False
    )
    if result.failed_minutes:
        raise RuntimeError(
            f"reference pass failed {result.failed_minutes} minute(s)"
        )
    return result.alerts


class PeakRss:
    """Growth of this process's peak resident set since :meth:`reset`.

    :meth:`reset` resets the VmHWM high-water mark (Linux does so when
    ``5`` is written to ``/proc/self/clear_refs``) and records the resident
    set at that point; :meth:`read_mb` gives the high-water mark since then
    minus that baseline, i.e. the memory serving added on top of what was
    already resident.  Where the reset is refused the high-water mark is
    the process-lifetime one, and without ``/proc`` it is ``ru_maxrss``
    over a zero baseline: both are upper bounds.
    """

    def __init__(self) -> None:
        self.baseline_mb = 0.0

    @staticmethod
    def _status_mb(key: str) -> float | None:
        try:
            with open("/proc/self/status") as fh:
                for line in fh:
                    if line.startswith(key + ":"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return None

    def reset(self) -> None:
        try:
            with open("/proc/self/clear_refs", "w") as fh:
                fh.write("5")
        except OSError:
            pass
        self.baseline_mb = self._status_mb("VmRSS") or 0.0

    def read_mb(self) -> float:
        peak = self._status_mb("VmHWM")
        if peak is None:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return peak - self.baseline_mb


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system
