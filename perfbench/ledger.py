"""Per-layer ledger: spans recorded around calls into each layer's public
functions, installed from the benchmark's own files.

:func:`traced` patches the listed methods on their classes for the
duration of a ``with`` block.  Every call becomes a span; a layer's *self
time* is its span's duration minus the time of the spans nested inside
it, so self times add up to the wall time of the outermost spans
(``ServeEngine.tick`` and the ``ServeEngine.ingest_*`` entry points).
Spans are kept only in the process that installed them: a forked shard
runs the patched methods untraced, because its spans cannot come back to
the parent.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from repro.netflow.records import FLOW_WIRE_SIZE

__all__ = ["Ledger", "traced", "SERVING_LAYERS", "OFFLINE_LAYERS", "RESIDUAL_LAYERS"]


class Ledger:
    """Self time, call counts and work counts per layer."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.skews: list[float] = []
        self._stack: list[list[float]] = []
        self._opaque = 0
        self._shard_s: list[float] = []

    def total_self_s(self, layers) -> float:
        return sum(self.self_s.get(layer, 0.0) for layer in layers)


# ---------------------------------------------------------------------
# work counters recorded when a span closes
# ---------------------------------------------------------------------
# ``result`` is None when the wrapped call raised.
def _count_windows(ledger, args, result, dur):
    ledger.counts["online.windows"] += len(args[1])


def _count_customers(ledger, args, result, dur):
    if result is not None:
        ledger.counts["nn.customers"] += len(result)


def _count_dispatch(ledger, args, result, dur):
    flows = args[2]
    ledger.counts["serve.bytes_to_shards"] += len(flows) * FLOW_WIRE_SIZE
    ledger._shard_s.append(dur)


def _close_tick(ledger, args, result, dur):
    # Shard skew: slowest shard's dispatch over the mean, per minute.
    # Meaningful where dispatch runs the shard's step (inline backend).
    times, ledger._shard_s = ledger._shard_s, []
    if len(times) > 1 and sum(times) > 0:
        ledger.skews.append(max(times) / (sum(times) / len(times)))


def _count_datagram(ledger, args, result, dur):
    ledger.counts["netflow.datagrams"] += 1
    ledger.counts["netflow.records"] += result or 0


def _count_records(ledger, args, result, dur):
    ledger.counts["netflow.records"] += result or 0


def _count_checkpoint(ledger, args, result, dur):
    if result is None:
        return
    ledger.counts["serve.checkpoint_bytes"] += sum(
        f.stat().st_size for f in Path(result).rglob("*") if f.is_file()
    )


# (module, class, method, layer, opaque, on_exit).  An opaque span
# absorbs everything it calls: a checkpoint's state round-trips to the
# shards are checkpoint time, not dispatch or collect time.
SERVING_HOOKS = [
    ("repro.serve.engine", "ServeEngine", "tick", "serve.engine_self", False, _close_tick),
    ("repro.serve.engine", "ServeEngine", "ingest_datagram", "netflow.ingest", False, _count_datagram),
    ("repro.serve.engine", "ServeEngine", "ingest_flows", "netflow.ingest", False, _count_records),
    ("repro.serve.engine", "ServeEngine", "ingest_cdet_alert", "serve.engine_self", False, None),
    ("repro.serve.engine", "ServeEngine", "ingest_mitigation_end", "serve.engine_self", False, None),
    ("repro.serve.engine", "ServeEngine", "checkpoint", "serve.checkpoint", True, _count_checkpoint),
    ("repro.serve.shard", "ShardWorker", "submit_step", "serve.dispatch", False, _count_dispatch),
    ("repro.serve.shard", "ShardWorker", "collect", "serve.collect_wait", False, None),
    ("repro.core.online", "OnlineXatu", "step", "online.step", False, None),
    ("repro.core.online", "OnlineXatu", "ingest_cdet_alert", "online.cdet_ingest", False, None),
    ("repro.core.online", "OnlineXatu", "ingest_mitigation_end", "online.cdet_ingest", False, None),
    ("repro.core.online", "OnlineXatu", "feature_windows", "online.stage_features", False, _count_windows),
    ("repro.netflow.matrix", "TrafficMatrix", "add_batch", "matrix.add_batch", False, None),
    ("repro.netflow.matrix", "TrafficMatrix", "feature_block", "matrix.feature_block", False, None),
    ("repro.signals.features", "FeatureScaler", "transform", "signals.scale", False, None),
    ("repro.signals.history", "AttackHistoryStore", "feature_block", "signals.history_block", False, None),
    ("repro.signals.clustering", "AttackerCustomerGraph", "feature_block", "signals.graph_block", False, None),
    ("repro.core.model", "XatuModel", "stage_pooled", "nn.stage_pooled", False, None),
    ("repro.core.model", "XatuModel", "hazards_np_staged", "nn.lstm", False, _count_customers),
]

OFFLINE_HOOKS = [
    ("repro.signals.features", "FeatureExtractor", "window", "signals.offline_window", False, None),
    ("repro.core.dataset", "DatasetBuilder", "build", "core.dataset_build", False, None),
    ("repro.core.trainer", "XatuTrainer", "fit", "core.fit", False, None),
    ("repro.survival.calibration", "ThresholdCalibrator", "calibrate", "survival.calibrate", False, None),
    ("repro.core.detector", "XatuDetector", "run", "core.offline_detect", False, None),
]

SERVING_LAYERS = sorted({hook[3] for hook in SERVING_HOOKS})
OFFLINE_LAYERS = sorted({hook[3] for hook in OFFLINE_HOOKS})
# Catch-all spans: work under them that no hook names is charged to their
# self time, so a gap in the hooks shows as a growing residual share
# rather than as lost coverage.
RESIDUAL_LAYERS = ("serve.engine_self", "online.step")


def _wrap(fn, layer: str, ledger: Ledger, opaque: bool, on_exit):
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if ledger._opaque or ledger.pid != os.getpid():
            return fn(*args, **kwargs)
        frame = [clock(), 0.0]
        ledger._stack.append(frame)
        if opaque:
            ledger._opaque += 1
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            if opaque:
                ledger._opaque -= 1
            dur = clock() - frame[0]
            ledger._stack.pop()
            ledger.self_s[layer] += dur - frame[1]
            ledger.calls[layer] += 1
            if ledger._stack:
                ledger._stack[-1][1] += dur
            if on_exit is not None:
                on_exit(ledger, args, result, dur)

    return wrapper


@contextmanager
def traced(ledger: Ledger, hooks=SERVING_HOOKS):
    """Record spans into ``ledger`` for every hook while the block runs."""
    originals = []
    try:
        for module, cls_name, method, layer, opaque, on_exit in hooks:
            cls = getattr(importlib.import_module(module), cls_name)
            fn = cls.__dict__[method]
            originals.append((cls, method, fn))
            setattr(cls, method, _wrap(fn, layer, ledger, opaque, on_exit))
        yield ledger
    finally:
        for cls, method, fn in reversed(originals):
            setattr(cls, method, fn)
