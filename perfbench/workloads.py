"""The benchmark's serving workloads.

Each workload splits into three phases with separate clocks:

* ``generate(seed)`` — the load generator (:mod:`repro.synth`).  It builds
  one pass of per-minute deliveries (flow batches or pre-encoded export
  datagrams), the incumbent detector's alert feed and the deployment
  context.  Never timed.
* ``prepare(inputs, seed, artifact_dir, repeats)`` — the offline recipe
  that produces the deployed model, scaler and threshold and saves them
  as a :class:`~repro.core.XatuModelRegistry`.  Run ``repeats`` times;
  ``train_s`` is the median.
* :func:`build_engine` — what an operator pays before the first minute:
  load the registry, build one model per shard, build the
  :class:`~repro.serve.ServeEngine` and spawn its shards.  Timed as
  ``setup_s`` on the workload's deployment backend.

The served minutes are then replayed through :func:`deliver` and
``ServeEngine.tick`` by :mod:`perfbench.loop`, on inline shards.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median

import numpy as np

from repro.core import OnlineConfig, OnlineXatu, XatuModel, XatuModelRegistry
from repro.core.model import TimescaleSpec, XatuModelConfig
from repro.core.registry import TypedModelEntry
from repro.netflow import DatagramCodec
from repro.netflow.records import FlowBatch
from repro.serve import ContiguousCustomerRouter, ServeConfig, ServeEngine
from repro.netflow.matrix import (
    SOURCE_CLASS_ALL,
    SOURCE_CLASS_BLOCKLIST,
    SOURCE_CLASS_PREV_ATTACKER,
    SOURCE_CLASS_SPOOFED,
    TrafficMatrix,
)
from repro.signals.features import N_FEATURES, FeatureScaler, group_slices
from repro.synth import TraceGenerator

__all__ = ["Inputs", "Prepared", "Workload", "WORKLOADS", "build_engine", "deliver"]

# NetFlow v5 carries at most 30 records per export datagram.
RECORDS_PER_DATAGRAM = 30

# Traffic-matrix source class behind each per-class feature group.
_CLASS_OF_GROUP = {
    "V": SOURCE_CLASS_ALL,
    "A1": SOURCE_CLASS_BLOCKLIST,
    "A2": SOURCE_CLASS_PREV_ATTACKER,
    "A3": SOURCE_CLASS_SPOOFED,
}


@dataclass
class Inputs:
    """One pass of a workload: what the engine receives, minute by minute."""

    minutes: list[int]
    deliveries: list  # per minute: a FlowBatch, or a list of datagram blobs
    cdet: list[list]  # incumbent AlertRecords delivered before each tick
    ends: list[list[tuple[int, int]]]  # mitigation ends delivered before each tick
    preload: list  # incumbent AlertRecords known before the first minute
    customer_of: object  # dict or ContiguousCustomerRouter
    blocklist: set
    route_table: object
    base_rate_of: dict
    online_config: OnlineConfig
    context: dict = field(default_factory=dict)  # workload-private extras


@dataclass
class Prepared:
    """Outcome of the offline recipe: its time, the threshold it
    calibrated and the threshold the engine serves with."""

    train_s: float
    calibrated_threshold: float
    threshold: float


def _small_model_config() -> XatuModelConfig:
    """The smallest model the serving loop accepts: one 30-minute timescale."""
    return XatuModelConfig(
        hidden_size=8,
        dense_size=8,
        detect_window=5,
        timescales=(TimescaleSpec("short", 1, 30),),
    )


def _encode_datagrams(
    codec: DatagramCodec, batch: FlowBatch, minute: int
) -> list[bytes]:
    arr = batch.array
    return [
        codec.encode(
            FlowBatch(arr[lo : lo + RECORDS_PER_DATAGRAM]), unix_secs=minute * 60
        )
        for lo in range(0, len(arr), RECORDS_PER_DATAGRAM)
    ]


def _world_context(world) -> tuple[dict, set, dict]:
    customer_of = {c.address: c.customer_id for c in world.customers}
    blocklist: set[int] = set()
    for botnet in world.botnets:
        blocklist.update(int(a) for a in botnet.blocklisted_members)
    base_rate_of = {c.customer_id: c.base_rate_bytes for c in world.customers}
    return customer_of, blocklist, base_rate_of


class Workload:
    """Base class: the serving shape plus the three phases."""

    name = ""
    # The backend of the deployment shape.  setup_s is timed on it, and the
    # traced ledger's parent-side run serves on it; the end-to-end loop
    # always serves on inline shards.
    deployment_backend = "inline"
    shards = 2
    checkpoint_every = 0
    # Minimum timed minutes per end-to-end run, so the 90th percentile
    # of tick latency has at least ten samples beyond it.
    min_minutes = 100
    # Offline recipe runs per end-to-end run; train_s is their median.
    train_repeats = 1

    def generate(self, seed: int) -> Inputs:
        raise NotImplementedError

    def prepare(
        self, inputs: Inputs, seed: int, artifact_dir: Path, repeats: int
    ) -> Prepared:
        raise NotImplementedError

    def offline_alerts(self, inputs: Inputs, artifact_dir: Path) -> list[tuple[int, int]]:
        """(minute, customer) alerts of the offline detector over the served
        minutes, for the parity count; empty where there is none."""
        return []


def _train_config():
    from repro.eval.presets import bench_train_config

    return bench_train_config(epochs=4)


class Wide(Workload):
    """~1.1k of a lazy 10k-customer universe watched at ~1k flows/min on
    2 inline shards: feature staging, scaling and LSTM scoring do the work
    (the single-process baseline).

    Its offline recipe: an untrained small model, a scaler fitted on
    feature windows of the workload's own traffic, and a threshold at a
    low quantile of those windows' survival, so that alerts fire on this
    traffic."""

    name = "wide"
    pass_minutes = 40
    # One recipe run takes ~0.3 s; host load drifts over seconds, so the
    # median is taken over runs that span several of them.
    train_repeats = 15
    alert_quantile = 0.02
    fit_customers = 256
    fit_ends = 4  # window end minutes per sampled customer

    def _fit_once(self, inputs: Inputs, seed: int) -> tuple[XatuModel, FeatureScaler, float]:
        model = XatuModel(_small_model_config())
        lookback = model.config.lookback_minutes
        history = inputs.context["history"]
        customers = inputs.context["customers"]
        rng = np.random.default_rng(seed)
        if len(customers) > self.fit_customers:
            customers = rng.choice(customers, self.fit_customers, replace=False)
        last = inputs.minutes[-1]
        ends = np.linspace(last // 2, last, self.fit_ends).astype(int)
        windows = np.zeros((len(customers) * len(ends), lookback, N_FEATURES))
        slices = group_slices()
        row = 0
        for customer in customers:
            for end in ends:
                start = end + 1 - lookback
                lo = max(start, 0)
                for group, cls in _CLASS_OF_GROUP.items():
                    windows[row, lo - start :, slices[group]] = history.feature_block(
                        int(customer), lo, end + 1, cls
                    )
                row += 1
        scaler = FeatureScaler().fit(list(windows))
        scaler.transform(windows, out=windows)
        hazards = model.hazards_np_batched(windows)
        survival = np.exp(-hazards[:, -model.config.detect_window :].sum(axis=1))
        return model, scaler, float(np.quantile(survival, self.alert_quantile))

    def prepare(
        self, inputs: Inputs, seed: int, artifact_dir: Path, repeats: int
    ) -> Prepared:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            model, scaler, threshold = self._fit_once(inputs, seed)
            registry = XatuModelRegistry(model.config, _train_config())
            registry.entries["_default"] = TypedModelEntry(
                model=model, scaler=scaler, threshold=threshold
            )
            registry.save(artifact_dir)
            times.append(time.perf_counter() - start)
        return Prepared(
            train_s=median(times), calibrated_threshold=threshold, threshold=threshold
        )

    def generate(self, seed: int) -> Inputs:
        from repro.bench.scale import scale_scenario

        generator = TraceGenerator(scale_scenario(10_000, seed=seed))
        history = TrafficMatrix()
        deliveries = []
        for sl in generator.iter_minutes(0, self.pass_minutes):
            history.add_batch(sl.customer_ids, sl.batch, sl.class_masks)
            deliveries.append(FlowBatch(sl.batch.array.copy()))
        world = generator.world
        n = len(deliveries)
        return Inputs(
            minutes=list(range(n)),
            deliveries=deliveries,
            cdet=[[] for _ in range(n)],
            ends=[[] for _ in range(n)],
            preload=[],
            customer_of=ContiguousCustomerRouter.for_world(world),
            blocklist=set(),
            route_table=world.route_table,
            base_rate_of={},
            online_config=OnlineConfig(
                evict_margin_minutes=10, watch_idle_minutes=3
            ),
            context={"history": history, "customers": history.customers()},
        )


class Deploy(Workload):
    """The paper's deployment shaped like ``cli serve``: XatuPipeline trains
    and calibrates on the first 70% of a 16-day trace, then the engine
    serves the next minutes with incumbent alerts, mitigation ends, export
    loss and a checkpoint every 5 minutes."""

    name = "deploy"
    # Served end to end on inline shards: 2 process shards at default BLAS
    # threading swing up to 3x within a run (oversubscribed), too unsteady
    # for a bounded metric.  Set-up spawns 2 process shards, and the traced
    # ledger serves on them, so the oversubscription shows in
    # serve.collect_wait_ms and host.cpu_util.
    deployment_backend = "process"
    checkpoint_every = 5
    # One XatuPipeline.run takes ~4-5 s, long enough for host load to
    # move a single sample by a third.
    train_repeats = 3
    # Attack traffic comes on top of the benign budget and varies with the
    # seed; a longer pass evens out how much of it one pass serves.
    pass_minutes = 240
    benign_flows_per_minute = 200
    export_loss = 0.02
    # Calibration on this small replica can land on its 1e-4 minimum, and
    # the served minutes start cold, so the calibrated threshold alone may
    # raise no alert and leave the digest check vacuous.  The deployed
    # threshold is raised, where needed, to this quantile of the survival
    # values a probe over the first served minutes observes.
    probe_quantile = 0.2
    probe_minutes = 40

    def generate(self, seed: int) -> Inputs:
        from repro.core import alerts_to_records
        from repro.detect import NetScoutDetector
        from repro.eval.presets import tiny_scenario
        from repro.synth import as_trace_source

        # A fixed benign flow budget keeps flows per minute (and with them
        # matrix and checkpoint sizes) from swinging with the seed's
        # customer base rates; attack traffic still comes on top.
        scenario = replace(
            tiny_scenario(seed=seed),
            benign_flow_budget=self.benign_flows_per_minute,
            benign_hot_customers=8,
            benign_tail_fraction=0.0,
        )
        trace = TraceGenerator(scenario).materialize()
        labeled = [a for a in NetScoutDetector().detect(trace) if a.event_id >= 0]
        records = alerts_to_records(trace, labeled)
        split = int(trace.horizon * 0.7)
        end = min(trace.horizon, split + self.pass_minutes)
        minutes = list(range(split, end))
        index = {minute: i for i, minute in enumerate(minutes)}
        cdet: list[list] = [[] for _ in minutes]
        ends: list[list[tuple[int, int]]] = [[] for _ in minutes]
        for record in records:
            if record.detect_minute in index:
                cdet[index[record.detect_minute]].append(record)
            if record.end_minute in index:
                ends[index[record.end_minute]].append(
                    (record.customer_id, record.end_minute)
                )
        codec = DatagramCodec(engine_id=1)
        loss = np.random.default_rng(seed)
        deliveries = []
        for sl in as_trace_source(trace, seed=seed).iter_minutes(split, end):
            blobs = _encode_datagrams(codec, sl.batch, sl.minute)
            kept = loss.random(len(blobs)) >= self.export_loss
            deliveries.append([b for b, keep in zip(blobs, kept) if keep])
        customer_of, blocklist, base_rate_of = _world_context(trace.world)
        return Inputs(
            minutes=minutes,
            deliveries=deliveries,
            cdet=cdet,
            ends=ends,
            preload=[r for r in records if r.detect_minute < split],
            customer_of=customer_of,
            blocklist=blocklist,
            route_table=trace.world.route_table,
            base_rate_of=base_rate_of,
            online_config=OnlineConfig(),
            context={"trace": trace, "scenario": scenario},
        )

    def prepare(
        self, inputs: Inputs, seed: int, artifact_dir: Path, repeats: int
    ) -> Prepared:
        from repro.core import PipelineConfig, XatuPipeline
        from repro.eval.presets import bench_model_config

        config = PipelineConfig(
            scenario=inputs.context["scenario"],
            model=bench_model_config(),
            train=_train_config(),
            seed=seed,
        )
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            pipeline = XatuPipeline(config, trace=inputs.context["trace"])
            result = pipeline.run()
            pipeline.save_artifacts(artifact_dir)
            times.append(time.perf_counter() - start)
        threshold = max(
            result.calibration.threshold,
            float(
                np.quantile(
                    _probe_survival(inputs, artifact_dir, self.probe_minutes),
                    self.probe_quantile,
                )
            ),
        )
        registry = XatuModelRegistry.load(artifact_dir)
        registry.set_threshold("_default", threshold)
        registry.save(artifact_dir)
        return Prepared(
            train_s=median(times),
            calibrated_threshold=result.calibration.threshold,
            threshold=threshold,
        )

    def offline_alerts(self, inputs: Inputs, artifact_dir: Path) -> list[tuple[int, int]]:
        """The offline ``XatuDetector`` over the served minutes at the
        deployed threshold, knowing the incumbent alerts the engine is
        given (preloaded, then broadcast minute by minute).  It reads the
        trace's traffic from before the split, while the engine starts
        cold there; that state difference is what the parity count shows.
        """
        from repro.core import DetectorConfig, XatuDetector
        from repro.signals.features import FeatureExtractor

        entry = XatuModelRegistry.load(artifact_dir).entry_for(None)
        trace = inputs.context["trace"]
        extractor = FeatureExtractor(
            trace,
            alerts=inputs.preload + [r for records in inputs.cdet for r in records],
        )
        detection = XatuDetector(
            trace,
            extractor,
            entry.model,
            entry.scaler,
            DetectorConfig(threshold=entry.threshold, autoregressive=False),
        ).run((inputs.minutes[0], inputs.minutes[-1] + 1))
        return sorted((a.minute, a.customer_id) for a in detection.alerts)


def _probe_survival(inputs: Inputs, artifact_dir: Path, minutes: int) -> list[float]:
    """Survival values seen over the first ``minutes`` served minutes by an
    inline engine that alerts on everything.

    Hazards do not depend on the threshold (served alerts never feed back
    into the stores), so with a threshold just under 1 every customer
    alerts whenever it is re-armed, and each alert reports its survival.
    """
    engine = build_engine(inputs, artifact_dir, "inline", 1, threshold=1.0 - 1e-9)
    try:
        survival = []
        for index, minute in enumerate(inputs.minutes[:minutes]):
            deliver(engine, inputs, index)
            survival.extend(a.survival for a in engine.tick(minute))
    finally:
        engine.close()
    return survival


WORKLOADS: dict[str, Workload] = {w.name: w for w in (Wide(), Deploy())}


def build_engine(
    inputs: Inputs,
    artifact_dir: Path,
    backend: str,
    shards: int,
    checkpoint_dir: Path | None = None,
    checkpoint_every: int = 0,
    threshold: float | None = None,
) -> ServeEngine:
    """Load the deployed artifacts and build (and spawn) the serving engine.
    ``threshold`` overrides the registry's alert threshold."""
    entry = XatuModelRegistry.load(artifact_dir).entry_for(None)
    model_state = entry.model.state_dict()
    model_config = entry.model.config
    online_config = replace(
        inputs.online_config,
        threshold=entry.threshold if threshold is None else threshold,
    )

    def factory(partition):
        # One model object per shard, as ``cli serve`` builds them.
        model = XatuModel(model_config)
        model.load_state_dict(model_state)
        model.eval()
        return OnlineXatu(
            model=model,
            scaler=entry.scaler,
            customer_of=partition,
            blocklist=inputs.blocklist,
            route_table=inputs.route_table,
            base_rate_of=inputs.base_rate_of,
            config=online_config,
        )

    engine = ServeEngine(
        factory,
        inputs.customer_of,
        ServeConfig(
            shards=shards,
            backend=backend,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every if checkpoint_dir else 0,
        ),
    )
    for record in inputs.preload:
        engine.ingest_cdet_alert(record)
    return engine


def deliver(engine: ServeEngine, inputs: Inputs, index: int) -> int:
    """Hand minute ``index``'s feed to the engine; returns flows delivered."""
    for record in inputs.cdet[index]:
        engine.ingest_cdet_alert(record)
    for customer_id, minute in inputs.ends[index]:
        engine.ingest_mitigation_end(customer_id, minute)
    payload = inputs.deliveries[index]
    if isinstance(payload, FlowBatch):
        return engine.ingest_flows(payload)
    return sum(engine.ingest_datagram(blob) for blob in payload)
