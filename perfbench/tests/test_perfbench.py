"""Self-tests of the benchmark: smoke runs of every workload, the metric
contract of ``BENCHMARK.json``, and the alert-digest gate.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as bench  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.ledger import SERVING_HOOKS, Ledger, traced  # noqa: E402
from perfbench.loop import PassResult, PeakRss, RunResult, alert_digest  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _shrunk(name: str, minutes: int):
    """A workload instance serving only a few minutes per pass."""
    workload = type(workloads.WORKLOADS[name])()
    workload.pass_minutes = minutes
    workload.min_minutes = 1
    return workload


def _run(monkeypatch, capsys, name: str, trace: int, minutes: int = 4):
    monkeypatch.setitem(workloads.WORKLOADS, name, _shrunk(name, minutes))
    code = bench.main(
        ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


# ---------------------------------------------------------------------
# the metric contract
# ---------------------------------------------------------------------
def test_every_metric_is_named_and_has_a_unit():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    predictions = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    assert set(predictions["workloads"]) == set(workloads.WORKLOADS)
    layer_metrics = {m for entry in predictions["layers"] for m in entry["metrics"]}
    assert layer_metrics == {m["name"] for m in SPEC["per_layer"]}


# ---------------------------------------------------------------------
# smoke runs
# ---------------------------------------------------------------------
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(monkeypatch, capsys, trace):
    code, result = _run(monkeypatch, capsys, "wide", trace, minutes=4)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= bench.MIN_COVERAGE
        assert 0 < result["metrics"]["trace.residual_share"]["value"] < 1


def test_smoke_run_deploy(monkeypatch, capsys):
    code, result = _run(monkeypatch, capsys, "deploy", 1, minutes=6)
    assert code == 0 and result["correct"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["core.fit_ms"] > 0
    assert metrics["serve.checkpoint_ms"] > 0
    assert metrics["netflow.datagrams"] > 0
    assert 0 <= metrics["netflow.loss_rate"] < 0.1


def test_peak_rss_counts_only_growth_after_reset():
    resident = bytearray(b"x" * (32 << 20))  # touched before the reset: not counted
    rss = PeakRss()
    rss.reset()
    assert rss.read_mb() < 16
    grown = bytearray(b"x" * (48 << 20))
    assert rss.read_mb() > 40
    del resident, grown


def test_traced_restores_the_patched_methods():
    from repro.serve.engine import ServeEngine

    before = ServeEngine.__dict__["tick"]
    with traced(Ledger(), SERVING_HOOKS):
        assert ServeEngine.__dict__["tick"] is not before
    assert ServeEngine.__dict__["tick"] is before


# ---------------------------------------------------------------------
# the digest gate
# ---------------------------------------------------------------------
def _run_of(*streams):
    run = RunResult()
    for alerts in streams:
        run.passes.append(
            PassResult(
                loop_s=1.0,
                tick_s=[0.0] * 3,
                flows=0,
                failed_minutes=0,
                alerts=list(alerts),
                loss_rate=0.0,
            )
        )
    return run


def test_digest_gate_trips_on_a_perturbed_stream():
    reference = [(5, 17, 0.61), (6, 3, 0.42)]
    ok = bench._check([_run_of(reference, reference)], reference)
    assert ok[0] is True and ok[2] == 0
    perturbed = [(5, 17, 0.61), (6, 3, 0.42 + 1e-12)]
    correct, attempted, failed, problems = bench._check(
        [_run_of(reference, perturbed)], reference
    )
    assert correct is False
    assert failed == attempted == 6
    assert alert_digest(perturbed) != alert_digest(reference)


def test_empty_reference_is_a_vacuous_check():
    correct, _, _, problems = bench._check([_run_of([])], [])
    assert correct is False and "vacuous" in problems[0]


def test_perturbed_run_exits_nonzero(monkeypatch, capsys):
    from perfbench import loop

    original = loop.reference_alerts

    def perturbed(*args, **kwargs):
        alerts = original(*args, **kwargs)
        minute, customer, survival = alerts[0]
        return [(minute, customer, survival * 0.5)] + alerts[1:]

    monkeypatch.setattr(loop, "reference_alerts", perturbed)
    code, result = _run(monkeypatch, capsys, "wide", 0, minutes=4)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_orphaned_descendants_are_reaped():
    # A child that leaves a sleeping grandchild behind, as a shard
    # worker or multiprocessing's resource tracker can outlive the
    # interpreter that started it.
    script = (
        "import subprocess, sys, os\n"
        "from perfbench.procs import become_subreaper, reap_children, _children\n"
        "become_subreaper()\n"
        "subprocess.run([sys.executable, '-c', 'import subprocess, sys; "
        "subprocess.Popen([sys.executable, \"-c\", \"import time; time.sleep(60)\"])'])\n"
        "assert _children(), 'the orphan was not adopted'\n"
        "reap_children(timeout=1)\n"
        "assert not _children()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
