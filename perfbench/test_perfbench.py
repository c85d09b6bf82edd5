"""Tests of the end-to-end benchmark itself.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bindings():
    from repro.core.convert import Converter
    from repro.experiments import report, runner
    from repro.experiments.cache import ResultCache
    from repro.service import fleet
    from repro.service.fleet import Fleet
    from repro.service.http import ExperimentService
    from repro.service.store import BlobStore
    from repro.sim import simulator
    from repro.sim.engine import Engine
    from repro.sim.simulator import Simulator
    from repro.sim.vector_engine import VectorEngine

    owners = [
        (runner, "make_trace"), (runner, "characterize"), (Converter, "convert"),
        (Simulator, "run"), (simulator, "decode_trace"), (simulator, "columnarize"),
        (Engine, "run"), (VectorEngine, "run"), (fleet, "run_experiment"),
        (ResultCache, "load"), (ResultCache, "store"), (BlobStore, "load"),
        (BlobStore, "store"), (Fleet, "execute"), (ExperimentService, "handle_render"),
    ]
    owners += [(report, n) for n in vars(report) if n.startswith("render_")]
    return {(o, a): (o.__dict__[a] if isinstance(o, type) else getattr(o, a))
            for o, a in owners}


def _render_all(tmp_path, tag):
    from repro.experiments.cache import ResultCache
    from repro.experiments.cli import run_experiment
    from repro.experiments.runner import ExperimentRunner
    from repro.service.fleet import Fleet, SweepParams
    from repro.service.store import ArtifactStore

    runner = ExperimentRunner(instructions=800, stride=67,
                              cache=ResultCache(tmp_path / tag), jobs=1)
    texts = [run_experiment(n, runner) for n in ("fig1", "fig4", "tab1", "tab3")]
    fleet = Fleet(ArtifactStore(tmp_path / tag))
    texts.append(fleet.execute(SweepParams("fig3", instructions=800, stride=67)).text)
    return texts


def test_wrappers_restore_originals_and_leave_output_unchanged(tmp_path):
    before = _bindings()
    plain = _render_all(tmp_path, "plain")
    tracer = Tracer().install()
    try:
        traced = _render_all(tmp_path, "traced")
    finally:
        tracer.uninstall()
    assert traced == plain
    after = _bindings()
    assert all(after[key] is original for key, original in before.items())
    snap = tracer.snapshot()
    for layer in ("synth", "core.convert", "cvp.characterize", "sim", "sim.decode",
                  "sim.engine", "experiments.render", "service.store.load",
                  "service.store.store", "service.fleet.execute", "experiments"):
        assert snap["calls"].get(layer, 0) > 0, layer
    metrics = layer_metrics(snap, 1, 0)
    assert metrics["sim.runs"] == snap["calls"]["sim"]
    assert 0 < metrics["core.convert.distinct_ratio"] <= 1


def test_metric_names_are_well_formed_and_match_the_benchmark():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    assert len(names) == len(set(names))
    produced = set(layer_metrics(Tracer().snapshot(), 1, 0))
    produced |= {"service.http.overhead_ms", "tracing.overhead_ratio",
                 "layers.coverage_ratio"}
    assert produced == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_the_output_check(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    if workload == "serve_warm" and trace:
        assert result["metrics"]["experiments.simulations"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figs_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
