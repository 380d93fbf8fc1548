"""Tests of the benchmark's own pieces: python3 -m pytest -q bench"""

import json
import shutil
import signal
import time
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from swapmotion import pipeline  # noqa: E402
from swapmotion.fileio import scenario_to_dict  # noqa: E402


def _dicts(scenes):
    return [(s.label, s.exec, scenario_to_dict(s.scenario)) for s in scenes]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workloads_are_deterministic_per_seed_and_valid(name):
    scenes = workloads.build(ROOT, name, 7)
    assert _dicts(scenes) == _dicts(workloads.build(ROOT, name, 7))
    assert _dicts(scenes) != _dicts(workloads.build(ROOT, name, 8))
    for s in scenes:
        assert s.scenario.validate() == []


def test_fuzz_scenes_cover_the_stated_ranges():
    scenes = [s.scenario for seed in range(4) for s in workloads.build(ROOT, "fuzz_small", seed)]
    for s in scenes:
        b = s.workspace.bounds
        assert 24 <= b.width <= 40 and 14 <= b.height <= 24
        assert len(s.workspace.obstacles) <= 3
        assert 3 <= len(s.agents) <= 10
        assert s.r == 1.0 and s.params.dt == 0.25
    assert any(s.workspace.obstacles for s in scenes)


def test_permuted_goals_are_a_permutation_of_the_shipped_goals():
    base = workloads.load_shipped(ROOT, "rect_50")
    (scene,) = workloads.build(ROOT, "dense_exec", 3)
    assert scene.scenario.starts() == base.starts()
    assert sorted(scene.scenario.goals()) == sorted(base.goals())
    assert scene.scenario.goals() != base.goals()


@pytest.fixture()
def small_scenes():
    rect = workloads.load_shipped(ROOT, "rect_12")
    corridor = workloads.load_shipped(ROOT, "corridor_narrow_4")
    return [
        workloads.Scene("rect_12", rect, exec=True),
        workloads.Scene("corridor_narrow_4", corridor),
    ]


def _lookups():
    return [(m, a, getattr(m, a)) for m, a, _, _ in tracing.hooks()]


def test_traced_pass_restores_every_wrapped_attribute(small_scenes, tmp_path):
    before = _lookups()
    tracer = tracing.Tracer()
    outcomes = worker.run_pass(small_scenes, tmp_path, tracer)
    assert [o.verified for o in outcomes] == [True, False]
    assert outcomes[1].error == "InsufficientCapacity"
    assert all(getattr(m, a) is f for m, a, f in before)
    assert tracer.calls("fileio.csv") == 1 and tracer.calls("pipeline") == 2


def test_wrappers_are_removed_when_the_block_raises():
    before = _lookups()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            assert pipeline.run_pipeline is not before[0][2]
            raise RuntimeError
    assert all(getattr(m, a) is f for m, a, f in before)


def test_self_times_are_nonnegative_and_within_the_scene_time(small_scenes, tmp_path):
    tracer = tracing.Tracer()
    outcomes = worker.run_pass(small_scenes, tmp_path, tracer)
    selfs = tracer.self_times()
    assert min(selfs) >= -1e-9
    for o in outcomes:
        spent = sum(t for s, t in zip(tracer.spans, selfs) if s.scene == o.label)
        assert 0 < spent <= o.raw_seconds
    metrics = tracing.layer_metrics(tracer, {})
    assert set(metrics) | {"fileio.bytes", "trace.overhead_share"} == set(worker.LAYER_UNITS)
    assert metrics["planner.ops"] == outcomes[0].ops


def test_gate_rejects_a_broken_run(small_scenes):
    scenario = small_scenes[0].scenario
    report, art = pipeline.run_pipeline(scenario)
    assert worker.check_verified(scenario, report, art) == []
    art.plan.goal = art.plan.start
    report.min_pairwise = 1.5 * scenario.r
    problems = worker.check_verified(scenario, report, art)
    assert any("min_pairwise" in p for p in problems)
    assert any("plan.goal" in p for p in problems)


def test_untyped_errors_propagate(small_scenes, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("boom")

    monkeypatch.setattr(pipeline, "run_pipeline", broken)
    with pytest.raises(KeyError):
        worker.run_scene(small_scenes[0], tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_repeats_must_match():
    a = worker.Outcome("s", 1.0, True, "", "d1", 10, 5.0, 0)
    worker.check_repeats([[a], [a]])
    with pytest.raises(worker.GateFailure):
        worker.check_repeats([[a], [worker.Outcome("s", 1.0, True, "", "d2", 10, 5.0, 0)]])


def test_benchmark_file_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert run.WORKLOADS == workloads.WORKLOADS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == worker.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.LAYER_UNITS
    rows = json.loads((ROOT / "bench" / "predictions.json").read_text())["rows"]
    assert sorted(m for r in rows for m in r["metrics"]) == sorted(worker.LAYER_UNITS)
    for r in rows:
        assert set(r["moves"]) <= set(worker.E2E_UNITS)
        assert set(r["on"]) | set(r["no_change_on"]) <= set(workloads.WORKLOADS)


def test_launcher_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cluttered", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_sampler_restores_the_alarm_handler_and_removes_its_own_time():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as speed:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.6:
            pass
        raw = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(speed.samples) >= 4 and 0 < speed.spent < raw
    reference = [hostspeed.REFERENCE_S] * len(speed.samples)
    assert hostspeed.at_reference_speed(raw, reference) == raw
    assert speed.scale(raw) > 0
