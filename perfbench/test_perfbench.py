"""Self-tests of the benchmark harness.

    python -m pytest -q perfbench

The traced-run tests run one operation of each workload (about half a
minute in all).
"""

import itertools
import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import hostspeed
import run

wl, sp = run.import_package()
LAYER_METRICS = {name: value for name, _unit, value in run.per_layer_table()}


def traced(name):
    sample = run.attempt(wl, sp, name, None, sp.Tracer())
    assert not sample.problems
    return sample, sp.summarize(sample.spans)


def test_self_time_subtracts_direct_children_on_a_nested_call():
    ticks = itertools.count(step=10)
    tracer = sp.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    middle = tracer.wrap("middle", lambda: (leaf(), leaf()))
    outer = tracer.wrap("outer", lambda: (middle(), leaf()))
    outer()
    # each span opens and closes on one tick, 10 ns apart:
    # outer 0-90, middle 10-60 (leaves 20-30, 40-50), leaf 70-80
    layers = [s[sp.LAYER] for s in tracer.spans]
    assert layers == ["outer", "middle", "leaf", "leaf", "leaf"]
    assert [s[sp.PARENT] for s in tracer.spans] == [-1, 0, 1, 1, 0]
    assert sp.self_times(tracer.spans) == [90 - 50 - 10, 50 - 10 - 10, 10, 10, 10]
    summary = sp.summarize(tracer.spans)
    assert summary["calls"] == {"outer": 1, "middle": 1, "leaf": 3}
    assert summary["seconds"]["leaf"] == pytest.approx(30e-9)


def test_scale_is_the_mean_speed_of_the_probes():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale([ref, ref]) == pytest.approx(1.0)
    # half the interval at reference speed, half at twice it
    assert hostspeed.scale([ref, ref / 2]) == pytest.approx(1.5)


def test_sampler_probes_on_a_timer_and_its_clock_leaves_them_out():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler(period=0.01) as sampler:
        start, host = sampler.clock(), time.perf_counter()
        with sampler.sampling() as probes:
            while time.perf_counter() - host < 0.3:
                pass
        clocked, host = sampler.clock() - start, time.perf_counter() - host
    assert len(probes) >= 5
    assert clocked == pytest.approx(host - sampler.spent, abs=1e-3)
    assert sampler.spent >= sum(probes)
    assert signal.getsignal(signal.SIGALRM) is before


def test_wrappers_are_removed_after_a_traced_block():
    sites = sp.boundaries()
    before = [getattr(owner, name) for owner, name, _, _ in sites]
    with sp.installed(sp.Tracer()):
        assert all(getattr(owner, name) is not original for (owner, name, _, _),
                   original in zip(sites, before))
    assert [getattr(owner, name) for owner, name, _, _ in sites] == before


def test_traced_run_gives_the_untraced_output():
    plain = run.attempt(wl, sp, "obstacle_course", None, None)
    sample, summary = traced("obstacle_course")
    assert sample.fingerprint == plain.fingerprint
    assert LAYER_METRICS["obstacle.clip_calls"](summary) > 0
    assert LAYER_METRICS["obstacle.detect_calls"](summary) > 0


def test_yaw_hold_never_clips_an_obstacle():
    _, summary = traced("yaw_hold")
    assert LAYER_METRICS["obstacle.clip_calls"](summary) == 0
    assert LAYER_METRICS["graph.kron_expand_calls"](summary) > 0


def test_sweep_discretizes_four_plants_per_run():
    sample, summary = traced("prediction_sweep")
    assert len(sample.runs) == 1 + len(wl.SWEEP_HORIZONS) * len(wl.SWEEP_WINDOWS)
    assert LAYER_METRICS["lti.discretize_calls"](summary) == 4 * len(sample.runs)


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["per_layer"]} == (
        set(LAYER_METRICS) | {"trace.overhead_ratio"})
    assert [m["name"] for m in spec["end_to_end"]] == [
        "run_s", "steps_per_s", "setup_s", "peak_rss_mb"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "yaw_hold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
