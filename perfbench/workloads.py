"""The benchmark's workloads: each operation is one call sequence a user makes.

`obstacle_course` and `yaw_hold` load a shipped scenario, construct the
simulator, run it and export the trajectory, event and summary logs.
`prediction_sweep` loads `moving_leader_compare` once and runs it in baseline
mode plus every enhanced (horizon x window) cell that
`scripts/calibrate_compare.py` sweeps by default, exporting each run's
summary only.

The workload seed is applied as `run_scenario(seed=...)` applies it, with
`dataclasses.replace`, so that set-up and `Simulator.run` can be timed apart.
Only `moving_leader_compare` draws noise, so only `prediction_sweep`
trajectories depend on the seed; every summary records it.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace

from niformation import scenario as scenario_mod
from niformation import sim as sim_mod

SCENARIOS = {
    "obstacle_course": "cluttered_course",
    "yaw_hold": "yaw_sync_pair",
    "prediction_sweep": "moving_leader_compare",
}

# The grid scripts/calibrate_compare.py sweeps by default, in its order.
SWEEP_HORIZONS = (10, 20, 30, 38, 45, 55)
SWEEP_WINDOWS = (5, 10, 15, 25, 40)

# cluttered_course: a reference detour (mode 1), then a squeeze (mode 2).
OBSTACLE_COURSE_MODES = [1, 2]


@dataclass
class Run:
    """One `Simulator.run` inside an operation."""

    log: sim_mod.RunLog
    seconds: float        # host time inside Simulator.run
    waypoints: int        # waypoints the scenario declares

    @property
    def steps(self) -> int:
        return len(self.log.times)


@dataclass
class Operation:
    """One whole operation of a workload and the runs it made."""

    seconds: float
    runs: list[Run]
    exported: list[str] | None = None   # trajectory_csv() + summary_json() per run


def load(workload: str, seed: int | None) -> scenario_mod.Scenario:
    scn = scenario_mod.load_scenario(SCENARIOS[workload])
    return scn if seed is None else replace(scn, seed=seed)


def setup(workload: str, seed: int | None) -> sim_mod.Simulator:
    """What a user pays before a run: load the scenario, construct the simulator."""
    return sim_mod.Simulator(load(workload, seed))


def sweep_cells(base: scenario_mod.Scenario) -> list[scenario_mod.Scenario]:
    cells = [replace(base, control=replace(base.control, mode="baseline"))]
    for window in SWEEP_WINDOWS:
        for horizon in SWEEP_HORIZONS:
            cells.append(replace(base, control=replace(
                base.control, mode="enhanced",
                prediction_horizon_steps=horizon,
                velocity_estimate_window=window)))
    return cells


def _course(workload: str, seed: int | None, clock) -> Operation:
    start = clock()
    scn = load(workload, seed)
    simulator = sim_mod.Simulator(scn)
    begin = clock()
    log = simulator.run()
    end = clock()
    trajectory = log.trajectory_csv()
    log.events_csv()
    summary = log.summary_json()
    done = clock()
    return Operation(done - start, [Run(log, end - begin, len(scn.waypoints))],
                     [trajectory + summary])


def _sweep(workload: str, seed: int | None, clock) -> Operation:
    start = clock()
    runs = []
    for cell in sweep_cells(load(workload, seed)):
        simulator = sim_mod.Simulator(cell)
        begin = clock()
        log = simulator.run()
        end = clock()
        log.summary_json()
        runs.append(Run(log, end - begin, len(cell.waypoints)))
    return Operation(clock() - start, runs)


OPERATIONS = {
    "obstacle_course": _course,
    "yaw_hold": _course,
    "prediction_sweep": _sweep,
}


def run(workload: str, seed: int | None, clock=time.perf_counter) -> Operation:
    """One operation, its times read from `clock` (seconds)."""
    return OPERATIONS[workload](workload, seed, clock)


def check(workload: str, op: Operation) -> list[str]:
    """Correctness problems of one operation; empty when it is correct."""
    problems = []
    for k, r in enumerate(op.runs):
        summary = r.log.summary
        if summary["status"] != sim_mod.STATUS_COMPLETED:
            problems.append(f"run {k}: status {summary['status']}")
        if summary["waypoints_completed"] != r.waypoints:
            problems.append(f"run {k}: {summary['waypoints_completed']} of "
                            f"{r.waypoints} waypoints")
    if workload == "obstacle_course":
        log = op.runs[0].log
        modes = [ev["mode"] for ev in log.events if ev["event"] == "avoid_enter"]
        if modes != OBSTACLE_COURSE_MODES:
            problems.append(f"avoid_enter modes {modes}, "
                            f"expected {OBSTACLE_COURSE_MODES}")
        clearance = log.summary["min_obstacle_clearance_cm"]
        if clearance is None or not clearance > 0.0:
            problems.append(f"obstacle clearance {clearance} cm")
    return problems


def fingerprint(op: Operation) -> dict:
    """sha256 of every run's trajectory_csv() + summary_json(), in run order,
    with the step and event counts: equal values mean identical simulated output."""
    texts = op.exported or [r.log.trajectory_csv() + r.log.summary_json()
                            for r in op.runs]
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
    return {"sha256": digest.hexdigest(),
            "steps": sum(r.steps for r in op.runs),
            "events": sum(len(r.log.events) for r in op.runs)}


def quality(workload: str, op: Operation) -> dict:
    """The paper-level figures of one operation (deterministic for a seed)."""
    errors = [r.log.summary["relative_error_max_overall_cm"] for r in op.runs]
    out = {"formation_err_max_cm": max(errors)}
    if workload == "obstacle_course":
        out["min_clearance_cm"] = op.runs[0].log.summary["min_obstacle_clearance_cm"]
    if workload == "prediction_sweep":
        # run 0 is the baseline; the rest are the enhanced cells
        out["prediction_gain_ratio"] = errors[0] / min(errors[1:])
    return out
