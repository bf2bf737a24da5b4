"""End-to-end runs of the shipped scenarios: golden outputs and regressions."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from niformation import scenario, sim

# (status, waypoints completed, avoid_enter modes, sha256 of
# trajectory_csv() + summary_json()) for every shipped scenario at its own
# seed.  A hash may change only with a CHANGES.md entry explaining the diff.
GOLDEN = {
    "cluttered_course": (
        "completed", 2, [1, 2],
        "33b391b8e5faee395ce949541064d405a8d738d99947faf4d0e22bc7aa082e3e"),
    "corridor_squeeze": (
        "completed", 1, [2],
        "c12ae7cb08af0a8489b8c0761245a8838cc69c2279616ff7398e17d9e123b9d6"),
    "moving_leader_compare": (
        "completed", 1, [],
        "d76b97ce9731cc2d08f16593bab6c86edf934dfdd3acc87882d6f08336b5e056"),
    "moving_leader_compare_baseline": (
        "completed", 1, [],
        "c665ec35572a605e754b6a9a307907be48f7659e9873062f1bb387275e7557c9"),
    "rect_varying_formation": (
        "completed", 3, [],
        "c933b80b514b40d77150a816b472ac3604a850fb5f1866804ed68a9beeafdf1b"),
    "single_obstacle_line": (
        "completed", 1, [1],
        "b1a5f4f8831ee6af334980e688eb36092db3d3d274c7c87d0bfc726019a727b4"),
    "triangle_rect_patrol": (
        "completed", 4, [],
        "f178f633d5be44cb32bfb351ad5fc36ea5589f5a6c5675bbb0f1650de8bafa1d"),
    "yaw_sync_pair": (
        "completed", 1, [],
        "0fa88baf22e84604a0add4760cb0df25ff10f0c6f2ef42473edf5b9375ad06b4"),
}


def test_golden_table_covers_every_shipped_scenario():
    assert sorted(GOLDEN) == sorted(scenario.shipped_scenarios())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_scenario_matches_its_golden_run(name):
    status, waypoints, modes, digest = GOLDEN[name]
    log = sim.run_scenario(name)
    assert log.summary["status"] == status
    assert log.summary["waypoints_completed"] == waypoints
    assert [ev["mode"] for ev in log.events
            if ev["event"] == "avoid_enter"] == modes
    text = log.trajectory_csv() + log.summary_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_adaptive_offset_switch_keeps_the_reference_glide():
    # moving_leader_compare cruises to its waypoint on a slewed reference;
    # an adaptive offset switch reads the reference point and must not
    # cancel that slew
    scn = scenario.load_scenario("moving_leader_compare")
    scn = replace(scn, gains=replace(scn.gains, adaptive=True))
    simulator = sim.Simulator(scn)
    slew = simulator.ref_slew
    assert slew is not None
    now = 0.5
    on_glide = simulator._reference_point(now)
    simulator._switch_offsets(simulator.active_offsets + 40.0, now,
                              kind="avoidance")
    assert simulator.transition is not None
    assert simulator.ref_slew is slew
    assert np.array_equal(simulator._reference_point(now), on_glide)
