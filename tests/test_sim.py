"""End-to-end runs of the shipped scenarios and the console script: golden
outputs and regressions."""

import copy
import csv
import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import warnings
from collections import Counter, deque
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from niformation import controller, formation, graph, lti, obstacle, scenario, sim
from test_obstacle import SPECIALS, float_bits, nearest, old_event_end
from test_scenario import DOCS

# (status, waypoints completed, avoid_enter modes, sha256 of
# trajectory_csv() + summary_json(), sha256 of events_csv()) for every
# shipped scenario at its own seed, plus the entries of MODE_RUNS.  A hash
# may change only with a CHANGES.md entry explaining the diff.
GOLDEN = {
    "cluttered_course": (
        "completed", 2, [1, 2],
        "33b391b8e5faee395ce949541064d405a8d738d99947faf4d0e22bc7aa082e3e",
        "7944495f1596b41fe741eeede4429ed277bad4482b855aaa8316696664cab414"),
    "corridor_squeeze": (
        "completed", 1, [2],
        "c12ae7cb08af0a8489b8c0761245a8838cc69c2279616ff7398e17d9e123b9d6",
        "d79bbc5343c2226b10954db6528475b4ea008bd716f647367f29d0be6af43a04"),
    "moving_leader_compare": (
        "completed", 1, [],
        "d76b97ce9731cc2d08f16593bab6c86edf934dfdd3acc87882d6f08336b5e056",
        "42776816a663efe33d40f4cb9f295ace0336acbaf36ff277f9d4d33f943251b2"),
    "moving_leader_compare_baseline": (
        "completed", 1, [],
        "ea52e43c2313b2e0fa9f328f22b617453f26fc554e89920e300ebddd3a8d0b3d",
        "42776816a663efe33d40f4cb9f295ace0336acbaf36ff277f9d4d33f943251b2"),
    "rect_varying_formation": (
        "completed", 3, [],
        "c933b80b514b40d77150a816b472ac3604a850fb5f1866804ed68a9beeafdf1b",
        "b750a6138ec5f9d97ef282f7a1185942402f160e8957e81b73d3888b872b4a78"),
    "single_obstacle_line": (
        "completed", 1, [1],
        "b1a5f4f8831ee6af334980e688eb36092db3d3d274c7c87d0bfc726019a727b4",
        "dc8cd9ac140d413af8be0b059aaca85ece77355beec20c68e814670ba8a5a84c"),
    "triangle_rect_patrol": (
        "completed", 4, [],
        "f178f633d5be44cb32bfb351ad5fc36ea5589f5a6c5675bbb0f1650de8bafa1d",
        "d14692535ec5a01b4158816c316431e8b2cd51cd108ba8be7e6550d39a4e7286"),
    "yaw_sync_pair": (
        "completed", 1, [],
        "0fa88baf22e84604a0add4760cb0df25ff10f0c6f2ef42473edf5b9375ad06b4",
        "0ed5390adc2cd571900885b5fd027f7d7bda0054e32c10b552382f4c8e0662e6"),
}

# golden entries that run a shipped scenario in another control mode
MODE_RUNS = {"moving_leader_compare_baseline": ("moving_leader_compare", "baseline")}

# scenarios with obstacles: no robot may touch one
OBSTACLE_SCENARIOS = {"cluttered_course", "corridor_squeeze", "single_obstacle_line"}

# the planned maneuver and circle members of every avoid_enter event (its
# fields other than the time) and the (kind, status) of every transition
# that ended, in order; scenarios not named here have neither
MODE1 = {"mode": 1, "strategy": 2, "threatened": 1}
MODE2 = {"mode": 2, "sub_case": 2}
AVOID_AND_RESTORE = [("avoidance", "superseded"), ("restore", "converged")]
EVENTS = {
    "cluttered_course": ([{**MODE1, "obstacles": [[0]]}, {**MODE2, "obstacles": [[2], [3]]}],
                         AVOID_AND_RESTORE * 2),
    "corridor_squeeze": ([{**MODE2, "obstacles": [[0], [1]]}], AVOID_AND_RESTORE),
    "single_obstacle_line": ([{**MODE1, "obstacles": [[0]]}], AVOID_AND_RESTORE),
    "rect_varying_formation": ([], [("waypoint", "converged")] * 3),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_table_covers_every_shipped_scenario():
    assert sorted(GOLDEN) == sorted([*scenario.shipped_scenarios(), *MODE_RUNS])


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_scenario_matches_its_golden_run(monkeypatch, name):
    status, waypoints, modes, run_digest, events_digest = GOLDEN[name]
    source, mode = MODE_RUNS.get(name, (name, None))
    logged, held = [], []
    log_event, update_waypoints = sim.Simulator._event, sim.Simulator._update_waypoints

    def copying_event(self, *args, **detail):
        log_event(self, *args, **detail)
        logged.append(copy.deepcopy(self.events[-1]))

    def checking_update_waypoints(self, now):
        # a waypoint transition starts only from a settled hold, and the
        # hold is released only once no transition runs
        state = self.transition
        held.append(state is None or state.label != "waypoint" or self.holding)
        update_waypoints(self, now)

    monkeypatch.setattr(sim.Simulator, "_event", copying_event)
    monkeypatch.setattr(sim.Simulator, "_update_waypoints", checking_update_waypoints)
    log = sim.run_scenario(source, mode=mode)
    # no event changes once logged, and a waypoint transition is always held
    assert log.events == logged
    assert len(held) == len(log.times) and all(held)
    assert log.summary["status"] == status
    assert log.summary["waypoints_completed"] == waypoints
    assert [ev["mode"] for ev in log.events
            if ev["event"] == "avoid_enter"] == modes
    maneuvers, transitions = EVENTS.get(name, ([], []))
    assert [{k: v for k, v in ev.items() if k not in ("time", "event")}
            for ev in log.events if ev["event"] == "avoid_enter"] == maneuvers
    assert [(ev["kind"], ev["event"].removeprefix("transition_"))
            for ev in log.events if ev["event"].startswith("transition_")
            and ev["event"] != "transition_start"] == transitions
    clearance = log.summary["min_obstacle_clearance_cm"]
    if name in OBSTACLE_SCENARIOS:
        assert clearance > 0
    else:
        assert clearance is None
    assert digest(log.trajectory_csv() + log.summary_json()) == run_digest
    assert digest(log.events_csv()) == events_digest
    rows = list(csv.reader(io.StringIO(log.events_csv())))
    assert rows[0] == ["time", "event", "detail"]
    assert {len(row) for row in rows} == {3}
    assert [row[:2] for row in rows[1:]] == [[f"{ev['time']:.6f}", ev["event"]]
                                             for ev in log.events]


def test_a_cold_and_a_warm_build_give_the_golden_run():
    # the first load and build after clearing the memos computes what the
    # second reuses: the scenario, its lifts, the plants, the library and
    # the obstacle field
    memos = (lti._bilinear, lti._shipped_library, scenario._shipped, controller.lift,
             obstacle._field)
    for name in ("moving_leader_compare", "yaw_sync_pair", "cluttered_course"):
        for memo in memos:
            memo.cache_clear()
        texts, loaded = [], []
        for warm in (False, True):
            misses = [memo.cache_info().misses for memo in memos]
            loaded.append(scenario.load_scenario(name))
            log = sim.Simulator(loaded[-1]).run()
            texts.append(log.trajectory_csv() + log.summary_json())
            missed = [memo.cache_info().misses > m for memo, m in zip(memos, misses)]
            assert missed == [not warm] * len(memos)
        assert loaded[0] is loaded[1]
        assert texts[0] == texts[1]
        assert digest(texts[0]) == GOLDEN[name][3]
    scn = scenario.load_scenario("moving_leader_compare")
    assert scn.noise_std > 0 and scn.control.command_delay_steps > 0
    assert scenario.load_scenario("yaw_sync_pair").yaw_control is not None


def test_equal_courses_share_one_read_only_field():
    # scenarios built apart with equal polygons, as tuples or as arrays,
    # get the same field, and no run can write to it
    scn = scenario.load_scenario("cluttered_course")
    field = sim.Simulator(scn).obstacles
    for other in (replace(scn, seed=3),
                  replace(scn, obstacles=[np.array(p) for p in scn.obstacles])):
        assert sim.Simulator(other).obstacles is field
    assert isinstance(field.polygons, tuple) and isinstance(field.circles, tuple)
    for values in field.polygons:
        assert not values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        field.polygons[0][0, 0] = 0.0
    # the wrap circles are frozen, their centres float pairs
    with pytest.raises(dataclasses.FrozenInstanceError):
        field.circles[0].radius = 0.0
    assert all(isinstance(c.center, tuple) for c in field.circles)
    # the float copies the step reads are tuples all the way down
    for copies in (field.circle_floats, field.points, field.gates, field.sides):
        assert isinstance(copies, tuple) and all(isinstance(c, tuple) for c in copies)


def test_a_polygon_that_differs_only_in_the_sign_of_a_zero_gets_its_own_field():
    scn = scenario.load_scenario("single_obstacle_line")
    triangle = ((0.0, 5.0), (50.0, 5.0), (50.0, 55.0))
    signed = ((-0.0, 5.0), *triangle[1:])
    assert triangle == signed and hash(triangle) == hash(signed)
    plus, minus = (sim.Simulator(replace(scn, obstacles=(p,))).obstacles
                   for p in (triangle, signed))
    assert plus is not minus
    assert [bool(np.signbit(f.polygons[0][0, 0])) for f in (plus, minus)] == [False, True]
    assert [math.copysign(1.0, f.points[0][0][0]) for f in (plus, minus)] == [1.0, -1.0]
    assert sim.Simulator(replace(scn, obstacles=(signed,))).obstacles is minus


# shifts of every start, waypoint and obstacle (cm), and how far a shifted
# run's positions may stray from the run's plus the shift (4.2e-13 cm seen)
SHIFTS = [(1024.0, -512.0), (333.3, 77.7)]
SHIFT_TOLERANCE_CM = 1e-9


@pytest.mark.parametrize("name", sorted(OBSTACLE_SCENARIOS))
def test_a_shifted_obstacle_run_is_the_run_shifted(name):
    # the team plans only on relative distances, so moving the whole course
    # moves the run: the same events at the same times, the positions
    # shifted to rounding; this pins every rounding margin away from the
    # origin
    scn = scenario.load_scenario(name)
    base = sim.Simulator(scn).run()
    for shift in SHIFTS:
        moved = replace(
            scn, agents=tuple(replace(a, start=tuple(np.add(a.start, shift)))
                              for a in scn.agents),
            waypoints=tuple(tuple(np.add(w, shift)) for w in scn.waypoints),
            obstacles=tuple(np.add(p, shift) for p in scn.obstacles))
        log = sim.Simulator(moved).run()
        assert log.summary["status"] == base.summary["status"]
        assert ([(ev["event"], ev["time"]) for ev in log.events]
                == [(ev["event"], ev["time"]) for ev in base.events])
        assert log.positions.shape == base.positions.shape
        assert np.abs(log.positions - shift - base.positions).max() <= SHIFT_TOLERANCE_CM


@pytest.mark.parametrize("name", ["triangle_rect_patrol", "rect_varying_formation",
                                  "single_obstacle_line"])
def test_runs_converge_as_the_step_shrinks(name):
    # at dt 0.02, 0.01 and 0.005 a run ends the same way, and its final
    # positions approach the finest run's as dt halves
    runs = {dt: sim.run_scenario(name, dt=dt).summary for dt in (0.02, 0.01, 0.005)}
    assert len({(s["status"], s["waypoints_completed"]) for s in runs.values()}) == 1
    finest = np.array(runs[0.005]["final_positions_m"])
    gap_cm = {dt: 100.0 * np.linalg.norm(np.array(runs[dt]["final_positions_m"])
                                         - finest, axis=1).max()
              for dt in (0.02, 0.01)}
    assert gap_cm[0.01] < gap_cm[0.02]
    assert gap_cm[0.01] < 1.0


def test_offset_switch_keeps_the_reference_glide():
    # moving_leader_compare cruises to its waypoint on a slewed reference;
    # an offset switch must not cancel that slew
    simulator = sim.Simulator(scenario.load_scenario("moving_leader_compare"))
    slew = simulator.ref_slew
    assert slew is not None
    now = 0.5
    on_glide = simulator._reference_point(now)
    simulator._switch_offsets([v + 40.0 for v in simulator.active_offsets], now,
                              kind="avoidance")
    assert simulator.transition is not None
    assert simulator.ref_slew is slew
    assert np.array_equal(simulator._reference_point(now), on_glide)


def pair_bits(pair) -> bytes:
    """The bits of an (x, y) pair of Python floats."""
    assert [type(v) for v in pair] == [float, float]
    return struct.pack("2d", *pair)


def test_reference_point_leaves_the_landed_slew_in_place():
    scn = scenario.load_scenario("moving_leader_compare")
    simulator = sim.Simulator(scn)
    slew = simulator.ref_slew
    waypoint = np.asarray(scn.waypoints[0], dtype=float)
    # long after the cruise has landed the reference is the waypoint, and
    # reading it changes no state
    assert pair_bits(simulator._reference_point(scn.duration * 10)) == waypoint.tobytes()
    assert simulator.ref_slew is slew
    assert pair_bits(simulator._reference_point(1.0)) != waypoint.tobytes()


def test_a_glide_back_in_flight_lands_on_the_next_waypoint():
    # cluttered_course declares neither a glide nor a cruise, so reaching a
    # waypoint keeps the avoidance glide-back in flight; it must ease on to
    # the next waypoint, not finish on the reached one and step from there
    scn = scenario.load_scenario("cluttered_course")
    simulator = sim.Simulator(scn)
    assert simulator.ref_slew is None and len(scn.waypoints) > 1
    start, now = 2.0, 2.5
    simulator.ref_slew = sim.Slew(simulator._reference_point(start),
                                  simulator.waypoints[0], start,
                                  glide_s=simulator._phase_duration())
    origin, glide_s = simulator.ref_slew.origin, simulator.ref_slew.glide_s
    simulator._leave_vertex(now)
    following = np.asarray(scn.waypoints[1], dtype=float)
    for t in (now, start + 0.5 * glide_s, start + 0.99 * glide_s):
        want = origin + sim._ease((t - start) / glide_s) * (following - origin)
        assert pair_bits(simulator._reference_point(t)) == want.tobytes()
    assert pair_bits(simulator._reference_point(start + glide_s)) == following.tobytes()


def numpy_point(slew: sim.Slew, now: float) -> np.ndarray | None:
    """`Slew.point` as it was on numpy arrays: the oracle of the float pair."""
    origin = np.array(slew.origin)
    leg = np.array(slew.destination) - origin
    elapsed = now - slew.start
    if slew.speed <= 0:
        if elapsed >= slew.glide_s:
            return None
        return origin + sim._ease(elapsed / slew.glide_s) * leg
    distance, speed, ease = float(np.hypot(*leg)), slew.speed, slew.ease_s
    if distance <= 1e-9:
        return None
    if distance <= speed * ease:
        total = 2.0 * ease
        if elapsed >= total:
            return None
        return origin + sim._ease(elapsed / total) * leg
    total = 2.0 * ease + (distance - speed * ease) / speed
    if elapsed >= total:
        return None
    if elapsed < ease:
        u = elapsed / ease
        arc = speed * ease * (u ** 3) * (1.0 - 0.5 * u)
    elif elapsed <= total - ease:
        arc = 0.5 * speed * ease + speed * (elapsed - ease)
    else:
        u = (total - elapsed) / ease
        arc = distance - speed * ease * (u ** 3) * (1.0 - 0.5 * u)
    return origin + (arc / distance) * leg


coordinates = st.one_of(st.floats(-1e4, 1e4), st.just(-0.0))


@pytest.mark.parametrize("profile", ["glide", "short leg", "cruise"])
@given(ends=st.lists(coordinates, min_size=4, max_size=4), start=st.floats(0.0, 100.0),
       seconds=st.floats(0.01, 10.0), ratio=st.floats(0.05, 4.0))
@settings(max_examples=100, deadline=None)
def test_slew_point_equals_the_numpy_point_bit_for_bit(profile, ends, start, seconds, ratio):
    # on every branch, before, along and after the profile: the leg too
    # short to reach cruise speed has speed * ease >= distance
    origin, destination = ends[:2], ends[2:]
    distance = float(np.hypot(ends[2] - ends[0], ends[3] - ends[1]))
    if profile == "glide":
        slew = sim.Slew(origin, destination, start, glide_s=seconds)
        span = seconds
    else:
        ratio = min(ratio, 0.9) if profile == "short leg" else max(ratio, 1.1)
        speed = max(distance, 1e-3) / (seconds * ratio)
        if distance > 1e-3:
            assert (distance <= speed * seconds) == (profile == "short leg")
        slew = sim.Slew(origin, destination, start, speed=speed, ease_s=seconds)
        span = 2.0 * seconds + distance / speed
    for u in np.linspace(-0.05, 1.05, 23).tolist():
        got, want = slew.point(start + u * span), numpy_point(slew, start + u * span)
        assert (got is None) == (want is None)
        if got is not None:
            assert pair_bits(got) == want.tobytes()


def dot_beyond(position, target, radius: float) -> bool:
    """The waypoint radius test as it was on arrays, with BLAS's dot."""
    d = np.asarray(position, dtype=float) - np.asarray(target, dtype=float)
    return math.sqrt(d.dot(d)) > radius


def nudged(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


@given(target=st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=2),
       radius=st.floats(1e-3, 1e3), angle=st.floats(0.0, 2.0 * math.pi),
       stretch=st.sampled_from([0.0, 1e-9, -1e-9, 1e-7, -1e-7, 1e-3, -1e-3, 0.5, -0.5]),
       ulps=st.lists(st.integers(-8, 8), min_size=2, max_size=2))
@settings(max_examples=500, deadline=None)
def test_the_waypoint_radius_test_on_floats_equals_the_dot_test(target, radius, angle,
                                                               stretch, ulps):
    # points a few ulps off the circle, and off it by relative stretches on
    # both sides of the rounding band, decide as the dot decides
    (tx, ty), reach = target, radius * (1.0 + stretch)
    x = nudged(tx + reach * math.cos(angle), ulps[0])
    y = nudged(ty + reach * math.sin(angle), ulps[1])
    assert sim._beyond(x - tx, y - ty, radius) == dot_beyond((x, y), target, radius)


def test_the_waypoint_radius_test_counts_nan_reached_and_inf_beyond():
    for x, beyond in ((math.nan, False), (math.inf, True), (-math.inf, True)):
        for position in ((x, 2.0), (2.0, x)):
            d = np.subtract(position, (1.0, 0.0)).tolist()
            assert dot_beyond(position, (1.0, 0.0), 10.0) is beyond
            assert sim._beyond(*d, 10.0) is beyond


def test_observe_wraps_every_sensed_polygon_whole(monkeypatch):
    # a polygon counts as sensed while part of it lies inside some robot's
    # footprint, and its circle wraps the whole polygon, not the sensed part
    scn = scenario.load_scenario("single_obstacle_line")
    reach = obstacle.FOV / 2.0
    square = np.array([[-18.0, -18.0], [18.0, -18.0], [18.0, 18.0], [-18.0, 18.0]])
    # a long wall whose near edge crosses the footprint with every vertex
    # outside it, and a box inside the gate (centre within reach plus its
    # wrap radius) whose near face stays 4 cm beyond the footprint
    wall = np.array([[-3.0 * reach, reach - 10.0], [3.0 * reach, reach - 10.0],
                     [3.0 * reach, reach + 30.0], [-3.0 * reach, reach + 30.0]])
    polygons = (square + [0.0, reach - 5.0], square + [4.0 * reach, 0.0],
                wall, square + [reach + 22.0, 0.0])
    simulator = sim.Simulator(replace(scn, obstacles=polygons))
    simulator.loop.ring.append([0.0] * 2 * simulator.n)
    settled, clipped = {}, []
    settle, clip = obstacle.ObstacleField.settle, obstacle.clip_polygon_to_disc

    def recording_settle(self, i, vx, vy, margin):
        hit, slack = settle(self, i, vx, vy, margin)
        settled.setdefault(i, set()).add(hit)
        return hit, slack

    def recording_clip(*args):
        clipped.append(args)
        return clip(*args)

    monkeypatch.setattr(obstacle.ObstacleField, "settle", recording_settle)
    monkeypatch.setattr(obstacle, "clip_polygon_to_disc", recording_clip)
    seen = simulator._observe()
    assert [circle.members for circle in seen] == [(0,), (2,)]
    assert seen[0].radius == pytest.approx(18.0 * np.sqrt(2.0))
    assert seen[0].center == pytest.approx((0.0, reach - 5.0))
    # every robot passes the gates of all but the far square: the square's
    # vertex and the wall's near edge inside the footprint settle them by
    # `near`, the box's hull beyond it by `apart`, and nothing is clipped
    assert settled == {0: {True}, 2: {True}, 3: {False}}
    assert clipped == []


def test_summary_of_a_run_that_logs_no_step_is_json():
    log = sim.run_scenario("single_obstacle_line", duration=0.005)
    assert len(log.times) == 0

    def reject(constant):
        raise ValueError(f"summary holds {constant}")

    summary = json.loads(log.summary_json(), parse_constant=reject)
    assert summary["min_obstacle_clearance_cm"] is None


def test_a_run_loads_no_scipy():
    # in a new interpreter, since tests/test_lti.py loads scipy into this
    # one as its oracle; yaw_sync_pair realizes both plant kinds
    code = ("import sys; from niformation import sim; "
            "sim.run_scenario('yaw_sync_pair', duration=1.0); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = [str(Path(sim.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("override, path", [({"duration": -1.0}, "duration"),
                                            ({"noise_std": -1.0}, "noise_std")])
def test_run_scenario_rejects_an_override_out_of_bounds_by_name(override, path):
    with pytest.raises(scenario.ScenarioError, match=f"^{path}: must be "):
        sim.run_scenario("moving_leader_compare", **override)


def test_a_run_whose_plants_go_nan_diverges_with_a_json_summary():
    # a NaN position is outside the divergence box, and every non-finite
    # number in the summary is written as null
    scn = scenario.load_scenario("single_obstacle_line")
    simulator = sim.Simulator(replace(scn, duration=1.0))
    simulator.loop.plants.state[:] = np.nan
    log = simulator.run()
    assert log.summary["status"] == sim.STATUS_DIVERGED
    assert [ev["event"] for ev in log.events] == ["divergence"]
    assert len(log.times) == 1

    def reject(constant):
        raise ValueError(f"summary holds {constant}")

    summary = json.loads(log.summary_json(), parse_constant=reject)
    assert summary == log.summary
    assert summary["final_positions_m"] == [[None, None]] * simulator.n
    assert summary["min_obstacle_clearance_cm"] is None
    # the NaN offsets reach the largest offset error, taken on floats
    assert summary["final_offset_error_cm"] is None


def test_an_overflowing_run_diverges_without_a_warning():
    # noise_std 1e308 throws the robots about 1e308 cm off in the first
    # step, far outside the divergence box: the run diverges there, and
    # nothing it computes on the way overflows with a warning
    scn = replace(scenario.load_scenario("yaw_sync_pair"), noise_std=1e308, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = sim.Simulator(scn).run().summary
    assert summary["status"] == sim.STATUS_DIVERGED
    assert summary["final_offset_error_cm"] is None


@pytest.mark.parametrize("noise_std", [1e160, 1e200, 1e308])
@pytest.mark.parametrize("name", sorted(OBSTACLE_SCENARIOS))
def test_a_far_flung_run_among_obstacles_diverges_without_a_warning(name, noise_std):
    # noise this large throws the team far off in the first steps: its
    # distances to the obstacles overflow to inf on floats, silently, and
    # the run ends diverged with a JSON summary
    for seed in (0, 1):
        scn = replace(scenario.load_scenario(name), noise_std=noise_std, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log = sim.Simulator(scn).run()
            summary = json.loads(log.summary_json())
        assert summary["status"] == log.summary["status"] == sim.STATUS_DIVERGED
        assert "divergence" in [ev["event"] for ev in log.events]


@given(name=st.sampled_from(sorted(OBSTACLE_SCENARIOS)), data=st.data())
@settings(max_examples=100, deadline=None)
def test_the_box_on_floats_decides_and_sizes_as_the_arrays_did(name, data):
    # the box and the first robot outside it (a NaN is never inside) are
    # the former array code's
    simulator = sim.Simulator(scenario.load_scenario(name))
    cloud = np.vstack([np.reshape(simulator.loop.start, (-1, 2)), simulator.waypoints,
                       np.zeros((0, 2)),
                       *simulator.obstacles.polygons])
    margin = max((abs(v) for ph in simulator.phase_offsets for v in ph), default=0.0) + 100.0
    low, high = cloud.min(axis=0) - margin, cloud.max(axis=0) + margin
    assert float_bits(simulator.box_low) == float_bits(low)
    assert float_bits(simulator.box_high) == float_bits(high)

    def coordinate(axis):
        face = data.draw(st.sampled_from([low[axis], high[axis]]))
        return data.draw(st.one_of(
            st.floats(low[axis] - 50.0, high[axis] + 50.0), SPECIALS,
            st.sampled_from([face, np.nextafter(face, 0.0), np.nextafter(face, np.inf),
                             np.nextafter(face, -np.inf)])))

    team = [float(coordinate(k % 2)) for k in range(2 * simulator.n)]
    simulator.loop.ring.append(team)
    positions = np.reshape(team, (-1, 2))
    faces = np.minimum(positions - low, high - positions).min(axis=1)
    inside = bool((faces >= 0.0).all())
    assert simulator._check_safety(0.0) == inside
    if inside:
        assert simulator.status == sim.STATUS_DURATION and simulator.events == []
    else:
        assert simulator.status == sim.STATUS_DIVERGED
        assert simulator.events == [{"time": 0.0, "event": "divergence",
                                     "agent": int(np.argmin(faces >= 0.0)) + 1}]


def test_an_obstacle_free_run_never_spends_the_budget():
    # every budget row is an obstacle decision: a run without obstacles
    # leaves the budget as it was built, its anchor at the loop's start
    simulator = sim.Simulator(scenario.load_scenario("moving_leader_compare"))
    assert simulator.run().summary["status"] == "completed"
    assert simulator.budget.anchor == np.reshape(simulator.loop.start, (-1, 2)).tolist()
    assert simulator.budget.moved2 is None and all(simulator.budget.stale)


def test_only_a_noisy_loop_has_a_generator():
    # the noise is the generator's only reader
    for name in sorted(set(GOLDEN) - set(MODE_RUNS)):
        scn = scenario.load_scenario(name)
        assert (sim.Loop(scn).plants.rng is None) == (scn.noise_std == 0.0)


def test_a_nan_on_any_edge_is_the_largest_offset_error():
    # as numpy's max did: a NaN residual wins wherever it sits
    simulator = sim.Simulator(scenario.load_scenario("rect_varying_formation"))
    for tail in (1, 2):   # the tail of the first edge, then of the last
        positions = list(simulator.loop.start)
        positions[2 * tail + 1] = math.nan
        simulator.loop.ring.append(positions)
        assert math.isnan(simulator._offset_error())
        assert simulator._summary(0.0)["final_offset_error_cm"] is None


def test_a_run_cut_mid_transition_logs_it_interrupted():
    # rect_varying_formation starts its first waypoint transition at 22.1 s;
    # a run that ends 0.5 s later closes it as interrupted
    log = sim.run_scenario("rect_varying_formation", duration=22.6)
    assert log.summary["status"] == sim.STATUS_DURATION
    assert [ev["time"] for ev in log.events
            if ev["event"] == "transition_start"] == [pytest.approx(22.1)]
    last = log.events[-1]
    assert last["event"] == "transition_interrupted" and last["kind"] == "waypoint"
    assert last["time"] == pytest.approx(22.6)
    assert log.summary["transitions"][-1]["status"] == "interrupted"


@pytest.mark.parametrize("inward, status", [(20.0, sim.STATUS_UNSUPPORTED),
                                            (40.0, sim.STATUS_COLLISION)])
def test_a_narrowed_corridor_ends_the_run(inward, status):
    # corridor_squeeze with each wall moved inward: at 20 cm the gap only
    # admits single file, which is not planned; at 40 cm the squeeze is
    # planned and a robot touches a wall
    scn = scenario.load_scenario("corridor_squeeze")
    left, right = scn.obstacles
    walls = (np.add(left, [inward, 0.0]), np.add(right, [-inward, 0.0]))
    log = sim.Simulator(replace(scn, obstacles=walls)).run()
    assert log.summary["status"] == status
    names = [ev["event"] for ev in log.events]
    if status == sim.STATUS_UNSUPPORTED:
        assert names[-1] == "unsupported_maneuver"
        assert log.events[-1]["reason"].startswith(
            "gap 99.3 cm only admits single-file passage")
    else:
        # the squeeze still in flight closes after the contact
        assert names[-2:] == ["collision", "transition_interrupted"]
        assert log.events[-2]["clearance_cm"] < 0.0
        assert log.summary["min_obstacle_clearance_cm"] < 0.0


def test_a_dwell_that_never_settles_times_out_into_the_pending_offsets():
    # a dwell waits for the team to settle; a team that keeps moving starts
    # the waypoint transition to the schedule's offsets anyway once
    # SETTLE_TIMEOUT_S has passed, and logs the timeout first
    scn = scenario.load_scenario("rect_varying_formation")
    simulator = sim.Simulator(scn)
    start, target = 3.0, [v + 40.0 for v in simulator.schedule_offsets]
    simulator.schedule_offsets, simulator.pending_since = target, start
    simulator.loop.velocities = [2.0 * sim.SETTLE_SPEED_CM_S] * (2 * simulator.n)
    now = start
    while now - start <= sim.SETTLE_TIMEOUT_S:
        simulator._update_settle(now)
        assert simulator.events == [] and simulator.transition is None
        assert simulator.settle_ok_since is None
        now += scn.dt
    simulator._update_settle(now)
    assert [(ev["time"], ev["event"]) for ev in simulator.events] == [
        (now, "settle_timeout"), (now, "transition_start")]
    assert simulator.events[-1]["kind"] == "waypoint"
    assert simulator.pending_since is None
    assert np.array_equal(simulator.transition.target_offsets, target)
    assert np.array_equal(simulator.active_offsets, target)


def test_the_reference_point_is_computed_once_for_its_key(monkeypatch):
    # moving_leader_compare cruises on a slew: its point is computed again
    # only for a new time, slew or target (or avoidance event)
    calls, point = [], sim.Slew.point

    def counting_point(slew, now):
        calls.append(now)
        return point(slew, now)

    monkeypatch.setattr(sim.Slew, "point", counting_point)
    simulator = sim.Simulator(scenario.load_scenario("moving_leader_compare"))
    now = 0.5
    first = simulator._reference_point(now)
    assert simulator._reference_point(now) is first and calls == [now]
    simulator.ref_slew = replace(simulator.ref_slew)   # an equal slew is a new key
    assert simulator._reference_point(now) == first and len(calls) == 2
    simulator.target_idx += 1
    assert simulator._reference_point(now) == first and len(calls) == 3
    assert simulator._reference_point(0.75) != first and len(calls) == 4


def same_bits(got: list[float], want: np.ndarray) -> bool:
    """Equal bits in every place, where any two NaNs count as equal: a NaN's
    sign may differ from numpy's where two NaNs meet (`controller`)."""
    return len(got) == want.size and all(
        (g != g and w != w) or struct.pack("d", g) == struct.pack("d", w)
        for g, w in zip(got, want.tolist()))


# an offset or a displacement: plain, a signed zero, NaN or infinite
SPECIAL = st.one_of(st.floats(-300.0, 300.0),
                    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]))


@given(start=st.lists(SPECIAL, min_size=4, max_size=4),
       target=st.lists(SPECIAL, min_size=4, max_size=4),
       duration=st.floats(0.5, 5.0), elapsed=st.one_of(st.floats(0.0, 6.0), st.just(0.0)))
@settings(max_examples=300, deadline=None)
def test_the_offset_ramp_equals_the_numpy_ramp(start, target, duration, elapsed):
    # an override's offsets ease from its start to its target coordinate by
    # coordinate, as `start + _ease(frac) * (target - start)` did on arrays
    simulator = sim.Simulator(scenario.load_scenario("rect_varying_formation"))
    for kind in ("avoidance", "restore"):
        simulator.transition = formation.TransitionState(2.0, duration, (2, 3), start, target,
                                                         label=kind)
        now = 2.0 + elapsed
        simulator._apply_offset_ramp(now)
        frac = min(1.0, (now - 2.0) / duration)
        with np.errstate(invalid="ignore"):   # inf - inf and 0 * inf are NaN
            first, last = np.array(start), np.array(target)
            want = first + sim._ease(frac) * (last - first)
        assert same_bits(simulator.active_offsets, want)


def settle_scenario(edges: bool) -> scenario.Scenario:
    """rect_varying_formation, or its head alone with no edge to settle."""
    scn = scenario.load_scenario("rect_varying_formation")
    if edges:
        return scn
    return replace(scn, agents=scn.agents[:1], topology=graph.build_topology(1, [], [1]),
                   gains=replace(scn.gains, consensus=()),
                   formation=scenario.FormationSpec((scenario.FormationPhase(0, ()),)))


def numpy_settled(simulator: sim.Simulator) -> bool:
    """The settle gate as it was on arrays: the largest speed and the
    largest per-axis offset residual within their bounds."""
    top, positions = simulator.scn.topology, np.reshape(simulator.loop.ring[-1], (-1, 2))
    speed = float(np.linalg.norm(np.reshape(simulator.loop.velocities, (simulator.n, 2)),
                                 axis=1).max())
    with np.errstate(invalid="ignore"):
        residual = np.abs(positions[top.tails] - positions[top.heads]
                          - np.reshape(simulator.active_offsets, (-1, 2)))
    return (speed <= sim.SETTLE_SPEED_CM_S
            and (residual.size == 0 or float(residual.max()) <= sim.SETTLE_BAND_CM))


# an agent's velocity and an edge's residual: plain, on the speed bound
# ((1.8, 2.4) too: its squares sum to 9.0) or the band, just past it, or not
# finite
VELOCITIES = st.one_of(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), st.sampled_from(
    [(3.0, 0.0), (-0.0, -3.0), (1.8, 2.4), (math.nextafter(3.0, 4.0), 0.0),
     (math.nan, 0.0), (0.0, math.inf)]))
RESIDUALS = st.one_of(st.tuples(st.floats(-2.6, 2.6), st.floats(-2.6, 2.6)), st.sampled_from(
    [(2.5, -2.5), (-0.0, math.nextafter(2.5, 3.0)), (math.nan, 0.0), (1.0, -math.inf)]))


@pytest.mark.parametrize("edges", [True, False])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_the_settle_gate_equals_the_numpy_gate(edges, data):
    # a dwell counts as settled while every agent is slow and every edge is
    # inside the band, NaN never: as the maxima decided it on arrays, with
    # no edge at all too
    simulator = sim.Simulator(settle_scenario(edges))
    n, n_edges = simulator.n, simulator.scn.topology.n_edges
    moved = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=2 * n, max_size=2 * n))
    positions = [p + d for p, d in zip(simulator.loop.start, moved)]
    simulator.loop.ring.append(positions)
    simulator.loop.velocities = [v for pair in data.draw(st.lists(VELOCITIES, min_size=n, max_size=n))
                            for v in pair]
    residual = [r for pair in data.draw(st.lists(RESIDUALS, min_size=n_edges,
                                                 max_size=n_edges)) for r in pair]
    relative = [positions[2 * tail + axis] - positions[2 * head + axis]
                for head, tail in simulator.loop.planar_lift.pairs for axis in (0, 1)]
    simulator.active_offsets = [d - r for d, r in zip(relative, residual)]
    now = simulator.pending_since = 5.0
    simulator._update_settle(now)
    assert simulator.events == [] and simulator.transition is None
    assert (simulator.settle_ok_since == now) == numpy_settled(simulator)


# per obstacle course: the steps that observe, the changes of the sensed
# circles (one grouping each), the full sensing decisions and the clips they
# make in a run
SENSING_COUNTS = {"cluttered_course": (1781, 22, 132, 9), "corridor_squeeze": (467, 4, 29, 0),
                  "single_obstacle_line": (860, 2, 28, 0)}
# the shipped polygons moved across the courses (cm)
ACROSS = [(-70.0, 0.0), (-30.0, 0.0), (30.0, 0.0), (70.0, 0.0)]


def held_sensing_recorder(monkeypatch, observed):
    """`Simulator._observe` that checks each held decision against a fresh
    one (its clips uncounted) and appends the sensed members to
    `observed`."""
    sensed, clip, observe = (obstacle.ObstacleField.sensed, obstacle.clip_polygon_to_disc,
                             sim.Simulator._observe)

    def recording_observe(self):
        circles = observe(self)
        with monkeypatch.context() as fresh:
            fresh.setattr(obstacle, "clip_polygon_to_disc", clip)
            assert circles == sensed(self.obstacles, self.loop.ring[-1])[0]
        observed.append(tuple(c.members for c in circles))
        return circles

    return recording_observe


def test_sensing_is_re_decided_only_when_a_robot_may_have_changed_it(monkeypatch):
    # on each course the sensed circles change a few dozen times at most; a
    # full decision must stay rare, grouping must run only on a change, and
    # only the pairs at the footprint's rim are clipped
    observed, counts = [], {}
    sensed, group_all = obstacle.ObstacleField.sensed, obstacle.group_all
    clip = obstacle.clip_polygon_to_disc

    def counting_sensed(self, viewers):
        counts["sensed"] += 1
        return sensed(self, viewers)

    def counting_group_all(*args, **kwargs):
        counts["group_all"] += 1
        return group_all(*args, **kwargs)

    def counting_clip(*args):
        counts["clips"] += 1
        return clip(*args)

    recording_observe = held_sensing_recorder(monkeypatch, observed)
    monkeypatch.setattr(obstacle.ObstacleField, "sensed", counting_sensed)
    monkeypatch.setattr(obstacle, "group_all", counting_group_all)
    monkeypatch.setattr(obstacle, "clip_polygon_to_disc", counting_clip)
    monkeypatch.setattr(sim.Simulator, "_observe", recording_observe)
    for name, (steps, groupings, decisions, clips) in sorted(SENSING_COUNTS.items()):
        observed.clear()
        counts.update(sensed=0, group_all=0, clips=0)
        assert sim.run_scenario(name).summary["status"] == "completed"
        changes = sum(now != before for before, now in zip([()] + observed, observed))
        assert len(observed) == steps
        assert counts["group_all"] == changes == groupings
        assert (counts["sensed"], counts["clips"]) == (decisions, clips)
        if name == "cluttered_course":   # the most full decisions of the three
            assert counts["sensed"] <= 0.075 * len(observed)


@pytest.mark.parametrize("name", sorted(OBSTACLE_SCENARIOS))
def test_a_held_sensing_decision_is_a_fresh_one_off_the_shipped_layouts(monkeypatch, name):
    # the polygons moved across the course put other edges and corners at
    # the footprints' rims along the run: at every step that observes, the
    # held decision is still the one a fresh decision gives, however the
    # run ends
    observed = []
    monkeypatch.setattr(sim.Simulator, "_observe", held_sensing_recorder(monkeypatch, observed))
    scn = scenario.load_scenario(name)
    for shift in ACROSS:
        observed.clear()
        sim.Simulator(replace(scn, obstacles=tuple(np.add(p, shift) for p in scn.obstacles))).run()
        assert observed


@pytest.mark.parametrize("name", sorted(OBSTACLE_SCENARIOS))
def test_planning_is_skipped_only_where_detect_mode_plans_nothing(monkeypatch, name):
    # an avoidance-free step with circles sensed plans only when some
    # grouped circle is not behind the head; on a skipped step, whether
    # held or decided, a fresh `behind` holds and detect_mode, called
    # anyway, plans nothing.  On cluttered_course planning stays rare, and
    # the skip is mostly held rather than decided
    detect_mode, behind = obstacle.detect_mode, obstacle.behind
    sensed, group_all = obstacle.ObstacleField.sensed, obstacle.group_all
    update_avoidance = sim.Simulator._update_avoidance
    counts = {"sensed": 0, "planned": 0, "decided": 0}

    def counting_behind(*args):
        counts["decided"] += 1
        return behind(*args)

    def counting_detect_mode(*args, **kwargs):
        counts["planned"] += 1
        return detect_mode(*args, **kwargs)

    def checking_update_avoidance(self, now):
        planned, free = counts["planned"], self.avoidance is None
        update_avoidance(self, now)
        if not free or not self.grouped:
            return
        counts["sensed"] += 1
        # the grouped circles are those of the circles sensed now
        assert self.grouped == group_all(sensed(self.obstacles, self.loop.ring[-1])[0],
                                         2.0 * obstacle.ROBOT_RADIUS)
        centers = obstacle.circle_arrays(self.grouped)[0]
        if counts["planned"] == planned:
            reference = self._reference_point(now)
            positions = np.reshape(self.loop.ring[-1], (-1, 2))
            assert behind(centers, positions[self.master], reference)[0]
            assert detect_mode(positions, self._slave_targets(reference), self.master,
                               self.grouped, obstacle.FOV, obstacle.LOOK_AHEAD) is None

    monkeypatch.setattr(obstacle, "behind", counting_behind)
    monkeypatch.setattr(obstacle, "detect_mode", counting_detect_mode)
    monkeypatch.setattr(sim.Simulator, "_update_avoidance", checking_update_avoidance)
    assert sim.run_scenario(name).summary["status"] == "completed"
    assert 0 < counts["planned"] < counts["decided"] < counts["sensed"]
    if name == "cluttered_course":
        assert counts["sensed"] == 913
        assert counts["planned"] <= 0.1 * counts["sensed"]
        assert counts["decided"] <= 0.2 * counts["sensed"]


def test_a_held_planning_skip_is_decided_again_once_the_reference_moves(monkeypatch):
    # the team stands 80 cm past the box while the reference point glides
    # from ahead of the head to behind the box: the skip, held while the
    # reference moves little, must give way to planning once the box is no
    # longer behind the head on its run to the reference
    detect_mode, behind = obstacle.detect_mode, obstacle.behind
    simulator = sim.Simulator(scenario.load_scenario("single_obstacle_line"))
    simulator.loop.ring.append([-100.0, 110.0, 0.0, 110.0, -200.0, 110.0])
    simulator.budget.spend(simulator.loop.ring[-1])
    simulator.ref_slew = sim.Slew(np.array([-100.0, 310.0]), np.array([-100.0, -290.0]),
                                  0.0, glide_s=10.0)
    calls = {"planned": 0, "decided": 0}

    def counting_behind(*args):
        calls["decided"] += 1
        return behind(*args)

    def counting_detect_mode(*args, **kwargs):
        calls["planned"] += 1

    monkeypatch.setattr(obstacle, "behind", counting_behind)
    monkeypatch.setattr(obstacle, "detect_mode", counting_detect_mode)
    skipped = []
    for now in np.arange(0.0, 10.0, 0.125):
        planned = calls["planned"]
        simulator._update_avoidance(now)
        skipped.append(calls["planned"] == planned)
        centers = obstacle.circle_arrays(simulator.grouped)[0]
        assert skipped[-1] == behind(centers, np.array(simulator.loop.ring[-1][:2]),
                                     simulator._reference_point(now))[0]
    assert 0 < skipped.count(True) < len(skipped)
    assert calls["decided"] < len(skipped)


@pytest.mark.parametrize("name", sorted(OBSTACLE_SCENARIOS))
def test_clearance_is_evaluated_only_when_a_robot_may_set_a_minimum(monkeypatch, name):
    # both running minima equal an evaluation at every step, bit for bit,
    # and on cluttered_course few of those evaluations are made
    running_clearance = obstacle.running_clearance
    update_metrics = sim.Simulator._update_metrics
    calls = {"made": 0, "per_step": 0}
    fresh = {"field": np.inf, "event": np.inf}

    def counting_running_clearance(*args):
        calls["made"] += 1
        return running_clearance(*args)

    def checking_update_metrics(self, now, offsets):
        update_metrics(self, now, offsets)
        calls["per_step"] += 1
        positions = np.reshape(self.loop.ring[-1], (-1, 2))
        fresh["field"] = min(fresh["field"], nearest(
            positions, *obstacle.circle_arrays(self.obstacles.circles))
            - obstacle.COLLISION_RADIUS)
        if self.avoidance is not None:
            calls["per_step"] += 1
            fresh["event"] = min(fresh["event"], nearest(
                positions, *obstacle.circle_arrays(self.avoidance.obstacles)))
        assert (np.float64(self.min_clearance).tobytes()
                == np.float64(fresh["field"]).tobytes())
        assert (np.float64(self.min_boundary_clearance).tobytes()
                == np.float64(fresh["event"]).tobytes())

    monkeypatch.setattr(obstacle, "running_clearance", counting_running_clearance)
    monkeypatch.setattr(sim.Simulator, "_update_metrics", checking_update_metrics)
    simulator = sim.Simulator(scenario.load_scenario(name))
    # a budget row left from other circles says nothing about an event's:
    # one that holds anywhere must be dropped when the event fires
    simulator.budget.renew(simulator.loop.ring[-1], sim.EVENT_MIN, np.inf)
    assert simulator.run().summary["status"] == "completed"
    assert calls["made"] < calls["per_step"]
    if name == "cluttered_course":
        assert calls["per_step"] == 3225
        assert calls["made"] <= 0.3 * calls["per_step"]


@pytest.mark.parametrize("name", sorted(OBSTACLE_SCENARIOS))
def test_event_end_is_the_former_split_decision_on_every_event_step(monkeypatch, name):
    # an event ends, whether its end is held or decided by `event_cleared`,
    # exactly when the former head test plus the simulator's per-robot test
    # would have ended it, on every step of every avoidance event; most
    # steps hold the decision
    event_cleared, update_avoidance = obstacle.event_cleared, sim.Simulator._update_avoidance
    decided, steps = [], []

    def checking_event_cleared(event, positions, master, fov, robot_radius):
        cleared, radius = event_cleared(event, positions, master, fov, robot_radius)
        assert cleared == old_event_end(event, positions, master, fov, robot_radius)
        assert (radius is None) == cleared
        decided.append(cleared)
        return cleared, radius

    def checking_update_avoidance(self, now):
        event = self.avoidance
        if event is None:
            return update_avoidance(self, now)
        ends = old_event_end(event, np.reshape(self.loop.ring[-1], (-1, 2)), self.master,
                             obstacle.FOV, obstacle.ROBOT_RADIUS)
        update_avoidance(self, now)
        assert (self.avoidance is None) == ends
        steps.append(ends)

    monkeypatch.setattr(obstacle, "event_cleared", checking_event_cleared)
    monkeypatch.setattr(sim.Simulator, "_update_avoidance", checking_update_avoidance)
    records = sim.Simulator(scenario.load_scenario(name)).run().summary["avoidance_events"]
    cleared = [r for r in records if r["cleared_time"] is not None]
    assert decided.count(True) == steps.count(True) == len(cleared) > 0
    assert len(cleared) < len(decided) < 0.1 * len(steps)


def per_cell_trajectory_csv(log: sim.RunLog) -> str:
    """The trajectory CSV formatted cell by cell, the oracle of the table."""
    def fmt(value):
        return f"{value:.6f}"

    n = log.positions.shape[1]
    cols = ["time"]
    for i in range(1, n + 1):
        cols += [f"a{i}_x_m", f"a{i}_y_m", f"a{i}_cmd_vx_mps",
                 f"a{i}_cmd_vy_mps", f"a{i}_yaw_rad", f"a{i}_cmd_yaw_radps"]
    cols += ["phase", "avoid_mode"]
    lines = [",".join(cols)]
    for k in range(len(log.times)):
        row = [fmt(log.times[k])]
        for i in range(n):
            row += [fmt(log.positions[k, i, 0] / 100.0),
                    fmt(log.positions[k, i, 1] / 100.0),
                    fmt(log.commands[k, i, 0] / 100.0),
                    fmt(log.commands[k, i, 1] / 100.0),
                    fmt(log.yaws[k, i]),
                    fmt(log.yaw_commands[k, i])]
        row += [str(int(log.phases[k])), str(int(log.avoid_modes[k]))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("steps", [0, 1, 40])
def test_trajectory_csv_equals_the_per_cell_format(steps):
    # signed zeros, negatives, values that round to -0.000000, and values
    # far beyond any arena, in every column
    rng = np.random.default_rng(steps)
    special = np.array([-0.0, 0.0, -1e-9, -4e-7, 5e-7, -123.4567895,
                        2.5e-7, 1e15, -3.7e12, 0.0000005])
    n = 3

    def draw(*shape):
        values = rng.choice(special, size=shape)
        return np.where(rng.random(shape) < 0.5, values,
                        rng.normal(0.0, 1e3, size=shape))

    log = sim.RunLog(
        times=draw(steps), positions=draw(steps, n, 2),
        commands=draw(steps, n, 2), yaws=draw(steps, n),
        yaw_commands=draw(steps, n),
        phases=rng.integers(-1, 4, size=steps),
        avoid_modes=rng.integers(0, 3, size=steps), events=[], summary={})
    assert log.trajectory_csv() == per_cell_trajectory_csv(log)


def test_write_puts_the_three_exports_in_the_directory(tmp_path):
    log = sim.run_scenario("cluttered_course", duration=0.1)
    assert log.events                     # avoid_enter at t = 0
    out = log.write(tmp_path / "run")
    assert out == tmp_path / "run"
    assert (out / "trajectory.csv").read_bytes() == log.trajectory_csv().encode()
    assert (out / "events.csv").read_bytes() == log.events_csv().encode()
    assert (out / "summary.json").read_bytes() == log.summary_json().encode()


def test_events_csv_quotes_a_detail_only_where_it_needs_it():
    # a comma, a double quote and a nested list read back unchanged through
    # csv.reader; a detail with none of them is written bare
    events = [{"time": 1.25, "event": "unsupported_maneuver",
               "reason": 'gap 3.5, "narrow"', "obstacles": [[0, 1], [2]],
               "first_entry": {"2": 0.5}, "clearance_cm": -0.0},
              {"time": 2.0, "event": "terminal", "waypoints": 1}]
    log = sim.RunLog(times=np.zeros(0), positions=np.zeros((0, 1, 2)),
                     commands=np.zeros((0, 1, 2)), yaws=np.zeros((0, 1)),
                     yaw_commands=np.zeros((0, 1)), phases=np.zeros(0, dtype=int),
                     avoid_modes=np.zeros(0, dtype=int), events=events, summary={})
    text = log.events_csv()
    assert list(csv.reader(io.StringIO(text))) == [
        ["time", "event", "detail"],
        ["1.250000", "unsupported_maneuver", 'reason=gap 3.5, "narrow" '
         'obstacles=[[0,1],[2]] first_entry={"2":0.5} clearance_cm=-0.000000'],
        ["2.000000", "terminal", "waypoints=1"]]
    assert text.splitlines()[2] == "2.000000,terminal,waypoints=1"


@pytest.mark.parametrize("window", [1, 5, 300])
@pytest.mark.parametrize("steps", [3, 120, 340])
def test_velocity_ring_equals_a_deque_of_positions(window, steps):
    # the finite-difference velocities over a deque of position copies, the
    # oracle of the ring of stacked floats, under random commands and noise
    scn = scenario.load_scenario("moving_leader_compare")
    scn = replace(scn, control=replace(scn.control, velocity_estimate_window=window))
    loop = sim.Loop(scn)
    history = deque([np.array(loop.start)], maxlen=window + 1)
    rng = np.random.default_rng(window + steps)
    for _ in range(steps):
        planar = rng.normal(0.0, 50.0, size=2 * loop.n).tolist()
        loop.advance(planar, [0.0] * loop.n)
        history.append(np.array(loop.ring[-1]))
        span = len(history) - 1
        want = (history[-1] - history[0]) / (span * scn.dt)
        assert np.array(loop.velocities).tobytes() == want.tobytes()


@pytest.mark.parametrize("name, mode", [("moving_leader_compare", "enhanced"),
                                        ("moving_leader_compare", "baseline"),
                                        ("yaw_sync_pair", "enhanced")])
def test_each_logged_step_calls_each_law_once_through_the_module(monkeypatch, name, mode):
    # per-layer timing wraps the laws by their `controller` attributes and
    # takes a step's time between planar calls: a law inlined into the
    # simulator, or called twice a step, would empty or skew those figures
    calls = Counter()
    for law in ("baseline_control", "enhanced_control", "yaw_consensus"):
        def counted(*args, _law=law, _call=getattr(controller, law), **kwargs):
            calls[_law] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(controller, law, counted)
    scn = scenario.load_scenario(name)
    log = sim.run_scenario(scn, mode=mode)
    steps = len(log.times)
    assert steps > 0 and calls[f"{mode}_control"] == steps
    assert sum(calls.values()) == steps * (1 if scn.yaw_control is None else 2)
    if scn.yaw_control is not None:
        assert calls["yaw_consensus"] == steps


@pytest.mark.parametrize("delay", [0, 1, 10])
@pytest.mark.parametrize("name", ["moving_leader_compare", "yaw_sync_pair"])
def test_the_delay_line_applies_each_command_delay_steps_later(monkeypatch, name, delay):
    # the loop, driven alone, applies at step k the commands its laws gave
    # at step k - delay, and zeros before step `delay`, and the planar bank
    # takes exactly the applied planar commands.  Once the first command is
    # applied no two steps give equal commands, so a line one step too long
    # or too short fails
    scn = scenario.load_scenario(name)
    scn = replace(scn, control=replace(scn.control, command_delay_steps=delay))
    given = {"planar": [], "yaw": []}
    for law, kind in (("baseline_control", "planar"), ("enhanced_control", "planar"),
                      ("yaw_consensus", "yaw")):
        def recording(*args, _kind=kind, _call=getattr(controller, law), **kwargs):
            given[_kind].append(_call(*args, **kwargs))
            return given[_kind][-1]
        monkeypatch.setattr(controller, law, recording)
    loop = sim.Loop(scn)
    bank_step, taken = loop.plants.step, []
    loop.plants.step = lambda u: taken.append(list(u)) or bank_step(u)
    offsets = [v for pair in scn.formation.phases[0].offsets for v in pair]
    steps = 3 * delay + 5
    applied = [loop.step(scn.waypoints[0], offsets, 1.0) for _ in range(steps)]
    if not given["yaw"]:   # no yaw control: the yaw commands are zeros
        given["yaw"] = [[0.0] * loop.n] * steps
    laws = list(zip(given["planar"], given["yaw"]))
    assert len(laws) == steps and len({repr(law) for law in laws[delay:]}) == steps - delay
    zeros = ([0.0] * (2 * loop.n), [0.0] * loop.n)
    assert applied == [zeros] * delay + laws[:steps - delay]
    assert taken == [planar for planar, _yaw in applied]


def test_the_velocity_ring_and_delay_line_are_sized_by_the_run():
    # a run never reads more than its steps back nor takes more than its
    # steps of commands from the delay line, so knobs far beyond a 10-step
    # run change nothing and allocate nothing large
    scn = replace(scenario.load_scenario("moving_leader_compare"), duration=0.2)

    def run_digest(knob):
        control = replace(scn.control, velocity_estimate_window=knob, command_delay_steps=knob)
        simulator = sim.Simulator(replace(scn, control=control))
        assert simulator.loop.ring.maxlen == 11 and len(simulator.loop.delay_line) == 10
        log = simulator.run()
        assert len(log.times) == 10
        return digest(log.trajectory_csv() + log.summary_json())

    assert run_digest(10 ** 13) == run_digest(10)


# ------------------------------------------- the declared console script

def entry_point():
    """The `[project.scripts]` target of `pyproject.toml`, imported."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    toml = pytest.importorskip("tomllib").loads(pyproject.read_text())
    target = toml["project"]["scripts"]["niformation"]
    module, _, name = target.partition(":")
    return getattr(importlib.import_module(module), name)


def test_inspect_reports_the_worst_boundary_approach(capsys):
    assert entry_point()(["inspect", "cluttered_course"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("=== cluttered_course: status=completed wp=2 t=50.06\n")
    assert "ev 26.08 avoid_enter {'mode': 2, 'sub_case': 2, 'obstacles': [[2], [3]]}" in out
    log = sim.run_scenario("cluttered_course")
    field = obstacle.ObstacleField(scenario.load_scenario("cluttered_course").obstacles, 0.0)
    worst = min(nearest(p, *obstacle.circle_arrays(field.circles)) for p in log.positions)
    assert worst == 29.333726053762845
    assert (f"worst boundary {worst:.3f} cm at t=32.40 s, agent 3, obstacle 2, "
            "pos=(-138.21, 229.55)\n") in out
    # the default window: 1.5 s either side at stride 15, each row with its
    # least boundary distance
    rows = [line for line in out.splitlines() if line.startswith("t=")]
    assert [line[2:8] for line in rows] == [f"{30.9 + 0.3 * k:6.2f}" for k in range(11)]
    assert rows[5].startswith("t= 32.40 ph=-1 av=2 a1=(  -99.27,  311.19) c=(    0.2,   80.0)")
    assert rows[5].endswith("a3=( -138.21,  229.55) c=(   13.5,   74.0) boundary= 29.33")


def test_inspect_of_a_run_without_obstacles_prints_no_window(capsys):
    assert entry_point()(["inspect", "yaw_sync_pair"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("=== yaw_sync_pair: status=completed wp=1 t=300.00\n")
    assert out.endswith("yaw_sync_pair: the run has no obstacles\n")


def test_sweep_prints_the_baseline_the_cell_and_the_ratio(capsys):
    assert entry_point()(["sweep", "--horizons", "22", "--windows", "300"]) == 0
    out = capsys.readouterr().out
    assert "baseline worst-case relative error: 21.70 cm\n" in out
    assert "      22     300      5.34   4.06\n" in out
    assert out.endswith("best: horizon=22 window=300 enhanced=5.34 ratio=4.06\n")


@pytest.mark.parametrize("argv, expected", [
    (["inspect", "huge_noise.yaml"],
     "=== yaw_sync_pair: status=diverged wp=1 t=0.02\n"
     "    min_clearance=None, boundary=None, final_offset_err=None\n"),
    (["sweep", "--scenario", "huge_noise.yaml", "--horizons", "22", "--windows", "300"],
     "baseline worst-case relative error: None cm\n\n"
     " horizon  window  enhanced  ratio\n"
     "      22     300      None   None\n\nbest: None\n"),
], ids=["inspect", "sweep"])
def test_a_diverged_run_prints_its_nulls_as_none(capsys, monkeypatch, tmp_path, argv,
                                                 expected):
    # yaw_sync_pair diverges in its first step at noise_std 1e308: its
    # summary's offset and relative errors are null
    monkeypatch.chdir(tmp_path)
    doc = {**DOCS["yaw_sync_pair"], "noise_std": 1e308, "seed": 1}
    (tmp_path / "huge_noise.yaml").write_text(yaml.safe_dump(doc))
    assert entry_point()(argv) == 0
    assert expected in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["inspect", "no_such_course"], "unknown scenario 'no_such_course'"),
    (["inspect", "missing.yaml"], "No such file or directory: 'missing.yaml'"),
    (["inspect", "cluttered_course", "--stride", "0"], "--stride must be at least 1"),
    (["sweep", "--scenario", "no_such_course"], "unknown scenario 'no_such_course'"),
    (["inspect", "cluttered_course", "--window", "5", "1"], "--window needs T0 <= T1"),
    (["inspect", "cluttered_course", "--window", "nan", "1"], "--window needs T0 <= T1"),
    (["inspect", "negative_seed.yaml"], "seed: must be nonnegative"),
    (["sweep", "--scenario", "negative_seed.yaml"], "seed: must be nonnegative"),
    (["inspect", "huge_duration.yaml"], "duration: must be finite"),
])
def test_bad_input_ends_with_one_error_line_and_status_2(capsys, monkeypatch, tmp_path,
                                                         argv, message):
    monkeypatch.chdir(tmp_path)
    doc = {**DOCS["moving_leader_compare"], "seed": -1}
    (tmp_path / "negative_seed.yaml").write_text(yaml.safe_dump(doc))
    # an integer too large for a float
    doc = {**DOCS["moving_leader_compare"], "duration": 10**400}
    (tmp_path / "huge_duration.yaml").write_text(yaml.safe_dump(doc))
    with pytest.raises(SystemExit) as stop:
        entry_point()(argv)
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    last = captured.err.splitlines()[-1]
    assert last.startswith("niformation: error: ") and message in last
