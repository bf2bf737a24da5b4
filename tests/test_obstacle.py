"""Obstacle geometry: observations, grouping, and maneuver planning."""

import dataclasses
import math
import struct
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from niformation import obstacle
from niformation.obstacle import (ObstacleCircle, ObstacleField,
                                  UnsupportedManeuver, behind, boundary_distances,
                                  circle_arrays, circle_floats,
                                  circle_from_observation,
                                  clip_polygon_to_disc, detect_mode,
                                  enclosing_circle, event_cleared, group_all,
                                  point_segment_distance,
                                  polygon_area_centroid, running_clearance)


def box(cx, cy, side):
    h = side / 2.0
    return np.array([[cx - h, cy - h], [cx + h, cy - h],
                     [cx + h, cy + h], [cx - h, cy + h]])


ROBOT_RADIUS = 32.0
ROBOT_DIAMETER = 64.0


# ------------------------------------------------------------ observations

def test_shoelace_of_unit_square():
    area, centroid = polygon_area_centroid([[0, 0], [1, 0], [1, 1], [0, 1]])
    assert area == pytest.approx(1.0)
    np.testing.assert_allclose(centroid, [0.5, 0.5])


def test_wrapping_a_box_gives_half_diagonal_radius():
    circle = circle_from_observation(box(10.0, 20.0, 36.0))
    np.testing.assert_allclose(circle.center, [10.0, 20.0])
    assert circle.radius == pytest.approx(18.0 * np.sqrt(2.0))
    big = circle_from_observation(box(-100.0, 30.0, 50.0))
    assert big.radius == pytest.approx(25.0 * np.sqrt(2.0))


def test_degenerate_observation_falls_back_to_vertex_mean():
    circle = circle_from_observation([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
    np.testing.assert_allclose(circle.center, [2.0, 0.0])
    assert circle.radius == pytest.approx(2.0)


def test_empty_observation_rejected():
    with pytest.raises(ValueError):
        circle_from_observation(np.zeros((0, 2)))


def test_clip_keeps_fully_contained_polygon():
    poly = box(0.0, 0.0, 10.0)
    clipped = clip_polygon_to_disc(poly, [0.0, 0.0], 100.0)
    area, _ = polygon_area_centroid(clipped)
    assert area == pytest.approx(100.0)


def test_clip_discards_far_polygon():
    clipped = clip_polygon_to_disc(box(500.0, 0.0, 10.0), [0.0, 0.0], 50.0)
    assert clipped.shape[0] == 0


def test_clip_of_large_square_approximates_the_disc():
    clipped = clip_polygon_to_disc(box(0.0, 0.0, 200.0), [0.0, 0.0], 50.0)
    area, _ = polygon_area_centroid(clipped)
    # area of the inscribed regular 64-gon of radius 50
    expected = 0.5 * 64 * 50.0**2 * np.sin(2.0 * np.pi / 64)
    assert area == pytest.approx(expected, rel=1e-6)


def test_clip_vertices_stay_inside_the_disc():
    clipped = clip_polygon_to_disc(box(30.0, 0.0, 80.0), [0.0, 0.0], 50.0)
    assert clipped.shape[0] >= 3
    assert np.all(np.linalg.norm(clipped, axis=1) <= 50.0 + 1e-9)


def test_partially_visible_obstacle_wraps_smaller():
    # crosses the edge of a 220 cm footprint at 110
    part = clip_polygon_to_disc(box(0.0, 105.0, 36.0), [0.0, 0.0], 110.0)
    assert part.shape[0] >= 3
    assert circle_from_observation(part).radius < 18.0 * np.sqrt(2.0)


# ---------------------------------------------------------------- grouping

def test_enclosing_circle_of_disjoint_pair():
    got = enclosing_circle(ObstacleCircle((0.0, 0.0), 1.0, (0,)),
                           ObstacleCircle((10.0, 0.0), 1.0, (1,)))
    np.testing.assert_allclose(got.center, [5.0, 0.0])
    assert got.radius == pytest.approx(6.0)
    assert got.members == (0, 1)


def test_enclosing_circle_handles_containment():
    big = ObstacleCircle((0.0, 0.0), 10.0, (0,))
    small = ObstacleCircle((2.0, 0.0), 1.0, (1,))
    got = enclosing_circle(big, small)
    assert got.center == big.center
    assert got.radius == big.radius
    assert got.members == (0, 1)


def test_grouping_threshold_is_the_robot_diameter():
    r = 25.0

    def pair(d):
        return group_all([ObstacleCircle((0.0, 0.0), r, (0,)),
                          ObstacleCircle((d, 0.0), r, (1,))], ROBOT_DIAMETER)

    near = pair(100.0)
    assert [c.members for c in near] == [(0, 1)]  # boundary gap 50 < 64
    assert near[0].radius == 75.0
    assert len(pair(120.0)) == 2   # boundary gap 70 > 64
    assert len(pair(114.0)) == 2   # strict inequality at the threshold


def test_group_all_merges_the_stacked_pair_only():
    r = 18.0 * np.sqrt(2.0)
    circles = [circle_from_observation(box(-215.0, -40.0, 36.0), (0,)),
               circle_from_observation(box(-215.0, 5.0, 36.0), (1,)),
               circle_from_observation(box(-5.0, -20.0, 36.0), (2,))]
    grouped = group_all(circles, ROBOT_DIAMETER)
    assert len(grouped) == 2
    merged = next(c for c in grouped if len(c.members) == 2)
    single = next(c for c in grouped if len(c.members) == 1)
    # centers 45 apart, radii r each: merged radius (45 + 2r)/2
    assert merged.radius == pytest.approx((45.0 + 2 * r) / 2.0)
    np.testing.assert_allclose(merged.center,
                               [-215.0, -40.0 + (merged.radius - r)])
    assert single.members == (2,)


def test_group_all_respects_the_radius_cap():
    huge = [ObstacleCircle((0.0, 0.0), 100.0, (0,)),
            ObstacleCircle((210.0, 0.0), 100.0, (1,))]
    assert len(group_all(huge, ROBOT_DIAMETER, radius_cap=150.0)) == 2
    assert len(group_all(huge, ROBOT_DIAMETER, radius_cap=300.0)) == 1


def test_group_all_respects_the_member_cap():
    row = [ObstacleCircle((float(40 * k), 0.0), 10.0, (k,)) for k in range(4)]
    capped = group_all(row, ROBOT_DIAMETER, radius_cap=1e9, max_members=3)
    # tightest pairs merge first, leaving two pairs that cannot join
    assert sorted(len(c.members) for c in capped) == [2, 2]
    uncapped = group_all(row, ROBOT_DIAMETER, radius_cap=1e9, max_members=4)
    assert [len(c.members) for c in uncapped] == [4]


# --------------------------------------------------------------- detection

def line_targets(positions, advance=320.0):
    return [(x, y + advance) for x, y in positions]


def test_no_event_when_nothing_is_in_range():
    positions = [(-100.0, -150.0), (0.0, -150.0), (-200.0, -150.0)]
    circles = [circle_from_observation(box(-100.0, 30.0, 50.0), (0,))]
    event = detect_mode(positions, line_targets(positions), 0, circles,
                        fov=220.0, look_ahead=100.0)
    assert event is None  # closest approach 180 - 35.4 > 100


def test_obstacle_behind_the_motion_is_ignored():
    positions = [(-100.0, 100.0), (0.0, 100.0), (-200.0, 100.0)]
    circles = [circle_from_observation(box(-100.0, 30.0, 50.0), (0,))]
    event = detect_mode(positions, line_targets(positions), 0, circles,
                        fov=220.0, look_ahead=100.0)
    assert event is None


def test_reference_agent_detour_plan():
    # the box sits dead center on the reference agent's run
    positions = [(-100.0, -100.0), (0.0, -100.0), (-200.0, -100.0)]
    circles = [circle_from_observation(box(-100.0, 30.0, 50.0), (0,))]
    event = detect_mode(positions, line_targets(positions), 0, circles,
                        fov=220.0, look_ahead=100.0)
    assert event is not None
    assert event.mode == obstacle.MODE_SINGLE
    assert event.strategy == obstacle.STRATEGY_REFERENCE
    assert event.threatened == 1
    clearance = 25.0 * np.sqrt(2.0) + ROBOT_RADIUS + 2.0
    assert abs(event.master_lateral) == pytest.approx(clearance)
    # followers hold their stations: lateral of (0,-100) wrt path +y is -100
    assert event.slave_laterals[2] == pytest.approx(-100.0)
    assert event.slave_laterals[3] == pytest.approx(100.0)
    detour = event.frame.to_world(130.0, event.master_lateral)
    assert abs(detour[0] - (-100.0)) == pytest.approx(clearance)
    assert detour[1] == pytest.approx(30.0)


def test_follower_dodge_plan():
    # only the follower at x=80 is blocked; the reference agent's run is clear
    positions = [(0.0, 0.0), (80.0, -50.0), (-80.0, -50.0)]
    targets = [(0.0, 300.0), (80.0, 250.0), (-80.0, 250.0)]
    circles = [ObstacleCircle((75.0, 100.0), 20.0, (0,))]
    event = detect_mode(positions, targets, 0, circles,
                        fov=220.0, look_ahead=200.0)
    assert event is not None
    assert event.strategy == obstacle.STRATEGY_FOLLOWER
    assert event.threatened == 2
    assert set(event.slave_laterals) == {2}
    # the follower dodges outward: 75 + (20 + 32 + 2) = 129 in world x
    station = event.frame.to_world(0.0, event.slave_laterals[2])
    assert station[0] == pytest.approx(129.0)
    assert event.master_lateral is None


def test_facing_pair_squeeze_plan():
    positions = [(-100.0, -60.0), (0.0, -160.0), (-200.0, -160.0)]
    targets = [(-100.0, 220.0), (0.0, 120.0), (-200.0, 120.0)]
    circles = [circle_from_observation(box(-205.0, 30.0, 50.0), (0,)),
               circle_from_observation(box(5.0, 30.0, 50.0), (1,))]
    event = detect_mode(positions, targets, 0, circles,
                        fov=220.0, look_ahead=100.0)
    assert event is not None
    assert event.mode == obstacle.MODE_FACING
    assert event.sub_case == obstacle.SUB_SQUEEZE
    r = 25.0 * np.sqrt(2.0)
    # inner boundary points on the joining line, then projected to the
    # followers' line and pulled in by follower radius + margin
    inner_gap = 210.0 - 2 * r
    pulled = inner_gap / 2.0 - (ROBOT_RADIUS + 2.0)
    got = sorted(event.slave_laterals.values())
    assert got == pytest.approx([-pulled, pulled])
    assert event.master_lateral == pytest.approx(0.0)
    # world check: follower 2 (at x=0) squeezes to the right inner station
    station = event.frame.to_world(0.0, event.slave_laterals[2])
    assert station[0] == pytest.approx(-100.0 + pulled)


def test_facing_pair_wide_enough_to_pass():
    positions = [(0.0, 0.0), (60.0, -80.0), (-60.0, -80.0)]
    targets = [(0.0, 400.0), (60.0, 320.0), (-60.0, 320.0)]
    # giant lateral spacing: projected gap far exceeds the formation width
    circles = [ObstacleCircle((-210.0, 100.0), 20.0, (0,)),
               ObstacleCircle((200.0, 100.0), 20.0, (1,))]
    event = detect_mode(positions, targets, 0, circles,
                        fov=500.0, look_ahead=200.0)
    assert event is not None
    assert event.sub_case == obstacle.SUB_PASS
    assert event.slave_laterals == {}
    assert event.master_lateral is None


def test_single_file_gap_is_rejected():
    positions = [(0.0, 0.0), (100.0, -100.0), (-100.0, -100.0)]
    targets = [(0.0, 400.0), (100.0, 300.0), (-100.0, 300.0)]
    # inner gap of 100: between one diameter (64) and squeeze floor (128)
    circles = [ObstacleCircle((-70.0, 80.0), 20.0, (0,)),
               ObstacleCircle((70.0, 80.0), 20.0, (1,))]
    with pytest.raises(UnsupportedManeuver, match="single-file"):
        detect_mode(positions, targets, 0, circles,
                    fov=500.0, look_ahead=200.0)


def test_event_clears_only_behind_and_outside_the_footprint():
    positions = [(-100.0, -100.0), (0.0, -100.0), (-200.0, -100.0)]
    circles = [circle_from_observation(box(-100.0, 30.0, 50.0), (0,))]
    event = detect_mode(positions, line_targets(positions), 0, circles,
                        fov=220.0, look_ahead=100.0)

    def cleared(head):
        return event_cleared(event, [head], 0, 220.0, ROBOT_RADIUS)[0]

    assert not cleared((-169.0, 30.0))   # abeam, inside
    assert not cleared((-100.0, 35.0))   # ahead but close
    assert not cleared((-100.0, -90.0))  # still approaching
    assert cleared((-100.0, 145.0))      # past and outside


# ------------------------------------------------- the path frame and end

def old_frame_coords(frame, point):
    # the arithmetic of the former `AvoidanceEvent.frame_coords`
    d = np.asarray(point, dtype=float) - frame.origin
    return float(d @ frame.along), float(d @ frame.lateral)


def old_event_end(event, positions, master, fov, robot_radius):
    """The end decision as it was split: the former `event_cleared` on the
    head, then the simulator's per-robot test over the "passed" bars."""
    p = np.asarray(positions[master], dtype=float)
    s_master, _ = old_frame_coords(event.frame, p)
    for circle in event.obstacles:
        dist = float(np.linalg.norm(p - np.asarray(circle.center)))
        if dist <= fov / 2.0:
            return False
        s_oc, _ = old_frame_coords(event.frame, circle.center)
        if s_oc >= s_master:
            return False
    passed = np.array([old_frame_coords(event.frame, c.center)[0] + c.radius
                       + robot_radius for c in event.obstacles])
    along = np.array([old_frame_coords(event.frame, positions[r])[0]
                      for r in range(len(positions))])
    return not (along[:, None] <= passed).any()


SQUARE_HALF_DIAGONAL = 25.0 * np.sqrt(2.0)
# (mode, sub_case, strategy) -> positions, targets, circles as (x, y, r),
# fov and look-ahead, with the reference agent (robot 0) heading along +y
FAMILIES = {
    (obstacle.MODE_SINGLE, None, obstacle.STRATEGY_REFERENCE): (
        [(-100.0, -100.0), (0.0, -100.0), (-200.0, -100.0)],
        [(-100.0, 220.0), (0.0, 220.0), (-200.0, 220.0)],
        [(-100.0, 30.0, SQUARE_HALF_DIAGONAL)], 220.0, 100.0),
    (obstacle.MODE_SINGLE, None, obstacle.STRATEGY_FOLLOWER): (
        [(0.0, 0.0), (80.0, -50.0), (-80.0, -50.0)],
        [(0.0, 300.0), (80.0, 250.0), (-80.0, 250.0)],
        [(75.0, 100.0, 20.0)], 220.0, 200.0),
    (obstacle.MODE_FACING, obstacle.SUB_PASS, None): (
        [(0.0, 0.0), (60.0, -80.0), (-60.0, -80.0)],
        [(0.0, 400.0), (60.0, 320.0), (-60.0, 320.0)],
        [(-210.0, 100.0, 20.0), (200.0, 100.0, 20.0)], 500.0, 200.0),
    (obstacle.MODE_FACING, obstacle.SUB_SQUEEZE, None): (
        [(-100.0, -60.0), (0.0, -160.0), (-200.0, -160.0)],
        [(-100.0, 220.0), (0.0, 120.0), (-200.0, 120.0)],
        [(-205.0, 30.0, SQUARE_HALF_DIAGONAL), (5.0, 30.0, SQUARE_HALF_DIAGONAL)],
        220.0, 100.0),
}


@st.composite
def planned_events(draw):
    """A maneuver of each family, planned by `detect_mode` from its set-up
    turned by any angle, moved anywhere within 2000 cm, and with each robot
    and its target moved by up to 1 cm: (event, positions, targets, fov)."""
    family = draw(st.sampled_from(list(FAMILIES)))
    positions, targets, circles, fov, look_ahead = FAMILIES[family]
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    turn = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    shift = np.array([draw(st.floats(-2000.0, 2000.0)) for _ in range(2)])
    jitter = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(6)]).reshape(3, 2)

    def place(points):
        return np.asarray(points, dtype=float) @ turn.T + shift

    pos, tgt = place(positions) + jitter, place(targets) + jitter
    obstacles = [ObstacleCircle(tuple(place(c[:2])), c[2], (i,))
                 for i, c in enumerate(circles)]
    event = detect_mode(pos, tgt, 0, obstacles,
                        fov=fov, look_ahead=look_ahead)
    assert (event.mode, event.sub_case, event.strategy) == family
    return event, pos, tgt, fov


def stacked(positions) -> list[float]:
    """(n, 2) positions as the simulator's stacked floats, each x then y."""
    return np.ravel(positions).tolist()


def nearest(positions, centers, radii) -> float:
    """The least boundary distance of (n, 2) positions to the circles (inf
    without any): the oracle of the minimum `running_clearance` takes."""
    return float(boundary_distances(np.asarray(positions), centers, radii).min(initial=np.inf))


def float_circles(centers, radii) -> tuple[tuple, tuple]:
    """(m, 2) centers and (m,) radii as `circle_floats` gives them."""
    return tuple(map(tuple, np.asarray(centers).tolist())), tuple(np.asarray(radii).tolist())


def same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@given(case=planned_events())
@settings(max_examples=300, deadline=None)
def test_path_frame_plans_what_the_hand_built_frame_planned(case):
    # the planner's former frame, `coords` closure and hand-built sums,
    # inline; no golden includes `geometry`, so this pins it
    event, pos, tgt, _ = case
    master_pos = pos[0]
    d = tgt[0] - master_pos
    along = d / float(np.linalg.norm(d))
    lateral = np.array([-along[1], along[0]])

    def coords(point):
        d = np.asarray(point, dtype=float) - master_pos
        return float(d @ along), float(d @ lateral)

    frame = event.frame
    for got, want in ((frame.origin, master_pos), (frame.along, along),
                      (frame.lateral, lateral)):
        assert same_bits(got, want)
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 0.0
    point = tuple(pos[1])
    assert all(same_bits(a, b) for a, b in zip(frame.coords(point), coords(point)))
    geometry = event.geometry
    clearance = ROBOT_RADIUS + obstacle.CLEARANCE_MARGIN
    if event.strategy == obstacle.STRATEGY_REFERENCE:
        (circle,) = event.obstacles
        s_oc, l_oc = coords(circle.center)
        side = 1.0 if abs(l_oc) < 1e-9 else -float(np.sign(l_oc))
        master_lat = l_oc + side * (circle.radius + clearance)
        assert same_bits(event.master_lateral, master_lat)
        assert same_bits(geometry["detour"], tuple(master_pos + s_oc * along
                                                   + master_lat * lateral))
        assert list(event.slave_laterals) == [2, 3]
        assert all(same_bits(event.slave_laterals[i + 1], coords(pos[i])[1])
                   for i in (1, 2))
    elif event.strategy == obstacle.STRATEGY_FOLLOWER:
        (circle,) = event.obstacles
        s_oc, l_oc = coords(circle.center)
        robot = event.threatened - 1
        rel = coords(pos[robot])[1] - l_oc
        side = 1.0 if abs(rel) < 1e-9 else float(np.sign(rel))
        station = l_oc + side * (circle.radius + clearance)
        assert list(event.slave_laterals) == [robot + 1]
        assert same_bits(event.slave_laterals[robot + 1], station)
        assert same_bits(geometry["station"], tuple(master_pos + s_oc * along
                                                    + station * lateral))
    elif event.sub_case == obstacle.SUB_SQUEEZE:
        sp_a, sp_b = np.array(geometry["line_a"]), np.array(geometry["line_b"])
        sc1, sc2 = pos[1], pos[2]
        mid_line = 0.5 * (sp_a + sp_b)
        if (np.linalg.norm(sc1 - sp_a) + np.linalg.norm(sc2 - sp_b)
                <= np.linalg.norm(sc1 - sp_b) + np.linalg.norm(sc2 - sp_a)):
            assignment = [(1, sp_a), (2, sp_b)]
        else:
            assignment = [(1, sp_b), (2, sp_a)]
        for robot, point in assignment:
            inward = mid_line - point
            station = point + clearance * (inward / float(np.linalg.norm(inward)))
            assert same_bits(event.slave_laterals[robot + 1], coords(station)[1])
        assert same_bits(event.master_lateral, coords(np.array(geometry["mid"]))[1])
    else:
        assert event.master_lateral is None and event.slave_laterals == {}


ULP_STEPS = [(i, j) for i in range(-4, 5) for j in range(-4, 5)]


@st.composite
def end_cases(draw):
    """A planned event and a team about its end, with the robot radius 0,
    32, 32.1 cm or any in [0, 50] and, at times, every circle shrunk to
    radius 0, where a robot's bar (its circle's along-track coordinate plus
    both radii) is the centre's own coordinate.  Each robot sits a few ulps
    either side of a circle's along-track coordinate or its bar (summed in
    either order, which may round apart), well past every bar, anywhere
    near, or at NaN; the head may also sit a few ulps either side of fov/2
    from a centre.  A few-ulps point is at times the nearest one right on
    its boundary, when there is one."""
    event, _, _, fov = draw(planned_events())
    radius = draw(st.one_of(st.sampled_from([0.0, ROBOT_RADIUS, 32.1]),
                            st.floats(0.0, 50.0)))
    if draw(st.booleans()):
        event = dataclasses.replace(event, obstacles=tuple(
            ObstacleCircle(c.center, 0.0, c.members) for c in event.obstacles))
    frame = event.frame

    def near(point, on_boundary):
        moved = [point + np.multiply(step, np.spacing(point)) for step in ULP_STEPS]
        hits = [p for p in moved if on_boundary(p)]
        if hits and draw(st.booleans()):
            return min(hits, key=lambda p: np.abs(p - point).sum())
        return draw(st.sampled_from(moved))

    def robot(head, kind):
        circle = draw(st.sampled_from(event.obstacles))
        center = np.asarray(circle.center)
        s_c = old_frame_coords(frame, center)[0]
        kind = kind or draw(st.sampled_from(["past", "past", "past", "centre", "bar",
                                             "regrouped", "near", "nan"]
                                            + ["ring"] * head))
        if kind == "nan":
            return np.array([np.nan, draw(st.sampled_from([np.nan, 0.0]))])
        if kind == "ring":
            angle = draw(st.floats(0.0, 2.0 * np.pi))
            return near(center + fov / 2.0 * np.array([np.cos(angle), np.sin(angle)]),
                        lambda p: float(np.linalg.norm(p - center)) == fov / 2.0)
        s = {"past": s_c + 2.0 * fov, "centre": s_c,
             "bar": s_c + circle.radius + radius,
             "regrouped": s_c + (circle.radius + radius),
             "near": s_c + draw(st.floats(-fov, fov))}[kind]
        return near(frame.to_world(s, draw(st.floats(-2.0 * fov, 2.0 * fov))),
                    lambda p: old_frame_coords(frame, p)[0] == s)

    # with a focus robot, the others are well past and it alone decides
    focus = draw(st.sampled_from([None, 0, 1, 2]))
    team = [robot(r == 0, "past" if focus not in (None, r) else None) for r in range(3)]
    return event, np.array(team), fov, radius


@given(case=end_cases())
@settings(max_examples=600, deadline=None)
def test_event_end_is_the_former_head_and_per_robot_decision(case):
    event, positions, fov, radius = case
    cleared, radii = event_cleared(event, positions, 0, fov, radius)
    assert cleared == old_event_end(event, positions, 0, fov, radius)
    assert (radii is None) == cleared


def test_a_robot_right_on_its_bar_has_not_passed_it():
    # the bar is (s_c + r_c) + robot_radius, summed in that order; here it
    # rounds above s_c + (r_c + robot_radius)
    frame = obstacle.PathFrame((0.0, 0.0), (0.0, 1.0), (-1.0, 0.0))
    circle = ObstacleCircle((0.0, 100.3), SQUARE_HALF_DIAGONAL)
    event = obstacle.AvoidanceEvent(obstacle.MODE_SINGLE, (circle,), frame)
    bar = 100.3 + SQUARE_HALF_DIAGONAL + 32.1
    assert 100.3 + (SQUARE_HALF_DIAGONAL + 32.1) < bar
    for along, cleared in ((bar, False), (np.nextafter(bar, np.inf), True)):
        assert event_cleared(event, [(300.0, along)], 0, 220.0, 32.1)[0] is cleared


# how far a drawn centre sits ahead of the perpendicular through the head,
# in rounding margins
MARGIN_STEPS = (-3.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 3.0)


@st.composite
def plan_cases(draw):
    """A head, its target (zero, tiny or real headings) and 1 to 3 circles
    whose centres sit a few ulps or a few rounding margins either side of
    the perpendicular through the head, or anywhere near it; a circle
    blocks the head's run when it is ahead and its lateral offset is below
    its radius plus the robot's.  Two followers run parallel.  A head near
    the origin keeps the centres' rounding below the offsets in ulps."""
    coordinate = st.one_of(st.floats(-500.0, 500.0), st.floats(-2.0, 2.0))
    head = np.array([draw(coordinate), draw(coordinate)])
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    along = np.array([np.cos(angle), np.sin(angle)])
    length = draw(st.one_of(st.sampled_from([0.0, 1e-12, 1e-9]),
                            st.floats(1e-3, 400.0)))
    target = head + length * along
    circles = []
    for _ in range(draw(st.sampled_from([1, 1, 2, 3]))):
        lateral = draw(st.floats(-90.0, 90.0))
        place = draw(st.sampled_from(["ulps", "ulps", "margin", "free"]))
        if place == "ulps":
            ahead = draw(st.integers(-4, 4)) * np.spacing(np.abs(head).max()
                                                          + abs(lateral))
        elif place == "margin":
            ahead = (draw(st.sampled_from(MARGIN_STEPS)) * obstacle.SENSING_MARGIN
                     * (abs(lateral) + 1.0))
        else:
            ahead = draw(st.floats(-300.0, 300.0))
        center = head + lateral * np.array([-along[1], along[0]]) + ahead * along
        circles.append(ObstacleCircle(tuple(center), draw(st.floats(5.0, 60.0))))
    followers = [head + [draw(st.floats(-150.0, 150.0)), draw(st.floats(-150.0, 150.0))]
                 for _ in range(2)]
    return head, target, circles, np.array([head, *followers])


@given(case=plan_cases())
@settings(max_examples=500, deadline=None)
def test_detect_mode_plans_nothing_where_every_centre_is_behind(case):
    head, target, circles, positions = case
    centers = circle_arrays(circles)[0]
    skipped, _ = behind(centers, head, target)
    if skipped:
        assert detect_mode(positions, positions + (target - head), 0, circles,
                           fov=220.0, look_ahead=100.0) is None
    # in exact arithmetic: with every centre behind by two margins or more,
    # the step is skipped
    heading = [Fraction(t) - Fraction(h) for t, h in zip(target, head)]

    def well_behind(center):
        terms = [(Fraction(c) - Fraction(h)) * d
                 for c, h, d in zip(center, head, heading)]
        scale = sum(abs(term) for term in terms)
        return scale > 0 and sum(terms) <= -2 * Fraction(obstacle.SENSING_MARGIN) * scale

    if all(well_behind(center) for center in centers):
        assert skipped


def test_nothing_ahead_and_a_zero_heading_are_told_apart():
    head, target = np.array([10.0, -4.0]), np.array([10.0, 96.0])
    centers = np.array([[10.0, -4.0 - 1e-3], [-60.0, -5.0]])
    assert behind(centers, head, target)[0]
    # one centre ahead, on the perpendicular, or NaN, or no heading at all
    for extra in ([70.0, -3.9], [70.0, -4.0], [np.nan, 0.0]):
        assert not behind(np.vstack([centers, extra]), head, target)[0]
    assert not behind(centers, head, head)[0]
    assert not behind(centers, np.array([np.nan, 0.0]), target)[0]


def test_a_centre_behind_by_subnormals_is_behind():
    # the products underflow to zero unless the row and heading are rescaled
    head = np.zeros(2)
    tiny = np.nextafter(0.0, 1.0)
    for target in ([1e-12, 0.0], [1e-300, -1e-300], [3.0, 4.0]):
        target = np.array(target)
        assert behind(np.array([[-tiny, 0.0], [-5.0, 1.0]]), head, target)[0]
        assert not behind(np.array([[tiny, 0.0], [-5.0, 1.0]]), head, target)[0]
        assert not behind(np.array([[0.0, 0.0]]), head, target)[0]


# ------------------------------------------------------------- small tools

def test_point_segment_distance():
    assert point_segment_distance((0.0, 5.0), (-10.0, 0.0), (10.0, 0.0)) == pytest.approx(5.0)
    assert point_segment_distance((20.0, 0.0), (-10.0, 0.0), (10.0, 0.0)) == pytest.approx(10.0)
    assert point_segment_distance((3.0, 4.0), (0.0, 0.0), (0.0, 0.0)) == pytest.approx(5.0)


# --------------------------------------------------------------- properties

@given(cx=st.floats(-200, 200), cy=st.floats(-200, 200),
       r1=st.floats(1, 60), r2=st.floats(1, 60), d=st.floats(-180, 180))
@settings(max_examples=60, deadline=None)
def test_enclosing_circle_contains_both_inputs(cx, cy, r1, r2, d):
    one = ObstacleCircle((cx, cy), r1)
    two = ObstacleCircle((cx + d, cy - d / 2.0), r2)
    merged = enclosing_circle(one, two)
    for c in (one, two):
        gap = np.linalg.norm(np.asarray(merged.center) - np.asarray(c.center))
        assert gap + c.radius <= merged.radius + 1e-9


@given(d=st.floats(0.0, 300.0), r1=st.floats(1.0, 60.0), r2=st.floats(1.0, 60.0))
@settings(max_examples=60, deadline=None)
def test_grouping_matches_the_boundary_gap_rule(d, r1, r2):
    # no radius cap, so the gap rule alone decides the merge
    one = ObstacleCircle((0.0, 0.0), r1, (0,))
    two = ObstacleCircle((d, 0.0), r2, (1,))
    got = group_all([one, two], ROBOT_DIAMETER, radius_cap=np.inf)
    merged = d < ROBOT_DIAMETER + r1 + r2
    assert got == ([enclosing_circle(one, two)] if merged else [one, two])


# ------------------------------------- plain-float clip vs the numpy clip

def numpy_clip(vertices, center, radius, sides=obstacle.FOOTPRINT_SIDES):
    """Sutherland-Hodgman on numpy vectors: the reference the plain-float
    clip must reproduce bit for bit."""
    def cross2(a, b):
        return float(a[0] * b[1] - a[1] * b[0])

    c = np.asarray(center, dtype=float)
    theta = 2.0 * np.pi * np.arange(sides) / sides
    clip = c + radius * np.column_stack([np.cos(theta), np.sin(theta)])
    output = [np.asarray(p, dtype=float)
              for p in np.asarray(vertices, dtype=float).reshape(-1, 2)]
    for k in range(sides):
        a, b = clip[k], clip[(k + 1) % sides]
        edge = b - a
        if not output:
            return np.zeros((0, 2))
        polygon, output = output, []
        prev = polygon[-1]
        prev_in = cross2(edge, prev - a) >= 0.0
        for point in polygon:
            cur_in = cross2(edge, point - a) >= 0.0
            if cur_in != prev_in:
                d = point - prev
                denom = cross2(edge, d)
                t = cross2(edge, a - prev) / denom if denom else 0.0
                output.append(prev + t * d)
            if cur_in:
                output.append(point)
            prev, prev_in = point, cur_in
    return np.array(output) if output else np.zeros((0, 2))


def footprint_vertex(center, radius, k, sides=obstacle.FOOTPRINT_SIDES):
    """Vertex k of the footprint polygon, computed as the clip computes it."""
    theta = 2.0 * np.pi * np.arange(sides) / sides
    ring = np.asarray(center, dtype=float) + radius * np.column_stack(
        [np.cos(theta), np.sin(theta)])
    return ring[k % sides]


# relative offsets about the sensing band's edges: ties, rounding, and
# either side of the band margin
BAND_OFFSETS = (-1e-7, -3e-8, -1e-8, -1e-12, 0.0, 1e-12, 1e-8, 3e-8, 1e-7)


@st.composite
def polygon_near(draw, center, radius, places=("free", "vertex", "midpoint"),
                 sizes=(0, 7)):
    """Vertices near the footprint about `center`: free, on the footprint's
    own vertices or edge midpoints, or ('incircle', 'rim') a tiny relative
    offset from the footprint's incircle or the disc, at the angles where
    each touches the footprint or at a free angle."""
    vertices = []
    for _ in range(draw(st.integers(*sizes))):
        where = draw(st.sampled_from(places))
        if where == "free":
            vertices.append((center[0] + draw(st.floats(-2 * radius, 2 * radius)),
                             center[1] + draw(st.floats(-2 * radius, 2 * radius))))
        elif where in ("vertex", "midpoint"):
            k = draw(st.integers(0, obstacle.FOOTPRINT_SIDES - 1))
            a = footprint_vertex(center, radius, k)
            b = footprint_vertex(center, radius, k + 1)
            point = a if where == "vertex" else a + 0.5 * (b - a)
            vertices.append(tuple(float(v) for v in point))
        else:
            scale = (np.cos(np.pi / obstacle.FOOTPRINT_SIDES)
                     if where == "incircle" else 1.0)
            dist = radius * scale * (1.0 + draw(st.sampled_from(BAND_OFFSETS)))
            k = draw(st.integers(0, 2 * obstacle.FOOTPRINT_SIDES - 1))
            angle = draw(st.one_of(st.just(np.pi * k / obstacle.FOOTPRINT_SIDES),
                                   st.floats(0.0, 2.0 * np.pi)))
            vertices.append((center[0] + dist * np.cos(angle),
                             center[1] + dist * np.sin(angle)))
    return np.array(vertices, dtype=float).reshape(-1, 2)


@st.composite
def clip_cases(draw):
    """A polygon near a footprint; some vertices lie on the footprint's own
    vertices or edge midpoints, so boundary ties are exercised."""
    center = (draw(st.floats(-300, 300)), draw(st.floats(-300, 300)))
    radius = draw(st.floats(1.0, 150.0))
    return draw(polygon_near(center, radius)), center, radius


@given(case=clip_cases())
@settings(max_examples=300, deadline=None)
def test_plain_float_clip_equals_the_numpy_clip(case):
    vertices, center, radius = case
    got = clip_polygon_to_disc(vertices, center, radius)
    want = numpy_clip(vertices, center, radius)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_clip_of_the_footprint_itself_is_bitwise_the_numpy_clip():
    ring = np.array([footprint_vertex((12.5, -3.0), 110.0, k)
                     for k in range(obstacle.FOOTPRINT_SIDES)])
    got = clip_polygon_to_disc(ring, (12.5, -3.0), 110.0)
    assert np.array_equal(got, numpy_clip(ring, (12.5, -3.0), 110.0))
    assert got.shape[0] >= obstacle.FOOTPRINT_SIDES


# ------------------------------- the former numpy paths, as oracles

class NumpyBudget:
    """`MotionBudget` as it was on a (rows, robots) array, the oracle of the
    budget on floats.  Positions are stacked floats, as the simulator's."""

    def __init__(self, positions, rows: int):
        positions = np.reshape(positions, (-1, 2))
        self.radii = np.full((rows, len(positions)), np.inf)
        self.stale, self.budget2 = [True] * rows, [np.inf] * len(positions)
        self.anchor, self.moved2 = positions.tolist(), None

    def spend(self, stacked):
        self.moved2 = [(x - a) * (x - a) + (y - b) * (y - b)
                       for (a, b), x, y in zip(self.anchor, stacked[::2], stacked[1::2])]
        for moved, budget in zip(self.moved2, self.budget2):
            if not moved < budget:
                return self.renew(stacked)

    def renew(self, positions, row=None, radius=None):
        if row is not None and not np.all(np.asarray(radius) > 0.0):
            return self.expire(row)
        if self.moved2 is not None:
            moved2 = np.array(self.moved2)
            left = ~(moved2 < self.radii * self.radii).all(axis=1)
            if math.inf not in self.moved2:   # else every row is left: no inf - inf
                self.radii = np.maximum((1.0 - obstacle.SENSING_MARGIN) * self.radii
                                        - (1.0 + obstacle.SENSING_MARGIN) * np.sqrt(moved2),
                                        0.0)
            for stale in left.nonzero()[0]:
                self.expire(stale)
            self.anchor, self.moved2 = np.reshape(positions, (-1, 2)).tolist(), None
        if row is not None:
            self.radii[row], self.stale[row] = radius, False
        least = np.minimum.reduce(self.radii, axis=0)
        self.budget2 = (least * least).tolist()

    def expire(self, row: int):
        self.radii[row], self.stale[row] = np.inf, True


def numpy_running_clearance(least, positions, centers, radii, floor):
    """`running_clearance` as it was on (n, 2) positions and the circles'
    arrays."""
    gap = nearest(positions, centers, radii) - floor
    least = min(least, gap)
    scale = abs(gap) + abs(least) + abs(floor) + float(radii.max(initial=0.0))
    return least, float(np.maximum(gap - least - obstacle.SENSING_MARGIN * scale, 0.0))


def numpy_edge_pass(edges, viewers) -> tuple[np.ndarray, np.ndarray]:
    """`obstacle._edge_pass` on (n, 2) viewers and an (edges, 7) array: the
    least squared distance per viewer (NaN distances passed over) and
    whether the viewer lies strictly right of some edge."""
    ax, ay, dx, dy, length2, bx, by = np.reshape(edges, (-1, 7)).T
    wx, wy = viewers[:, :1] - ax, viewers[:, 1:] - ay
    ex, ey = viewers[:, :1] - bx, viewers[:, 1:] - by
    cross, along = wx * dy - wy * dx, wx * dx + wy * dy
    with np.errstate(all="ignore"):
        dist2 = np.where(along <= 0.0, wx * wx + wy * wy,
                         np.where(along >= length2, ex * ex + ey * ey, cross * cross / length2))
    return np.fmin.reduce(dist2, axis=1, initial=np.inf), (cross > 0.0).any(axis=1)


def numpy_clearance(corners, viewers, rim) -> np.ndarray:
    """`obstacle._clearance` of (k, 2) points from each of (n, 2) viewers."""
    nx, ny, offset, behind = rim
    rx = np.reshape(corners, (-1, 2))[:, 0] - viewers[:, :1]
    ry = np.reshape(corners, (-1, 2))[:, 1] - viewers[:, 1:]
    beyond, along = nx * rx + ny * ry - offset, nx * ry - ny * rx + behind
    return np.maximum(np.maximum(beyond.min(axis=1, initial=np.inf),
                                 -beyond.max(axis=1, initial=-np.inf)),
                      along.min(axis=1, initial=np.inf))


class NumpyField:
    """`ObstacleField` stacked into arrays, with its sensing on (n, 2)
    viewers: `near` and `apart` for every pair at once, the oracle of the
    field on floats.  The set-up geometry (edges, hulls, which polygons
    `apart` may decide) is the field's own `sides`."""

    def __init__(self, polygons, reach: float):
        self.polygons = tuple(np.asarray(p, dtype=float).reshape(-1, 2) for p in polygons)
        self.circles = tuple(circle_from_observation(p, (i,))
                             for i, p in enumerate(self.polygons))
        self.centers, self.radii = circle_arrays(self.circles)
        counts = np.array([p.shape[0] for p in self.polygons], dtype=int)
        self.starts, self.solid = np.cumsum(counts) - counts, counts >= 3
        self.vertices = np.concatenate([np.zeros((0, 2)), *self.polygons])
        self.reach = float(reach)
        self.limits = self.reach + self.radii
        self.limits2 = self.limits ** 2
        self.scale = np.abs(self.vertices).max(initial=0.0) + 2.0 * self.reach
        margin = obstacle.SENSING_MARGIN * self.scale
        self.inner = max(self.reach * np.cos(np.pi / obstacle.FOOTPRINT_SIDES) - margin, 0.0)
        self.inner2 = self.inner ** 2
        field = ObstacleField(self.polygons, reach)
        self.sides, self.rim = field.sides, field.rim

    def vertices_in_footprint(self, viewers) -> tuple[np.ndarray, np.ndarray]:
        """(n, vertices) for (n, 2) viewers: the vertex lies inside the inner
        bound, so it passes all the half-plane tests of
        `clip_polygon_to_disc(_, viewer, reach)`; and the squared distances
        from each viewer to each vertex."""
        diff = self.vertices - viewers[:, None, :]
        dist2 = np.add.reduce(diff * diff, axis=2)
        return dist2 < self.inner2, dist2

    def distances(self, viewers) -> tuple[np.ndarray, np.ndarray]:
        """`near` (inf for under 3 vertices) and `apart` (-inf where the
        field may not decide by it), (n, polygons) each."""
        near = np.full((len(viewers), len(self.polygons)), np.inf)
        apart = np.full_like(near, -np.inf)
        for i, (edges, hull, corners, clear) in enumerate(self.sides):
            if edges:
                near[:, i] = np.sqrt(numpy_edge_pass(edges, viewers)[0])
            if clear:
                hull2, outside = numpy_edge_pass(hull, viewers)
                distance = np.where(outside | (len(corners) < 3), np.sqrt(hull2), 0.0)
                apart[:, i] = np.minimum(distance - self.reach,
                                         numpy_clearance(corners, viewers, self.rim))
        return near, apart

    def sensed(self, viewers) -> tuple[list[ObstacleCircle], np.ndarray]:
        diff = viewers[:, None, :] - self.centers
        centre2 = np.add.reduce(diff * diff, axis=2)
        gate = centre2 <= self.limits2
        tol = obstacle.GATE_ULPS * np.spacing(self.limits2)
        for v, i in zip(*(abs(centre2 - self.limits2) <= tol).nonzero()):
            gate[v, i] = not (np.linalg.norm(viewers[v] - self.centers[i])
                              > self.reach + self.radii[i])
        dist = np.sqrt(centre2)
        margin = obstacle.SENSING_MARGIN * (dist + self.scale)
        near, apart = self.distances(viewers)
        witness = gate & (near < self.inner)
        seen = witness.any(axis=0)
        for v, i in zip(*(gate & ~witness & ~(apart > margin)).nonzero()):
            if not seen[i]:
                seen[i] = obstacle.clip_polygon_to_disc(self.polygons[i], viewers[v],
                                                        self.reach).shape[0] >= 3
        slack = np.maximum(dist - self.limits, np.where(witness, self.inner - near, apart))
        slack -= margin
        return ([self.circles[i] for i in seen.nonzero()[0]],
                np.maximum(slack.min(axis=1, initial=np.inf), 0.0))


def float_bits(values) -> bytes:
    """The bits of a flat sequence of floats, zero signs included.  Every
    NaN reads as one: numpy's min reduction sets the sign of the NaN it
    returns by the array's length (its SIMD lanes), and no decision reads
    a NaN's sign, since NaN never holds and never lowers a minimum."""
    values = [math.nan if v != v else v for v in np.asarray(values, dtype=float).ravel().tolist()]
    return struct.pack(f"{len(values)}d", *values)


# the special values every float path must treat as its oracle does
SPECIALS = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-320, 1e300, -1e300])


def with_specials(draw, values, most=2):
    """`values` with up to `most` entries replaced by `SPECIALS`."""
    values = list(values)
    if values:
        for k, special in draw(st.lists(st.tuples(st.integers(0, len(values) - 1), SPECIALS),
                                        max_size=most)):
            values[k] = special
    return values


# ----------------------------- stacked sensing and clearance vs the loops

def sensed_by_loop(polygons, viewers, reach):
    """The viewer x obstacle loop `ObstacleField.sensed` replaces: the
    reference it must reproduce exactly."""
    circles = [circle_from_observation(p, (i,)) for i, p in enumerate(polygons)]
    seen = set()
    for viewer in viewers:
        for idx, circle in enumerate(circles):
            if (idx in seen or np.linalg.norm(viewer - np.asarray(circle.center))
                    > reach + circle.radius):
                continue
            if clip_polygon_to_disc(polygons[idx], viewer, reach).shape[0] >= 3:
                seen.add(idx)
    return [circles[idx] for idx in sorted(seen)]


@st.composite
def sensing_cases(draw):
    """Viewers and polygons about one footprint (see `clip_cases`), with
    vertices packed at its incircle and rim, and viewers placed a few ulps
    either side of some wrap circle's gate limit."""
    first, center, reach = draw(clip_cases())
    places = ("free", "vertex", "midpoint", "incircle", "rim")
    polygons = [first] * (first.shape[0] > 0) + [
        draw(polygon_near(center, reach, places, sizes=(1, 7)))
        for _ in range(draw(st.integers(1, 3)))]
    viewers = [center] + [
        (center[0] + draw(st.floats(-2 * reach, 2 * reach)),
         center[1] + draw(st.floats(-2 * reach, 2 * reach)))
        for _ in range(draw(st.integers(0, 2)))]
    field = ObstacleField(polygons, reach)
    for circle in draw(st.lists(st.sampled_from(field.circles), max_size=2)):
        angle = draw(st.floats(0.0, 2.0 * np.pi))
        dist = (reach + circle.radius) * (1.0 + draw(st.integers(-8, 8)) * 2.0 ** -52)
        viewers.append((circle.center[0] + dist * np.cos(angle),
                        circle.center[1] + dist * np.sin(angle)))
    return polygons, np.array(viewers, dtype=float), reach


@given(case=sensing_cases())
@settings(max_examples=300, deadline=None)
def test_field_senses_what_the_viewer_obstacle_loop_senses(case):
    polygons, viewers, reach = case
    assert (ObstacleField(polygons, reach).sensed(stacked(viewers))[0]
            == sensed_by_loop(polygons, viewers, reach))


@given(case=sensing_cases())
@settings(max_examples=150, deadline=None)
def test_vertices_in_the_footprint_pass_every_half_plane_test(case):
    polygons, viewers, reach = case
    field = NumpyField(polygons, reach)
    inside, dist2 = field.vertices_in_footprint(viewers)
    # a single vertex survives the clip exactly when it passes all its
    # tests, as every vertex inside the inner bound does
    passes = [[clip_polygon_to_disc(p, v, reach).shape[0] == 1
               for p in field.vertices] for v in viewers]
    assert not (inside & ~np.array(passes, dtype=bool)).any()
    assert np.array_equal(dist2, ((field.vertices - viewers[:, None]) ** 2).sum(axis=2))
    # the lemma: a polygon with a vertex in clips to at least 3 vertices
    for v, viewer in enumerate(viewers):
        for i, polygon in enumerate(field.polygons):
            start = field.starts[i]
            if (polygon.shape[0] >= 3
                    and inside[v, start:start + polygon.shape[0]].any()):
                assert clip_polygon_to_disc(polygon, viewer, reach).shape[0] >= 3


@st.composite
def rim_polygon(draw, center, reach, margin):
    """A polygon about a viewer at `center` that sits on a distance rule's
    bound: an edge (alone, a 2-vertex polygon, or with 1 to 3 vertices
    beyond it) whose nearest point to the viewer lies inside it, or the
    walls of a notch the viewer stands in, at the inner bound or at
    `reach`, offset by 0 to 3 `margin`s either way.  Edge midpoints may be
    added (collinear vertices) and a vertex repeated; either orientation."""
    rim = reach * np.cos(np.pi / obstacle.FOOTPRINT_SIDES)
    dist = (draw(st.sampled_from((rim, reach)))
            + draw(st.sampled_from((0.0, *MARGIN_STEPS))) * margin)
    angle = draw(st.one_of(st.floats(0.0, 2.0 * np.pi),
                           st.integers(0, 2 * obstacle.FOOTPRINT_SIDES - 1).map(
                               lambda k: np.pi * k / obstacle.FOOTPRINT_SIDES)))
    out, along = np.array([np.cos(angle), np.sin(angle)]), np.array([-np.sin(angle), np.cos(angle)])
    kind = draw(st.sampled_from(("edge", "segment", "notch")))
    if kind == "notch":
        wide = dist + reach * draw(st.floats(0.2, 1.0))
        high = dist + reach * draw(st.floats(0.2, 1.0))
        local = [(-wide, -wide), (wide, -wide), (wide, high), (dist, high), (dist, -dist),
                 (-dist, -dist), (-dist, high), (-wide, high)]
        vertices = [x * along + y * out for x, y in local]
    else:
        foot = dist * out
        vertices = [foot - reach * draw(st.floats(0.05, 1.5)) * along,
                    foot + reach * draw(st.floats(0.05, 1.5)) * along]
        for _ in range(draw(st.integers(1, 3)) if kind == "edge" else 0):
            vertices.append(foot + reach * (draw(st.floats(0.1, 2.0)) * out
                                            + draw(st.floats(-1.5, 1.5)) * along))
    vertices = [np.asarray(center) + v for v in vertices]
    if len(vertices) >= 3:
        for k in sorted(draw(st.sets(st.integers(0, len(vertices) - 1), max_size=2)),
                        reverse=True):
            vertices.insert(k + 1, 0.5 * (vertices[k] + vertices[(k + 1) % len(vertices)]))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(vertices) - 1))
        vertices.insert(k, vertices[k])
    if draw(st.booleans()):
        vertices.reverse()
    return np.array(vertices, dtype=float)


@st.composite
def rim_cases(draw):
    """1 to 3 `rim_polygon`s about a viewer, and 0 or 1 more viewer within
    two reaches of it."""
    center = (draw(st.floats(-300, 300)), draw(st.floats(-300, 300)))
    reach = draw(st.floats(1.0, 150.0))
    margin = obstacle.SENSING_MARGIN * (max(map(abs, center)) + 5.0 * reach)
    polygons = draw(st.lists(rim_polygon(center, reach, margin), min_size=1, max_size=3))
    viewers = [center] + [(center[0] + draw(st.floats(-2 * reach, 2 * reach)),
                           center[1] + draw(st.floats(-2 * reach, 2 * reach)))
                          for _ in range(draw(st.integers(0, 1)))]
    return polygons, np.array(viewers, dtype=float), reach


@given(case=rim_cases())
@settings(max_examples=200, deadline=None)
def test_every_pair_the_distances_settle_is_settled_as_the_clip(case):
    # edges and notch walls a few margins either side of both bounds, in
    # convex, concave, collinear, repeated-vertex and 2-vertex polygons of
    # either orientation: the field senses what clipping every gate-passing
    # pair senses, and each pair `near` or `apart` settles is the clip's
    polygons, viewers, reach = case
    settle, settled = ObstacleField.settle, []

    def recording_settle(self, i, vx, vy, margin):
        hit, slack = settle(self, i, vx, vy, margin)
        settled.append((i, (vx, vy), hit))
        return hit, slack

    with mock.patch.object(ObstacleField, "settle", recording_settle):
        circles = ObstacleField(polygons, reach).sensed(stacked(viewers))[0]
    assert circles == sensed_by_loop(polygons, viewers, reach)
    for i, viewer, hit in settled:
        if hit is not None:
            assert (clip_polygon_to_disc(polygons[i], viewer, reach).shape[0] >= 3) == hit


def test_a_polygon_along_a_clip_line_is_left_to_the_clip():
    # the triangle's first edge lies along footprint line 24, on its ray
    # beyond the footprint: the clip's crossing of that edge is ill
    # conditioned and lands inside the footprint, so the clip keeps 3
    # vertices of a triangle wholly outside its disc.  `apart` would settle
    # the pair the other way; the field leaves it to the clip
    viewer, reach = np.array([106.4973129811325, -65.16812101595201]), 110.0
    triangle = np.array([[-5.49886380160104, -25.136182247338905],
                         [16.336714496994787, -1.0443341730228077],
                         [-18.574852066638506, 8.656434023377614]])
    gap = min(point_segment_distance(viewer, a, b)
              for a, b in zip(triangle, np.roll(triangle, -1, axis=0)))
    assert gap > reach + 0.5
    assert clip_polygon_to_disc(triangle, viewer, reach).shape[0] >= 3
    field = ObstacleField([triangle], reach)
    assert not field.sides[0][3]
    assert field.sensed(viewer.tolist())[0] == list(field.circles) == sensed_by_loop(
        [triangle], viewer[None], reach)
    with mock.patch.object(obstacle, "_aligned", lambda points: False):
        assert ObstacleField([triangle], reach).sensed(viewer.tolist())[0] == []


def test_gate_at_its_limit_is_the_scalar_norms(monkeypatch):
    # a viewer a few ulps either side of the wrap circle's gate limit has
    # the box outside its footprint, so the field takes exactly the pairs
    # whose gate passes to the distance rule: those must be the pairs the
    # scalar norm passes, although the squared distance decides many of
    # them the other way
    polygon = box(3.3, -7.1, 36.0)
    circle = circle_from_observation(polygon)
    center = np.asarray(circle.center)
    settle = ObstacleField.settle
    settled = []

    def recording_settle(self, i, vx, vy, margin):
        settled.append((vx, vy))
        return settle(self, i, vx, vy, margin)

    monkeypatch.setattr(ObstacleField, "settle", recording_settle)
    rng = np.random.default_rng(5)
    squared_differs = 0
    for _ in range(300):
        reach = rng.uniform(1.0, 150.0)
        limit = reach + circle.radius
        angle = rng.uniform(0.0, 2.0 * np.pi)
        stretch = 1.0 + int(rng.integers(-4, 5)) * 2.0 ** -52
        viewer = center + limit * stretch * np.array([np.cos(angle), np.sin(angle)])
        diff = viewer - center
        passes = not (np.linalg.norm(diff) > limit)
        squared_differs += passes != (diff[0] * diff[0] + diff[1] * diff[1]
                                      <= limit * limit)
        settled.clear()
        assert ObstacleField([polygon], reach).sensed(viewer.tolist())[0] == []
        assert settled == [tuple(viewer)] * passes
    assert squared_differs > 0


def test_a_field_without_polygons_senses_nothing():
    field = ObstacleField([], 110.0)
    assert field.sensed([0.0] * 6) == ([], [np.inf] * 3)
    assert nearest(np.zeros((3, 2)), *circle_arrays(field.circles)) == np.inf
    assert running_clearance(np.inf, [0.0] * 6, *field.circle_floats, 25.0)[0] == np.inf


@given(positions=st.lists(st.tuples(st.floats(-500, 500), st.floats(-500, 500)),
                          min_size=1, max_size=4),
       circles=st.lists(st.tuples(st.floats(-500, 500), st.floats(-500, 500),
                                  st.floats(0.0, 100.0)), min_size=1, max_size=5),
       collision_radius=st.floats(0.0, 40.0))
@settings(max_examples=200, deadline=None)
def test_stacked_clearance_equals_the_per_circle_loop(positions, circles,
                                                      collision_radius):
    positions = np.array(positions)
    circles = [ObstacleCircle((cx, cy), r) for cx, cy, r in circles]
    boundary = clearance = np.inf
    for circle in circles:
        dist = np.linalg.norm(positions - np.asarray(circle.center), axis=1)
        boundary = min(boundary, float((dist - circle.radius).min()))
        clearance = min(clearance, float(
            (dist - circle.radius - collision_radius).min()))
    gap = nearest(positions, *circle_arrays(circles))
    assert gap == boundary
    assert gap - collision_radius == clearance
    # the simulator's float evaluation, with no minimum carried in
    for floor, want in ((0.0, boundary), (collision_radius, clearance)):
        assert running_clearance(np.inf, stacked(positions), *circle_floats(circles),
                                 floor)[0] == want


# ------------------------------- reused sensing vs a fresh decision

# what a walk step does to one viewer: stay, move a fraction of its current
# reuse radius (mostly less than all of it), jump anywhere near the field,
# or become NaN
REUSE_FRACTIONS = (0.25, 0.5, 0.9, 0.999999, 1.0 - 2.0 ** -40, 1.0,
                   1.0 + 2.0 ** -40, 1.000001, 1.5, 3.0)
STAY = st.just(("stay",))
REUSE = st.tuples(st.just("reuse"), st.sampled_from(REUSE_FRACTIONS),
                  st.sampled_from(("angle", "toward", "away")),
                  st.floats(0.0, 2.0 * np.pi))
MOVES = st.one_of(STAY, STAY, REUSE, REUSE, REUSE,
                  st.tuples(st.just("jump"), st.floats(-2.0, 2.0),
                            st.floats(-2.0, 2.0)),
                  st.just(("nan",)))


@st.composite
def sensing_walks(draw):
    """A field from `sensing_cases`, 1 to 3 viewers and a walk: a move per
    viewer per step.  Besides that case's viewers (some a few ulps either
    side of a gate limit), viewers may start at a gate limit, or put a
    vertex at the footprint's inner bound or at `reach` plus a rounding
    margin, offset by a few ulps and by 0, 1.5 or 3 rounding margins either
    way, or anywhere within 4 reaches of the field."""
    polygons, candidates, reach = draw(sensing_cases())
    field = ObstacleField(polygons, reach)
    margin = obstacle.SENSING_MARGIN * field.scale
    candidates = list(candidates)
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            circle = field.circles[draw(st.integers(0, len(field.circles) - 1))]
            anchor, bound = np.array(circle.center), field.reach + circle.radius
        else:
            vertices = np.concatenate(field.polygons)
            anchor = vertices[draw(st.integers(0, len(vertices) - 1))]
            bound = draw(st.sampled_from((field.inner, field.reach + margin)))
        dist = (bound * (1.0 + draw(st.integers(-8, 8)) * 2.0 ** -52)
                + draw(st.sampled_from((-3.0, -1.5, 0.0, 1.5, 3.0))) * margin)
        angle = draw(st.floats(0.0, 2.0 * np.pi))
        candidates.append(anchor + dist * np.array([np.cos(angle), np.sin(angle)]))
    for _ in range(draw(st.integers(0, 3))):
        candidates.append(np.array(field.circles[0].center) + reach * np.array(
            [draw(st.floats(-4.0, 4.0)), draw(st.floats(-4.0, 4.0))]))
    picked = draw(st.lists(st.integers(0, len(candidates) - 1), min_size=1,
                           max_size=draw(st.sampled_from((1, 1, 1, 2, 3))),
                           unique=True))
    viewers = np.array([candidates[i] for i in picked], dtype=float)
    steps = draw(st.lists(st.lists(MOVES, min_size=len(viewers),
                                   max_size=len(viewers)), max_size=12))
    return field, viewers, steps, np.asarray(field.circles[0].center)


def walk_step(field, viewers, moves, sizes, center):
    """The viewers after one step of moves; `reuse` moves are sized by the
    viewer's entry of `sizes` and aimed at a random angle, or toward or away
    from the nearest circle centre."""
    out = viewers.copy()
    for v, move in enumerate(moves):
        if move[0] == "reuse":
            _, fraction, aim, angle = move
            radius = sizes[v]
            if not np.isfinite(radius) or not np.isfinite(viewers[v]).all():
                continue
            if aim != "angle":
                to = circle_arrays(field.circles)[0] - viewers[v]
                to = to[np.argmin(np.add.reduce(to * to, axis=1))]
                angle = np.arctan2(to[1], to[0]) + (np.pi if aim == "away" else 0.0)
            out[v] += fraction * radius * np.array([np.cos(angle), np.sin(angle)])
        elif move[0] == "jump":
            out[v] = center + field.reach * np.array(move[1:])
        elif move[0] == "nan":
            out[v] = np.nan
    return out


@given(walk=sensing_walks())
@settings(max_examples=300, deadline=None)
def test_reused_sensing_equals_a_fresh_decision_along_walks(walk):
    # the decision a simulator keeps while it holds must be the one a fresh
    # decision would give, at every step
    field, viewers, steps, center = walk
    budget = obstacle.MotionBudget(stacked(viewers), 1)
    for moves in [None, *steps]:
        if moves is not None:
            viewers = walk_step(field, viewers, moves, np.sqrt(budget.budget2), center)
            budget.spend(stacked(viewers))
        if budget.stale[0]:
            circles, reuse = field.sensed(stacked(viewers))
            budget.renew(stacked(viewers), 0, reuse)
        assert circles == field.sensed(stacked(viewers))[0]


def recorded_sensing(field, viewers):
    """`field.sensed(viewers)` and the clips it made, in order, each as its
    polygon's and viewer's bits and the reach."""
    clip, clips = obstacle.clip_polygon_to_disc, []

    def recording_clip(vertices, center, radius):
        clips.append((np.asarray(vertices).tobytes(), float_bits(center), radius))
        return clip(vertices, center, radius)

    with mock.patch.object(obstacle, "clip_polygon_to_disc", recording_clip):
        return (*field.sensed(viewers), clips)


@given(walk=sensing_walks(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_sensing_on_floats_is_the_numpy_sensing_bit_for_bit(walk, data):
    # the circles, the reuse radii and the clips made, in order, are the
    # former array code's along a walk sized by the reuse radii, whose
    # viewers also take NaN, infinities, -0.0, subnormal and huge coordinates
    field, viewers, steps, center = walk
    oracle = NumpyField(field.polygons, field.reach)
    sizes = np.ones(len(viewers))
    for moves in [None, *steps]:
        if moves is not None:
            viewers = walk_step(field, viewers, moves, sizes, center)
        team = with_specials(data.draw, stacked(viewers), 1)
        circles, reuse, clips = recorded_sensing(field, team)
        with np.errstate(all="ignore"):
            want = recorded_sensing(oracle, np.reshape(team, (-1, 2)))
        assert circles == want[0] and clips == want[2]
        assert float_bits(reuse) == float_bits(want[1])
        sizes = np.where(np.isfinite(reuse), reuse, 1.0)


def held_at(radius, anchor, at) -> bool:
    """A decision made at `anchor` with `radius` still holds at `at`."""
    budget = obstacle.MotionBudget(stacked(anchor), 1)
    budget.renew(stacked(anchor), 0, radius)
    budget.spend(stacked(at))
    return not budget.stale[0]


def test_reuse_radius_is_the_least_slack_less_the_margin():
    reach = 100.0
    segment = [[150.0, 150.0], [170.0, 150.0]]       # wrap: (160, 150), 10
    field = ObstacleField([box(0.0, 0.0, 36.0), box(0.0, -400.0, 36.0),
                           segment], reach)
    scale = 418.0 + 2.0 * reach       # box 1's far edge is the largest coordinate

    def margin(dist):
        return obstacle.SENSING_MARGIN * (dist + scale)

    viewers = np.array([
        [0.0, 300.0],      # outside every gate, nearest to the segment's
        [30.0, 0.0],       # box 0's near edge deep in its footprint
        [0.0, 120.0],      # inside box 0's gate, its hull 2 cm beyond reach
        [150.0, 130.0],    # inside the segment's gate, 20 cm from it: clipped
        [np.nan, 0.0]])
    circles, reuse = field.sensed(stacked(viewers))
    assert [c.members for c in circles] == [(0,)]
    to_segment = np.hypot(160.0, 150.0)
    want = [to_segment - (reach + 10.0) - margin(to_segment),
            field.inner - 12.0 - margin(30.0),
            2.0 - margin(120.0), 0.0]
    assert np.allclose(reuse[:4], want, rtol=0.0, atol=1e-10)
    assert np.isnan(reuse[4])

    # a decision holds only while every viewer moves strictly less than its
    # radius: a zero radius never holds, even standing still, nor does NaN
    def held(v, at):
        return held_at(reuse[v:v + 1], viewers[v:v + 1], at[None])

    assert held(1, viewers[1]) and held(2, viewers[2])
    assert not held(3, viewers[3]) and not held(4, viewers[4])
    for v in (0, 2):
        radius = reuse[v]
        for step, holds in ((radius, False), (np.nextafter(radius, 0.0), True)):
            moved = viewers[v] + [step, 0.0]
            assert moved[0] - viewers[v, 0] == step
            assert held(v, moved) == holds


# ------------------------------- reused clearance vs a per-step evaluation

@st.composite
def clearance_walks(draw):
    """1 to 4 circles, 1 to 3 robots near them, a floor (0 as for an event's
    circles, or a collision radius), a minimum carried in (none, or one
    from earlier circles) and a walk of `REUSE_FRACTIONS`-sized moves and
    the other `MOVES`."""
    circles = draw(st.lists(st.tuples(st.floats(-200.0, 200.0), st.floats(-200.0, 200.0),
                                      st.floats(0.0, 80.0)), min_size=1, max_size=4))
    centers, radii = np.array(circles)[:, :2], np.array(circles)[:, 2]
    positions = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(circles) - 1))
        angle = draw(st.floats(0.0, 2.0 * np.pi))
        dist = radii[k] + draw(st.floats(-10.0, 150.0))
        positions.append(centers[k] + dist * np.array([np.cos(angle), np.sin(angle)]))
    floor = draw(st.one_of(st.sampled_from([0.0, 0.0, 22.0]), st.floats(0.0, 40.0)))
    least = draw(st.one_of(st.just(np.inf), st.floats(-10.0, 150.0)))
    steps = draw(st.lists(st.lists(MOVES, min_size=len(positions),
                                   max_size=len(positions)), max_size=15))
    return centers, radii, floor, least, np.array(positions), steps


def clearance_step(centers, radii, positions, moves, budget):
    """The robots after one step of moves; `reuse` moves are sized by the
    robot's budget and aimed at a random angle, or toward or away from the
    robot's nearest boundary's centre."""
    out = positions.copy()
    for r, move in enumerate(moves):
        if move[0] == "reuse":
            _, fraction, aim, angle = move
            radius = np.sqrt(budget.budget2[r])
            if not np.isfinite(radius) or not np.isfinite(positions[r]).all():
                continue
            if aim != "angle":
                to = centers - positions[r]
                to = to[np.argmin(np.hypot(to[:, 0], to[:, 1]) - radii)]
                angle = np.arctan2(to[1], to[0]) + (np.pi if aim == "away" else 0.0)
            out[r] += fraction * radius * np.array([np.cos(angle), np.sin(angle)])
        elif move[0] == "jump":
            out[r] = centers[0] + 150.0 * np.array(move[1:])
        elif move[0] == "nan":
            out[r] = np.nan
    return out


@given(walk=clearance_walks())
@settings(max_examples=300, deadline=None)
def test_running_clearance_equals_a_per_step_evaluation_along_walks(walk):
    # the minimum a simulator keeps while its anchor holds must be the one
    # an evaluation at every step gives, bit for bit
    centers, radii, floor, least, positions, steps = walk

    def fresh(least):
        return min(least, nearest(positions, centers, radii) - floor)

    want = fresh(least)
    budget = obstacle.MotionBudget(stacked(positions), 1)
    for moves in [None, *steps]:
        if moves is not None:
            positions = clearance_step(centers, radii, positions, moves, budget)
            budget.spend(stacked(positions))
            want = fresh(want)
        if budget.stale[0]:
            least, radius = running_clearance(least, stacked(positions),
                                              *float_circles(centers, radii), floor)
            budget.renew(stacked(positions), 0, radius)
        assert np.float64(least).tobytes() == np.float64(want).tobytes()


def test_a_zero_or_clamped_clearance_radius_never_holds():
    centers, radii, floor = np.array([[0.0, 0.0]]), np.array([10.0]), 7.5
    positions = np.array([[30.0, 40.0], [-60.0, 0.0]])   # gaps 40 and 50

    def anchor(least, at=positions):
        return running_clearance(least, stacked(at), *float_circles(centers, radii), floor)

    def margin(least):
        return obstacle.SENSING_MARGIN * (32.5 + abs(least) + floor + 10.0)

    # the robot that has just set the minimum gets a zero radius
    least, radius = anchor(np.inf)
    assert least == 32.5 and radius == 0.0
    assert not held_at(radius, positions, positions)
    # a slack inside the margin is clamped to zero, not squared
    least, radius = anchor(32.5 - 1e-9)
    assert least == 32.5 - 1e-9 and radius == 0.0
    assert not held_at(radius, positions, positions)
    # a slack beyond it holds strictly inside the radius it leaves
    least, radius = anchor(30.0)
    assert radius == pytest.approx(2.5 - margin(30.0), rel=0.0, abs=1e-12)
    for step, holds in ((radius, False), (np.nextafter(radius, 0.0), True)):
        assert held_at(radius, positions, positions - [[0.0, 0.0], [0.0, step]]) == holds
    # a NaN position keeps the minimum and never holds
    nan = positions + [np.nan, 0.0]
    least, radius = anchor(30.0, nan)
    assert least == 30.0 and np.isnan(radius)
    assert not held_at(radius, nan, nan)


@given(n=st.integers(1, 4), m=st.integers(0, 5), data=st.data())
@settings(max_examples=300, deadline=None)
def test_running_clearance_on_floats_is_the_numpy_clearance_bit_for_bit(n, m, data):
    # the minimum and the radius are the former array code's, with NaN,
    # infinities, -0.0, subnormal and huge positions, centres and radii
    def floats(count, low, high, most):
        return with_specials(data.draw, data.draw(
            st.lists(st.floats(low, high), min_size=count, max_size=count)), most)

    positions, centers = floats(2 * n, -300.0, 300.0, 2), floats(2 * m, -300.0, 300.0, 1)
    radii = floats(m, 0.0, 100.0, 1)
    floor = data.draw(st.one_of(st.sampled_from([0.0, 25.0]), st.floats(0.0, 40.0)))
    least = data.draw(st.one_of(st.just(np.inf), st.floats(-10.0, 150.0), SPECIALS))
    centers = np.reshape(centers, (-1, 2))
    got = running_clearance(least, positions, *float_circles(centers, radii), floor)
    with np.errstate(all="ignore"):
        want = numpy_running_clearance(least, np.reshape(positions, (-1, 2)), centers,
                                       np.array(radii), floor)
    assert float_bits(got) == float_bits(want)


# ----------------------------- one budget over every decision vs fresh ones

def test_a_budget_row_holds_only_within_its_radius_of_its_decision():
    # rows decided at the origin with radii 10 and 5: spending the budget
    # 6 cm away expires the second and shrinks the first to under 4 cm, so
    # 4.5 cm on, 10.5 cm from its decision, the first expires too
    def at(x):
        return [x, 0.0]

    budget = obstacle.MotionBudget(at(0.0), 2)
    assert budget.stale == [True, True] and budget.budget2 == [np.inf]
    budget.renew(at(0.0), 0, 10.0)
    budget.renew(at(0.0), 1, 5.0)
    assert budget.budget2 == [25.0]
    budget.spend(at(6.0))
    assert budget.stale == [False, True] and budget.anchor == [[6.0, 0.0]]
    assert 4.0 - 1e-6 < budget.radii[0][0] < 4.0
    assert budget.budget2 == [budget.radii[0][0] ** 2]
    budget.spend(at(10.5))
    assert budget.stale == [True, True] and budget.budget2 == [np.inf]
    # a row decided where the budget still holds moves the anchor there
    budget.renew(at(10.5), 0, 10.0)
    budget.spend(at(13.0))
    budget.renew(at(13.0), 1, 2.0)
    assert budget.anchor == [[13.0, 0.0]] and budget.radii[1][0] == 2.0
    assert 7.5 - 1e-6 < budget.radii[0][0] < 7.5
    budget.spend(at(14.9))
    assert budget.stale == [False, False] and budget.anchor == [[13.0, 0.0]]
    budget.spend(at(15.1))
    assert budget.stale == [False, True] and budget.anchor == [[15.1, 0.0]]
    # an expired row limits nothing from the next renewal on; NaN spends all
    budget.expire(0)
    budget.renew(at(15.1), 1, 3.0)
    assert budget.stale == [True, False] and budget.budget2 == [9.0]
    # a radius not above 0 holds nothing and moves neither anchor nor budget
    budget.spend(at(16.0))
    for radius in (0.0, [-1.0], np.nan):
        budget.renew(at(16.0), 0, radius)
        assert budget.stale == [True, False] and budget.anchor == [[15.1, 0.0]]
        assert budget.budget2 == [9.0]
    budget.spend(at(np.nan))
    assert budget.stale == [True, True]


def array_spend(budget, positions):
    """`MotionBudget.spend` as it was on the (n, 2) array: the oracle of the
    spend on stacked floats."""
    budget.moved2 = [(x - a) * (x - a) + (y - b) * (y - b)
                     for (x, y), (a, b) in zip(positions.tolist(), budget.anchor)]
    for moved, limit in zip(budget.moved2, budget.budget2):
        if not moved < limit:
            return budget.renew(stacked(positions))


def budget_bits(budget) -> tuple:
    return (np.array(budget.anchor).tobytes(), np.array(budget.moved2).tobytes(),
            np.array(budget.radii).tobytes(), budget.stale, np.array(budget.budget2).tobytes())


coordinates = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1e-320, np.nan]))


@given(n=st.integers(1, 4), rows=st.integers(1, 3), data=st.data())
@settings(max_examples=200, deadline=None)
def test_spend_on_stacked_floats_equals_the_spend_on_the_array(n, rows, data):
    # two budgets, one spent as the simulator spends it and one as the
    # former array spend, hold the same bits through renewals and expiries
    def team():
        return np.array(data.draw(st.lists(coordinates, min_size=2 * n, max_size=2 * n)),
                        dtype=float).reshape(n, 2)

    start = team()
    budgets = [obstacle.MotionBudget(stacked(start), rows) for _ in range(2)]
    for step in range(data.draw(st.integers(1, 8))):
        positions = team() if data.draw(st.booleans()) else start + data.draw(
            st.floats(-5.0, 5.0))
        budgets[0].spend(stacked(positions))
        array_spend(budgets[1], positions)
        assert budget_bits(budgets[0]) == budget_bits(budgets[1])
        row = data.draw(st.integers(0, rows - 1))
        radius = data.draw(st.sampled_from([1.0, 4.0, 20.0, 0.0, np.inf]))
        for budget in budgets:
            budget.renew(stacked(positions), row, radius)
        assert budget_bits(budgets[0]) == budget_bits(budgets[1])


def budget_state(budget) -> tuple:
    return (float_bits(budget.anchor),
            None if budget.moved2 is None else float_bits(budget.moved2),
            float_bits(budget.radii), list(budget.stale), float_bits(budget.budget2))


BUDGET_RADII = st.one_of(st.floats(-1.0, 50.0), SPECIALS)


@given(n=st.integers(1, 4), rows=st.integers(1, 4), data=st.data())
@settings(max_examples=200, deadline=None)
def test_the_budget_on_floats_is_the_numpy_budget_bit_for_bit(n, rows, data):
    # spends, renewals with one radius or one a robot, and expiries leave
    # the float budget in the former array budget's state, bit for bit,
    # with NaN, infinities, -0.0, subnormal and huge positions and radii
    def team(near=None):
        if near is not None and data.draw(st.booleans()):
            return [v + d for v, d in zip(near, data.draw(
                st.lists(st.floats(-5.0, 5.0), min_size=2 * n, max_size=2 * n)))]
        return with_specials(data.draw, data.draw(
            st.lists(st.floats(-1e3, 1e3), min_size=2 * n, max_size=2 * n)))

    last = team()
    budget, oracle = obstacle.MotionBudget(last, rows), NumpyBudget(last, rows)
    assert budget_state(budget) == budget_state(oracle)
    for _ in range(data.draw(st.integers(1, 8))):
        last = team(last)
        action, row = data.draw(st.sampled_from(["renew", "renew", "expire", "spend"])), \
            data.draw(st.integers(0, rows - 1))
        radius = data.draw(st.one_of(BUDGET_RADII, st.lists(BUDGET_RADII, min_size=n,
                                                            max_size=n)))
        budget.spend(last)
        with np.errstate(all="ignore"):
            oracle.spend(last)
        assert budget_state(budget) == budget_state(oracle)
        if action == "renew":
            budget.renew(last, row, radius)
            with np.errstate(all="ignore"):
                oracle.renew(last, row, np.array(radius) if isinstance(radius, list) else radius)
        elif action == "expire":
            budget.expire(row)
            oracle.expire(row)
        assert budget_state(budget) == budget_state(oracle)


# the rows of a budget holding every decision the simulator holds, and a
# box's, which it no longer holds: one more row of a radius a robot
SENSED, PLAN, FIELD, EVENT, END, BOX = range(6)


@st.composite
def decision_walks(draw):
    """A `sensing_walks` field, team and walk (3 steps or more), and every
    other decision a simulator holds on them: the field's clearance minimum
    (floor 0 or a collision radius) and an event's on one or two field
    circles, each with a minimum carried in or none, the event's end in a
    frame through the first robot (the head), the planning skip over the
    event's circles toward a reference point at any angle from the first
    one's centre, often near a right angle, and a box about the field.
    Each step's `reuse` moves are sized by one drawn row's radii (by the
    budget where the row limits nothing).  The reference point walks too,
    by `MOVES` sized by how far the held skip lets it move."""
    field, team, steps, center = draw(sensing_walks())
    steps = steps + draw(st.lists(st.lists(MOVES, min_size=len(team), max_size=len(team)),
                                  min_size=max(3 - len(steps), 0), max_size=6))
    first = draw(st.integers(0, len(field.circles) - 1))
    circles = tuple(field.circles[first:first + draw(st.integers(1, 2))])
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    along = np.array([np.cos(angle), np.sin(angle)])
    event = obstacle.AvoidanceEvent(obstacle.MODE_SINGLE, circles, obstacle.PathFrame(
        team[0], along, np.array([-along[1], along[0]])))
    away = team[0] - np.asarray(circles[0].center)
    if draw(st.booleans()):
        turn = draw(st.floats(-2.0, 2.0))
    else:
        turn = draw(st.sampled_from([-1.0, 1.0])) * (
            np.pi / 2.0 - draw(st.sampled_from([1e-9, 1e-4, 0.05])))
    angle = np.arctan2(away[1], away[0]) + turn
    reference = team[0] + field.reach * draw(st.floats(0.0, 3.0)) * np.array(
        [np.cos(angle), np.sin(angle)])
    half = field.reach * draw(st.floats(0.5, 3.0))
    carried = st.one_of(st.just(np.inf), st.floats(-10.0, 150.0))
    return dict(field=field, team=team, steps=steps, center=center, event=event,
                reference=reference, box=(center - half, center + half),
                floor=draw(st.sampled_from([0.0, 25.0])), least=(draw(carried), draw(carried)),
                robot_radius=draw(st.sampled_from([0.0, 32.0, 32.1])),
                reference_moves=draw(st.lists(MOVES, min_size=len(steps),
                                              max_size=len(steps))),
                rows=draw(st.lists(st.integers(SENSED, BOX), min_size=len(steps),
                                   max_size=len(steps))))


def reference_step(reference, move, reach, center, field_reach):
    """The reference point after one of `MOVES`, a reuse move sized by the
    held skip's reach."""
    if move[0] == "reuse":
        _, fraction, _, angle = move
        if np.isfinite(reach):
            return reference + fraction * reach * np.array([np.cos(angle), np.sin(angle)])
    elif move[0] == "jump":
        return center + field_reach * np.array(move[1:])
    elif move[0] == "nan":
        return np.full(2, np.nan)
    return reference


@given(walk=decision_walks())
@settings(max_examples=150, deadline=None)
def test_one_budget_holds_every_decision_as_a_fresh_one_along_walks(walk):
    # re-deciding only the rows gone stale, as the simulator does, every
    # held outcome must be the one a fresh decision gives, at every step
    field, team, center, event = walk["field"], walk["team"], walk["center"], walk["event"]
    reference, (low, high), floor = walk["reference"], walk["box"], walk["floor"]
    fov, robot_radius = 2.0 * field.reach, walk["robot_radius"]
    minima = {FIELD: (field.circle_floats, circle_arrays(field.circles), floor),
              EVENT: (circle_floats(event.obstacles), circle_arrays(event.obstacles), 0.0)}
    least = dict(zip((FIELD, EVENT), walk["least"]))
    want = dict(least)
    plan_centers = minima[EVENT][1][0]
    box_margin = obstacle.SENSING_MARGIN * np.abs([low, high]).max()
    budget = obstacle.MotionBudget(stacked(team), BOX + 1)
    skip_from, skip_reach = None, np.nan
    for moves, ref_move, row in zip([None, *walk["steps"]], [None, *walk["reference_moves"]],
                                    [None, *walk["rows"]]):
        if moves is not None:
            radii = np.array(budget.radii[row])
            sizes = np.where(np.isfinite(radii), radii, np.sqrt(budget.budget2))
            team = walk_step(field, team, moves, sizes, center)
            reference = reference_step(reference, ref_move, skip_reach, center, field.reach)
            budget.spend(stacked(team))
        if budget.stale[SENSED]:
            circles, reuse = field.sensed(stacked(team))
            budget.renew(stacked(team), SENSED, reuse)
        assert circles == field.sensed(stacked(team))[0]
        for row, (floats, (centers, radii), row_floor) in minima.items():
            if budget.stale[row]:
                least[row], radius = running_clearance(least[row], stacked(team), *floats,
                                                       row_floor)
                budget.renew(stacked(team), row, radius)
            want[row] = min(want[row], nearest(team, centers, radii) - row_floor)
            assert np.float64(least[row]).tobytes() == np.float64(want[row]).tobytes()
        end = (event, team, 0, fov, robot_radius)
        if budget.stale[END]:
            cleared, radius = event_cleared(*end)
            if not cleared:
                budget.renew(stacked(team), END, radius.tolist())
        else:
            assert not event_cleared(*end)[0]
        skip, reach = behind(plan_centers, team[0], reference)
        moved = reference - skip_from if skip_from is not None else np.full(2, np.nan)
        if not budget.stale[PLAN] and moved @ moved < skip_reach * skip_reach:
            assert skip
        elif skip:
            skip_reach = reach
            budget.renew(stacked(team), PLAN,
                         np.where(np.arange(len(team)) == 0, skip_reach, np.inf).tolist())
            skip_from = reference
        else:
            budget.expire(PLAN)
        inside = bool(((team >= low) & (team <= high)).all())
        if not budget.stale[BOX]:
            assert inside
        elif inside:
            faces = np.minimum(team - low, high - team)
            budget.renew(stacked(team), BOX, (faces.min(axis=1) - box_margin).tolist())


@given(case=plan_cases(), fraction=st.sampled_from([0.5, 0.99, 1.0 - 2.0 ** -20]),
       angle=st.floats(0.0, 2.0 * np.pi))
@settings(max_examples=200, deadline=None)
def test_moves_within_the_behind_radius_keep_every_centre_behind(case, fraction, angle):
    # the head and the target each moving less than the radius, in the
    # directions that raise a centre's product the most or anywhere, leave
    # every centre behind
    head, target, circles, _ = case
    centers = circle_arrays(circles)[0]
    skip, reach = behind(centers, head, target)
    if not skip:
        return
    step = fraction * max(reach, 0.0)
    anywhere = np.array([np.cos(angle), np.sin(angle)])
    for center in centers:
        rel, heading = center - head, target - head
        units = [v / np.linalg.norm(v) for v in (rel, rel + heading, heading)
                 if np.linalg.norm(v) > 0.0]
        for head_move in [-u for u in units] + [anywhere]:
            for target_move in units + [anywhere]:
                assert behind(centers, head + step * head_move,
                              target + step * target_move)[0]


@given(case=end_cases(), fraction=st.sampled_from([0.5, 0.99, 1.0 - 2.0 ** -20]),
       angle=st.floats(0.0, 2.0 * np.pi))
@settings(max_examples=200, deadline=None)
def test_moves_within_the_end_radius_keep_the_event(case, fraction, angle):
    # a robot with a finite radius moving less than it, away from the
    # nearest circle, forward along the frame or anywhere, keeps the event
    # going while every other robot passes far beyond the circles
    event, positions, fov, radius = case
    cleared, radii = event_cleared(event, positions, 0, fov, radius)
    if cleared:
        return
    if not (radii > 0.0).all():      # then `MotionBudget.renew` holds nothing
        return
    frame = event.frame
    beyond = max(frame.coords(c.center)[0] + c.radius for c in event.obstacles) + 2.0 * fov
    for robot in np.isfinite(radii).nonzero()[0]:
        away = positions[robot] - min((np.asarray(c.center) for c in event.obstacles),
                                      key=lambda c: np.linalg.norm(positions[robot] - c))
        directions = [frame.along, np.array([np.cos(angle), np.sin(angle)])]
        if np.linalg.norm(away) > 0.0:
            directions.append(away / np.linalg.norm(away))
        for direction in directions:
            moved = np.array([frame.to_world(beyond + radius, 0.0)] * len(positions))
            moved[robot] = positions[robot] + fraction * radii[robot] * direction
            assert not event_cleared(event, moved, 0, fov, radius)[0]
