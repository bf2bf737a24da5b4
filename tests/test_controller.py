"""Formation controller pipeline: hand-worked examples and properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from niformation import controller, graph, scenario
from niformation.controller import (SPEED_CAPS, YAW_RATE_CAP,
                                    baseline_control, enhanced_control,
                                    heading_from_motion, lift, planar_law,
                                    saturate, speed_caps, wrap, yaw_consensus,
                                    yaw_law)
from niformation.scenario import NiGains

PAIR_TOPOLOGY = graph.build_topology(2, [(1, 2)], [1])
STAR = lift(graph.build_topology(3, [(1, 2), (1, 3)], [1]), 2)
PAIR = lift(PAIR_TOPOLOGY, 2)
PAIR_YAW = lift(PAIR_TOPOLOGY, 1)
CAPS3 = speed_caps(("uav", "ugv", "ugv"))
CAPS_UGV2 = speed_caps(("ugv", "ugv"))


def stack_rows(rows) -> list[float]:
    """(x, y) rows as the laws take them: each row's coordinates in turn."""
    return np.ravel(rows).tolist()


def baseline_rows(positions, lifted, gains, offsets, waypoint, caps) -> np.ndarray:
    """`baseline_control` bound to the lift, gains and caps, on (x, y) rows;
    its commands as (n, 2) rows."""
    law = planar_law(lifted, gains, caps, None)
    return np.reshape(baseline_control(stack_rows(positions), law, stack_rows(offsets),
                                       stack_rows(waypoint)), (-1, 2))


def enhanced_rows(positions, velocities, lifted, gains, offsets, waypoint, caps,
                  tau) -> np.ndarray:
    """`enhanced_control` bound to the lift, gains, caps and lookahead tau,
    on (x, y) rows; its commands as (n, 2) rows."""
    law = planar_law(lifted, gains, caps, tau)
    return np.reshape(enhanced_control(stack_rows(positions), stack_rows(velocities),
                                       law, stack_rows(offsets), stack_rows(waypoint)),
                      (-1, 2))


def yaw_commands(yaws, rates, lifted, gains, target, dt=0.02, horizon=1,
                 enhanced=False) -> list[float]:
    """`yaw_consensus` bound to the lift, gains and lookahead."""
    return yaw_consensus(yaws, rates, yaw_law(lifted, gains, dt, horizon, enhanced), target)


def star_gains(kc=-0.5, kr=-0.002):
    return NiGains(reference=(kr, kr), consensus=((kc, kc), (kc, kc)))


# ---------------------------------------------------------------- reference

def test_reference_agent_steers_toward_waypoint():
    # head at the origin, waypoint 50 cm ahead on x, gain -0.002:
    # command = -0.002 * (0 - 50) = +0.1 cm/s toward the waypoint
    top = lift(graph.build_topology(1, [], [1]), 2)
    gains = NiGains(reference=(-0.002, -0.002), consensus=())
    u = baseline_rows([[0.0, 0.0]], top, gains, np.zeros((0, 2)),
                      [50.0, 0.0], speed_caps(("uav",)))
    np.testing.assert_allclose(u, [[0.1, 0.0]])


def test_follower_steers_toward_its_slot():
    # follower 10 cm past the head with zero desired offset is pulled back
    gains = NiGains(reference=(0.0, 0.0), consensus=((-0.5, -0.5),))
    u = baseline_rows([[0.0, 0.0], [10.0, 0.0]], PAIR, gains,
                      [[0.0, 0.0]], [0.0, 0.0], CAPS_UGV2)
    np.testing.assert_allclose(u[1], [-5.0, 0.0])
    np.testing.assert_allclose(u[0], [0.0, 0.0])


def test_full_pipeline_matches_hand_computation():
    positions = [[0.0, 0.0], [120.0, 30.0], [-80.0, 60.0]]
    offsets = [[100.0, 50.0], [-100.0, 50.0]]
    u = baseline_rows(positions, STAR, star_gains(), offsets,
                      [50.0, 10.0], CAPS3)
    # shifted outputs: (-50,-10), (70,20), (-130,50)
    # edge errors + offsets: (-120,-30)+(100,50) = (-20,20);
    #                        (80,-60)+(-100,50) = (-20,-10)
    # gained: (10,-10), (10,5); reference row: (0.1, 0.02)
    # actuation: agent1 takes the reference row, followers take -edge
    np.testing.assert_allclose(u, [[0.1, 0.02], [-10.0, 10.0], [-10.0, -5.0]])


def test_settled_formation_produces_zero_commands():
    waypoint = np.array([37.0, -12.0])
    offsets = np.array([[100.0, 50.0], [-100.0, 50.0]])
    positions = np.vstack([waypoint, waypoint + offsets[0], waypoint + offsets[1]])
    u = baseline_rows(positions, STAR, star_gains(), offsets, waypoint, CAPS3)
    np.testing.assert_allclose(u, np.zeros((3, 2)), atol=1e-12)


def test_zero_gains_give_zero_commands():
    gains = NiGains(reference=(0.0, 0.0), consensus=((0.0, 0.0), (0.0, 0.0)))
    u = baseline_rows([[5.0, 1.0], [2.0, 2.0], [3.0, 3.0]], STAR, gains,
                      np.ones((2, 2)), [9.0, 9.0], CAPS3)
    np.testing.assert_allclose(u, np.zeros((3, 2)))


def test_gain_count_mismatch_is_rejected():
    # when the law is bound, once a run
    with pytest.raises(ValueError, match="consensus gain pairs"):
        planar_law(STAR, NiGains(reference=(0.0, 0.0), consensus=((-0.5, -0.5),)),
                   CAPS3, None)
    with pytest.raises(ValueError, match="yaw consensus gains"):
        yaw_law(PAIR_YAW, (-0.5, -0.5, -0.5), 0.02, 1, False)


def test_position_shape_mismatch_is_rejected():
    # by the bound law, on the stacks it is handed
    with pytest.raises(ValueError, match="positions"):
        baseline_control([0.0] * 4, planar_law(STAR, star_gains(), CAPS3, None),
                         [0.0] * 4, [0.0, 0.0])
    with pytest.raises(ValueError, match="positions"):
        enhanced_control([0.0] * 8, [0.0] * 8, planar_law(STAR, star_gains(), CAPS3, 0.02),
                         [0.0] * 4, [0.0, 0.0])


def test_offset_and_cap_count_mismatches_are_rejected():
    with pytest.raises(ValueError, match="offsets"):
        baseline_control([0.0] * 6, planar_law(STAR, star_gains(), CAPS3, None),
                         [0.0] * 2, [0.0, 0.0])
    for caps in (CAPS3[:-1], CAPS3 + (100.0,)):   # a cap missing or one too many
        with pytest.raises(ValueError):
            planar_law(STAR, star_gains(), caps, None)


# --------------------------------------------------------------- prediction

def test_enhanced_minus_baseline_equals_gained_prediction():
    positions = [[0.0, 0.0], [120.0, 30.0], [-80.0, 60.0]]
    velocities = [[10.0, -20.0], [0.0, 0.0], [0.0, 0.0]]
    offsets = [[100.0, 50.0], [-100.0, 50.0]]
    base = baseline_rows(positions, STAR, star_gains(), offsets,
                         [50.0, 10.0], CAPS3)
    enh = enhanced_rows(positions, velocities, STAR, star_gains(), offsets,
                        [50.0, 10.0], CAPS3, tau=0.02)
    # each follower's command shifts by -(Kc * head displacement)
    np.testing.assert_allclose(enh[0], base[0])
    np.testing.assert_allclose(enh[1] - base[1], [0.1, -0.2])
    np.testing.assert_allclose(enh[2] - base[2], [0.1, -0.2])


def test_enhanced_prediction_scales_with_horizon():
    positions = [[0.0, 0.0], [50.0, 0.0]]
    velocities = [[30.0, 0.0], [0.0, 0.0]]
    gains = NiGains(reference=(0.0, 0.0), consensus=((-0.5, -0.5),))
    one = enhanced_rows(positions, velocities, PAIR, gains, [[0.0, 0.0]],
                        [0.0, 0.0], CAPS_UGV2, tau=0.02 * 1)
    sixty = enhanced_rows(positions, velocities, PAIR, gains, [[0.0, 0.0]],
                          [0.0, 0.0], CAPS_UGV2, tau=0.02 * 60)
    base = baseline_rows(positions, PAIR, gains, [[0.0, 0.0]],
                         [0.0, 0.0], CAPS_UGV2)
    np.testing.assert_allclose(one[1] - base[1], [0.3, 0.0])
    np.testing.assert_allclose(sixty[1] - base[1], [18.0, 0.0])


def test_enhanced_with_zero_velocity_equals_baseline():
    positions = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    offsets = [[10.0, 0.0], [0.0, 10.0]]
    base = baseline_rows(positions, STAR, star_gains(), offsets,
                         [0.0, 0.0], CAPS3)
    enh = enhanced_rows(positions, np.zeros((3, 2)), STAR, star_gains(),
                        offsets, [0.0, 0.0], CAPS3, tau=0.02)
    np.testing.assert_allclose(enh, base)


# --------------------------------------------------------------- saturation

def test_commands_clip_to_per_kind_limits():
    gains = NiGains(reference=(-10.0, -10.0), consensus=((-10.0, -10.0), (-10.0, -10.0)))
    u = baseline_rows([[0.0, 0.0], [500.0, 0.0], [0.0, -500.0]], STAR, gains,
                      np.zeros((2, 2)), [900.0, 0.0], CAPS3)
    assert abs(u[0][0]) == 200.0      # uav cap
    assert abs(u[1][0]) == 100.0      # ugv cap
    assert abs(u[2][1]) == 100.0


def test_saturation_is_idempotent():
    raw = [312.0, -45.0, -150.0, 99.0]
    caps = speed_caps(("uav", "ugv"))
    once = saturate(raw, caps)
    assert once == [200.0, -45.0, -100.0, 99.0] and saturate(once, caps) == once


def test_unknown_kind_is_rejected():
    # a scenario's agents are checked where they are built; the caps know
    # only the kinds in `SPEED_CAPS`
    with pytest.raises(KeyError, match="boat"):
        speed_caps(("boat",))


@given(vx=st.floats(-1e4, 1e4), vy=st.floats(-1e4, 1e4))
@settings(max_examples=50, deadline=None)
def test_saturated_commands_never_exceed_limits(vx, vy):
    out = saturate([vx, vy], speed_caps(("ugv",)))
    assert np.all(np.abs(out) <= 100.0)


# ------------------------------------------------------------------- gains

def test_positive_gains_are_rejected():
    with pytest.raises(ValueError, match="nonpositive"):
        NiGains(reference=(0.1, 0.0), consensus=())
    with pytest.raises(ValueError, match="nonpositive"):
        NiGains(reference=(0.0, 0.0), consensus=((0.0, 0.2),))


def test_gain_vectors_are_built_with_the_gains():
    gains = NiGains(reference=(-0.1, -0.2), consensus=((-1.0, -2.0), (-3.0, -4.0)))
    np.testing.assert_array_equal(gains.planar, [-1.0, -2.0, -3.0, -4.0, -0.1, -0.2])


# --------------------------------------------------------------------- yaw

def test_wrap_range_and_fixed_points():
    assert wrap(np.pi) == pytest.approx(np.pi)
    assert wrap(-np.pi) == pytest.approx(np.pi)
    assert wrap(3 * np.pi) == pytest.approx(np.pi)
    assert wrap(0.0) == 0.0
    assert wrap(np.pi / 4) == pytest.approx(np.pi / 4)
    assert wrap(2 * np.pi + 0.1) == pytest.approx(0.1)
    assert wrap(-0.1) == pytest.approx(-0.1)


def numpy_wrap(angle):
    """The numpy wrap formula, frozen here as an oracle of `wrap`."""
    wrapped = np.remainder(np.asarray(angle, dtype=float), 2.0 * np.pi)
    wrapped = np.where(wrapped > np.pi, wrapped - 2.0 * np.pi, wrapped)
    return float(wrapped) if np.isscalar(angle) else wrapped


# signed zeros, odd multiples of pi (the cut) and anything up to 1e6 rad
wide_angles = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0]),
                        st.integers(-2000, 1999).map(lambda k: (2 * k + 1) * np.pi))


@given(values=st.lists(wide_angles, min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_wrap_angle_equals_the_numpy_formula_bit_for_bit(values):
    # any angle up to 1e6 rad, given as a float, a numpy float or an int,
    # and element by element over a list of them
    head = values[0]
    for scalar in (head, np.float64(head), int(head)):
        got = wrap(scalar)
        assert isinstance(got, float)
        assert np.float64(got).tobytes() == np.float64(numpy_wrap(scalar)).tobytes()
    want = numpy_wrap(np.array(values))
    assert np.array([wrap(v) for v in values]).tobytes() == want.tobytes()


def test_yaw_reference_agent_turns_toward_target():
    gains = np.array([-0.02, -0.066])
    u = yaw_commands([0.0, 0.0], [0.0, 0.0], PAIR_YAW, gains, np.pi / 2)
    assert u[0] == pytest.approx(-0.066 * (0.0 - np.pi / 2))
    assert u[1] == pytest.approx(0.0)


def test_yaw_follower_aligns_with_head():
    gains = np.array([-0.02, -0.066])
    u = yaw_commands([np.pi / 2, 0.0], [0.0, 0.0], PAIR_YAW, gains, np.pi / 2)
    # follower error pi/2, actuation sign flips: positive rate toward head
    assert u[1] == pytest.approx(0.02 * np.pi / 2)


def test_yaw_error_wraps_across_the_cut():
    gains = np.array([-0.5, -0.5])
    # head at +175 deg, follower at -175 deg: the short way is +10 deg
    yaws = [np.deg2rad(175.0), np.deg2rad(-175.0)]
    u = yaw_commands(yaws, [0.0, 0.0], PAIR_YAW, gains, np.deg2rad(175.0))
    assert u[1] == pytest.approx(0.5 * np.deg2rad(-10.0))


def test_yaw_rate_commands_clip():
    gains = np.array([-10.0, -10.0])
    u = yaw_commands([0.0, np.pi], [0.0, 0.0], PAIR_YAW, gains, np.pi)
    assert np.all(np.abs(u) <= 1.5)


def test_yaw_enhanced_adds_head_rate_lookahead():
    gains = np.array([-0.5, 0.0])
    base = yaw_commands([0.3, 0.3], [0.2, 0.0], PAIR_YAW, gains, 0.0)
    enh = yaw_commands([0.3, 0.3], [0.2, 0.0], PAIR_YAW, gains, 0.0, enhanced=True)
    assert base[1] == pytest.approx(0.0)
    assert enh[1] == pytest.approx(0.5 * 0.2 * 0.02)


def test_the_yaw_feed_keeps_its_operand_order():
    # (rate * dt) * horizon and rate * (dt * horizon) round apart here; the
    # follower's command is its edge error, the head's feed alone
    rate, dt, horizon = 0.1, 0.02, 7
    assert (rate * dt) * horizon != rate * (dt * horizon)
    u = yaw_commands([0.3, 0.3], [rate, 0.0], PAIR_YAW, [-1.0, 0.0], 0.0,
                     dt=dt, horizon=horizon, enhanced=True)
    assert u[1] == (rate * dt) * horizon


# ------------------------------------------------------------------ heading

def test_heading_from_motion():
    assert heading_from_motion([1.0, 1.0], [0.0, 0.0], 0.0) == pytest.approx(np.pi / 4)
    assert heading_from_motion([0.0, -1.0], [0.0, 0.0], 0.0) == pytest.approx(-np.pi / 2)
    assert heading_from_motion([5.0, 5.0], [5.0, 5.0], 1.234) == 1.234


# ------------------------------------------- prebuilt lifts vs inline kron

def inline_planar(positions, velocities, topology, gains, offsets, waypoint,
                  kinds, tau):
    """The planar law with its Kronecker blocks built on every call."""
    sensing, actuation = graph.kron_expand(topology, 2)
    shifted = np.asarray(positions, dtype=float) - np.asarray(waypoint, dtype=float)
    stacked = sensing.T @ shifted.ravel()
    feed = np.zeros_like(stacked)
    if topology.n_edges:
        feed[: 2 * topology.n_edges] = np.asarray(offsets, dtype=float).ravel()
    errors = stacked + feed
    if velocities is not None:
        for e, (head, _tail) in enumerate(topology.edges):
            errors[2 * e] += float(velocities[head - 1][0] * tau)
            errors[2 * e + 1] += float(velocities[head - 1][1] * tau)
    gain_vec = np.concatenate([np.asarray(gains.consensus, dtype=float).reshape(-1),
                               np.asarray(gains.reference, dtype=float)])
    out = (actuation @ (gain_vec * errors)).reshape(topology.n_agents, 2)
    for i, kind in enumerate(kinds):
        cap = SPEED_CAPS[kind]
        out[i] = np.clip(out[i], -cap, cap)
    return out


def inline_yaw(yaws, rates, topology, gains, target, dt, horizon, enhanced):
    """The yaw law with its Kronecker block built on every call."""
    _, actuation = graph.kron_expand(topology, 1)
    errors = np.zeros(topology.n_edges + 1)
    for e, (head, tail) in enumerate(topology.edges):
        err = numpy_wrap(yaws[head - 1] - yaws[tail - 1])
        if enhanced:
            err += rates[head - 1] * dt * horizon
        errors[e] = err
    errors[-1] = numpy_wrap(yaws[topology.reference_agents[0] - 1] - target)
    raw = actuation @ (np.asarray(gains, dtype=float) * errors)
    return np.clip(raw, -1.5, 1.5)


@st.composite
def topologies(draw):
    """A random directed tree over 2-5 agents rooted at agent 1."""
    n = draw(st.integers(2, 5))
    edges = [(draw(st.integers(1, tail - 1)), tail) for tail in range(2, n + 1)]
    refs = draw(st.lists(st.integers(1, n), min_size=1, max_size=2))
    return graph.build_topology(n, edges, refs)


@st.composite
def digraphs(draw):
    """A random digraph over 1-4 agents, each pair joined at most once either
    way, with 1-3 reference agents: an agent may be the tail of up to 3
    edges and a reference agent too, so a row may have 3 or more terms."""
    n = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [pair if draw(st.booleans()) else pair[::-1] for pair in chosen]
    refs = draw(st.lists(st.integers(1, n), min_size=1, max_size=3))
    return graph.build_topology(n, edges, refs)


coords = st.one_of(st.floats(-500.0, 500.0), st.just(-0.0))
nonpositive = st.one_of(st.floats(-5.0, 0.0), st.just(-0.0))


def same_bits(got, want):
    """Equal shapes and bytes: -0.0 and +0.0 count as different."""
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@given(data=st.data(), topology=topologies(), enhanced=st.booleans(),
       horizon=st.integers(1, 60))
@settings(max_examples=80, deadline=None)
def test_planar_laws_with_a_prebuilt_lift_equal_the_inline_products(
        data, topology, enhanced, horizon):
    n, n_edges = topology.n_agents, topology.n_edges
    arrays = lambda rows: np.array(data.draw(  # noqa: E731
        st.lists(st.tuples(coords, coords), min_size=rows, max_size=rows)),
        dtype=float).reshape(rows, 2)
    positions, velocities, offsets = arrays(n), arrays(n), arrays(n_edges)
    waypoint = arrays(1)[0]
    if data.draw(st.booleans()):
        # -0.0 inputs on the reference agents; the sensing product still
        # sums them to +0.0, so the test below pins the `+ 0.0`
        positions[np.subtract(topology.reference_agents, 1)] = -0.0
        waypoint[:] = 0.0
    kinds = data.draw(st.lists(st.sampled_from(("ugv", "uav")),
                               min_size=n, max_size=n))
    gains = NiGains(reference=data.draw(st.tuples(nonpositive, nonpositive)),
                    consensus=tuple(data.draw(st.tuples(nonpositive, nonpositive))
                                    for _ in range(n_edges)))
    lifted, caps = lift(topology, 2), speed_caps(kinds)
    if enhanced:
        got = enhanced_rows(positions, velocities, lifted, gains, offsets,
                            waypoint, caps, tau=0.02 * horizon)
        want = inline_planar(positions, velocities, topology, gains, offsets,
                             waypoint, kinds, 0.02 * horizon)
    else:
        got = baseline_rows(positions, lifted, gains, offsets, waypoint, caps)
        want = inline_planar(positions, None, topology, gains, offsets,
                             waypoint, kinds, 0.0)
    assert same_bits(got, want)


@given(data=st.data(), topology=topologies(), enhanced=st.booleans(),
       target=st.floats(-4.0, 4.0))
@settings(max_examples=80, deadline=None)
def test_yaw_law_with_a_prebuilt_lift_equals_the_inline_products(
        data, topology, enhanced, target):
    n, n_edges = topology.n_agents, topology.n_edges
    angles = st.floats(-7.0, 7.0)
    yaws = np.array(data.draw(st.lists(angles, min_size=n, max_size=n)))
    rates = np.array(data.draw(st.lists(angles, min_size=n, max_size=n)))
    # the edge gains, then the reference gain
    gains = np.array([data.draw(nonpositive) for _ in range(n_edges + 1)])
    if data.draw(st.booleans()):
        # -0.0 - +0.0 on the reference row before it is wrapped
        yaws[topology.reference_agents[0] - 1] = -0.0
        target = 0.0
    got = np.array(yaw_commands(yaws, rates, lift(topology, 1), gains, target,
                                dt=0.02, horizon=3, enhanced=enhanced))
    want = inline_yaw(yaws, rates, topology, gains, target, 0.02, 3, enhanced)
    assert same_bits(got, want)


class NoProduct:
    """A block that fails when multiplied: the gather must not fall back."""

    def __matmul__(self, vector):
        raise AssertionError("the matrix product ran")


def test_a_gathered_row_of_negative_zero_terms_is_positive_zero():
    # on -0.0 inputs a row with a single term sums 1 * -0.0 and its padding
    # 0.0 * -0.0, both -0.0: the star's reference rows in either block
    v = [-0.0] * 6
    for terms in (STAR.sensing_terms, STAR.actuation_terms):
        got = controller._product(terms, NoProduct(), v)
        assert got == [0.0] * 6 and not np.signbit(got).any()


# +-0.0, NaN, +-inf, and finite values whose sums overflow
product_inputs = st.one_of(st.floats(-300.0, 300.0), st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, -1e308]))


@given(data=st.data(), topology=st.one_of(topologies(), digraphs()),
       m=st.sampled_from((1, 2)))
@settings(max_examples=300, deadline=None)
def test_gathered_products_equal_the_numpy_products_bit_for_bit(data, topology, m):
    width = m * max(topology.n_agents, topology.n_edges + 1)
    values = st.floats(-300.0, 300.0) if data.draw(st.booleans()) else product_inputs
    v = data.draw(st.lists(values, min_size=width, max_size=width))
    lifted = lift(topology, m)
    for terms, matrix in ((lifted.sensing_terms, lifted.sensing_t),
                          (lifted.actuation_terms, lifted.actuation)):
        operand = v[: matrix.shape[1]]
        # the gather must decide every lift without a row of 3 or more terms
        # on finite inputs whose sum is finite
        gathers = terms is not None and math.isfinite(sum(operand))
        with np.errstate(all="ignore"):
            got = controller._product(terms, NoProduct() if gathers else matrix, operand)
            want = matrix @ np.array(operand)
        assert np.array(got).tobytes() == want.tobytes()


def test_every_shipped_lift_gathers():
    for name in scenario.shipped_scenarios():
        scn = scenario.load_scenario(name)
        lifts = [lift(scn.topology, 2)]
        if scn.yaw_control is not None:
            lifts.append(lift(scn.yaw_control.topology, 1))
        for lifted in lifts:
            assert lifted.sensing_terms is not None, name
            assert lifted.actuation_terms is not None, name


def test_laws_reject_a_lift_of_the_wrong_width():
    # when the law is bound, once a run
    with pytest.raises(ValueError, match="lifted to 2"):
        planar_law(PAIR_YAW, star_gains(), CAPS_UGV2, None)
    with pytest.raises(ValueError, match="lifted to 1"):
        yaw_law(PAIR, np.zeros(2), 0.02, 1, False)


def test_equal_topologies_share_one_read_only_lift_per_width():
    one, twin = (graph.build_topology(2, [(1, 2)], [1]) for _ in range(2))
    assert one is not twin
    planar, yaw = lift(one, 2), lift(one, 1)
    assert lift(twin, 2) is planar and lift(twin, 1) is yaw
    assert planar is not yaw
    for lifted in (STAR, planar, yaw):
        for matrix in (lifted.sensing_t, lifted.actuation):
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 1.0
        # still the transposed view of the C-ordered sensing product, so the
        # sensing product reads its operand in the recorded order
        assert lifted.sensing_t.strides == (8, 8 * lifted.sensing_t.shape[0])
        assert lifted.actuation.flags.c_contiguous


# ------------------------------------- the float laws vs the numpy laws
#
# The laws as they were on numpy arrays, copied here as the oracles of the
# float laws: every elementwise step a numpy ufunc, the same two products.

def numpy_route(errors, lifted, gains, caps):
    raw = lifted.actuation @ (np.asarray(gains, dtype=float) * errors)
    return np.minimum(np.maximum(raw.reshape(lifted.topology.n_agents, lifted.m),
                                 -caps), caps)


def numpy_planar(positions, velocities, lifted, gains, offsets, waypoint, caps,
                 dt, horizon):
    """`baseline_control` (velocities None) or `enhanced_control` on (n, 2)
    arrays; caps is the (n, 1) column of per-agent speed caps."""
    topology = lifted.topology
    offs = np.asarray(offsets, dtype=float).reshape(topology.n_edges, 2)
    shifted = np.asarray(positions, dtype=float) - np.asarray(waypoint, dtype=float)
    errors = lifted.sensing_t @ shifted.ravel()
    edge_rows, reference_rows = errors[: offs.size], errors[offs.size:]
    edge_rows += offs.ravel()
    reference_rows += 0.0
    if velocities is not None:
        feed = np.asarray(velocities, dtype=float)[topology.heads] * (dt * horizon)
        errors[: feed.size] += feed.ravel()
    return numpy_route(errors, lifted, gains.planar, caps)


def numpy_wrap_in_place(angles):
    np.remainder(angles, 2.0 * np.pi, out=angles)
    np.subtract(angles, 2.0 * np.pi, out=angles, where=angles > np.pi)
    return angles


def numpy_yaw(yaws, yaw_rates, lifted, gains, target, dt, horizon, enhanced):
    topology = lifted.topology
    heads, n_edges = topology.heads, topology.n_edges
    yaw = np.asarray(yaws, dtype=float)
    errors = np.empty(n_edges + 1)
    edge_rows = errors[:n_edges]
    np.subtract(yaw[heads], yaw[topology.tails], out=edge_rows)
    errors[n_edges] = yaw[topology.reference_agents[0] - 1] - target
    numpy_wrap_in_place(errors)
    if enhanced:
        edge_rows += np.asarray(yaw_rates, dtype=float)[heads] * dt * horizon
    return numpy_route(errors, lifted, gains, YAW_RATE_CAP).ravel()


def one_nan(values):
    """The values with every NaN made numpy's `nan`.  Where two NaNs meet in
    an add or a multiply, numpy's ufunc keeps the sign bit of the first and
    Python's float operator that of the second; a NaN stays a NaN either way,
    and no log or summary writes its sign."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isnan(values), np.nan, values)


# signed zeros, NaN, infinities and both caps of each sign, so that a
# command can tie a cap exactly
SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 100.0, -100.0, 200.0, -200.0]
finite = st.floats(-300.0, 300.0)
specials = st.one_of(finite, st.sampled_from(SPECIAL))
# gains small enough that most commands stay inside their caps, and -1.0
special_gains = st.one_of(st.floats(-0.2, 0.0), st.sampled_from([-1.0, -0.0, 0.0]))
# the cut at +-pi and multiples of 2 pi, where the remainder lands on 0
finite_angles = st.floats(-20.0, 20.0)
cut_angles = st.one_of(finite_angles, st.sampled_from(SPECIAL[:5]),
                       st.integers(-8, 8).map(lambda k: k * np.pi))
# half the examples draw finite values alone: a NaN or an infinity spreads
# through the products and would mask a rounding difference elsewhere
only_finite = st.booleans()


def speed_column(kinds):
    return np.array([[SPEED_CAPS[kind]] for kind in kinds])


@given(data=st.data(), topology=st.one_of(topologies(), digraphs()),
       enhanced=st.booleans(), horizon=st.integers(1, 60))
@settings(max_examples=150, deadline=None)
def test_float_planar_laws_equal_the_numpy_laws_bit_for_bit(
        data, topology, enhanced, horizon):
    n, n_edges = topology.n_agents, topology.n_edges
    values = finite if data.draw(only_finite) else specials
    arrays = lambda rows: np.array(data.draw(  # noqa: E731
        st.lists(values, min_size=2 * rows, max_size=2 * rows))).reshape(rows, 2)
    positions, velocities, offsets = arrays(n), arrays(n), arrays(n_edges)
    waypoint = arrays(1)[0]
    kinds = data.draw(st.lists(st.sampled_from(("ugv", "uav")), min_size=n, max_size=n))
    gains = NiGains(reference=data.draw(st.tuples(special_gains, special_gains)),
                    consensus=tuple(data.draw(st.tuples(special_gains, special_gains))
                                    for _ in range(n_edges)))
    lifted = lift(topology, 2)
    with np.errstate(all="ignore"):
        want = numpy_planar(positions, velocities if enhanced else None, lifted,
                            gains, offsets, waypoint, speed_column(kinds), 0.02,
                            horizon)
        caps = speed_caps(kinds)
        if enhanced:
            got = enhanced_rows(positions, velocities, lifted, gains, offsets,
                                waypoint, caps, tau=0.02 * horizon)
        else:
            got = baseline_rows(positions, lifted, gains, offsets, waypoint, caps)
    assert same_bits(one_nan(got), one_nan(want))


@given(data=st.data(), topology=st.one_of(topologies(), digraphs()),
       enhanced=st.booleans(), horizon=st.integers(1, 60))
@settings(max_examples=150, deadline=None)
def test_float_yaw_law_equals_the_numpy_law_bit_for_bit(
        data, topology, enhanced, horizon):
    n, n_edges = topology.n_agents, topology.n_edges
    angles, rates = ((finite_angles, finite) if data.draw(only_finite)
                     else (cut_angles, specials))
    draw = lambda values, size: data.draw(  # noqa: E731
        st.lists(values, min_size=size, max_size=size))
    yaws, rates = draw(angles, n), draw(rates, n)
    target = data.draw(angles)
    gains = draw(special_gains, n_edges + 1)
    lifted = lift(topology, 1)
    with np.errstate(all="ignore"):
        want = numpy_yaw(yaws, rates, lifted, gains, target, 0.02, horizon, enhanced)
        got = yaw_commands(yaws, rates, lifted, gains, target, dt=0.02,
                           horizon=horizon, enhanced=enhanced)
    assert same_bits(one_nan(got), one_nan(want))


@given(values=st.lists(cut_angles, min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_float_wrap_equals_the_numpy_wrap_bit_for_bit(values):
    with np.errstate(all="ignore"):
        want = numpy_wrap_in_place(np.array(values))
    assert np.array([wrap(v) for v in values]).tobytes() == want.tobytes()


@given(data=st.data(), kinds=st.lists(st.sampled_from(("ugv", "uav")),
                                      min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_float_clip_equals_the_numpy_clip_bit_for_bit(data, kinds):
    commands = np.array(data.draw(st.lists(specials, min_size=2 * len(kinds),
                                           max_size=2 * len(kinds)))).reshape(-1, 2)
    column = speed_column(kinds)
    want = np.minimum(np.maximum(commands, -column), column)
    got = saturate(stack_rows(commands), speed_caps(kinds))
    assert same_bits(np.reshape(got, (-1, 2)), want)
