"""Formation schedules and transition convergence semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from niformation import formation
from niformation.formation import (CONVERGED, IN_PROGRESS, TIMED_OUT,
                                   TransitionState, check_convergence)
from niformation.scenario import FormationPhase, FormationSpec


def two_phase_spec():
    return FormationSpec(phases=(
        FormationPhase(0, ((100.0, 50.0), (-100.0, 50.0))),
        FormationPhase(1, ((50.0, 50.0), (-50.0, 50.0))),
    ))


def simple_transition(duration=2.0):
    return TransitionState(
        start_time=10.0, duration=duration, agents=(2, 3),
        start_offsets=[100.0, 50.0, -100.0, 50.0],
        target_offsets=[50.0, 50.0, -50.0, 50.0], label="waypoint",
        destination=[50.0, 150.0, -50.0, 150.0])


def arrive(transition, positions, now, tolerance=5.0):
    """The waypoint-transition test: (x, y) residuals from each position to
    its stacked destination, no hold, half the duration as grace."""
    dest = transition.destination
    residual = [(dest[2 * k] - x, dest[2 * k + 1] - y) for k, (x, y) in enumerate(positions)]
    return check_convergence(transition, residual, now, tolerance=tolerance,
                             grace=0.5 * transition.duration, hold=0.0)


# ------------------------------------------------------------------- phases

def test_phase_selection_follows_completed_waypoints():
    spec = two_phase_spec()
    def offsets(completed):
        return spec.phases[spec.phase_index(completed)].offsets

    assert offsets(0) == ((100.0, 50.0), (-100.0, 50.0))
    assert offsets(1) == ((50.0, 50.0), (-50.0, 50.0))
    assert offsets(5) == ((50.0, 50.0), (-50.0, 50.0))
    assert spec.phase_index(0) == 0
    assert spec.phase_index(3) == 1


@pytest.mark.parametrize("phases, match", [
    ((), "at least one phase"),
    ((FormationPhase(1, ((0.0, 0.0),)),), "zero completed"),
    ((FormationPhase(0, ((0.0, 0.0),)), FormationPhase(0, ((1.0, 1.0),))),
     "strictly increase"),
    ((FormationPhase(0, ((0.0, 0.0),)), FormationPhase(1, ((1.0, 1.0), (2.0, 2.0)))),
     "same edge count"),
])
def test_invalid_schedules_are_rejected(phases, match):
    with pytest.raises(ValueError, match=match):
        FormationSpec(phases=phases)


def test_phase_validation():
    with pytest.raises(ValueError):
        FormationPhase(-1, ((0.0, 0.0),))
    with pytest.raises(ValueError):
        FormationPhase(0, ((0.0, 0.0),), transition_duration=0.0)


# -------------------------------------------------------------- transitions

def test_transition_destination():
    tr = simple_transition()
    assert tr.destination == [50.0, 150.0, -50.0, 150.0]
    assert tr.moving == (0, 1)
    assert tr.deadline == pytest.approx(12.0)


def test_transition_validation():
    with pytest.raises(ValueError, match="duration"):
        TransitionState(0.0, 0.0, (2,), [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="agent list"):
        TransitionState(0.0, 2.0, (2, 3), [0.0, 0.0], [1.0, 1.0])


def test_agents_with_zero_displacement_do_not_participate():
    tr = TransitionState(0.0, 2.0, (2, 3), [0.0] * 4, [0.0, 0.0, 10.0, 0.0])
    assert tr.moving == (1,)


# -------------------------------------------------------------- convergence

def test_convergence_requires_entering_the_band():
    tr = simple_transition()
    assert arrive(tr, [[90.0, 150.0], [-90.0, 150.0]], 10.5) == IN_PROGRESS
    assert tr.first_entry == {}


def test_first_entry_time_is_recorded_once():
    tr = simple_transition()
    arrive(tr, [[54.0, 150.0], [-90.0, 150.0]], 11.0)
    assert tr.first_entry == {2: 11.0}
    # agent 2 wandering back out does not reset its entry record
    arrive(tr, [[70.0, 150.0], [-54.0, 151.0]], 11.5)
    assert tr.first_entry == {2: 11.0, 3: 11.5}


def test_all_participants_in_band_converges():
    tr = simple_transition()
    status = arrive(tr, [[52.0, 148.0], [-48.0, 152.0]], 11.8)
    assert status == CONVERGED
    assert tr.converged_time == pytest.approx(11.8)
    # status is sticky via the recorded entries
    assert arrive(tr, [[52.0, 148.0], [-48.0, 152.0]], 12.5) == CONVERGED
    assert tr.converged_time == pytest.approx(11.8)


def test_band_is_per_axis():
    tr = simple_transition()
    # (4, 4) off is inside the per-axis band even though its 2-norm exceeds
    # the tolerance; 6 off on a single axis is outside
    arrive(tr, [[54.0, 154.0], [-44.0, 150.0]], 11.0, tolerance=5.0)
    assert 2 in tr.first_entry
    assert 3 not in tr.first_entry


def test_timeout_after_deadline_plus_grace():
    tr = simple_transition()  # deadline 12, default grace 1
    far = [[100.0, 150.0], [-100.0, 150.0]]
    assert arrive(tr, far, 12.9) == IN_PROGRESS
    assert arrive(tr, far, 13.01) == TIMED_OUT


def test_zero_displacement_only_transition_converges_immediately():
    tr = TransitionState(0.0, 2.0, (2,), [1.0, 1.0], [1.0, 1.0], destination=[5.0, 5.0])
    assert arrive(tr, [[400.0, 400.0]], 0.0) == CONVERGED


def test_position_shape_mismatch_rejected():
    # offsets that do not stack one (x, y) per steered agent, and a residual
    # that is not one pair per steered agent
    for start, target in ((4, 2), (2, 4), (2, 2), (6, 6), (3, 3)):
        with pytest.raises(ValueError, match="agent list"):
            TransitionState(10.0, 2.0, (2, 3), [0.0] * start, [1.0] * target)
    with pytest.raises(ValueError, match="agent list"):
        check_convergence(simple_transition(), [[0.0, 0.0]], 10.0,
                          tolerance=5.0, grace=1.0, hold=0.0)


def test_hold_needs_every_participant_in_band_together():
    tr = simple_transition()
    inside, outside = [[1.0, -1.0], [0.0, 2.0]], [[1.0, -1.0], [9.0, 0.0]]
    check = lambda residual, now: check_convergence(  # noqa: E731
        tr, residual, now, tolerance=5.0, grace=12.0, hold=1.0)
    assert check(inside, 10.5) == IN_PROGRESS
    assert tr.in_band_since == 10.5
    # one agent leaving the band restarts the hold
    assert check(outside, 11.0) == IN_PROGRESS
    assert tr.in_band_since is None
    assert check(inside, 11.2) == IN_PROGRESS
    assert check(inside, 12.1) == IN_PROGRESS
    assert check(inside, 12.2) == CONVERGED
    assert tr.converged_time == 11.2
    assert tr.first_entry == {2: 10.5, 3: 10.5}


def test_hold_times_out_after_deadline_plus_grace():
    tr = simple_transition()  # deadline 12
    outside = [[1.0, -1.0], [9.0, 0.0]]
    check = lambda now: check_convergence(  # noqa: E731
        tr, outside, now, tolerance=5.0, grace=12.0, hold=1.0)
    assert check(23.9) == IN_PROGRESS
    assert check(24.01) == TIMED_OUT


@given(dx=st.floats(-80.0, 80.0), dy=st.floats(-80.0, 80.0),
       t=st.floats(0.5, 5.0))
@settings(max_examples=40, deadline=None)
def test_moving_to_the_exact_destination_always_converges(dx, dy, t):
    tr = TransitionState(0.0, t, (2,), [0.0, 0.0], [dx, dy],
                         destination=[10.0 + dx, -10.0 + dy])
    status = arrive(tr, [tr.destination], t * 0.5)
    assert status == CONVERGED


# ------------------------------------------ the per-agent loop as the oracle

def participating_by_loop(state):
    with np.errstate(invalid="ignore"):   # inf - inf is NaN, as on floats
        dis = np.subtract(state.target_offsets, state.start_offsets).reshape(-1, 2)
    return [k for k in range(len(state.agents)) if float(np.abs(dis[k]).max()) > 1e-12]


def check_convergence_by_loop(state, residual, now, *, tolerance, grace, hold):
    """`check_convergence` as a per-agent loop that re-derives the
    participating agents on every call: the reference it must reproduce."""
    res = np.asarray(residual, dtype=float).reshape(-1, 2)
    inside = np.all(np.abs(res) <= tolerance, axis=1)
    for agent, entered in zip(state.agents, inside):
        if entered:
            state.first_entry.setdefault(agent, now)
    if all(inside[k] for k in participating_by_loop(state)):
        if state.in_band_since is None:
            state.in_band_since = now
        if now - state.in_band_since >= hold:
            if state.converged_time is None:
                state.converged_time = state.in_band_since
            return CONVERGED
        return IN_PROGRESS
    state.in_band_since = None
    if now > state.deadline + grace:
        return TIMED_OUT
    return IN_PROGRESS


TOLERANCE = 5.0
INF, NAN = float("inf"), float("nan")
# displacements about the participation threshold, and none at all
DISPLACEMENTS = st.one_of(
    st.sampled_from([(0.0, 0.0), (-0.0, 0.0), (1e-12, -1e-12),
                     (0.0, float(np.nextafter(1e-12, 1.0))), (-1e-13, 3e-13),
                     (NAN, 0.0), (0.0, NAN), (INF, 0.0), (-INF, 5.0)]),
    st.tuples(st.floats(-80.0, 80.0), st.floats(-80.0, 80.0)))
# start offsets: none, signed zeros, plain, or infinite and NaN ones, which
# turn a displacement into NaN (inf - inf) or keep it infinite
STARTS = st.one_of(st.just((0.0, 0.0)),
                   st.tuples(st.sampled_from([0.0, -0.0, 40.0, INF, -INF, NAN]),
                             st.sampled_from([0.0, -0.0, -25.0, INF, NAN])))
# a residual axis inside the band, on its edge, outside it, or NaN
AXIS = st.one_of(st.floats(-TOLERANCE, TOLERANCE),
                 st.sampled_from([TOLERANCE, -TOLERANCE,
                                  float(np.nextafter(TOLERANCE, 9.0)), float("nan")]),
                 st.floats(-40.0, 40.0))


@st.composite
def convergence_walks(draw):
    """A transition of 1 to 4 agents, some with zero displacement, as its
    stacked start and target offsets, and a run of (x, y) residuals at
    increasing times that enter, leave and re-enter the band, with no hold
    or a hold."""
    n = draw(st.integers(1, 4))
    start = [v for pair in draw(st.lists(STARTS, min_size=n, max_size=n)) for v in pair]
    dis = [v for pair in draw(st.lists(DISPLACEMENTS, min_size=n, max_size=n)) for v in pair]
    target = [s + d for s, d in zip(start, dis)]
    duration = draw(st.floats(0.1, 3.0))
    times = np.cumsum(draw(st.lists(st.sampled_from([0.01, 0.02, 0.3, 1.0]),
                                    min_size=1, max_size=30)))
    residuals = [draw(st.lists(st.tuples(AXIS, AXIS), min_size=n, max_size=n))
                 for _ in times]
    hold = draw(st.sampled_from([0.0, 0.0, 0.02, 0.05, 1.0]))
    grace = draw(st.sampled_from([0.0, 0.5, 12.0]))
    return (start, target), duration, list(zip(times.tolist(), residuals)), hold, grace


@given(walk=convergence_walks())
@settings(max_examples=300, deadline=None)
def test_convergence_equals_the_per_agent_loop(walk):
    (start, target), duration, steps, hold, grace = walk
    agents = tuple(range(2, 2 + len(start) // 2))

    def transition():
        return TransitionState(0.0, duration, agents, list(start), list(target))

    got, want = transition(), transition()
    assert list(got.moving) == participating_by_loop(want)
    for now, residual in steps:
        status = check_convergence(got, residual, now, tolerance=TOLERANCE,
                                   grace=grace, hold=hold)
        assert status == check_convergence_by_loop(
            want, residual, now, tolerance=TOLERANCE, grace=grace, hold=hold)
        assert got.first_entry == want.first_entry
        assert (got.in_band_since, got.converged_time) == (want.in_band_since,
                                                           want.converged_time)
    assert list(got.moving) == participating_by_loop(want)
