"""Cooperative formation controller over a directed topology.

The topology's sensing and actuation blocks are constant, so `lift` builds
their read-only Kronecker lifts once per (topology, m) per process and every
law below reuses them.
Both the planar and the yaw law are one pipeline evaluated per step on
stacked floats, each agent's (or edge's) coordinates in turn:

1. sense: the errors are per-edge differences (head - tail) followed by the
   reference-agent row.  The planar law gets them from the transposed
   sensing block applied to the positions shifted by the waypoint,
   e_i = y_i - W; the yaw law gathers wrapped angle differences through the
   lift's (head, tail) `pairs`, so the agents align on one heading.  The
   planar law adds the desired offsets on the edge rows, and the enhanced
   laws the head agent's predicted travel over the lookahead horizon, so
   followers aim at where the head is about to be;
2. gain and route: per-row gains, derived once when a scenario reads its
   gains (`NiGains.planar`, `YawControlConfig.gains`), scale the errors
   and the actuation block routes them back to agents: only an edge's tail
   steers to close that edge, reference agents additionally steer toward
   the waypoint;
3. clip: commands clip to the per-axis speed caps (built once a run by
   `speed_caps` from the agents' kinds) or to `YAW_RATE_CAP`.

Steps 2 and 3 are one private route shared by every law.  Because the
actuation block carries -1 at each tail, negative gains yield attracting
(stable) corrections in both the edge and the reference channels.

The laws see a few numbers a step, where a numpy call costs more than its
arithmetic, so every elementwise step runs on Python floats, which round
as numpy's ufuncs do.  One rule keeps the output bit for bit: each law's
two matrix products, sensing times shifted positions and actuation times
gained errors, stay numpy products of their recorded shapes and order.  A
product summed in Python, or fused across the planar and yaw laws, adds in
another order than the BLAS kernel and can change the last bit or the sign
of a zero.  The elementwise steps keep their order too: `+ 0.0` on the
planar reference rows after the sensing product (a -0.0 becomes +0.0
whatever order the product summed in), and the head feeds
`velocity * (dt * horizon)` (planar) and `(rate * dt) * horizon` (yaw).
Only a NaN's sign bit may differ from numpy's, where two NaNs meet.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graph import NetworkTopology, kron_expand
from .lti import TransferFunction, tf_mul

if TYPE_CHECKING:
    from .scenario import NiGains

TWO_PI = 2.0 * math.pi
# the per-axis speed cap (cm/s) of each agent kind: the one list of kinds
SPEED_CAPS = {"ugv": 100.0, "uav": 200.0}
YAW_RATE_CAP = 1.5   # rad/s


@dataclass(frozen=True)
class LiftedTopology:
    """A topology's control blocks lifted to m coordinates per agent.

    `sensing_t` is the transposed sensing block (stacked agent vector to
    per-edge differences, then reference rows) and `actuation` routes gained
    errors back to agents; both are read-only `kron_expand` products, built
    once per process and shared by every equal topology's lift.
    """

    topology: NetworkTopology
    m: int
    sensing_t: np.ndarray
    actuation: np.ndarray

    @functools.cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Each edge's 0-based (head, tail) agent rows, as plain ints."""
        return tuple((head - 1, tail - 1) for head, tail in self.topology.edges)


@functools.lru_cache(maxsize=64)
def lift(topology: NetworkTopology, m: int) -> LiftedTopology:
    """Lift the topology's sensing and actuation blocks to m coordinates."""
    sensing, actuation = kron_expand(topology, m)
    for matrix in (sensing, actuation):
        matrix.flags.writeable = False
    return LiftedTopology(topology, m, sensing.T, actuation)


def _require_m(lifted: LiftedTopology, m: int) -> NetworkTopology:
    if lifted.m != m:
        raise ValueError(f"this law needs a topology lifted to {m} "
                         f"coordinates, got {lifted.m}")
    return lifted.topology


def speed_caps(kinds) -> tuple[float, ...]:
    """Per-axis speed caps (cm/s): x and y of each agent in turn."""
    return tuple(SPEED_CAPS[kind] for kind in kinds for _axis in "xy")


def saturate(commands, caps) -> list[float]:
    """Clip each command to its cap: for caps > 0 the bits of
    `np.minimum(np.maximum(command, -cap), cap)`, NaN and -0.0 included."""
    clipped = []
    for command, cap in zip(commands, caps, strict=True):
        command = -cap if command < -cap else command
        clipped.append(cap if command > cap else command)
    return clipped


def formation_errors(positions, lifted: LiftedTopology, offsets, waypoint) -> list[float]:
    """Stacked error vector: edge rows then reference rows (x, y each).

    positions are the n agents' stacked (x, y) in cm; lifted is the
    topology lifted to 2 coordinates; offsets are stacked per edge, edge e's
    the desired tail-minus-head displacement; waypoint is the reference
    agents' target point.
    """
    topology = _require_m(lifted, 2)
    if (len(positions), len(offsets)) != (2 * topology.n_agents, 2 * topology.n_edges):
        raise ValueError(f"positions and offsets must stack {topology.n_agents} "
                         f"and {topology.n_edges} (x, y)")
    wx, wy = map(float, waypoint)
    shifted = [p - w for p, w in zip(positions, (wx, wy) * topology.n_agents)]
    errors = (lifted.sensing_t @ shifted).tolist()
    # a -0.0 from the product becomes +0.0 on the reference rows
    return ([e + o for e, o in zip(errors, offsets)]
            + [e + 0.0 for e in errors[len(offsets):]])


def _route(errors, lifted: LiftedTopology, gains, caps) -> list[float]:
    """Gain the stacked errors, route them to agents and clip to the caps.

    Returns each agent's lifted coordinates in turn.
    """
    if len(gains) != len(errors):
        what = "consensus gain pairs" if lifted.m == 2 else "yaw consensus gains"
        raise ValueError(f"got {len(gains) // lifted.m - 1} {what} for "
                         f"{lifted.topology.n_edges} edges")
    routed = lifted.actuation @ [g * e for g, e in zip(gains, errors)]
    return saturate(routed.tolist(), caps)


def baseline_control(positions, lifted: LiftedTopology, gains: NiGains,
                     offsets, waypoint, caps) -> list[float]:
    """Planar commands without head-motion prediction, stacked (vx, vy) in cm/s.

    lifted is the topology lifted to 2 coordinates; caps the per-axis
    speed caps from `speed_caps`.
    """
    errors = formation_errors(positions, lifted, offsets, waypoint)
    return _route(errors, lifted, gains.planar, caps)


def enhanced_control(positions, velocities, lifted: LiftedTopology,
                     gains: NiGains, offsets, waypoint, caps, *,
                     dt: float, prediction_horizon_steps: int = 1) -> list[float]:
    """Planar commands with per-edge head-motion prediction, stacked (vx, vy) in cm/s.

    velocities are stacked like positions: each edge row is fed the
    displacement its own head agent is predicted to cover over horizon*dt
    seconds.
    """
    errors = formation_errors(positions, lifted, offsets, waypoint)
    tau = dt * prediction_horizon_steps
    for row, (head, _tail) in enumerate(lifted.pairs):
        errors[2 * row] += velocities[2 * head] * tau
        errors[2 * row + 1] += velocities[2 * head + 1] * tau
    return _route(errors, lifted, gains.planar, caps)


def wrap(angle: float) -> float:
    """Wrap one angle into (-pi, pi]; `%` on floats is numpy's `remainder`."""
    angle %= TWO_PI
    return angle - TWO_PI if angle > math.pi else angle


def heading_from_motion(target, current, previous_heading: float) -> float:
    """Heading of the motion from `current` toward `target` (radians).

    Holds the previous heading when the displacement is (numerically) zero.
    """
    d = np.asarray(target, dtype=float) - np.asarray(current, dtype=float)
    if float(np.hypot(d[0], d[1])) < 1e-9:
        return float(previous_heading)
    return float(np.arctan2(d[1], d[0]))


def yaw_consensus(yaws, yaw_rates, lifted: LiftedTopology, gains,
                  target_angle: float, *, dt: float = 0.0,
                  prediction_horizon_steps: int = 1,
                  enhanced: bool = False) -> list[float]:
    """Yaw-rate commands (rad/s), one per agent, from the one-dimensional
    consensus pipeline.

    lifted is the yaw topology lifted to 1 coordinate; gains holds the
    per-row gains, one nonpositive gain per yaw edge and then the reference
    gain (a scenario's `YawControlConfig.gains`).  Edge errors are the
    wrapped head-tail angle differences; the reference row is the first
    reference agent's wrapped error to `target_angle`.  The enhanced
    variant adds each head's predicted yaw travel over the horizon.
    """
    topology = _require_m(lifted, 1)
    pairs = lifted.pairs
    errors = [wrap(yaws[head] - yaws[tail]) for head, tail in pairs]
    if enhanced:
        errors = [e + yaw_rates[head] * dt * prediction_horizon_steps
                  for e, (head, _tail) in zip(errors, pairs)]
    errors.append(wrap(yaws[topology.reference_agents[0] - 1] - target_angle))
    return _route(errors, lifted, gains, (YAW_RATE_CAP,) * topology.n_agents)


def prediction_path_tf(plant: TransferFunction, dt: float,
                       horizon_steps: int = 1) -> TransferFunction:
    """Transfer function of the prediction branch: (horizon*dt) * s * P(s).

    This is the rate-like parallel branch whose additive composition with
    the plant itself is certified by `series_ni_composition`; the branch on
    its own dips below the NI boundary near DC, the composite does not.
    """
    tau = dt * horizon_steps
    if tau <= 0:
        raise ValueError("dt * horizon_steps must be positive")
    return tf_mul(TransferFunction((tau, 0.0), (1.0,)), plant,
                  label=f"rate branch of {plant.label}" if plant.label else "")
