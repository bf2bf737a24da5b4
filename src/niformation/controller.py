"""Cooperative formation controller over a directed topology.

The topology's sensing and actuation blocks are constant for a run, so
`lift` builds their Kronecker lifts once and every law below reuses them.
Both the planar and the yaw law are one pipeline evaluated per step:

1. sense: the errors are per-edge differences (head - tail) followed by the
   reference-agent row.  The planar law gets them from the transposed
   sensing block applied to the positions shifted by the waypoint,
   e_i = y_i - W; the yaw law gathers wrapped angle differences through the
   topology's edge index arrays.  Desired offsets are added on the edge
   rows, plus (enhanced law only) the head agent's predicted travel over
   the lookahead horizon, gathered as `velocities[heads]`, so followers aim
   at where the head is about to be;
2. gain and route: per-row gain arrays, built once with the gains, scale the
   errors and the actuation block routes them back to agents: only an
   edge's tail steers to close that edge, reference agents additionally
   steer toward the waypoint;
3. clip: commands clip to the per-agent speed caps (one array per run,
   built by `speed_caps` from the agents' kinds) or to the yaw-rate cap.

Steps 2 and 3 are one private route shared by every law.  Because the
actuation block carries -1 at each tail, negative gains yield attracting
(stable) corrections in both the edge and the reference channels.

The laws run every step on arrays of a few elements, so they avoid numpy
calls that do no arithmetic, but every product and sum keeps the order the
logged runs were recorded with.  Three conditions must hold for the output
to stay the same bit for bit:

* the planar reference rows get `+ 0.0` after the sensing product, which
  turns a -0.0 into +0.0;
* the yaw head feed is `(rate * dt) * horizon` and the planar head feed is
  `velocity * (dt * horizon)`, each rounded in that order;
* each law keeps its own sensing and actuation products, and the simulator
  keeps its planar and yaw plant banks apart: a fused matmul sums in
  another order and can change the sign of a zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import NetworkTopology, kron_expand
from .lti import TransferFunction, tf_mul

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SaturationLimits:
    """Per-axis speed clamps (cm/s) and the yaw-rate clamp (rad/s)."""

    ugv_speed: float = 100.0
    uav_speed: float = 200.0
    yaw_rate: float = 1.5

    def __post_init__(self):
        if min(self.ugv_speed, self.uav_speed, self.yaw_rate) <= 0:
            raise ValueError("saturation limits must be positive")

    def speed_for(self, kind: str) -> float:
        if kind == "ugv":
            return self.ugv_speed
        if kind == "uav":
            return self.uav_speed
        raise ValueError(f"unknown agent kind '{kind}'")


@dataclass(frozen=True)
class LiftedTopology:
    """A topology's control blocks lifted to m coordinates per agent.

    `sensing_t` is the transposed sensing block (stacked agent vector to
    per-edge differences, then reference rows) and `actuation` routes gained
    errors back to agents; both are `kron_expand` products, built once.
    """

    topology: NetworkTopology
    m: int
    sensing_t: np.ndarray
    actuation: np.ndarray


def lift(topology: NetworkTopology, m: int) -> LiftedTopology:
    """Lift the topology's sensing and actuation blocks to m coordinates."""
    sensing, actuation = kron_expand(topology, m)
    return LiftedTopology(topology, m, sensing.T, actuation)


def _require_m(lifted: LiftedTopology, m: int) -> NetworkTopology:
    if lifted.m != m:
        raise ValueError(f"this law needs a topology lifted to {m} "
                         f"coordinates, got {lifted.m}")
    return lifted.topology


@dataclass(frozen=True)
class NiGains:
    """Planar loop gains: per-edge consensus pairs and the reference pair.

    All gains must be nonpositive; the actuation block's tail signs turn
    negative gains into attracting corrections.  `planar` is the per-row
    gain vector of the planar law (edge rows, then the reference row),
    built once here.  The yaw law's gains are the scenario's
    `YawControlConfig.gains`.
    """

    reference: tuple[float, float]
    consensus: tuple[tuple[float, float], ...]
    planar: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "reference",
                           (float(self.reference[0]), float(self.reference[1])))
        object.__setattr__(self, "consensus",
                           tuple((float(a), float(b)) for a, b in self.consensus))
        everything = [*self.reference, *(g for pair in self.consensus for g in pair)]
        if any(g > 0 for g in everything):
            raise ValueError("gains must be nonpositive")
        object.__setattr__(self, "planar", np.concatenate(
            [np.asarray(self.consensus, dtype=float).reshape(-1),
             np.asarray(self.reference, dtype=float)]))


def speed_caps(kinds, limits: SaturationLimits | None = None) -> np.ndarray:
    """Per-agent per-axis speed caps (cm/s) as an (n, 1) column."""
    limits = limits or SaturationLimits()
    return np.array([[limits.speed_for(kind)] for kind in kinds], dtype=float)


def saturate(commands: np.ndarray, caps) -> np.ndarray:
    """Clip each command to its speed cap; as caps are > 0, `np.clip` bit for bit."""
    return np.minimum(np.maximum(commands, -caps), caps)


def formation_errors(positions: np.ndarray, lifted: LiftedTopology,
                     offsets: np.ndarray, waypoint) -> np.ndarray:
    """Stacked error vector: edge rows then reference rows (x, y each).

    positions is (n, 2) in cm; lifted is the topology lifted to 2
    coordinates; offsets is (n_edges, 2), row e the desired tail-minus-head
    displacement for edge e; waypoint is the reference agents' target point.
    """
    topology = _require_m(lifted, 2)
    pos = np.asarray(positions, dtype=float)
    if pos.shape != (topology.n_agents, 2):
        raise ValueError(f"positions must be ({topology.n_agents}, 2)")
    offs = np.asarray(offsets, dtype=float).reshape(topology.n_edges, 2)
    shifted = pos - np.asarray(waypoint, dtype=float)

    errors = lifted.sensing_t @ shifted.ravel()
    edge_rows, reference_rows = errors[: offs.size], errors[offs.size:]
    edge_rows += offs.ravel()
    reference_rows += 0.0   # a -0.0 from the product becomes +0.0
    return errors


def _route(errors, lifted: LiftedTopology, gains: np.ndarray, caps) -> np.ndarray:
    """Gain the stacked errors, route them to agents and clip to the caps.

    Returns one row per agent and one column per lifted coordinate.
    """
    topology = lifted.topology
    if gains.size != errors.size:
        what = "consensus gain pairs" if lifted.m == 2 else "yaw consensus gains"
        raise ValueError(f"got {gains.size // lifted.m - 1} {what} for "
                         f"{topology.n_edges} edges")
    raw = lifted.actuation @ (gains * errors)
    return saturate(raw.reshape(topology.n_agents, lifted.m), caps)


def baseline_control(positions, lifted: LiftedTopology, gains: NiGains,
                     offsets, waypoint, caps) -> np.ndarray:
    """Planar commands without head-motion prediction; (n, 2) cm/s.

    lifted is the topology lifted to 2 coordinates; caps the (n, 1)
    per-agent speed caps from `speed_caps`.
    """
    errors = formation_errors(positions, lifted, offsets, waypoint)
    return _route(errors, lifted, gains.planar, caps)


def enhanced_control(positions, velocities, lifted: LiftedTopology,
                     gains: NiGains, offsets, waypoint, caps, *,
                     dt: float, prediction_horizon_steps: int = 1) -> np.ndarray:
    """Planar commands with per-edge head-motion prediction; (n, 2) cm/s.

    velocities is (n, 2): each edge row is fed the displacement its own head
    agent is predicted to cover over horizon*dt seconds.
    """
    errors = formation_errors(positions, lifted, offsets, waypoint)
    heads = lifted.topology.heads
    feed = np.asarray(velocities, dtype=float)[heads] * (dt * prediction_horizon_steps)
    errors[: feed.size] += feed.ravel()
    return _route(errors, lifted, gains.planar, caps)


def wrap_angle(angle):
    """Wrap angles into (-pi, pi]: a float for a scalar, else a new array."""
    wrapped = wrap_in_place(np.array(angle, dtype=float))
    return float(wrapped) if np.isscalar(angle) else wrapped


def wrap_in_place(angles: np.ndarray) -> np.ndarray:
    """Wrap a float array into (-pi, pi] in place and return it."""
    np.remainder(angles, TWO_PI, out=angles)
    np.subtract(angles, TWO_PI, out=angles, where=angles > math.pi)
    return angles


def heading_from_motion(target, current, previous_heading: float) -> float:
    """Heading of the motion from `current` toward `target` (radians).

    Holds the previous heading when the displacement is (numerically) zero.
    """
    d = np.asarray(target, dtype=float) - np.asarray(current, dtype=float)
    if float(np.hypot(d[0], d[1])) < 1e-9:
        return float(previous_heading)
    return float(np.arctan2(d[1], d[0]))


def yaw_consensus(yaws, yaw_rates, lifted: LiftedTopology, gains: np.ndarray,
                  target_angle: float, offsets=None,
                  limits: SaturationLimits = SaturationLimits(), *,
                  dt: float = 0.0, prediction_horizon_steps: int = 1,
                  enhanced: bool = False) -> np.ndarray:
    """Yaw-rate commands (rad/s) from the one-dimensional consensus pipeline.

    lifted is the yaw topology lifted to 1 coordinate; gains is the per-row
    gain array, one nonpositive gain per yaw edge and then the reference
    gain (a scenario's `YawControlConfig.gains`).  Edge errors are the
    wrapped head-tail angle differences plus optional per-edge offsets;
    the reference row is the first reference agent's wrapped error to
    `target_angle`.  The enhanced variant adds each head's predicted yaw
    travel over the horizon.
    """
    topology = _require_m(lifted, 1)
    heads, n_edges = topology.heads, topology.n_edges
    yaw = np.asarray(yaws, dtype=float)
    # edge rows then the reference row, wrapped together; the wrap maps a
    # zero of either sign to +0.0, so a missing offset needs no zero vector
    errors = np.empty(n_edges + 1)
    edge_rows = errors[:n_edges]
    np.subtract(yaw[heads], yaw[topology.tails], out=edge_rows)
    if offsets is not None:
        edge_rows += np.asarray(offsets, dtype=float).reshape(n_edges)
    errors[n_edges] = yaw[topology.reference_agents[0] - 1] - target_angle
    wrap_in_place(errors)
    if enhanced:
        rates = np.asarray(yaw_rates, dtype=float)
        edge_rows += rates[heads] * dt * prediction_horizon_steps
    return _route(errors, lifted, gains, limits.yaw_rate).ravel()


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
