"""Cooperative formation controller over a directed topology.

The topology's sensing and actuation blocks are constant for a run, so
`lift` builds their Kronecker lifts once and every law below reuses them.
The planar control law is then one matrix pipeline evaluated per step:

1. every agent's measured position is shifted by the signed reference
   (the negated waypoint), e_i = y_i - W;
2. the transposed sensing block maps the stacked shifted outputs to per-edge
   differences (head - tail) followed by the reference-agent rows;
3. desired tail-relative offsets are added on the edge rows, plus (enhanced
   law only) the head agent's predicted displacement over the lookahead
   horizon, so followers aim at where the head is about to be;
4. per-row gains scale the errors and the actuation block routes them back
   to agents: only an edge's tail steers to close that edge, reference
   agents additionally steer toward the waypoint;
5. commands clip to the per-agent speed caps, one array per run built by
   `speed_caps` from the agents' kinds.

Because the actuation block carries -1 at each tail, negative gains yield
attracting (stable) corrections in both the edge and the reference channels.
The yaw law is the same pipeline in one dimension with angle wrapping.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graph import NetworkTopology, kron_expand
from .lti import TransferFunction, tf_mul

GAIN_EPS = 1e-12


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
    """Loop gains: per-edge consensus pairs, reference pair, yaw gains.

    All gains must be nonpositive; the actuation block's tail signs turn
    negative gains into attracting corrections.
    """

    reference: tuple[float, float]
    consensus: tuple[tuple[float, float], ...]
    yaw_reference: float = 0.0
    yaw_consensus: tuple[float, ...] = ()
    adaptive: bool = False

    def __post_init__(self):
        object.__setattr__(self, "reference",
                           (float(self.reference[0]), float(self.reference[1])))
        object.__setattr__(self, "consensus",
                           tuple((float(a), float(b)) for a, b in self.consensus))
        object.__setattr__(self, "yaw_consensus",
                           tuple(float(g) for g in self.yaw_consensus))
        everything = [*self.reference, *(g for pair in self.consensus for g in pair),
                      self.yaw_reference, *self.yaw_consensus]
        if any(g > 0 for g in everything):
            raise ValueError("gains must be nonpositive")


@dataclass(frozen=True)
class Prediction:
    """Predicted planar displacement of an edge's head agent (cm)."""

    dx: float
    dy: float


@dataclass(frozen=True)
class ControlCommand:
    """Per-agent velocity setpoints: planar (cm/s) and yaw rate (rad/s)."""

    vx: float
    vy: float
    omega: float = 0.0


def predict_master(master_velocity, dt: float) -> Prediction:
    """Constant-velocity displacement prediction over dt seconds."""
    v = np.asarray(master_velocity, dtype=float)
    return Prediction(float(v[0] * dt), float(v[1] * dt))


def speed_caps(kinds, limits: SaturationLimits | None = None) -> np.ndarray:
    """Per-agent per-axis speed caps (cm/s) as an (n, 1) column."""
    limits = limits or SaturationLimits()
    return np.array([[limits.speed_for(kind)] for kind in kinds], dtype=float)


def saturate(commands: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Clip each agent's planar command to its per-axis speed cap."""
    return np.clip(np.asarray(commands, dtype=float), -caps, caps)


def _gain_vector(topology: NetworkTopology, gains: NiGains) -> np.ndarray:
    if len(gains.consensus) != topology.n_edges:
        raise ValueError(f"got {len(gains.consensus)} consensus gain pairs for "
                         f"{topology.n_edges} edges")
    return np.concatenate([np.asarray(gains.consensus, dtype=float).reshape(-1),
                           np.asarray(gains.reference, dtype=float)])


def formation_errors(positions: np.ndarray, lifted: LiftedTopology,
                     offsets: np.ndarray, waypoint,
                     prediction: Prediction | None = None) -> np.ndarray:
    """Stacked gained-error vector: edge rows then reference rows (x, y each).

    positions is (n, 2) in cm; lifted is the topology lifted to 2
    coordinates; offsets is (n_edges, 2), row e the desired tail-minus-head
    displacement for edge e; waypoint is the reference agents' target point.
    The optional prediction is added on every edge row (the head's
    anticipated displacement).
    """
    topology = _require_m(lifted, 2)
    pos = np.asarray(positions, dtype=float)
    if pos.shape != (topology.n_agents, 2):
        raise ValueError(f"positions must be ({topology.n_agents}, 2)")
    offs = np.asarray(offsets, dtype=float).reshape(topology.n_edges, 2)
    shifted = pos - np.asarray(waypoint, dtype=float)

    stacked = lifted.sensing_t @ shifted.ravel()
    feed = np.zeros_like(stacked)
    if topology.n_edges:
        edge_feed = offs.copy()
        if prediction is not None:
            edge_feed += np.array([prediction.dx, prediction.dy])
        feed[: 2 * topology.n_edges] = edge_feed.ravel()
    return stacked + feed


def _route(errors, lifted: LiftedTopology, gains: NiGains, caps) -> np.ndarray:
    """Gain the stacked errors, route them to agents and clip to the caps."""
    topology = lifted.topology
    gained = _gain_vector(topology, gains) * errors
    raw = (lifted.actuation @ gained).reshape(topology.n_agents, 2)
    return saturate(raw, caps)


def baseline_control(positions, lifted: LiftedTopology, gains: NiGains,
                     offsets, waypoint, caps) -> np.ndarray:
    """Planar commands without head-motion prediction; (n, 2) cm/s.

    lifted is the topology lifted to 2 coordinates; caps the (n, 1)
    per-agent speed caps from `speed_caps`.
    """
    errors = formation_errors(positions, lifted, offsets, waypoint)
    return _route(errors, lifted, gains, caps)


def enhanced_control(positions, velocities, lifted: LiftedTopology,
                     gains: NiGains, offsets, waypoint, caps, *,
                     dt: float, prediction_horizon_steps: int = 1) -> np.ndarray:
    """Planar commands with per-edge head-motion prediction; (n, 2) cm/s.

    velocities is (n, 2): each edge row is fed the displacement its own head
    agent is predicted to cover over horizon*dt seconds.
    """
    vel = np.asarray(velocities, dtype=float)
    tau = dt * prediction_horizon_steps
    errors = formation_errors(positions, lifted, offsets, waypoint)
    for e, (head, _tail) in enumerate(lifted.topology.edges):
        p = predict_master(vel[head - 1], tau)
        errors[2 * e] += p.dx
        errors[2 * e + 1] += p.dy
    return _route(errors, lifted, gains, caps)


def adaptive_gains(dis: np.ndarray, duration: float, start_errors: np.ndarray,
                   base: NiGains) -> NiGains:
    """Per-transition consensus gains from commanded displacement and time.

    For each edge and axis with a nonzero displacement `dis` and a nonzero
    error at transition start, the gain magnitude is the required average
    speed (|dis|/duration) divided by the start error magnitude, applied
    with negative sign; rows with zero displacement or zero start error keep
    the base gain.  Gains are frozen for the life of the transition.
    """
    if duration <= 0:
        raise ValueError("transition duration must be positive")
    dis = np.asarray(dis, dtype=float).reshape(-1, 2)
    err = np.asarray(start_errors, dtype=float).reshape(-1, 2)
    if dis.shape != err.shape or dis.shape[0] != len(base.consensus):
        raise ValueError("dis / start_errors must match the edge count")
    new_pairs = []
    for e, base_pair in enumerate(base.consensus):
        pair = []
        for axis in range(2):
            d, x0 = dis[e, axis], err[e, axis]
            if abs(d) < GAIN_EPS or abs(x0) < GAIN_EPS:
                pair.append(base_pair[axis])
            else:
                pair.append(-abs(d / duration) / abs(x0))
        new_pairs.append(tuple(pair))
    return replace(base, consensus=tuple(new_pairs))


def wrap_angle(angle):
    """Wrap angles into (-pi, pi]."""
    wrapped = np.remainder(np.asarray(angle, dtype=float), 2.0 * np.pi)
    wrapped = np.where(wrapped > np.pi, wrapped - 2.0 * np.pi, wrapped)
    return float(wrapped) if np.isscalar(angle) else wrapped


def heading_from_motion(target, current, previous_heading: float) -> float:
    """Heading of the motion from `current` toward `target` (radians).

    Holds the previous heading when the displacement is (numerically) zero.
    """
    d = np.asarray(target, dtype=float) - np.asarray(current, dtype=float)
    if float(np.hypot(d[0], d[1])) < 1e-9:
        return float(previous_heading)
    return float(np.arctan2(d[1], d[0]))


def yaw_consensus(yaws, yaw_rates, lifted: LiftedTopology, gains: NiGains,
                  target_angle: float, offsets=None,
                  limits: SaturationLimits | None = None, *,
                  dt: float = 0.0, prediction_horizon_steps: int = 1,
                  enhanced: bool = False) -> np.ndarray:
    """Yaw-rate commands (rad/s) from the one-dimensional consensus pipeline.

    lifted is the yaw topology lifted to 1 coordinate.  Edge errors are the
    wrapped head-tail angle differences plus optional per-edge offsets;
    reference agents track `target_angle`.  The enhanced variant adds each
    head's predicted yaw travel over the horizon.
    """
    topology = _require_m(lifted, 1)
    yaw = np.asarray(yaws, dtype=float)
    rates = np.asarray(yaw_rates, dtype=float)
    limits = limits or SaturationLimits()
    offs = (np.zeros(topology.n_edges) if offsets is None
            else np.asarray(offsets, dtype=float).reshape(topology.n_edges))
    if len(gains.yaw_consensus) != topology.n_edges:
        raise ValueError(f"got {len(gains.yaw_consensus)} yaw consensus gains "
                         f"for {topology.n_edges} edges")

    errors = np.zeros(topology.n_edges + 1)
    for e, (head, tail) in enumerate(topology.edges):
        err = wrap_angle(yaw[head - 1] - yaw[tail - 1] + offs[e])
        if enhanced:
            err += rates[head - 1] * dt * prediction_horizon_steps
        errors[e] = err
    errors[-1] = wrap_angle(yaw[topology.reference_agents[0] - 1] - target_angle)

    gain_vec = np.concatenate([np.asarray(gains.yaw_consensus, dtype=float),
                               [gains.yaw_reference]])
    raw = lifted.actuation @ (gain_vec * errors)
    return np.clip(raw, -limits.yaw_rate, limits.yaw_rate)


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
