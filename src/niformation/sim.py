"""Fixed-step closed-loop simulation of a formation scenario.

A run is two machines.  `Loop` is the team's linear loop, the NI
interconnection: each planar axis is the fitted velocity-to-position plant
of the agent's kind, driven by the (possibly delayed and saturated) velocity
command of the cooperative law; yaw is the first-order yaw-rate plant,
integrated trapezoidally and wrapped.  `Simulator`, its supervisor, reads
the loop's newest positions, velocities and yaws and never writes them: it
runs the avoidance manager and the waypoint/turn/transition state machines,
steps the loop once a step with the reference point, offsets and yaw target
they give, and keeps the metrics, safety checks and event log.  Positions
are centimeters internally; the exported logs use meters.  Runs are
bit-deterministic for a fixed scenario and seed: every random draw comes
from one seeded generator consumed in a fixed order, and log files format
floats with a fixed precision.

Per-edge quantities are gathers through the lift's (head, tail) `pairs`,
the follower targets through `tails`.  Per process, what depends only on
the shipped files, `dt`, a topology or a course is shared and read-only:
each shipped scenario, each lifted topology (`controller.lift`), each
course's `obstacle.ObstacleField`, and in `lti` the parsed model library and
each (model, `dt`) realization.

A step's team arithmetic (the laws, the plant outputs, the yaw-rate bank,
the delay line, the velocity ring, the yaw integration and the supervisor's
bookkeeping) runs on stacked Python floats, each agent's (or edge's)
coordinates in turn, which round and decide NaN as numpy does and cost less
than numpy calls on a few agents; so does the obstacle layer's position-only
bookkeeping (the motion budget, sensing and both clearance minima).  numpy
keeps the planar bank's products, written into arrays the bank keeps, and
the noise, drawn `lti.NOISE_BLOCK` steps at a time (`lti.PlantBank`), a
law's products where a row has three or more terms or a sum is not finite
(`controller`), and the obstacle layer's BLAS dots (`obstacle.behind`,
`PathFrame.coords` and `to_world`, `detect_mode`, `event_cleared` and the
sensing gate's scalar norm), which take the ring's newest floats as the
head's (x, y) or reshaped to (n, 2).

Every obstacle decision on the robots' positions alone is held in one
`obstacle.MotionBudget` and made again only once the team may have changed
its outcome, so a run stays bit for bit the same: sensing (decided from
each robot's distances to a polygon's edges and to its hull, with the
polygon clip only for pairs at a footprint's rim, and grouping when the
sensed circles change), the planning skip (`obstacle.behind`:
every grouped circle behind the reference agent on its way to the
reference point, so `detect_mode` would plan nothing; the reference point's
own motion is charged apart), both clearance minima and the event's end
(`obstacle.event_cleared`), each one call for its outcome and radius.  A
step among obstacles tests one displacement; `obstacle` derives each radius
and its rounding margin.

The state machine's state is typed: the reference slew (`Slew`, a point as
a function of time toward the current waypoint), the corner turn
(`CornerTurn`) and the in-flight offset change (`formation.TransitionState`).
The reference point is a pure function of that state, the time and the
head's position, computed once a step.  Every transition, waypoint or
override, is tested for convergence by the one `formation.check_convergence`.

State machine summary (evaluated in priority order each step):

* collision / divergence abort the run with a nonzero status;
* an active avoidance event overrides formation offsets and, for reference
  detours, replaces the waypoint reference with a pursuit point that slides
  along the planned lateral line, both in the event's path frame; waypoint
  progress is frozen until `obstacle.event_cleared` ends the event;
* corner turns (when enabled) pin the reference at a vertex whose heading
  change exceeds `CORNER_ENTRY`, so the position loop station-keeps there (a
  zero command would let the leaky plants drift home), until every
  yaw-steered agent is within `CORNER_EXIT` of the next leg's heading;
* reaching a waypoint that starts a new formation phase holds ("dwells")
  the reference agent at the reached vertex until the offset transition
  converges, so transition timing is measured against a stationary head.

The event stream `Simulator.events` is the run's only record, and no event
changes once logged.  The summary's `transitions`, `avoidance_events` and
`restorations` are a projection of it; `events.csv` writes each event's
other fields as `key=value` in its detail column (format in `RunLog`).
"""

from __future__ import annotations

import csv
import io
import json
import math
import struct
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import controller, obstacle
from .formation import CONVERGED, TIMED_OUT, TransitionState, check_convergence
from .lti import PlantBank, discretize, load_model_library
from .scenario import Scenario, load_scenario

CONVERGENCE_BAND_CM = 5.0
SETTLE_SPEED_CM_S = 3.0     # every agent this slow counts toward settling
SETTLE_BAND_CM = 2.5        # max per-axis offset residual while settling
SETTLE_HOLD_S = 1.0         # both conditions must hold this long
SETTLE_TIMEOUT_S = 25.0     # start the transition anyway after this long
CORNER_ENTRY = math.radians(30.0)   # a sharper heading change is a corner turn
CORNER_EXIT = math.radians(3.0)     # it ends once every yaw is this close
OVERRIDE_GRACE_S = 12.0     # extra time for avoidance/restore convergence
OVERRIDE_HOLD_S = 1.0       # offsets must stay inside the band this long
STATUS_COMPLETED = "completed"
STATUS_DURATION = "duration"
STATUS_COLLISION = "collision"
STATUS_DIVERGED = "diverged"
STATUS_UNSUPPORTED = "unsupported-maneuver"
# the rows of `Simulator.budget`, one an obstacle decision on positions alone
SENSED, PLAN_SKIP, FIELD_MIN, EVENT_MIN, EVENT_END = range(5)


def _fmt(value) -> str:
    """An events.csv value: floats fixed-point, lists and dicts compact JSON."""
    if isinstance(value, (list, dict)):
        return json.dumps(value, separators=(",", ":"))
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def _ease(u: float) -> float:
    """Smoothstep ramp: rises like 3u^2 and lands with zero slope.

    References and offset overrides move along this profile so that the
    commanded point arrives with no residual velocity; a linear ramp ends
    with a step in demanded speed and the closed loops ring off that kick.
    """
    u = min(1.0, max(0.0, u))
    return u * u * (3.0 - 2.0 * u)


def _beyond(dx: float, dy: float, radius: float) -> bool:
    """The waypoint test `math.sqrt(d.dot(d)) > radius`, d = (dx, dy), on
    floats.  Lemma: BLAS's dot may fuse a multiply and an add, but it and q =
    dx*dx + dy*dy each round two nonnegative products and their sum: both lie
    within 3u of the exact square (u = 2**-53; a few 2**-1074 below the normal
    range), and r2 = radius*radius and the root move the threshold by under 3u
    more.  So a q beyond `SENSING_MARGIN` * (q + r2) + 1e-300 of r2 decides as
    the dot; the dot decides the rest, NaN (never beyond) and infinity."""
    q, r2 = dx * dx + dy * dy, radius * radius
    if abs(q - r2) > obstacle.SENSING_MARGIN * (q + r2) + 1e-300:
        return q > r2
    d = np.array([dx, dy])
    return math.sqrt(d.dot(d)) > radius


@dataclass(frozen=True)
class Slew:
    """Reference profile from `origin` to `destination` from `start` on.

    With a positive `speed` it is a cruise: a trapezoidal speed profile
    that eases up over `ease_s`, holds `speed` and eases back down to land
    on the destination.  Otherwise it is a glide: a smoothstep over
    `glide_s`.  The ends and the leg are float pairs, the leg computed once.
    """

    origin: tuple[float, float]
    destination: tuple[float, float]
    start: float
    glide_s: float = 0.0
    speed: float = 0.0
    ease_s: float = 0.0
    leg: tuple[float, float] = field(init=False, repr=False, compare=False)
    distance: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        (ox, oy), (dx, dy) = map(float, self.origin), map(float, self.destination)
        object.__setattr__(self, "origin", (ox, oy))
        object.__setattr__(self, "destination", (dx, dy))
        object.__setattr__(self, "leg", (dx - ox, dy - oy))
        object.__setattr__(self, "distance", float(np.hypot(dx - ox, dy - oy)))

    def point(self, now: float) -> tuple[float, float] | None:
        """Reference position at `now`, or None once the profile has landed."""
        s = self._fraction(now - self.start)
        (ox, oy), (lx, ly) = self.origin, self.leg
        return None if s is None else (ox + s * lx, oy + s * ly)

    def _fraction(self, elapsed: float) -> float | None:
        distance, speed, ease = self.distance, self.speed, self.ease_s
        if speed > 0 and distance <= 1e-9:
            return None
        if speed <= 0 or distance <= speed * ease:
            # a glide, or a leg too short to reach cruise speed: one ease
            total = self.glide_s if speed <= 0 else 2.0 * ease
            return None if elapsed >= total else _ease(elapsed / total)
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
        return arc / distance


@dataclass(frozen=True)
class CornerTurn:
    """A corner turn in progress: realign to `heading` (rad) since `start`."""

    heading: float
    start: float


@dataclass
class RunLog:
    """Complete record of one simulation run: `events` is the record, and
    the summary's `transitions`, `avoidance_events` and `restorations` are a
    projection of it.  The `events.csv` detail column holds an event's other
    fields as space-separated `key=value`, floats to six decimals and lists
    and dicts as compact JSON, quoted by `csv` only where it needs quoting.
    """

    times: np.ndarray
    positions: np.ndarray      # (T, n, 2) measured, cm
    commands: np.ndarray       # (T, n, 2) applied planar commands, cm/s
    yaws: np.ndarray           # (T, n) rad
    yaw_commands: np.ndarray   # (T, n) rad/s
    phases: np.ndarray         # (T,) schedule phase index; -1 under override
    avoid_modes: np.ndarray    # (T,) active avoidance mode, 0 when none
    events: list[dict]
    summary: dict

    def trajectory_csv(self) -> str:
        """One row a step: time, six columns an agent, phase and avoid mode.

        Positions and commands are written in meters.  The rows are one
        stacked float table, each formatted with one `%` template; the two
        integer columns are exact in it.
        """
        steps, n = self.positions.shape[:2]
        cols = ["time"]
        for i in range(1, n + 1):
            cols += [f"a{i}_x_m", f"a{i}_y_m", f"a{i}_cmd_vx_mps",
                     f"a{i}_cmd_vy_mps", f"a{i}_yaw_rad", f"a{i}_cmd_yaw_radps"]
        cols += ["phase", "avoid_mode"]
        table = np.column_stack([self.times, np.concatenate(
            [self.positions / 100.0, self.commands / 100.0, self.yaws[..., None],
             self.yaw_commands[..., None]], axis=2).reshape(steps, 6 * n),
            self.phases, self.avoid_modes])
        row = ",".join(["%.6f"] * (1 + 6 * n) + ["%d", "%d"])
        lines = [",".join(cols), *(row % tuple(values.tolist()) for values in table)]
        del table   # freed before the join, so the peak is the text's alone
        return "\n".join(lines) + "\n"

    def events_csv(self) -> str:
        rows = [(_fmt(ev["time"]), ev["event"], " ".join(
            f"{key}={_fmt(val)}" for key, val in ev.items() if key not in ("time", "event")))
            for ev in self.events]
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([("time", "event", "detail"), *rows])
        return out.getvalue()

    def summary_json(self) -> str:
        return json.dumps(self.summary, indent=2, sort_keys=True,
                          allow_nan=False) + "\n"

    def write(self, outdir: str | Path) -> Path:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "trajectory.csv").write_text(self.trajectory_csv())
        (out / "events.csv").write_text(self.events_csv())
        (out / "summary.json").write_text(self.summary_json())
        return out


class Loop:
    """The team's linear loop, built once from a `Scenario`: the laws, bound
    here (`controller.planar_law`, `yaw_law`) and called through `controller`
    once a step each, the delay line and the plant banks (planar,
    agent-major x, y, with the run's generator if it draws noise; yaw rates
    for the `yaw_rows` the yaw law steers).  Its state, which only `advance`
    writes: the ring of the last `velocity_estimate_window` + 1 stacked
    positions (`start` first, the newest at the right) whose ends give the
    finite-difference `velocities`, the delay line of `command_delay_steps`
    (planar, yaw) commands, the `yaws` and the `yaw_rates`; neither line
    outgrows the run's `steps` (+ 1)."""

    def __init__(self, scn: Scenario):
        models = load_model_library()
        self.scn, self.n = scn, scn.n_agents
        self.start = [v for agent in scn.agents for v in agent.start]   # stacked (x, y)
        control = scn.control
        horizon, enhanced = control.prediction_horizon_steps, control.mode == "enhanced"
        self.planar_lift = controller.lift(scn.topology, 2)
        self.planar_law = controller.planar_law(
            self.planar_lift, scn.gains, controller.speed_caps(scn.kinds),
            scn.dt * horizon if enhanced else None)
        self.plants = PlantBank(
            (discretize(models[f"{agent.kind}_vel{axis}"], scn.dt)
             for agent in scn.agents for axis in ("x", "y")),
            scn.noise_std, np.random.default_rng(scn.seed) if scn.noise_std > 0 else None)
        self.yaw_rows, self.yaw_law = [], None
        if scn.yaw_control is not None:
            top = scn.yaw_control.topology
            self.yaw_law = controller.yaw_law(controller.lift(top, 1), scn.yaw_control.gains,
                                              scn.dt, horizon, enhanced)
            self.yaw_rows = np.unique(np.concatenate(
                [top.heads, top.tails, np.subtract(top.reference_agents, 1)])).tolist()
            self.yaw_plants = PlantBank(discretize(models["ugv_yaw_rate"], scn.dt)
                                        for _ in self.yaw_rows)
        self.velocities = [0.0] * (2 * self.n)   # stacked (vx, vy)
        self.yaws = [float(a.yaw) for a in scn.agents]
        self.yaw_rates = [0.0] * self.n
        self.steps = int(round(scn.duration / scn.dt))
        self.ring = deque([self.start], maxlen=min(
            control.velocity_estimate_window, self.steps) + 1)
        self.delay_line = deque([([0.0] * (2 * self.n), [0.0] * self.n)]
                                * min(control.command_delay_steps, self.steps))

    def step(self, reference: tuple[float, float], offsets: list[float],
             yaw_target: float | None):
        """Run the laws on the newest positions and `advance` with their
        commands; without yaw control the yaw commands are zeros."""
        law, positions = self.planar_law, self.ring[-1]
        if law.tau is None:
            planar = controller.baseline_control(positions, law, offsets, reference)
        else:
            planar = controller.enhanced_control(positions, self.velocities, law, offsets,
                                                 reference)
        yaw = [0.0] * self.n if self.yaw_law is None else controller.yaw_consensus(
            self.yaws, self.yaw_rates, self.yaw_law, yaw_target)
        return self.advance(planar, yaw)

    def advance(self, planar: list[float], yaw: list[float]):
        """Queue the commands and apply the delayed ones, which it returns:
        the planar bank turns the stacked (vx, vy) into displacements from
        `start`, the yaw bank into yaw rates, integrated trapezoidally into
        wrapped yaws."""
        dt = self.scn.dt
        self.delay_line.append((planar, yaw))
        applied_planar, applied_yaw = self.delay_line.popleft()
        positions = [start + moved for start, moved in
                     zip(self.start, self.plants.step(applied_planar))]
        if self.yaw_rows:
            rates = self.yaw_plants.step([applied_yaw[row] for row in self.yaw_rows])
            for row, rate in zip(self.yaw_rows, rates):
                self.yaws[row] = controller.wrap(
                    self.yaws[row] + dt * 0.5 * (self.yaw_rates[row] + rate))
                self.yaw_rates[row] = rate
        self.ring.append(positions)
        elapsed = (len(self.ring) - 1) * dt
        self.velocities = [(new - old) / elapsed for new, old in zip(positions, self.ring[0])]
        return applied_planar, applied_yaw


class Simulator:
    """The supervisor of one run of one scenario, and its `Loop`."""

    def __init__(self, scn: Scenario):
        self.scn, self.n, self.master = scn, scn.n_agents, scn.master_index
        self.waypoints = scn.waypoints   # (x, y) float pairs
        self.loop = loop = Loop(scn)

        self.obstacles = obstacle.shared_field(scn.obstacles, obstacle.FOV / 2.0)
        self.budget = obstacle.MotionBudget(loop.start, EVENT_END + 1)
        self.sensed = self.grouped = []   # sensed circles, their group_all
        # the reference point the planning skip was decided at, and the
        # square of how far it may move with the skip held
        self.skip_reference, self.skip_reach2 = None, 0.0

        # each phase's stacked (x, y) offsets: offset lists are replaced, never written
        self.phase_offsets = [[v for pair in phase.offsets for v in pair]
                              for phase in scn.formation.phases]
        # divergence box: everything the scenario mentions, inflated by the
        # largest offset component plus one meter; (x, y) float pairs.  The
        # coordinates are finite, and the margin erases the sign of a zero,
        # so `min` and `max` give numpy's bits
        cloud = [*zip(loop.start[0::2], loop.start[1::2]), *self.waypoints,
                 *(point for points in self.obstacles.points for point in points)]
        offset_reach = max((abs(v) for ph in self.phase_offsets for v in ph), default=0.0)
        margin = offset_reach + 100.0
        self.box_low = tuple(min(axis) - margin for axis in zip(*cloud))
        self.box_high = tuple(max(axis) + margin for axis in zip(*cloud))

        # ---- state machine
        self.completed = 0
        self.target_idx = 0
        self.holding = False      # dwelling at the reached target vertex
        self.corner: CornerTurn | None = None
        self.transition: TransitionState | None = None
        # the dwell's start while `schedule_offsets` await its settle
        self.pending_since: float | None = None
        self.settle_ok_since: float | None = None
        self.avoidance: obstacle.AvoidanceEvent | None = None
        self.avoidance_started = 0.0
        self.avoidance_circles = obstacle.circle_floats(())   # the event's circles
        self.ref_slew: Slew | None = None
        # the last reference point, held for the same `now`, event and slew objects and target
        self.reference, self.reference_key = None, (None,) * 4
        self._begin_glide(0.0, self._head())
        self.phase_idx = scn.formation.phase_index(0)
        self.schedule_offsets = self.active_offsets = self.phase_offsets[self.phase_idx]
        self.last_heading = scn.agents[self.master].yaw
        self.terminal_time: float | None = None
        self.status = STATUS_DURATION

        # ---- records
        self.events: list[dict] = []
        self.rel_err_max = [0.0] * scn.topology.n_edges
        self.min_clearance = np.inf
        self.min_boundary_clearance = np.inf

    # ------------------------------------------------------------ helpers

    def _event(self, time: float, name: str, **detail):
        self.events.append({"time": time, "event": name, **detail})

    def _head(self) -> list[float]:
        """The reference agent's newest (x, y), read from the loop's ring."""
        return self.loop.ring[-1][2 * self.master:2 * self.master + 2]

    def _offset_residuals(self, offsets: list[float]) -> list[tuple[float, float]]:
        """Each edge's (x, y) tail-minus-head displacement less its offset (cm)."""
        p = self.loop.ring[-1]
        return [(p[2 * tail] - p[2 * head] - offsets[2 * e],
                 p[2 * tail + 1] - p[2 * head + 1] - offsets[2 * e + 1])
                for e, (head, tail) in enumerate(self.loop.planar_lift.pairs)]

    def _offset_error(self) -> float:
        return float(np.abs(self._offset_residuals(self.schedule_offsets)).max(initial=0.0))

    def _phase_duration(self) -> float:
        return self.scn.formation.phases[self.phase_idx].transition_duration

    def _begin_glide(self, now: float, from_point):
        """Ease the reference to the current waypoint from a fixed point.

        Engaging a waypoint with a stepped reference rings the lightly
        damped head plant; scenarios that care about a smooth head velocity
        declare a cruise speed (trapezoidal speed profile: ease up, hold,
        ease down).  Without one the reference steps to the waypoint, or an
        avoidance glide-back still in flight lands on it.
        """
        scn = self.scn
        waypoint = self.waypoints[self.target_idx]
        if scn.waypoint_cruise_speed > 0:
            self.ref_slew = Slew(from_point, waypoint, now, speed=scn.waypoint_cruise_speed,
                                 ease_s=scn.waypoint_ease_s)
        elif self.ref_slew is not None:
            # a glide-back still in flight lands on the new waypoint
            self.ref_slew = replace(self.ref_slew, destination=waypoint)

    def _reference_point(self, now: float) -> tuple[float, float]:
        held = self.reference_key
        if (held[0] is now and held[1] is self.avoidance and held[2] is self.ref_slew
                and held[3] == self.target_idx):
            return self.reference   # a detour reads the head, which moves only between steps
        self.reference_key = (now, self.avoidance, self.ref_slew, self.target_idx)
        if self.avoidance is not None and self.avoidance.master_lateral is not None:
            # Ramp the detour over the phase's transition time: a step
            # reference would ring the head across the safety margin, and a
            # ringing head drags every follower with it through the offset
            # coupling.  The pursuit-point advance grows quadratically so the
            # head brakes while the swing develops instead of outrunning it.
            frac = min(1.0, (now - self.avoidance_started) / self._phase_duration())
            s_m, _ = self.avoidance.frame.coords(self._head())
            point = tuple(self.avoidance.frame.to_world(
                s_m + _ease(frac * frac) * self.scn.sensing.carrot_advance,
                _ease(frac) * self.avoidance.master_lateral).tolist())
        elif self.ref_slew is None or (point := self.ref_slew.point(now)) is None:
            point = self.waypoints[self.target_idx]   # no slew, or it has landed
        self.reference = point
        return point

    def _slave_targets(self, reference: np.ndarray) -> np.ndarray:
        targets = np.zeros((self.n, 2))
        targets[self.master] = reference
        targets[self.scn.topology.tails] = reference + np.reshape(self.active_offsets, (-1, 2))
        return targets

    # ------------------------------------------------------- avoidance

    def _observe(self) -> list[obstacle.ObstacleCircle]:
        """Obstacles any robot currently senses, as full boundary circles,
        grouped again when they change.

        A polygon counts as sensed while part of it lies inside some robot's
        footprint; its circle is then the full-boundary wrap, since a sliver
        seen at first contact would undersize every clearance computed from
        it.  One `ObstacleField.sensed` call decides every robot and polygon,
        mostly by distance, and is held in the budget.  There is no persistent map, which is
        fine because events freeze their geometry at detection time.
        """
        budget = self.budget
        if budget.stale[SENSED]:
            positions = self.loop.ring[-1]
            sensed, reuse = self.obstacles.sensed(positions)
            budget.renew(positions, SENSED, reuse)
            if sensed != self.sensed:
                self.sensed = sensed
                self.grouped = obstacle.group_all(sensed, 2.0 * obstacle.ROBOT_RADIUS)
                budget.expire(PLAN_SKIP)
        return self.sensed

    def _avoidance_offsets(self, event: obstacle.AvoidanceEvent) -> list[float]:
        along, lateral = event.frame.along, event.frame.lateral
        master_lat = event.master_lateral if event.master_lateral is not None else 0.0
        out = np.reshape(self.schedule_offsets, (-1, 2))
        for e, (_head, tail) in enumerate(self.scn.topology.edges):
            if tail in event.slave_laterals:
                along_comp = float(out[e] @ along)
                out[e] = (along_comp * along
                          + (event.slave_laterals[tail] - master_lat) * lateral)
        return out.ravel().tolist()

    def _update_avoidance(self, now: float):
        scn = self.scn
        if not scn.obstacles:
            return
        budget = self.budget
        if self.avoidance is not None:
            if not budget.stale[EVENT_END]:
                return
            cleared, radius = obstacle.event_cleared(
                self.avoidance, np.reshape(self.loop.ring[-1], (-1, 2)), self.master,
                obstacle.FOV, obstacle.ROBOT_RADIUS)
            if not cleared:
                budget.renew(self.loop.ring[-1], EVENT_END, radius.tolist())
                return
            # glide the reference back to the waypoint instead of stepping
            # it: the formation is cruising at the clear instant, and a step
            # would ring everyone around the slots
            if self.avoidance.master_lateral is not None:
                self.ref_slew = Slew(self._reference_point(now),
                                     self.waypoints[self.target_idx], now,
                                     glide_s=self._phase_duration())
            self._event(now, "avoid_clear", mode=self.avoidance.mode)
            self.avoidance = None
            self._switch_offsets(self.schedule_offsets, now, kind="restore")
            return
        self._observe()
        if not self.grouped:
            return
        reference = np.array(self._reference_point(now))
        if not budget.stale[PLAN_SKIP]:
            moved = reference - self.skip_reference
            if moved @ moved < self.skip_reach2:
                return
        skip, reach = obstacle.behind(obstacle.circle_arrays(self.grouped)[0],
                                      self._head(), reference)
        if skip:
            radius = [math.inf] * self.n
            radius[self.master] = reach
            budget.renew(self.loop.ring[-1], PLAN_SKIP, radius)
            self.skip_reference, self.skip_reach2 = reference, reach * reach
            return
        budget.expire(PLAN_SKIP)
        targets = self._slave_targets(reference)
        event = obstacle.detect_mode(self.loop.ring[-1], targets, self.master, self.grouped,
                                     obstacle.FOV, obstacle.LOOK_AHEAD)
        if event is None:
            return
        self.avoidance = event
        self.avoidance_started = now
        self.avoidance_circles = obstacle.circle_floats(event.obstacles)
        budget.expire(EVENT_MIN)   # its end is stale: only a stale end clears
        self.ref_slew = None
        planned = {"mode": event.mode, "sub_case": event.sub_case,
                   "strategy": event.strategy, "threatened": event.threatened}
        self._event(now, "avoid_enter", **{k: v for k, v in planned.items() if v is not None},
                    obstacles=[list(c.members) for c in event.obstacles])
        if event.slave_laterals:
            self._switch_offsets(self._avoidance_offsets(event), now,
                                 kind="avoidance")

    # ------------------------------------------------------ transitions

    def _switch_offsets(self, new_offsets: list[float], now: float, kind: str):
        delta = [new - old for new, old in zip(new_offsets, self.active_offsets)]
        # numpy's `abs(delta).max(initial=0.0) < 1e-9`: a NaN switches
        if all(abs(d) < 1e-9 for d in delta):
            return
        if self.transition is not None:
            self._finish_transition(now, "superseded")
        p, tails = self.loop.ring[-1], [tail for _head, tail in self.loop.planar_lift.pairs]
        destination = [p[2 * tail + axis] + delta[2 * e + axis] for e, tail in enumerate(tails)
                       for axis in (0, 1)] if kind == "waypoint" else None
        duration = self._phase_duration()
        self.transition = TransitionState(
            start_time=now, duration=duration, agents=tuple(tail + 1 for tail in tails),
            start_offsets=self.active_offsets, target_offsets=list(new_offsets),
            label=kind, destination=destination)
        if kind == "waypoint":
            # formation morphs apply as a step: the switch instant is the
            # timing datum for the first-entry measurement
            self.active_offsets = self.transition.target_offsets
        self._event(now, "transition_start", kind=kind, duration=duration)

    def _apply_offset_ramp(self, now: float):
        """Slew avoidance/restore offset overrides over the transition time.

        Stepping the override would ring the followers across the safety
        margin in narrow passages, so those offsets move along an eased ramp
        and the plants track it with bounded lag instead of overshooting.
        """
        state = self.transition
        if state is None or state.label == "waypoint":
            return
        ease = _ease(min(1.0, (now - state.start_time) / state.duration))
        # numpy's `start + ease * (target - start)`, coordinate by coordinate
        self.active_offsets = [s + ease * (t - s) for s, t in
                               zip(state.start_offsets, state.target_offsets)]

    def _transition_status(self, now: float) -> str | None:
        """Advance the active transition's bookkeeping; return its status."""
        state = self.transition
        if state is None:
            return None
        if state.label == "waypoint":
            # the head dwells, so the residual to the destination frozen at
            # the switch is the transition-time measurement
            p, dest = self.loop.ring[-1], state.destination
            residual = [(dest[2 * e] - p[2 * tail], dest[2 * e + 1] - p[2 * tail + 1])
                        for e, (_head, tail) in enumerate(self.loop.planar_lift.pairs)]
            return check_convergence(state, residual, now,
                                     tolerance=CONVERGENCE_BAND_CM,
                                     grace=0.5 * state.duration, hold=0.0)
        # overrides run while the head moves, so they converge on the relative
        # offsets, held inside the band (one sample may be a zero crossing of
        # a decaying swing); the band cannot close while the head cruises
        # (the lag scales with its speed), so overrides get extra time
        return check_convergence(state, self._offset_residuals(state.target_offsets),
                                 now, tolerance=CONVERGENCE_BAND_CM,
                                 grace=OVERRIDE_GRACE_S, hold=OVERRIDE_HOLD_S)

    def _finish_transition(self, now: float, status: str):
        state = self.transition
        kind = state.label
        restored = {"offset_error_cm": self._offset_error()} if kind == "restore" else {}
        self._event(now, f"transition_{status}", kind=kind, start_time=state.start_time,
                    duration=state.duration, agents=list(state.agents),
                    participating=[state.agents[k] for k in state.moving],
                    first_entry={str(a): t for a, t in sorted(state.first_entry.items())},
                    converged_time=state.converged_time, **restored)
        if kind != "waypoint" and status != "superseded":
            # land the slewed override on its target; a superseding
            # transition instead takes over from the mid-ramp value
            self.active_offsets = state.target_offsets
        self.transition = None

    # -------------------------------------------------------- waypoints

    def _update_settle(self, now: float):
        """Start a pending waypoint transition once the dwell has settled.

        The first-entry measurement freezes absolute destinations at the
        switch instant, so the switch waits until the head has (nearly)
        stopped ringing at the vertex and every edge is back inside the
        convergence band around the outgoing offsets.
        """
        if self.pending_since is None or self.avoidance is not None:
            return
        # every speed (np.linalg.norm's arithmetic) and residual within bounds
        velocities = self.loop.velocities
        quiet = (all(math.sqrt(vx * vx + vy * vy) <= SETTLE_SPEED_CM_S
                     for vx, vy in zip(velocities[0::2], velocities[1::2]))
                 and all(abs(x) <= SETTLE_BAND_CM and abs(y) <= SETTLE_BAND_CM
                         for x, y in self._offset_residuals(self.active_offsets)))
        if not quiet:
            self.settle_ok_since = None
        elif self.settle_ok_since is None:
            self.settle_ok_since = now
        held = quiet and now - self.settle_ok_since >= SETTLE_HOLD_S
        if held or now - self.pending_since > SETTLE_TIMEOUT_S:
            if not held:
                self._event(now, "settle_timeout")
            self.pending_since = self.settle_ok_since = None
            self._switch_offsets(self.schedule_offsets, now, kind="waypoint")

    def _update_waypoints(self, now: float):
        scn = self.scn
        if self.avoidance is not None or self.terminal_time is not None:
            return
        # release a hold once the turn, the settle gate, and the transition
        # are all done; a waypoint transition runs only under a hold, so
        # only a restore may still be converging while the head cruises on
        if self.holding:
            if (self.corner is None and self.transition is None
                    and self.pending_since is None):
                self._leave_vertex(now)
                self.holding = False
            return
        tx, ty = target = self.waypoints[self.target_idx]
        x, y = self._head()
        if _beyond(x - tx, y - ty, scn.waypoint_radius):
            return
        self.completed += 1
        self._event(now, "waypoint_reached", index=self.target_idx,
                    completed=self.completed)
        hold = False

        if (scn.yaw_control is not None and scn.yaw_control.corner_turns
                and self.target_idx + 1 < len(self.waypoints)):
            previous = (self.loop.start[2 * self.master:2 * self.master + 2]
                        if self.target_idx == 0 else self.waypoints[self.target_idx - 1])
            incoming = controller.heading_from_motion(target, previous, self.last_heading)
            outgoing = controller.heading_from_motion(
                self.waypoints[self.target_idx + 1], target, incoming)
            change = controller.wrap(outgoing - incoming)
            if abs(change) > CORNER_ENTRY:
                self.corner = CornerTurn(outgoing, now)
                self._event(now, "corner_turn_start",
                            heading_deg=float(np.rad2deg(outgoing)))
                hold = True

        new_phase = scn.formation.phase_index(self.completed)
        if new_phase != self.phase_idx:
            # a phase boundary always dwells, even when its offsets repeat
            # the previous ones: scenarios use a repeated phase to force the
            # formation to settle before tackling what comes next
            self.phase_idx = new_phase
            self.schedule_offsets = self.phase_offsets[new_phase]
            self.pending_since = now
            hold = True

        self.holding = hold
        if not hold:
            self._leave_vertex(now)

    def _leave_vertex(self, now: float):
        """Glide on from the reached target to the next waypoint, or end."""
        if self.target_idx + 1 < len(self.waypoints):
            self.target_idx += 1
            self._begin_glide(now, self.waypoints[self.target_idx - 1])
        else:
            self.terminal_time = now
            self._event(now, "terminal", waypoints=self.completed)

    def _update_corner(self, now: float):
        if self.corner is None:
            return
        target = self.corner.heading
        yaws = self.loop.yaws
        if all(abs(controller.wrap(yaws[row] - target)) < CORNER_EXIT
               for row in self.loop.yaw_rows):
            self._event(now, "corner_turn_end",
                        held=float(now - self.corner.start))
            self.corner = None
            self.last_heading = target

    # ----------------------------------------------------------- stepping

    def _yaw_target(self, reference: tuple[float, float]) -> float | None:
        """The heading the yaw law steers to: the corner turn's, the
        configured one, or the head's motion toward the reference point."""
        cfg = self.scn.yaw_control
        if cfg is None:
            return None
        if self.corner is not None:
            return self.corner.heading
        if cfg.target is not None:
            return cfg.target
        self.last_heading = controller.heading_from_motion(
            reference, self._head(), self.last_heading)
        return self.last_heading

    def _update_metrics(self, now: float, offsets: list[float]):
        # the error maxima are steady-behaviour metrics: a scenario may
        # declare a warmup so the spin-up transient every mode shares does
        # not mask the differences under study
        if self.rel_err_max and now >= self.scn.metrics_warmup_s:
            positions = self.loop.ring[-1]
            for e, (head, tail) in enumerate(self.loop.planar_lift.pairs):
                # the arithmetic of np.linalg.norm, then np.maximum's NaN
                dx = positions[2 * tail] - positions[2 * head] - offsets[2 * e]
                dy = positions[2 * tail + 1] - positions[2 * head + 1] - offsets[2 * e + 1]
                err, worst = math.sqrt(dx * dx + dy * dy), self.rel_err_max[e]
                self.rel_err_max[e] = worst if worst >= err or worst != worst else err
        # contact is judged against the physical footprint; the larger
        # planning radius holds back slack for tracking transients.
        # Subtracting after the min is exact: rounding is monotone.  Each
        # minimum is evaluated again only once its budget row has gone stale
        budget, positions = self.budget, self.loop.ring[-1]
        if self.obstacles.circles and budget.stale[FIELD_MIN]:
            self.min_clearance, radius = obstacle.running_clearance(
                self.min_clearance, positions, *self.obstacles.circle_floats,
                obstacle.COLLISION_RADIUS)
            budget.renew(positions, FIELD_MIN, radius)
        if self.avoidance is not None and budget.stale[EVENT_MIN]:
            self.min_boundary_clearance, radius = obstacle.running_clearance(
                self.min_boundary_clearance, positions, *self.avoidance_circles, 0.0)
            budget.renew(positions, EVENT_MIN, radius)

    def _check_safety(self, now: float) -> bool:
        if self.min_clearance < 0.0:
            self.status = STATUS_COLLISION
            self._event(now, "collision", clearance_cm=float(self.min_clearance))
            return False
        # the first robot outside the box, or at a NaN, diverges the run
        p, (lx, ly), (hx, hy) = self.loop.ring[-1], self.box_low, self.box_high
        for k in range(0, len(p), 2):
            if not (lx <= p[k] <= hx and ly <= p[k + 1] <= hy):
                self.status = STATUS_DIVERGED
                self._event(now, "divergence", agent=k // 2 + 1)
                return False
        return True

    # --------------------------------------------------------------- run

    def run(self) -> RunLog:
        scn, loop = self.scn, self.loop
        steps = loop.steps
        positions, commands = np.zeros((steps, self.n, 2)), np.zeros((steps, self.n, 2))
        yaws, yaw_commands = np.zeros((steps, self.n)), np.zeros((steps, self.n))
        phases, avoid_modes = np.zeros(steps, dtype=int), np.zeros(steps, dtype=int)
        # rows are packed from the step's floats, through memoryviews (cheaper)
        pairs, singles = struct.Struct(f"{2 * self.n}d"), struct.Struct(f"{self.n}d")
        rows = [memoryview(log) for log in (positions, commands, yaws, yaw_commands)]
        logged = 0

        for k in range(steps):
            now = k * scn.dt
            try:
                self._update_avoidance(now)
            except obstacle.UnsupportedManeuver as exc:
                self.status = STATUS_UNSUPPORTED
                self._event(now, "unsupported_maneuver", reason=str(exc))
                break
            status = self._transition_status(now)
            if status in (CONVERGED, TIMED_OUT):
                self._finish_transition(now, status)
            self._apply_offset_ramp(now)
            self._update_corner(now)
            self._update_settle(now)
            self._update_waypoints(now)

            reference, offsets = self._reference_point(now), self.active_offsets
            applied_planar, applied_yaw = loop.step(reference, offsets,
                                                    self._yaw_target(reference))
            if scn.obstacles:   # every budget row is an obstacle decision
                self.budget.spend(loop.ring[-1])

            pairs.pack_into(rows[0], k * pairs.size, *loop.ring[-1])
            pairs.pack_into(rows[1], k * pairs.size, *applied_planar)
            singles.pack_into(rows[2], k * singles.size, *loop.yaws)
            singles.pack_into(rows[3], k * singles.size, *applied_yaw)
            phases[k] = -1 if self.avoidance is not None else self.phase_idx
            avoid_modes[k] = 0 if self.avoidance is None else self.avoidance.mode
            logged = k + 1

            self._update_metrics(now, offsets)
            if not self._check_safety(now):
                break
            if (self.terminal_time is not None
                    and now - self.terminal_time >= scn.settle_time
                    and self.transition is None):
                self.status = STATUS_COMPLETED
                break
        else:
            if self.terminal_time is not None:
                self.status = STATUS_COMPLETED

        if self.transition is not None:
            self._finish_transition(logged * scn.dt, "interrupted")

        # the step times are k * dt, exactly as `now` was computed
        return RunLog(
            times=np.arange(logged) * scn.dt, positions=positions[:logged],
            commands=commands[:logged], yaws=yaws[:logged],
            yaw_commands=yaw_commands[:logged], phases=phases[:logged],
            avoid_modes=avoid_modes[:logged], events=self.events,
            summary=self._summary(logged * scn.dt))

    def _summary(self, final_time: float) -> dict:
        scn = self.scn
        transitions, avoidance, restorations = [], [], []
        for k, ev in enumerate(self.events):
            name = ev["event"]
            detail = {key: val for key, val in ev.items() if key not in ("time", "event")}
            if name == "avoid_enter":
                # avoidance events do not overlap: the next clear ends this one
                cleared = next((later["time"] for later in self.events[k:]
                                if later["event"] == "avoid_clear"), None)
                avoidance.append({**dict.fromkeys(("sub_case", "strategy", "threatened")),
                                  **detail, "time": ev["time"], "cleared_time": cleared})
            elif name.startswith("transition_") and name != "transition_start":
                status = name.removeprefix("transition_")
                error = detail.pop("offset_error_cm", None)
                transitions.append({**detail, "status": status})
                if ev["kind"] == "restore":
                    restorations.append({
                        "start_time": ev["start_time"], "measured_time": ev["time"],
                        "offset_error_cm": error,
                        "status": "restored" if status == CONVERGED else status})
        summary = {
            "scenario": scn.name,
            "mode": scn.control.mode,
            "dt": scn.dt,
            "seed": scn.seed,
            "status": self.status,
            "final_time": float(final_time),
            "waypoints_completed": int(self.completed),
            "final_positions_m": [[x / 100.0, y / 100.0] for x, y in
                                  zip(self.loop.ring[-1][0::2], self.loop.ring[-1][1::2])],
            "final_yaw_deg": [float(np.rad2deg(y)) for y in self.loop.yaws],
            "final_offset_error_cm": self._offset_error(),
            "relative_error_max_cm": {f"edge_{e}": float(v)
                                      for e, v in enumerate(self.rel_err_max)},
            "relative_error_max_overall_cm": float(np.max(self.rel_err_max, initial=0.0)),
            "min_obstacle_clearance_cm": float(self.min_clearance),
            "avoidance_min_boundary_clearance_cm": float(self.min_boundary_clearance),
            "transitions": transitions,
            "avoidance_events": avoidance,
            "restorations": restorations,
        }
        # JSON has no NaN or Infinity: every non-finite number becomes null
        return json.loads(json.dumps(summary), parse_constant=lambda _: None)


def run_scenario(source: str | Path | Scenario, *, mode: str | None = None,
                 dt: float | None = None, seed: int | None = None,
                 noise_std: float | None = None,
                 duration: float | None = None) -> RunLog:
    """Load (if needed), optionally override knobs, and run a scenario."""
    scn = source if isinstance(source, Scenario) else load_scenario(source)
    if mode is not None:
        scn = replace(scn, control=replace(scn.control, mode=mode))
    if dt is not None:
        scn = replace(scn, dt=dt)
    if seed is not None:
        scn = replace(scn, seed=seed)
    if noise_std is not None:
        scn = replace(scn, noise_std=noise_std)
    if duration is not None:
        scn = replace(scn, duration=duration)
    return Simulator(scn).run()
