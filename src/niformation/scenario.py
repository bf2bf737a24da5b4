"""Scenario files: the declarative description of one simulation run.

A scenario YAML names the agents (kind, start pose), the interconnection
topology and loop gains, the reference agent's waypoint list, the phase
schedule of formation offsets, optional yaw-alignment control, optional
obstacle polygons, sensing geometry, and the integration/noise settings.
Positions are centimeters; angles in the file are degrees (converted to
radians on load); times are seconds.

`load_scenario` accepts a filesystem path or the bare name of a shipped
scenario.  Validation errors name the offending field path, and a key the
loader does not read is refused rather than ignored.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .controller import NiGains, SaturationLimits
from .formation import FormationPhase, FormationSpec
from .graph import NetworkTopology, build_topology
from .lti import parse_yaml

AGENT_KINDS = ("ugv", "uav")
CONTROL_MODES = ("enhanced", "baseline")


class ScenarioError(ValueError):
    """A scenario document failed validation; the message names the field."""


@dataclass(frozen=True)
class AgentSpec:
    id: int
    kind: str
    start: tuple[float, float]
    yaw: float = 0.0  # radians


@dataclass(frozen=True)
class SensingConfig:
    fov: float = 220.0             # sensor footprint diameter (cm)
    look_ahead: float = 100.0      # obstacle reaction range (cm)
    robot_radius: float = 32.0     # planning footprint of every robot (cm)
    collision_radius: float = 25.0  # physical footprint: contact below this
    carrot_advance: float = 60.0   # detour pursuit point lead (cm)

    def __post_init__(self):
        if min(self.fov, self.look_ahead, self.robot_radius,
               self.collision_radius, self.carrot_advance) <= 0:
            raise ScenarioError("sensing values must be positive")
        if self.collision_radius > self.robot_radius:
            raise ScenarioError(
                "sensing.collision_radius cannot exceed the planning "
                "robot_radius")


@dataclass(frozen=True)
class ControlConfig:
    mode: str = "enhanced"
    prediction_horizon_steps: int = 1
    velocity_estimate_window: int = 1
    command_delay_steps: int = 0

    def __post_init__(self):
        if self.mode not in CONTROL_MODES:
            raise ScenarioError(f"control.mode must be one of {CONTROL_MODES}")
        if self.prediction_horizon_steps < 1:
            raise ScenarioError("control.prediction_horizon_steps must be >= 1")
        if self.velocity_estimate_window < 1:
            raise ScenarioError("control.velocity_estimate_window must be >= 1")
        if self.command_delay_steps < 0:
            raise ScenarioError("control.command_delay_steps must be >= 0")


@dataclass(frozen=True)
class YawControlConfig:
    topology: NetworkTopology
    offsets: tuple[float, ...]          # radians, per yaw edge
    target: float | None                # radians; None tracks motion heading
    corner_turns: bool = False
    corner_entry: float = np.deg2rad(30.0)
    corner_exit: float = np.deg2rad(3.0)


@dataclass(frozen=True)
class Scenario:
    name: str
    dt: float
    duration: float
    seed: int
    agents: tuple[AgentSpec, ...]
    topology: NetworkTopology
    gains: NiGains
    waypoints: tuple[tuple[float, float], ...]
    waypoint_radius: float
    formation: FormationSpec
    obstacles: tuple[np.ndarray, ...] = ()
    sensing: SensingConfig = field(default_factory=SensingConfig)
    control: ControlConfig = field(default_factory=ControlConfig)
    saturation: SaturationLimits = field(default_factory=SaturationLimits)
    yaw_control: YawControlConfig | None = None
    noise_std: float = 0.0
    settle_time: float = 5.0
    metrics_warmup_s: float = 0.0
    # trapezoidal reference profile: ease up to cruise_speed (cm/s) over
    # ease_s seconds, hold it, ease back down to land on the waypoint
    # (0 = step; a stepped reference rings the lightly damped head plant)
    waypoint_cruise_speed: float = 0.0
    waypoint_ease_s: float = 0.0

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def master_index(self) -> int:
        """0-based row of the (first) reference agent."""
        return self.topology.reference_agents[0] - 1

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(a.kind for a in self.agents)

    def starts(self) -> np.ndarray:
        return np.array([a.start for a in self.agents], dtype=float)


def _expect(doc: dict, key: str, path: str, kind: type | None = None):
    if key not in doc:
        raise ScenarioError(f"{path}{key}: missing required field")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise ScenarioError(f"{path}{key}: expected {kind.__name__}, "
                            f"got {type(value).__name__}")
    return value


def _number(value, path: str, *, nonnegative: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}: expected a number, got {type(value).__name__}")
    if not np.isfinite(float(value)):
        raise ScenarioError(f"{path}: must be finite")
    if nonnegative and value < 0:
        raise ScenarioError(f"{path}: must be nonnegative")
    return float(value)


def _pair(value, path: str) -> tuple[float, float]:
    """A [x, y] list of two finite numbers: a point or a gain pair."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ScenarioError(f"{path}: expected a [x, y] pair")
    return (_number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]"))


def _flag(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{path}: expected true or false, got {type(value).__name__}")
    return value


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}: expected an integer, got {type(value).__name__}")
    return value


def _only(doc: dict, path: str, *fields: str) -> dict:
    """The mapping itself, once every key in it is one of `fields`."""
    for key in doc:
        if key not in fields:
            raise ScenarioError(f"{path}{key}: unknown field")
    return doc


def _section(doc: dict, key: str, *fields: str) -> dict:
    """An optional mapping section; absent or null reads as {}."""
    value = {} if doc.get(key) is None else doc[key]
    if not isinstance(value, dict):
        raise ScenarioError(f"{key}: expected a mapping")
    return _only(value, key + ".", *fields)


def _edge_topology(doc: dict, section: str, n_agents: int,
                   *fields: str) -> NetworkTopology:
    """The [head, tail] edges and the single reference agent of a section
    whose other keys are `fields`."""
    path = section + "."
    _only(doc, path, "edges", "reference_agents", *fields)
    edges = _expect(doc, "edges", path, list)
    for k, edge in enumerate(edges):
        if not (isinstance(edge, list) and len(edge) == 2):
            raise ScenarioError(f"{path}edges[{k}]: expected a [head, tail] pair")
        for end in edge:
            _integer(end, f"{path}edges[{k}]")
    refs = _expect(doc, "reference_agents", path, list)
    if len(refs) != 1:
        # the simulator steers only the first reference agent
        raise ScenarioError(f"{path}reference_agents: expected exactly one agent")
    try:
        return build_topology(n_agents, edges,
                              [_integer(refs[0], f"{path}reference_agents[0]")])
    except ValueError as exc:
        raise ScenarioError(f"{section}: {exc}") from exc


def _agents(doc, path) -> tuple[AgentSpec, ...]:
    rows = _expect(doc, "agents", path, list)
    if not rows:
        raise ScenarioError("agents: at least one agent is required")
    agents = []
    for i, row in enumerate(rows):
        p = f"agents[{i}]."
        if not isinstance(row, dict):
            raise ScenarioError(f"agents[{i}]: expected a mapping")
        _only(row, p, "id", "kind", "start", "yaw")
        ident = _integer(_expect(row, "id", p), p + "id")
        kind = _expect(row, "kind", p, str)
        if kind not in AGENT_KINDS:
            raise ScenarioError(f"{p}kind: must be one of {AGENT_KINDS}")
        start = _pair(_expect(row, "start", p), p + "start")
        yaw = np.deg2rad(_number(row.get("yaw", 0.0), p + "yaw"))
        agents.append(AgentSpec(id=ident, kind=kind, start=start, yaw=float(yaw)))
    ids = [a.id for a in agents]
    if ids != list(range(1, len(agents) + 1)):
        raise ScenarioError("agents: ids must be 1..n in order")
    return tuple(agents)


def _gains(doc, n_edges, yaw_doc) -> NiGains:
    g = _only(_expect(doc, "gains", "", dict), "gains.", "reference", "consensus")
    reference = _pair(_expect(g, "reference", "gains."), "gains.reference")
    cons = _expect(g, "consensus", "gains.", list)
    if len(cons) != n_edges:
        raise ScenarioError(f"gains.consensus: expected {n_edges} pairs, got {len(cons)}")
    yaw_ref, yaw_cons = 0.0, ()
    if yaw_doc is not None:
        yaw_ref = _number(_expect(yaw_doc, "reference_gain", "yaw_control."),
                          "yaw_control.reference_gain")
        raw = _expect(yaw_doc, "consensus_gains", "yaw_control.", list)
        yaw_cons = tuple(_number(v, f"yaw_control.consensus_gains[{i}]")
                         for i, v in enumerate(raw))
    consensus = tuple(_pair(pair, f"gains.consensus[{i}]")
                      for i, pair in enumerate(cons))
    try:
        return NiGains(reference=reference, consensus=consensus,
                       yaw_reference=yaw_ref, yaw_consensus=yaw_cons)
    except ValueError as exc:
        raise ScenarioError(f"gains: {exc}") from exc


def _formation(doc, n_edges) -> FormationSpec:
    f = _only(_expect(doc, "formation", "", dict), "formation.", "phases")
    rows = _expect(f, "phases", "formation.", list)
    if not rows:
        raise ScenarioError("formation.phases: at least one phase is required")
    phases = []
    for i, row in enumerate(rows):
        p = f"formation.phases[{i}]."
        if not isinstance(row, dict):
            raise ScenarioError(f"formation.phases[{i}]: expected a mapping")
        _only(row, p, "after_waypoints", "offsets", "transition_duration")
        offsets = _expect(row, "offsets", p, list)
        if len(offsets) != n_edges:
            raise ScenarioError(f"{p}offsets: expected {n_edges} pairs, got {len(offsets)}")
        after = _integer(row.get("after_waypoints", 0), p + "after_waypoints")
        points = tuple(_pair(o, f"{p}offsets[{j}]") for j, o in enumerate(offsets))
        duration = _number(row.get("transition_duration", 2.0), p + "transition_duration")
        try:
            phases.append(FormationPhase(after, points, duration))
        except ValueError as exc:
            raise ScenarioError(f"{p}{exc}") from exc
    try:
        return FormationSpec(phases=tuple(phases))
    except ValueError as exc:
        raise ScenarioError(f"formation: {exc}") from exc


def _yaw_control(doc, n_agents) -> YawControlConfig | None:
    raw = doc.get("yaw_control")
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ScenarioError("yaw_control: expected a mapping")
    top = _edge_topology(raw, "yaw_control", n_agents, "offsets", "target",
                         "corner_turns", "corner_entry", "corner_exit",
                         "reference_gain", "consensus_gains")
    offsets_deg = raw.get("offsets", [0.0] * top.n_edges)
    if not isinstance(offsets_deg, list) or len(offsets_deg) != top.n_edges:
        raise ScenarioError(f"yaw_control.offsets: expected {top.n_edges} values")
    target_deg = raw.get("target")
    if target_deg is not None:
        target_deg = _number(target_deg, "yaw_control.target")
    return YawControlConfig(
        topology=top,
        offsets=tuple(np.deg2rad(_number(v, f"yaw_control.offsets[{i}]"))
                      for i, v in enumerate(offsets_deg)),
        target=None if target_deg is None else float(np.deg2rad(target_deg)),
        corner_turns=_flag(raw.get("corner_turns", False),
                           "yaw_control.corner_turns"),
        corner_entry=float(np.deg2rad(_number(raw.get("corner_entry", 30.0),
                                              "yaw_control.corner_entry"))),
        corner_exit=float(np.deg2rad(_number(raw.get("corner_exit", 3.0),
                                             "yaw_control.corner_exit"))),
    )


def _obstacles(doc) -> tuple[np.ndarray, ...]:
    """The obstacle polygons; absent or null reads as none."""
    rows = [] if doc.get("obstacles") is None else doc["obstacles"]
    if not isinstance(rows, list):
        raise ScenarioError("obstacles: expected a list of polygons")
    polygons = []
    for i, poly in enumerate(rows):
        p = f"obstacles[{i}]"
        if not isinstance(poly, list) or len(poly) < 3:
            raise ScenarioError(f"{p}: expected a polygon with at least 3 vertices")
        polygons.append(np.array([_pair(v, f"{p}[{j}]") for j, v in enumerate(poly)]))
    return tuple(polygons)


def scenario_from_dict(doc: dict, default_name: str = "scenario") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a mapping")
    _only(doc, "", "name", "dt", "duration", "seed", "agents", "topology",
          "gains", "yaw_control", "waypoints", "formation", "obstacles",
          "sensing", "control", "saturation", "noise_std", "settle_time",
          "metrics_warmup_s")
    name = str(doc.get("name", default_name))
    dt = _number(_expect(doc, "dt", ""), "dt")
    duration = _number(_expect(doc, "duration", ""), "duration")
    if dt <= 0 or duration <= 0:
        raise ScenarioError("dt/duration: must be positive")
    seed = _integer(doc.get("seed", 0), "seed")

    agents = _agents(doc, "")
    topology = _edge_topology(_expect(doc, "topology", "", dict), "topology",
                              len(agents))
    # the yaw section is checked to be a mapping before its gains are read
    yaw_control = _yaw_control(doc, len(agents))
    gains = _gains(doc, topology.n_edges, doc.get("yaw_control"))
    if yaw_control is not None and len(gains.yaw_consensus) != yaw_control.topology.n_edges:
        raise ScenarioError("yaw_control.consensus_gains: must match the yaw edge count")

    wp = _only(_expect(doc, "waypoints", "", dict), "waypoints.",
               "points", "radius", "cruise_speed", "ease_s")
    points = _expect(wp, "points", "waypoints.", list)
    if not points:
        raise ScenarioError("waypoints.points: at least one waypoint is required")
    waypoints = tuple(_pair(p, f"waypoints.points[{i}]") for i, p in enumerate(points))
    radius = _number(wp.get("radius", 10.0), "waypoints.radius")
    if radius <= 0:
        raise ScenarioError("waypoints.radius: must be positive")
    cruise = _number(wp.get("cruise_speed", 0.0), "waypoints.cruise_speed",
                     nonnegative=True)
    ease = _number(wp.get("ease_s", 0.0), "waypoints.ease_s", nonnegative=True)
    if cruise > 0 and ease <= 0:
        raise ScenarioError("waypoints.ease_s: must be positive with cruise_speed")

    formation = _formation(doc, topology.n_edges)

    sens = _section(doc, "sensing", "fov", "look_ahead", "robot_radius",
                    "collision_radius", "carrot_advance")
    sensing = SensingConfig(
        fov=_number(sens.get("fov", 220.0), "sensing.fov"),
        look_ahead=_number(sens.get("look_ahead", 100.0), "sensing.look_ahead"),
        robot_radius=_number(sens.get("robot_radius", 32.0), "sensing.robot_radius"),
        collision_radius=_number(
            sens.get("collision_radius", 25.0), "sensing.collision_radius"),
        carrot_advance=_number(sens.get("carrot_advance", 60.0), "sensing.carrot_advance"),
    )
    ctl = _section(doc, "control", "mode", "prediction_horizon_steps",
                   "velocity_estimate_window", "command_delay_steps")
    control = ControlConfig(
        mode=str(ctl.get("mode", "enhanced")),
        prediction_horizon_steps=_integer(ctl.get("prediction_horizon_steps", 1),
                                          "control.prediction_horizon_steps"),
        velocity_estimate_window=_integer(ctl.get("velocity_estimate_window", 1),
                                          "control.velocity_estimate_window"),
        command_delay_steps=_integer(ctl.get("command_delay_steps", 0),
                                     "control.command_delay_steps"),
    )
    sat = _section(doc, "saturation", "ugv_speed", "uav_speed", "yaw_rate")
    try:
        saturation = SaturationLimits(
            ugv_speed=_number(sat.get("ugv_speed", 100.0), "saturation.ugv_speed"),
            uav_speed=_number(sat.get("uav_speed", 200.0), "saturation.uav_speed"),
            yaw_rate=_number(sat.get("yaw_rate", 1.5), "saturation.yaw_rate"),
        )
    except ValueError as exc:
        raise ScenarioError(f"saturation: {exc}") from exc

    noise_std = _number(doc.get("noise_std", 0.0), "noise_std", nonnegative=True)
    settle_time = _number(doc.get("settle_time", 5.0), "settle_time", nonnegative=True)
    warmup = _number(doc.get("metrics_warmup_s", 0.0), "metrics_warmup_s",
                     nonnegative=True)

    return Scenario(
        name=name, dt=dt, duration=duration, seed=seed, agents=agents,
        topology=topology, gains=gains, waypoints=waypoints,
        waypoint_radius=radius, formation=formation,
        obstacles=_obstacles(doc), sensing=sensing, control=control,
        saturation=saturation, yaw_control=yaw_control, noise_std=noise_std,
        settle_time=settle_time, metrics_warmup_s=warmup,
        waypoint_cruise_speed=cruise, waypoint_ease_s=ease,
    )


def shipped_scenarios() -> list[str]:
    root = importlib.resources.files("niformation").joinpath("scenarios")
    return sorted(p.name.removesuffix(".yaml") for p in root.iterdir()
                  if p.name.endswith(".yaml"))


def load_scenario(source: str | Path) -> Scenario:
    """Load a scenario from a YAML path or a shipped scenario name."""
    path = Path(source)
    if path.suffix in (".yaml", ".yml") or path.is_file():
        text = path.read_text()
        default_name = path.stem
    else:
        name = str(source)
        resource = importlib.resources.files("niformation").joinpath(
            f"scenarios/{name}.yaml")
        if not resource.is_file():
            raise ScenarioError(
                f"unknown scenario '{name}'; shipped scenarios: "
                f"{', '.join(shipped_scenarios())}")
        text = resource.read_text()
        default_name = name
    try:
        doc = parse_yaml(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"invalid YAML: {exc}") from exc
    return scenario_from_dict(doc, default_name)
