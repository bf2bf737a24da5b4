"""Scenario files: the declarative description of one simulation run.

A scenario YAML names the agents (kind, start pose), the interconnection
topology and loop gains, the reference agent's waypoint list, the phase
schedule of formation offsets, optional yaw-alignment control, optional
obstacle polygons, the detour pursuit lead, and the integration/noise
settings.  Positions are centimeters; angles in the file are degrees
(converted to radians on load); times are seconds.

Each section's keys, defaults and bounds are declared once, on its
dataclass, and each part of a `Scenario` checks its own values, so one built
directly or with `dataclasses.replace` is checked as a loaded one is.  What
no scenario varies is a constant, not a key: the footprints (`obstacle`), the
speed and yaw-rate caps (`controller`) and the corner-turn angles (`sim`).

`load_scenario` accepts a filesystem path or the bare name of a shipped
scenario.  A shipped name is read and validated once per process, and every
call returns that one `Scenario`, immutable all the way down: its arrays are
read-only, and each obstacle polygon is held once, as float (x, y) tuples
that `==` and `hash` compare by value.  A path is read again on every call.
Validation errors name the offending field path, and a key the loader does
not read is refused rather than ignored.
"""

from __future__ import annotations

import functools
import importlib.resources
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from .controller import SPEED_CAPS, NiGains
from .formation import FormationPhase, FormationSpec
from .graph import NetworkTopology, build_topology
from .lti import parse_yaml

AGENT_KINDS = tuple(SPEED_CAPS)
CONTROL_MODES = ("enhanced", "baseline")


class ScenarioError(ValueError):
    """A scenario document failed validation; the message names the field."""


@dataclass(frozen=True)
class AgentSpec:
    id: int
    kind: str
    start: tuple[float, float]
    yaw: float = 0.0  # radians

    def __post_init__(self):
        if self.kind not in AGENT_KINDS:
            raise ScenarioError(f"kind: must be one of {AGENT_KINDS}")


def _typed(section, key: str):
    """Read each field of a frozen section as the type of its default, as
    the loader reads the section's keys."""
    for f in fields(section):
        object.__setattr__(section, f.name, _scalar(
            getattr(section, f.name), f"{key}.{f.name}", type(f.default)))


@dataclass(frozen=True)
class SensingConfig:
    carrot_advance: float = 60.0   # detour pursuit point lead (cm)

    def __post_init__(self):
        _typed(self, "sensing")
        if self.carrot_advance <= 0:
            raise ScenarioError("sensing.carrot_advance: must be positive")


@dataclass(frozen=True)
class ControlConfig:
    mode: str = "enhanced"
    prediction_horizon_steps: int = 1
    velocity_estimate_window: int = 1
    command_delay_steps: int = 0

    def __post_init__(self):
        _typed(self, "control")
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
    """The yaw law's topology, target, gains and corner turns.

    `gains` is the law's per-row gains as floats: one nonpositive gain per
    yaw edge, then the reference agent's gain.
    """

    topology: NetworkTopology
    target: float | None                # radians; None tracks motion heading
    gains: tuple[float, ...]
    corner_turns: bool = False

    def __post_init__(self):
        gains = np.array(self.gains, dtype=float)
        if gains.shape != (self.topology.n_edges + 1,):
            raise ScenarioError(
                "yaw_control.consensus_gains: must match the yaw edge count")
        if not np.all(gains <= 0):
            raise ScenarioError("yaw_control: gains must be nonpositive")
        object.__setattr__(self, "gains", tuple(gains.tolist()))


@dataclass(frozen=True)
class Scenario:
    name: str
    dt: float
    duration: float
    agents: tuple[AgentSpec, ...]
    topology: NetworkTopology
    gains: NiGains
    waypoints: tuple[tuple[float, float], ...]
    formation: FormationSpec
    seed: int = 0
    waypoint_radius: float = 10.0
    obstacles: tuple[tuple[tuple[float, float], ...], ...] = ()
    sensing: SensingConfig = field(default_factory=SensingConfig)
    control: ControlConfig = field(default_factory=ControlConfig)
    yaw_control: YawControlConfig | None = None
    noise_std: float = 0.0
    settle_time: float = 5.0
    metrics_warmup_s: float = 0.0
    # trapezoidal reference profile: ease up to cruise_speed (cm/s) over
    # ease_s seconds, hold it, ease back down to land on the waypoint
    # (0 = step; a stepped reference rings the lightly damped head plant)
    waypoint_cruise_speed: float = 0.0
    waypoint_ease_s: float = 0.0

    def __post_init__(self):
        # polygons given as arrays or lists are held as float tuples
        object.__setattr__(self, "obstacles", tuple(
            tuple(map(tuple, np.asarray(p, dtype=float).tolist()))
            for p in self.obstacles))
        positive = (("dt", self.dt), ("duration", self.duration),
                    ("waypoints.radius", self.waypoint_radius))
        nonnegative = (("noise_std", self.noise_std), ("settle_time", self.settle_time),
                       ("metrics_warmup_s", self.metrics_warmup_s),
                       ("waypoints.cruise_speed", self.waypoint_cruise_speed),
                       ("waypoints.ease_s", self.waypoint_ease_s))
        # each value is read as the loader reads it: a number that is not
        # finite, NaN included, or a seed that is no integer is refused
        for path, value in positive + nonnegative:
            _scalar(value, path)
        _scalar(self.seed, "seed", int)
        for path, value in positive:
            if not value > 0:
                raise ScenarioError(f"{path}: must be positive")
        for path, value in (("seed", self.seed), *nonnegative):
            if not value >= 0:
                raise ScenarioError(f"{path}: must be nonnegative")
        if self.waypoint_cruise_speed > 0 and not self.waypoint_ease_s > 0:
            raise ScenarioError("waypoints.ease_s: must be positive with cruise_speed")

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


# the Python types a value of each field type may be given as, and its name
_TYPES = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
          float: ((int, float), "a number"), str: ((str,), "a string")}


def _scalar(value, path: str, kind: type = float):
    """`value` read as a `kind`: a boolean is never a number, and a number
    must be finite."""
    accepted, name = _TYPES[kind]
    if (isinstance(value, bool) and kind is not bool) or not isinstance(value, accepted):
        raise ScenarioError(f"{path}: expected {name}, got {type(value).__name__}")
    if kind is float and not np.isfinite(float(value)):
        raise ScenarioError(f"{path}: must be finite")
    return kind(value)


def _pair(value, path: str) -> tuple[float, float]:
    """A [x, y] list of two finite numbers: a point or a gain pair."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ScenarioError(f"{path}: expected a [x, y] pair")
    return (_scalar(value[0], f"{path}[0]"), _scalar(value[1], f"{path}[1]"))


def _only(doc: dict, path: str, *keys: str) -> dict:
    """The mapping itself, once every key in it is one of `keys`."""
    for key in doc:
        if key not in keys:
            raise ScenarioError(f"{path}{key}: unknown field")
    return doc


def _scalars(cls, doc: dict, path: str, keys, prefix: str = "") -> dict:
    """The `keys` that `doc` sets, each read as the type of the default of
    `cls`'s field `prefix + key`; an absent key is left to that default."""
    defaults = {f.name: f.default for f in fields(cls)}
    return {prefix + key: _scalar(doc[key], path + key, type(defaults[prefix + key]))
            for key in keys if key in doc}


def _section(cls, doc: dict, key: str):
    """The optional section `key` read into `cls`, whose field names are the
    keys it accepts; absent or null reads as `cls()`."""
    raw = {} if doc.get(key) is None else doc[key]
    if not isinstance(raw, dict):
        raise ScenarioError(f"{key}: expected a mapping")
    return cls(**_only(raw, key + ".", *(f.name for f in fields(cls))))


def _edge_topology(doc: dict, section: str, n_agents: int,
                   *keys: str) -> NetworkTopology:
    """The [head, tail] edges and the single reference agent of a section
    whose other keys are `keys`."""
    path = section + "."
    _only(doc, path, "edges", "reference_agents", *keys)
    edges = _expect(doc, "edges", path, list)
    for k, edge in enumerate(edges):
        if not (isinstance(edge, list) and len(edge) == 2):
            raise ScenarioError(f"{path}edges[{k}]: expected a [head, tail] pair")
        for end in edge:
            _scalar(end, f"{path}edges[{k}]", int)
    refs = _expect(doc, "reference_agents", path, list)
    if len(refs) != 1:
        # the simulator steers only the first reference agent
        raise ScenarioError(f"{path}reference_agents: expected exactly one agent")
    try:
        return build_topology(n_agents, edges,
                              [_scalar(refs[0], f"{path}reference_agents[0]", int)])
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
        ident = _scalar(_expect(row, "id", p), p + "id", int)
        kind = _expect(row, "kind", p, str)
        start = _pair(_expect(row, "start", p), p + "start")
        yaw = np.deg2rad(_scalar(row.get("yaw", 0.0), p + "yaw"))
        try:
            agents.append(AgentSpec(id=ident, kind=kind, start=start, yaw=float(yaw)))
        except ScenarioError as exc:
            raise ScenarioError(f"{p}{exc}") from None
    ids = [a.id for a in agents]
    if ids != list(range(1, len(agents) + 1)):
        raise ScenarioError("agents: ids must be 1..n in order")
    return tuple(agents)


def _gains(doc, n_edges) -> NiGains:
    g = _only(_expect(doc, "gains", "", dict), "gains.", "reference", "consensus")
    reference = _pair(_expect(g, "reference", "gains."), "gains.reference")
    cons = _expect(g, "consensus", "gains.", list)
    if len(cons) != n_edges:
        raise ScenarioError(f"gains.consensus: expected {n_edges} pairs, got {len(cons)}")
    consensus = tuple(_pair(pair, f"gains.consensus[{i}]")
                      for i, pair in enumerate(cons))
    try:
        return NiGains(reference=reference, consensus=consensus)
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
        after = _scalar(row.get("after_waypoints", 0), p + "after_waypoints", int)
        points = tuple(_pair(o, f"{p}offsets[{j}]") for j, o in enumerate(offsets))
        timing = _scalars(FormationPhase, row, p, ("transition_duration",))
        try:
            phases.append(FormationPhase(after, points, **timing))
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
    top = _edge_topology(raw, "yaw_control", n_agents, "target", "corner_turns",
                         "reference_gain", "consensus_gains")
    p = "yaw_control."
    reference = _scalar(_expect(raw, "reference_gain", p), p + "reference_gain")
    gains = [_scalar(v, f"{p}consensus_gains[{i}]")
             for i, v in enumerate(_expect(raw, "consensus_gains", p, list))]
    return YawControlConfig(
        topology=top,
        target=None if raw.get("target") is None
        else float(np.deg2rad(_scalar(raw["target"], p + "target"))),
        gains=[*gains, reference],
        **_scalars(YawControlConfig, raw, p, ("corner_turns",)),
    )


def _obstacles(doc) -> tuple[tuple[tuple[float, float], ...], ...]:
    """The obstacle polygons; absent or null reads as none."""
    rows = [] if doc.get("obstacles") is None else doc["obstacles"]
    if not isinstance(rows, list):
        raise ScenarioError("obstacles: expected a list of polygons")
    polygons = []
    for i, poly in enumerate(rows):
        p = f"obstacles[{i}]"
        if not isinstance(poly, list) or len(poly) < 3:
            raise ScenarioError(f"{p}: expected a polygon with at least 3 vertices")
        polygons.append(tuple(_pair(v, f"{p}[{j}]") for j, v in enumerate(poly)))
    return tuple(polygons)


def scenario_from_dict(doc: dict, default_name: str = "scenario") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a mapping")
    _only(doc, "", "name", "dt", "duration", "seed", "agents", "topology",
          "gains", "yaw_control", "waypoints", "formation", "obstacles",
          "sensing", "control", "noise_std", "settle_time", "metrics_warmup_s")
    agents = _agents(doc, "")
    topology = _edge_topology(_expect(doc, "topology", "", dict), "topology",
                              len(agents))
    wp = _only(_expect(doc, "waypoints", "", dict), "waypoints.",
               "points", "radius", "cruise_speed", "ease_s")
    points = _expect(wp, "points", "waypoints.", list)
    if not points:
        raise ScenarioError("waypoints.points: at least one waypoint is required")
    return Scenario(
        name=str(doc.get("name", default_name)),
        dt=_scalar(_expect(doc, "dt", ""), "dt"),
        duration=_scalar(_expect(doc, "duration", ""), "duration"),
        agents=agents, topology=topology, gains=_gains(doc, topology.n_edges),
        waypoints=tuple(_pair(p, f"waypoints.points[{i}]") for i, p in enumerate(points)),
        formation=_formation(doc, topology.n_edges), obstacles=_obstacles(doc),
        sensing=_section(SensingConfig, doc, "sensing"),
        control=_section(ControlConfig, doc, "control"),
        yaw_control=_yaw_control(doc, len(agents)),
        **_scalars(Scenario, doc, "", ("seed", "noise_std", "settle_time",
                                       "metrics_warmup_s")),
        **_scalars(Scenario, wp, "waypoints.", ("radius", "cruise_speed", "ease_s"),
                   "waypoint_"),
    )


def shipped_scenarios() -> list[str]:
    root = importlib.resources.files("niformation").joinpath("scenarios")
    return sorted(p.name.removesuffix(".yaml") for p in root.iterdir()
                  if p.name.endswith(".yaml"))


def load_scenario(source: str | Path) -> Scenario:
    """Load a scenario from a YAML path or a shipped scenario name.

    A `.yaml`/`.yml` path, or a file in the working directory, is read on
    every call.  Any other source names a shipped scenario, which is read
    once per process: every call returns the same read-only `Scenario`.
    """
    path = Path(source)
    if path.suffix in (".yaml", ".yml") or path.is_file():
        return _parse(path.read_text(), path.stem)
    return _shipped(str(source))


@functools.lru_cache(maxsize=32)
def _shipped(name: str) -> Scenario:
    resource = importlib.resources.files("niformation").joinpath(
        f"scenarios/{name}.yaml")
    if not resource.is_file():
        raise ScenarioError(
            f"unknown scenario '{name}'; shipped scenarios: "
            f"{', '.join(shipped_scenarios())}")
    return _parse(resource.read_text(), name)


def _parse(text: str, default_name: str) -> Scenario:
    try:
        doc = parse_yaml(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"invalid YAML: {exc}") from exc
    return scenario_from_dict(doc, default_name)
