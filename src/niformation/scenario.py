"""Scenario files: the declarative description of one simulation run.

A scenario YAML names the agents (kind, start pose), the interconnection
topology and loop gains, the reference agent's waypoint list, the phase
schedule of formation offsets, optional yaw-alignment control, optional
obstacle polygons, the detour pursuit lead, and the integration/noise
settings.  Positions are centimeters; angles in the file are degrees
(converted to radians on load); times are seconds.

Each part of a `Scenario` is a frozen dataclass whose fields are its
section's keys, with their defaults.  Each part reads its own values
(`_scalar`, `_pair`) and names the failing field; `Scenario` reads the
waypoints and polygons and checks the counts across parts.  So a part built
directly or with `dataclasses.replace` is checked as a loaded one is.  The
loader only routes keys: it refuses an unknown key, reports a missing
required one, converts the yaw angles from degrees and puts a list
element's path in front of its part's message.  So that the field at fault
is named, it refuses an empty agent list before it builds the topology, and
checks the counts against the edges before it builds the phase schedule.
What no scenario varies is a constant, not a key: the footprints
(`obstacle`), the speed and yaw-rate caps (`controller`) and the corner-turn
angles (`sim`).

`load_scenario` accepts a filesystem path or the bare name of a shipped
scenario.  A shipped name is read and validated once per process, and every
call returns that one `Scenario`, immutable all the way down: its arrays are
read-only, and its points, gains and polygons are float tuples that `==`
and `hash` compare by value.  A path is read again on every call.
"""

from __future__ import annotations

import functools
import importlib.resources
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from .controller import SPEED_CAPS
from .graph import NetworkTopology, build_topology
from .lti import parse_yaml

AGENT_KINDS = tuple(SPEED_CAPS)
CONTROL_MODES = ("enhanced", "baseline")


class ScenarioError(ValueError):
    """A scenario document failed validation; the message names the field."""


# the Python types a value of each field type may be given as, and its name
_TYPES = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
          float: ((int, float), "a number"), str: ((str,), "a string")}
# what a list of the file may be given as when a part is built directly
_SEQUENCES = (list, tuple, np.ndarray)


def _scalar(value, path: str, kind: type = float):
    """`value` read as a `kind`: a boolean is never a number, and a number
    must be finite (an integer too large for a float is not)."""
    accepted, name = _TYPES[kind]
    if (isinstance(value, bool) and kind is not bool) or not isinstance(value, accepted):
        raise ScenarioError(f"{path}: expected {name}, got {type(value).__name__}")
    try:
        value = kind(value)
        if kind is float and not math.isfinite(value):
            raise OverflowError
    except OverflowError:
        raise ScenarioError(f"{path}: must be finite") from None
    return value


def _gain(value, path: str) -> float:
    """A loop gain: finite and nonpositive."""
    gain = _scalar(value, path)
    if gain > 0:
        raise ScenarioError(f"{path}: must be nonpositive")
    return gain


def _pair(value, path: str, read=_scalar) -> tuple[float, float]:
    """A [x, y] pair, each number read by `read`: a point or a gain pair."""
    if not (isinstance(value, _SEQUENCES) and len(value) == 2):
        raise ScenarioError(f"{path}: expected a [x, y] pair")
    return (read(value[0], f"{path}[0]"), read(value[1], f"{path}[1]"))


def _pairs(rows, path: str, least: int = 0, what: str = "a list of pairs",
           read=_scalar) -> tuple[tuple[float, float], ...]:
    """A list of at least `least` pairs, each read by `_pair`."""
    if not (isinstance(rows, _SEQUENCES) and len(rows) >= least):
        raise ScenarioError(f"{path}: expected {what}")
    return tuple(_pair(row, f"{path}[{i}]", read) for i, row in enumerate(rows))


def _hold(part, **values) -> None:
    """Hold each read value on the frozen `part`."""
    for name, value in values.items():
        object.__setattr__(part, name, value)


@dataclass(frozen=True)
class AgentSpec:
    id: int
    kind: str
    start: tuple[float, float]
    yaw: float = 0.0  # radians

    def __post_init__(self):
        if self.kind not in AGENT_KINDS:
            raise ScenarioError(f"kind: must be one of {AGENT_KINDS}")
        _hold(self, id=_scalar(self.id, "id", int), start=_pair(self.start, "start"),
              yaw=_scalar(self.yaw, "yaw"))


@dataclass(frozen=True)
class NiGains:
    """Planar loop gains, per-edge consensus pairs and the reference pair: all
    finite and nonpositive, as the actuation block's tail signs turn negative
    gains into attracting corrections.  `planar` is derived from them: the
    planar law's per-row gains (edge rows, then the reference row)."""

    reference: tuple[float, float]
    consensus: tuple[tuple[float, float], ...]
    planar: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _hold(self, reference=_pair(self.reference, "gains.reference", _gain),
              consensus=_pairs(self.consensus, "gains.consensus", read=_gain))
        _hold(self, planar=(*(g for pair in self.consensus for g in pair),
                            *self.reference))


@dataclass(frozen=True)
class FormationPhase:
    """Offsets to hold once `after_waypoints` waypoints have been completed:
    per edge, the desired tail-minus-head displacement (cm), reached over
    `transition_duration` seconds when the schedule switches into it."""

    after_waypoints: int = field(metadata={"file_default": 0})
    offsets: tuple[tuple[float, float], ...]
    transition_duration: float = 2.0

    def __post_init__(self):
        _hold(self, after_waypoints=_scalar(self.after_waypoints, "after_waypoints", int),
              offsets=_pairs(self.offsets, "offsets"),
              transition_duration=_scalar(self.transition_duration,
                                          "transition_duration"))
        if self.after_waypoints < 0:
            raise ScenarioError("after_waypoints: must be nonnegative")
        if not self.transition_duration > 0:
            raise ScenarioError("transition_duration: must be positive")


@dataclass(frozen=True)
class FormationSpec:
    """Ordered phase schedule; phase 0 must be active from the start."""

    phases: tuple[FormationPhase, ...]

    def __post_init__(self):
        p = "formation.phases"
        if not self.phases:
            raise ScenarioError(f"{p}: at least one phase is required")
        _hold(self, phases=tuple(self.phases))
        counts = [phase.after_waypoints for phase in self.phases]
        if counts[0] != 0:
            raise ScenarioError(f"{p}: phase 0 must start at zero completed waypoints")
        if any(b <= a for a, b in zip(counts, counts[1:])):
            raise ScenarioError(f"{p}: phase triggers must strictly increase")
        if len({len(phase.offsets) for phase in self.phases}) > 1:
            raise ScenarioError(f"{p}: every phase must cover the same edge count")

    def phase_index(self, completed_waypoints: int) -> int:
        idx = 0
        for k, phase in enumerate(self.phases[1:], start=1):
            if phase.after_waypoints <= completed_waypoints:
                idx = k
        return idx


def _typed(section, key: str):
    """Read each field of a frozen section as the type of its default."""
    _hold(section, **{f.name: _scalar(getattr(section, f.name), f"{key}.{f.name}",
                                      type(f.default)) for f in fields(section)})


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
            raise ScenarioError(f"control.mode: must be one of {CONTROL_MODES}")
        if self.prediction_horizon_steps < 1:
            raise ScenarioError("control.prediction_horizon_steps: must be at least 1")
        if self.velocity_estimate_window < 1:
            raise ScenarioError("control.velocity_estimate_window: must be at least 1")
        if self.command_delay_steps < 0:
            raise ScenarioError("control.command_delay_steps: must be nonnegative")


@dataclass(frozen=True)
class YawControlConfig:
    """The yaw law's topology, target, gains and corner turns.  `gains` is
    derived from the gains as the file spells them: the law's per-row gains,
    one nonpositive gain per yaw edge, then the reference agent's."""

    topology: NetworkTopology
    reference_gain: float
    consensus_gains: tuple[float, ...]
    target: float | None = None         # radians; None tracks motion heading
    corner_turns: bool = False
    gains: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = "yaw_control."
        if not (isinstance(self.consensus_gains, _SEQUENCES)
                and len(self.consensus_gains) == self.topology.n_edges):
            raise ScenarioError(f"{p}consensus_gains: must match the yaw edge count")
        consensus = tuple(_gain(g, f"{p}consensus_gains[{i}]")
                          for i, g in enumerate(self.consensus_gains))
        reference = _gain(self.reference_gain, p + "reference_gain")
        _hold(self, target=None if self.target is None
              else _scalar(self.target, p + "target"),
              reference_gain=reference, consensus_gains=consensus,
              corner_turns=_scalar(self.corner_turns, p + "corner_turns", bool),
              gains=(*consensus, reference))


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
        positive = (("dt", self.dt), ("duration", self.duration),
                    ("waypoints.radius", self.waypoint_radius))
        nonnegative = (("noise_std", self.noise_std), ("settle_time", self.settle_time),
                       ("metrics_warmup_s", self.metrics_warmup_s),
                       ("waypoints.cruise_speed", self.waypoint_cruise_speed),
                       ("waypoints.ease_s", self.waypoint_ease_s))
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
        if not isinstance(self.obstacles, _SEQUENCES):
            raise ScenarioError("obstacles: expected a list of polygons")
        _hold(self, name=_scalar(self.name, "name", str),
              waypoints=_pairs(self.waypoints, "waypoints.points", 1,
                               "at least one waypoint"),
              obstacles=tuple(_pairs(polygon, f"obstacles[{i}]", 3,
                                     "a polygon with at least 3 vertices")
                              for i, polygon in enumerate(self.obstacles)))
        # the counts across parts: an id per topology agent, a pair per edge
        n, n_edges = self.topology.n_agents, self.topology.n_edges
        if [a.id for a in self.agents] != list(range(1, n + 1)):
            raise ScenarioError(f"agents: ids must be 1..{n} in order, as in the topology")
        if self.yaw_control is not None and self.yaw_control.topology.n_agents != n:
            raise ScenarioError(f"yaw_control: expected a topology of {n} agents")
        _per_edge(n_edges, self.gains.consensus, self.formation.phases)

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


def _per_edge(n_edges: int, consensus, phases) -> None:
    """A gain pair per edge, and an offset pair per edge in each phase."""
    for path, pairs in (("gains.consensus", consensus), *(
            (f"formation.phases[{i}].offsets", phase.offsets)
            for i, phase in enumerate(phases))):
        if len(pairs) != n_edges:
            raise ScenarioError(f"{path}: expected {n_edges} pairs, got {len(pairs)}")


def _expect(doc: dict, key: str, path: str, kind: type | None = None):
    if key not in doc:
        raise ScenarioError(f"{path}{key}: missing required field")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise ScenarioError(f"{path}{key}: expected {kind.__name__}, "
                            f"got {type(value).__name__}")
    return value


def _only(doc: dict, path: str, *keys: str) -> dict:
    """The mapping itself, once every key in it is one of `keys`."""
    for key in doc:
        if key not in keys:
            raise ScenarioError(f"{path}{key}: unknown field")
    return doc


def _optional(doc: dict, key: str):
    """The section `key` of `doc`; absent or null reads as empty."""
    return {} if doc.get(key) is None else doc[key]


def _part(cls, doc, path: str, *keys: str, element: bool = False,
          degrees: tuple[str, ...] = (), **derived):
    """`cls` built from the mapping `doc` at `path`, whose keys are the fields
    of `cls` but those `derived`, and the `keys` that `derived[name](doc)`
    reads into the field `name`.  A field in `degrees` is given in degrees; a
    field without a default or a `file_default` must be set.  An element of
    a list does not know its index, so its part's message gets `path` in front.
    """
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path[:-1]}: expected a mapping")
    names = [f.name for f in fields(cls) if f.init and f.name not in derived]
    _only(doc, path, *names, *keys)
    values = {f.name: f.metadata["file_default"] for f in fields(cls) if f.metadata}
    values |= {key: doc[key] for key in names if key in doc}
    values |= {key: float(np.deg2rad(_scalar(doc[key], path + key)))
               for key in degrees if doc.get(key) is not None}
    values |= {name: read(doc) for name, read in derived.items()}
    for f in fields(cls):
        if (f.init and f.name not in values
                and f.default is MISSING and f.default_factory is MISSING):
            raise ScenarioError(f"{path}{f.name}: missing required field")
    try:
        return cls(**values)
    except ScenarioError as exc:
        if not element:
            raise
        raise ScenarioError(f"{path}{exc}") from None


def _edge_topology(doc: dict, section: str, n_agents: int) -> NetworkTopology:
    """The [head, tail] edges and the single reference agent of a section."""
    path = section + "."
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


def scenario_from_dict(doc: dict, default_name: str = "scenario") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a mapping")
    _only(doc, "", "name", "dt", "duration", "seed", "agents", "topology",
          "gains", "yaw_control", "waypoints", "formation", "obstacles",
          "sensing", "control", "noise_std", "settle_time", "metrics_warmup_s")
    rows = _expect(doc, "agents", "", list)
    if not rows:
        raise ScenarioError("agents: at least one agent is required")
    agents = tuple(_part(AgentSpec, row, f"agents[{i}].", element=True, degrees=("yaw",))
                   for i, row in enumerate(rows))
    topology = _edge_topology(_only(_expect(doc, "topology", "", dict), "topology.",
                                    "edges", "reference_agents"), "topology", len(agents))
    gains = _part(NiGains, _expect(doc, "gains", ""), "gains.")
    formation = _only(_expect(doc, "formation", "", dict), "formation.", "phases")
    phases = tuple(_part(FormationPhase, row, f"formation.phases[{i}].", element=True)
                   for i, row in enumerate(_expect(formation, "phases", "formation.", list)))
    # the counts against the edges before `FormationSpec` compares the phases
    # with each other, so that the phase off the edge count is the one named
    _per_edge(topology.n_edges, gains.consensus, phases)
    wp = _only(_expect(doc, "waypoints", "", dict), "waypoints.",
               "points", "radius", "cruise_speed", "ease_s")
    yaw = None if doc.get("yaw_control") is None else _part(
        YawControlConfig, doc["yaw_control"], "yaw_control.", "edges",
        "reference_agents", degrees=("target",),
        topology=lambda raw: _edge_topology(raw, "yaw_control", len(agents)))
    return Scenario(
        name=doc.get("name", default_name),
        dt=_expect(doc, "dt", ""), duration=_expect(doc, "duration", ""),
        agents=agents, topology=topology, gains=gains,
        waypoints=_expect(wp, "points", "waypoints."),
        formation=FormationSpec(phases),
        obstacles=() if doc.get("obstacles") is None else doc["obstacles"],
        sensing=_part(SensingConfig, _optional(doc, "sensing"), "sensing."),
        control=_part(ControlConfig, _optional(doc, "control"), "control."),
        yaw_control=yaw,
        **{key: doc[key] for key in ("seed", "noise_std", "settle_time",
                                     "metrics_warmup_s") if key in doc},
        **{"waypoint_" + key: wp[key] for key in ("radius", "cruise_speed", "ease_s")
           if key in wp},
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
