"""Scenario documents: the shipped files load, malformed ones name the field."""

import copy
import dataclasses
import functools
import importlib.resources
import math
import re
import sys

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from niformation import lti, scenario
from niformation.scenario import (AgentSpec, ControlConfig, FormationPhase,
                                  FormationSpec, NiGains, ScenarioError,
                                  SensingConfig, YawControlConfig,
                                  scenario_from_dict)

SHIPPED = scenario.shipped_scenarios()


def shipped_doc(name: str) -> dict:
    resource = importlib.resources.files("niformation").joinpath(
        f"scenarios/{name}.yaml")
    return yaml.safe_load(resource.read_text())


DOCS = {name: shipped_doc(name) for name in SHIPPED}
YAW_SCENARIOS = sorted(name for name, doc in DOCS.items() if "yaw_control" in doc)

# values of the wrong shape, falsy ones included: only an absent key or
# null reads as an absent optional section
scalars = st.one_of(st.integers(1, 10**6), st.floats(0.5, 1e6),
                    st.text(min_size=1, max_size=8))
falsy = st.sampled_from([0, 0.0, False, ""])
non_mappings = st.one_of(falsy, scalars, st.lists(st.integers(), max_size=3))
non_lists = st.one_of(falsy, scalars, st.dictionaries(st.text(max_size=3),
                                                      st.integers()))
non_integers = st.one_of(
    st.floats(-1e6, 1e6).filter(lambda v: not v.is_integer()),
    st.booleans(), st.text(max_size=8))
agent_ids = st.integers(1, 3)
gain_values = st.floats(-5.0, 0.0)
wrong_pairs = st.one_of(scalars, st.lists(gain_values, max_size=1),
                        st.lists(gain_values, min_size=3, max_size=4))
non_numbers = st.one_of(st.text(max_size=8), st.booleans(),
                        st.lists(gain_values, max_size=2))
# YAML reads `no` and `false` as booleans, but "no" and "false" as strings
non_booleans = st.one_of(st.integers(), st.floats(allow_nan=False),
                         st.text(max_size=8), st.sampled_from(["no", "false"]))

# field path -> (keys from the document root, wrong values, applies to yaw
# scenarios only)
MUTATIONS = {
    "formation.phases[0]": (("formation", "phases", 0), non_mappings, False),
    "sensing": (("sensing",), non_mappings, False),
    "control": (("control",), non_mappings, False),
    "obstacles": (("obstacles",), non_lists, False),
    "yaw_control": (("yaw_control",), non_mappings, True),
    "control.prediction_horizon_steps": (
        ("control", "prediction_horizon_steps"), non_integers, False),
    "control.command_delay_steps": (
        ("control", "command_delay_steps"), non_integers, False),
    "formation.phases[0].after_waypoints": (
        ("formation", "phases", 0, "after_waypoints"), non_integers, False),
    "agents[0].kind": (
        ("agents", 0, "kind"),
        st.one_of(scalars, st.just("UGV")).filter(
            lambda k: k not in scenario.AGENT_KINDS), False),
    "topology.edges[0]": (
        ("topology", "edges", 0),
        st.lists(agent_ids, min_size=3, max_size=4), False),
    "seed": (("seed",), st.one_of(non_integers, st.integers(max_value=-1)), False),
    # `name: null` and `name: [1]` once loaded as the names 'None' and '[1]'
    "name": (("name",), st.one_of(st.none(), st.integers(), st.booleans(),
                                  st.lists(st.integers(), min_size=1, max_size=3)), False),
    "settle_time": (("settle_time",), st.floats(-1e6, -1e-9), False),
    "topology.reference_agents": (
        ("topology", "reference_agents"),
        st.lists(agent_ids, min_size=2, max_size=3), False),
    "yaw_control.reference_agents": (
        ("yaw_control", "reference_agents"),
        st.lists(agent_ids, min_size=2, max_size=3), True),
    "gains.reference": (("gains", "reference"), wrong_pairs, False),
    "gains.consensus[0]": (("gains", "consensus", 0), wrong_pairs, False),
    "gains.reference[0]": (("gains", "reference", 0), non_numbers, False),
    "gains.consensus[0][1]": (("gains", "consensus", 0, 1), non_numbers, False),
    "yaw_control.corner_turns": (("yaw_control", "corner_turns"), non_booleans, True),
    "yaw_control.consensus_gains[0]": (
        ("yaw_control", "consensus_gains", 0), non_numbers, True),
}


# every mapping the loader reads: path prefix -> (keys from the document
# root, the fields it reads, applies to yaw scenarios only)
SCHEMA = {
    "": ((), ("name", "dt", "duration", "seed", "agents", "topology", "gains",
              "yaw_control", "waypoints", "formation", "obstacles", "sensing",
              "control", "noise_std", "settle_time", "metrics_warmup_s"), False),
    "agents[0].": (("agents", 0), ("id", "kind", "start", "yaw"), False),
    "topology.": (("topology",), ("edges", "reference_agents"), False),
    "gains.": (("gains",), ("reference", "consensus"), False),
    "waypoints.": (("waypoints",),
                   ("points", "radius", "cruise_speed", "ease_s"), False),
    "formation.": (("formation",), ("phases",), False),
    "formation.phases[0].": (("formation", "phases", 0),
                             ("after_waypoints", "offsets",
                              "transition_duration"), False),
    "sensing.": (("sensing",), ("carrot_advance",), False),
    "control.": (("control",), ("mode", "prediction_horizon_steps",
                                "velocity_estimate_window",
                                "command_delay_steps"), False),
    "yaw_control.": (("yaw_control",), ("edges", "reference_agents", "target",
                                        "corner_turns", "reference_gain",
                                        "consensus_gains"), True),
}


def near_misses(fields: tuple) -> st.SearchStrategy:
    """A field with one letter doubled or dropped, as a typo makes it."""
    def typos(name):
        return st.integers(0, len(name) - 1).flatmap(lambda i: st.sampled_from(
            [name[:i] + name[i] + name[i:], name[:i] + name[i + 1:]]))
    return st.sampled_from(fields).flatmap(typos)


def mutated(name: str, keys: tuple, value) -> dict:
    doc = copy.deepcopy(DOCS[name])
    node = doc
    for key in keys[:-1]:
        node = node.setdefault(key, {}) if isinstance(key, str) else node[key]
    node[keys[-1]] = value
    return doc


@pytest.mark.parametrize("name", SHIPPED)
def test_every_shipped_document_loads(name):
    scn = scenario_from_dict(DOCS[name], name)
    assert scn.name == name
    assert len(scn.topology.reference_agents) == 1


@pytest.mark.parametrize("name", SHIPPED)
def test_two_loads_are_equal_and_a_replaced_field_is_not(name):
    # the topology compares its edges, the yaw gains and the obstacle
    # polygons their values, so no field's array makes `==` or `hash`
    # ambiguous; a fresh parse is another object of equal value
    scn = scenario.load_scenario(name)
    fresh = scenario_from_dict(lti.parse_yaml(shipped_yaml_texts()[name]), name)
    assert fresh is not scn
    assert scn == fresh and hash(scn) == hash(fresh)
    assert scn != dataclasses.replace(scn, seed=scn.seed + 1)
    if scn.obstacles:
        moved = tuple(np.add(polygon, [0.0, 1.0]) for polygon in scn.obstacles)
        assert scn != dataclasses.replace(scn, obstacles=moved)


def reachable(value, path="scenario"):
    """(path, value) of every leaf of a scenario: its arrays and scalars."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from reachable(getattr(value, f.name), f"{path}.{f.name}")
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from reachable(item, f"{path}[{i}]")
    else:
        yield path, value


@pytest.mark.parametrize("name", SHIPPED)
def test_a_shipped_name_is_loaded_once_into_an_immutable_scenario(name):
    scn = scenario.load_scenario(name)
    assert scenario.load_scenario(name) is scn
    leaves = dict(reachable(scn))
    arrays = {path: value for path, value in leaves.items()
              if isinstance(value, np.ndarray)}
    # no list, dict or numpy scalar: every other leaf is a plain immutable
    assert all(type(value) in (int, float, str, bool, type(None))
               for path, value in leaves.items() if path not in arrays)
    assert "scenario.topology.incidence" in arrays
    # the topologies' arrays; each polygon is float tuples, held once
    assert len(arrays) == 5 * (1 + (scn.yaw_control is not None))
    assert all(type(v) is tuple and len(v) == 2
               for polygon in scn.obstacles for v in polygon)
    for array in arrays.values():
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


@pytest.mark.parametrize("field", sorted(MUTATIONS))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_malformed_field_is_rejected_by_name(field, data):
    keys, values, yaw_only = MUTATIONS[field]
    name = data.draw(st.sampled_from(YAW_SCENARIOS if yaw_only else SHIPPED))
    doc = mutated(name, keys, data.draw(values))
    with pytest.raises(ScenarioError, match="^" + re.escape(field)):
        scenario_from_dict(doc, name)


@pytest.mark.parametrize("mapping", sorted(SCHEMA),
                         ids=lambda m: m.rstrip(".") or "top")
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_unknown_key_is_rejected_by_name(mapping, data):
    keys, fields, yaw_only = SCHEMA[mapping]
    name = data.draw(st.sampled_from(YAW_SCENARIOS if yaw_only else SHIPPED))
    key = data.draw(st.one_of(
        st.from_regex(r"[a-z][a-z_]{0,15}", fullmatch=True),
        near_misses(fields)).filter(lambda k: k not in fields))
    doc = mutated(name, (*keys, key), data.draw(scalars))
    with pytest.raises(ScenarioError,
                       match=f"^{re.escape(mapping + key)}: unknown field$"):
        scenario_from_dict(doc, name)


# retired options and typos: field path -> (keys from the document root,
# a value the option once took or the field means)
UNREAD = {
    "gains.adaptive": (("gains", "adaptive"), True),
    "waypoints.glide_s": (("waypoints", "glide_s"), 3.0),
    "durration": (("durration",), 90.0),
    "formation.phases[0].transiton_duration": (
        ("formation", "phases", 0, "transiton_duration"), 2.0),
    "sensing.fov": (("sensing", "fov"), 220.0),
    "sensing.look_ahead": (("sensing", "look_ahead"), 100.0),
    "sensing.robot_radius": (("sensing", "robot_radius"), 32.0),
    "sensing.collision_radius": (("sensing", "collision_radius"), 25.0),
    "saturation": (("saturation",), None),
    "saturation.ugv_speed": (("saturation", "ugv_speed"), 100.0),
    "saturation.uav_speed": (("saturation", "uav_speed"), 200.0),
    "saturation.yaw_rate": (("saturation", "yaw_rate"), 1.5),
    "yaw_control.offsets": (("yaw_control", "offsets"), [0.0]),
    "yaw_control.corner_entry": (("yaw_control", "corner_entry"), 30.0),
    "yaw_control.corner_exit": (("yaw_control", "corner_exit"), 3.0),
    "yaw_control.topology": (("yaw_control", "topology"),
                             {"edges": [[1, 2]], "reference_agents": [1]}),
}


@pytest.mark.parametrize("field", sorted(UNREAD))
def test_retired_or_misspelt_key_is_rejected_by_name(field):
    # a document that sets a retired option must not load as if it had not;
    # a key of the retired `saturation` section is refused as that section
    keys, value = UNREAD[field]
    named = "saturation" if keys[0] == "saturation" else field
    doc = mutated("rect_varying_formation", keys, value)
    with pytest.raises(ScenarioError, match=f"^{re.escape(named)}: unknown field$"):
        scenario_from_dict(doc)


# the sections whose every key has a default, and the section with none set
DEFAULT_SECTIONS = {"sensing": SensingConfig(), "control": ControlConfig()}


@pytest.mark.parametrize("section", ["sensing", "control", "yaw_control",
                                     "obstacles"])
def test_a_null_section_reads_as_an_absent_one(section):
    doc = mutated("cluttered_course", (section,), None)
    null = scenario_from_dict(doc)
    del doc[section]
    absent = getattr(scenario_from_dict(doc), section)
    assert getattr(null, section) == absent
    if section in DEFAULT_SECTIONS:
        assert absent == DEFAULT_SECTIONS[section]


def test_yaw_gains_are_the_edge_gains_then_the_reference_gain():
    scn = scenario_from_dict(DOCS["triangle_rect_patrol"])
    assert scn.yaw_control.gains == (-0.5, -0.5)
    doc = mutated("yaw_sync_pair", ("yaw_control", "consensus_gains"), [-0.02, -0.02])
    with pytest.raises(ScenarioError, match="^yaw_control.consensus_gains: must match"):
        scenario_from_dict(doc)
    doc = mutated("yaw_sync_pair", ("yaw_control", "reference_gain"), 0.5)
    with pytest.raises(ScenarioError,
                       match=r"^yaw_control\.reference_gain: must be nonpositive$"):
        scenario_from_dict(doc)


# a replaced field, a value out of its bounds and the field path the error
# names: an override is checked by the code that checks a loaded document
OVERRIDES = [("dt", 0.0, "dt"), ("dt", float("nan"), "dt"),
             ("duration", -1.0, "duration"), ("noise_std", -1.0, "noise_std"),
             ("settle_time", -1.0, "settle_time"),
             ("metrics_warmup_s", -1.0, "metrics_warmup_s"), ("seed", -1, "seed"),
             ("waypoint_radius", 0.0, "waypoints.radius"),
             ("duration", float("inf"), "duration"), ("dt", float("inf"), "dt"),
             ("waypoint_radius", float("inf"), "waypoints.radius"),
             ("noise_std", float("inf"), "noise_std"),
             ("settle_time", float("nan"), "settle_time"),
             ("metrics_warmup_s", float("inf"), "metrics_warmup_s"),
             ("waypoint_cruise_speed", float("inf"), "waypoints.cruise_speed"),
             ("waypoint_ease_s", float("-inf"), "waypoints.ease_s"),
             ("seed", 1.5, "seed"), ("seed", float("inf"), "seed"),
             ("seed", True, "seed"), ("duration", 10**400, "duration")]


@pytest.mark.parametrize("field, bad, path", OVERRIDES)
def test_an_override_out_of_bounds_is_rejected_by_name(field, bad, path):
    scn = scenario_from_dict(DOCS["moving_leader_compare"])
    # what is not finite, and a seed that is no integer, is refused as the
    # loader refuses it
    if field == "seed" and type(bad) is not int:
        reason = "expected an integer"
    else:
        reason = "must be" if abs(bad) <= sys.float_info.max else "must be finite"
    with pytest.raises(ScenarioError, match=f"^{re.escape(path)}: {reason}"):
        dataclasses.replace(scn, **{field: bad})


# a part of a scenario built directly (or with `dataclasses.replace`), a
# value the loader refuses in it, and the wording the refusal starts with
YAW_PAIR = scenario.load_scenario("yaw_sync_pair").yaw_control.topology
YAW = {"topology": YAW_PAIR, "reference_gain": -0.5, "consensus_gains": (-0.5,)}
AGENT = {"id": 1, "kind": "ugv", "start": (0.0, 0.0)}
PHASE = {"after_waypoints": 0, "offsets": ((100.0, 0.0),)}
# a shipped scenario with its fields replaced
LEADER = functools.partial(dataclasses.replace,
                           scenario.load_scenario("moving_leader_compare"))
COURSE = functools.partial(dataclasses.replace,
                           scenario.load_scenario("cluttered_course"))
SQUARE = ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0))
DIRECT = {
    "sensing": (SensingConfig, {"carrot_advance": math.nan},
                "^sensing.carrot_advance: must be finite$"),
    "control": (ControlConfig, {"velocity_estimate_window": 1.5},
                "^control.velocity_estimate_window: expected an integer, got float$"),
    "phase": (FormationPhase, {**PHASE, "transition_duration": math.nan},
              "^transition_duration: must be finite"),
    "phase.after_waypoints": (FormationPhase, {**PHASE, "after_waypoints": 1.5},
                              "^after_waypoints: expected an integer, got float$"),
    "gains.reference": (NiGains, {"reference": (-1.0, math.nan), "consensus": ()},
                        r"^gains\.reference\[1\]: must be finite$"),
    "gains.consensus": (NiGains, {"reference": (-1.0, -1.0),
                                  "consensus": ((-math.inf, -1.0),)},
                        r"^gains\.consensus\[0\]\[0\]: must be finite$"),
    "agent": (AgentSpec, {"id": 1, "kind": "boat", "start": (0.0, 0.0)},
              "^kind: must be one of"),
    "agent.start": (AgentSpec, {**AGENT, "start": (math.nan, 0.0)},
                    r"^start\[0\]: must be finite$"),
    "agent.yaw": (AgentSpec, {**AGENT, "yaw": math.inf}, "^yaw: must be finite$"),
    "yaw.target": (YawControlConfig, {**YAW, "target": math.nan},
                   "^yaw_control.target: must be finite$"),
    "yaw.consensus_gains": (YawControlConfig, {**YAW, "consensus_gains": (-math.inf,)},
                            r"^yaw_control\.consensus_gains\[0\]: must be finite$"),
    "name": (LEADER, {"name": None}, "^name: expected a string, got NoneType$"),
    "waypoint": (LEADER, {"waypoints": ((math.nan, 0.0),)},
                 r"^waypoints\.points\[0\]\[0\]: must be finite$"),
    "polygon vertex": (COURSE, {"obstacles": (((math.nan, 0.0), *SQUARE[1:]),)},
                       r"^obstacles\[0\]\[0\]\[0\]: must be finite$"),
    "polygon of 2 vertices": (COURSE, {"obstacles": (SQUARE[:2],)},
                              r"^obstacles\[0\]: expected a polygon with at least 3"),
    "gain pair count": (COURSE, {"gains": NiGains(reference=(-1.0, -1.0),
                                                  consensus=((-1.0, -1.0),))},
                        r"^gains\.consensus: expected 2 pairs, got 1$"),
    "phase offset count": (COURSE, {"formation": FormationSpec((FormationPhase(**PHASE),))},
                           r"^formation\.phases\[0\]\.offsets: expected 2 pairs, got 1$"),
}


@pytest.mark.parametrize("part", sorted(DIRECT))
def test_a_part_built_directly_is_checked_as_the_loader_checks_it(part):
    cls, values, message = DIRECT[part]
    with pytest.raises(ValueError, match=message):
        cls(**values)


def test_a_count_off_is_refused_at_the_field_that_is_off():
    # phase 0 short of an edge and phase 1 right: phase 0 is named, not the
    # phase that differs from it; no agent at all is named as such
    doc = mutated("cluttered_course", ("formation", "phases", 0, "offsets"), [[0.0, 0.0]])
    with pytest.raises(ScenarioError,
                       match=r"^formation\.phases\[0\]\.offsets: expected 2 pairs, got 1$"):
        scenario_from_dict(doc)
    for name in ("cluttered_course", "yaw_sync_pair"):
        with pytest.raises(ScenarioError, match="^agents: at least one agent is required$"):
            scenario_from_dict(mutated(name, ("agents",), []))


def test_integral_counts_still_load():
    doc = mutated("moving_leader_compare", ("control", "command_delay_steps"), 3)
    assert scenario_from_dict(doc).control.command_delay_steps == 3
    doc = mutated("moving_leader_compare", ("settle_time",), 0.0)
    assert scenario_from_dict(doc).settle_time == 0.0


# ------------------------------------------------------------------ loaders

def shipped_yaml_texts() -> dict[str, str]:
    root = importlib.resources.files("niformation")
    texts = {name: root.joinpath(f"scenarios/{name}.yaml").read_text()
             for name in SHIPPED}
    texts["models"] = root.joinpath("data/models.yaml").read_text()
    return texts


@pytest.mark.parametrize("name", [*SHIPPED, "models"])
def test_libyaml_and_python_loaders_build_equal_documents(name):
    text = shipped_yaml_texts()[name]
    assert lti.parse_yaml(text) == yaml.load(text, Loader=yaml.SafeLoader)


@pytest.mark.parametrize("loader", [yaml.SafeLoader, lti.YAML_LOADER])
def test_malformed_yaml_raises_scenario_error_with_either_loader(
        loader, monkeypatch, tmp_path):
    monkeypatch.setattr(lti, "YAML_LOADER", loader)
    path = tmp_path / "broken.yaml"
    path.write_text("name: broken\nagents: [{id: 1, kind: ugv\n")
    with pytest.raises(ScenarioError, match="^invalid YAML"):
        scenario.load_scenario(path)


def test_only_a_file_in_the_working_directory_is_read_as_a_path(monkeypatch, tmp_path):
    # a directory named like a shipped scenario does not shadow it, and a
    # file without a YAML suffix is still read as a path, even one named
    # like a shipped scenario that is already loaded
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cluttered_course").mkdir()
    shipped = scenario_from_dict(DOCS["cluttered_course"], "cluttered_course")
    assert scenario.load_scenario("cluttered_course") == shipped
    warm = scenario.load_scenario("corridor_squeeze")
    doc = copy.deepcopy(DOCS["corridor_squeeze"])
    doc["seed"] = warm.seed + 99
    (tmp_path / "corridor_squeeze").write_text(yaml.safe_dump(doc))
    assert scenario.load_scenario("corridor_squeeze").seed == warm.seed + 99
    (tmp_path / "corridor_squeeze").unlink()
    assert scenario.load_scenario("corridor_squeeze") is warm


def test_a_path_is_read_again_after_an_edit(tmp_path):
    path = tmp_path / "edited.yaml"
    doc = copy.deepcopy(DOCS["yaw_sync_pair"])
    path.write_text(yaml.safe_dump(doc))
    first = scenario.load_scenario(path)
    doc["seed"] = first.seed + 1
    path.write_text(yaml.safe_dump(doc))
    assert scenario.load_scenario(path).seed == first.seed + 1
    assert scenario.load_scenario(str(path)) is not scenario.load_scenario(str(path))


def test_an_unknown_name_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(ScenarioError, match="^unknown scenario 'no_such_course'"):
            scenario.load_scenario("no_such_course")
