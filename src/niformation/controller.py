"""Cooperative formation controller over a directed topology.

The topology's sensing and actuation blocks are constant, so `lift` builds
their read-only Kronecker lifts once per (topology, m) per process, and a
run binds each law once: `planar_law` and `yaw_law` check the lift's width,
the gain count and the cap count, and keep the gains, the heads and each
actuation row's terms and cap in a read-only record; the planar law also
keeps each sensing row's terms with its gain and, if it predicts, its head.
A step's law then only checks the lengths of the stacked positions and
offsets it is handed, and runs one pipeline on stacked floats, each agent's
(or edge's) coordinates in turn.  The planar law senses, adds the offsets
and the head feed and applies the gains in one pass over its bound sensing
rows; both laws route and clip in one pass over their bound actuation rows:

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
   `speed_caps` from the agents' kinds) or to `YAW_RATE_CAP`, in the same
   loop over the bound rows as the route.

Because the actuation block carries -1 at each tail, negative gains yield
attracting (stable) corrections in both the edge and the reference channels.

The laws see a few numbers a step, where a numpy call costs more than its
arithmetic, so every step runs on Python floats, which round as numpy's
ufuncs do.  Each law's products through the lifted blocks, sensing times
shifted positions and actuation times gained errors, are signed gathers
over each row's nonzero terms, the same bits as the numpy products (the
lemma is on `_product`), and the clip keeps `saturate`'s rule.  The
elementwise steps keep their order: a planar edge row's error is
`((s + offset) + velocity * tau)` on its sensed sum s (tau = dt * horizon)
and a yaw edge row's head feeds `(rate * dt) * horizon`.  Only a NaN's sign
bit may differ from numpy's, where two NaNs meet.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graph import NetworkTopology, kron_expand

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
    errors back to agents: read-only `kron_expand` products, with their
    rows' `_terms`, built once per process and shared by equal topologies.
    """

    topology: NetworkTopology
    m: int
    sensing_t: np.ndarray
    actuation: np.ndarray
    sensing_terms: tuple | None
    actuation_terms: tuple | None

    @functools.cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Each edge's 0-based (head, tail) agent rows, as plain ints."""
        return tuple((head - 1, tail - 1) for head, tail in self.topology.edges)

    @functools.cached_property
    def heads(self) -> tuple[int, ...]:
        """Each edge row's head coordinate in the stacked agent vector."""
        return tuple(self.m * head + axis for head, _ in self.pairs for axis in range(self.m))


def _terms(matrix) -> tuple[tuple[float, int, float, int], ...] | None:
    """Each row's nonzero (coefficient, column) terms padded with (0.0, 0)
    to two, as (a, j, b, k); None if some row has three or more."""
    rows = [[(a, j) for j, a in enumerate(row) if a] + [(0.0, 0)] * 2
            for row in matrix.tolist()]
    if any(len(terms) > 4 for terms in rows):
        return None
    return tuple(first + second for first, second, *_ in rows)


def _product(terms, matrix, v) -> list[float]:
    """`matrix @ v` for a block of +-1 and 0, as a list.

    Lemma: with finite v every term a*v[j] is exact (+-v[j] or +-0.0), so a
    row of at most two terms rounds once, whatever the order or FMA of the
    kernel.  OpenBLAS starts its sums at +0.0 and numpy's dot adds to 0., so
    a zero sum is +0.0, and `+ 0.0` gives the same.  The product decides a
    row of three or more terms, whose order is the kernel's, and any v whose
    sum is not finite: 0*NaN and 0*inf make every product row NaN.
    """
    if terms is None or 0.0 * sum(v) != 0.0:
        return (matrix @ v).tolist()
    return [(a * v[j] + b * v[k]) + 0.0 for a, j, b, k in terms]


@functools.lru_cache(maxsize=64)
def lift(topology: NetworkTopology, m: int) -> LiftedTopology:
    """Lift the topology's sensing and actuation blocks to m coordinates."""
    sensing, actuation = kron_expand(topology, m)
    for matrix in (sensing, actuation):
        matrix.flags.writeable = False
    return LiftedTopology(topology, m, sensing.T, actuation,
                          _terms(sensing.T), _terms(actuation))


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


# The laws bound to a run by `planar_law` and `yaw_law`: `stacks` the lengths
# of the stacked positions and offsets, `heads` each edge row's head (empty
# without prediction, where `tau` is None), `rows` each actuation row's
# ((a, j, b, k), cap), None if a row has three or more terms.  The planar
# law's `edges` are each edge row's sensing terms and gain (a, j, b, k, g),
# then its head if it predicts, and `references` each reference row's
# (a, j, b, k, g); both None if a sensing row has three or more terms.
PlanarLaw = namedtuple("PlanarLaw", "stacks edges references sensing_t heads tau gains "
                                    "rows actuation caps")
YawLaw = namedtuple("YawLaw", "pairs reference heads dt horizon gains rows actuation caps")


def _bind(lifted: LiftedTopology, m: int, gains, caps):
    """Check the lift's width and the gain and cap counts; return the gains
    and the actuation rows' (terms, cap), None if a row has three or more."""
    if lifted.m != m:
        raise ValueError(f"this law needs a topology lifted to {m} "
                         f"coordinates, got {lifted.m}")
    if len(gains) != len(lifted.sensing_t):
        what = "consensus gain pairs" if m == 2 else "yaw consensus gains"
        raise ValueError(f"got {len(gains) // m - 1} {what} for "
                         f"{lifted.topology.n_edges} edges")
    # one cap per actuation row, or zip's ValueError, as the step's clip gave
    rows = tuple(zip(lifted.actuation_terms or lifted.actuation, caps, strict=True))
    return tuple(map(float, gains)), rows if lifted.actuation_terms else None


def planar_law(lifted: LiftedTopology, gains: NiGains, caps, tau: float | None) -> PlanarLaw:
    """Bind the planar law to the topology lifted to 2 coordinates, the
    `speed_caps` and the lookahead `tau` = dt * horizon (None for baseline)."""
    planar, rows = _bind(lifted, 2, gains.planar, caps)
    top, n = lifted.topology, 2 * lifted.topology.n_edges
    heads, terms = (() if tau is None else lifted.heads), lifted.sensing_terms
    edges = references = None
    if terms is not None:   # each row's terms, then its gain and any head
        edges = tuple(map(operator.add, terms, zip(planar, heads) if heads else zip(planar[:n])))
        references = tuple(map(operator.add, terms[n:], zip(planar[n:])))
    return PlanarLaw((2 * top.n_agents, n), edges, references, lifted.sensing_t, heads,
                     tau, planar, rows, lifted.actuation, tuple(caps))


def enhanced_control(positions, velocities, law: PlanarLaw, offsets, waypoint) -> list[float]:
    """Planar commands with per-edge head-motion prediction, stacked (vx, vy) in cm/s.

    positions (cm) and velocities are the n agents' stacked (x, y); offsets
    are stacked per edge, edge e's the desired tail-minus-head displacement;
    waypoint is the reference agents' target point (x, y), as floats.  Each
    edge row is fed its head's displacement over tau; a baseline law's none.
    """
    stacks, edges, references, sensing_t, heads, tau, gains, rows, actuation, caps = law
    if (len(positions), len(offsets)) != stacks:
        raise ValueError(f"positions and offsets must stack {stacks[0] // 2} "
                         f"and {stacks[1] // 2} (x, y)")
    wx, wy = waypoint
    v = [p - w for p, w in zip(positions, (wx, wy) * (stacks[0] // 2))]
    if edges is None or 0.0 * sum(v) != 0.0:
        errors = _product(None, sensing_t, v)
        for row, offset in enumerate(offsets):
            errors[row] += offset
        for row, head in enumerate(heads):
            errors[row] += velocities[head] * tau
        gained = [g * e for g, e in zip(gains, errors)]
    else:
        # `_product`'s gather, the offset and the head feed, each row in one pass
        if tau is None:
            gained = [g * (((a * v[j] + b * v[k]) + 0.0) + o)
                      for (a, j, b, k, g), o in zip(edges, offsets)]
        else:
            gained = [g * ((((a * v[j] + b * v[k]) + 0.0) + o) + velocities[h] * tau)
                      for (a, j, b, k, g, h), o in zip(edges, offsets)]
        gained += [g * ((a * v[j] + b * v[k]) + 0.0) for a, j, b, k, g in references]
    if rows is None or 0.0 * sum(gained) != 0.0:
        return saturate(_product(None, actuation, gained), caps)
    return [cap if (c := (a * gained[j] + b * gained[k]) + 0.0) > cap
            else -cap if c < -cap else c for (a, j, b, k), cap in rows]


_planar = enhanced_control   # the body: wrapping the attribute leaves baseline steps out


def baseline_control(positions, law: PlanarLaw, offsets, waypoint) -> list[float]:
    """Planar commands without head-motion prediction, stacked (vx, vy) in
    cm/s, from a law bound with tau None."""
    return _planar(positions, None, law, offsets, waypoint)


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


def yaw_law(lifted: LiftedTopology, gains, dt: float, horizon: int, enhanced: bool) -> YawLaw:
    """Bind the yaw law to the yaw topology lifted to 1 coordinate and its
    per-row gains, one nonpositive gain per yaw edge and then the reference
    gain (a scenario's `YawControlConfig.gains`)."""
    top, caps = lifted.topology, (YAW_RATE_CAP,) * lifted.topology.n_agents
    gains, rows = _bind(lifted, 1, gains, caps)
    heads = lifted.heads if enhanced else ()
    return YawLaw(lifted.pairs, top.reference_agents[0] - 1, heads, dt, horizon,
                  gains, rows, lifted.actuation, caps)


def yaw_consensus(yaws, yaw_rates, law: YawLaw, target_angle: float) -> list[float]:
    """Yaw-rate commands (rad/s), one per agent, from the one-dimensional
    consensus pipeline.

    Edge errors are the wrapped head-tail angle differences; the reference
    row is the first reference agent's wrapped error to `target_angle`.  The
    enhanced law adds each head's predicted yaw travel over the horizon.
    """
    pairs, reference, heads, dt, horizon, gains, rows, actuation, caps = law
    errors = [wrap(yaws[head] - yaws[tail]) for head, tail in pairs]
    for row, head in enumerate(heads):
        errors[row] += (yaw_rates[head] * dt) * horizon
    errors.append(wrap(yaws[reference] - target_angle))
    gained = [g * e for g, e in zip(gains, errors)]
    if rows is None or 0.0 * sum(gained) != 0.0:
        return saturate(_product(None, actuation, gained), caps)
    return [cap if (c := (a * gained[j] + b * gained[k]) + 0.0) > cap
            else -cap if c < -cap else c for (a, j, b, k), cap in rows]
