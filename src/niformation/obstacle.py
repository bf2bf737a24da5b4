"""Geometric obstacle avoidance: observations, grouping, and replanning.

Obstacles are boundary polygons wrapped in circles (polygon centroid, radius
to the farthest vertex).  A robot senses a polygon when its clip to the
robot's footprint, the `FOOTPRINT_SIDES`-gon inscribed in the sensor disc,
keeps at least three vertices; `ObstacleField` decides that for a whole team
at once, as the clip would, from each robot's distance to the polygon's
edges and to its hull, and clips only the pairs at the footprint's rim.
Nearby circles whose boundary gap
is too narrow for a robot merge into enclosing circles.  Against the merged
circles two maneuver families are planned in the reference agent's path
frame (`PathFrame`):

* single obstacle (mode 1): whichever robot's straight run is blocked dodges
  to a lateral line clearing the circle by its own radius plus a margin --
  a follower adjusts its own slot (strategy 1); the reference agent detours
  while the followers hold their lateral stations (strategy 2);
* facing pair (mode 2): the gap between the two inner boundary points,
  projected onto the followers' line, classifies the maneuver -- wide enough
  for the whole formation: pass through unchanged (sub-case 1); narrower:
  the followers squeeze onto pulled-in stations while the reference agent
  rides the gap midline (sub-case 2); narrower than the formation but wider
  than one robot: a single-file queue, which is not planned (sub-case 3).

`event_cleared` ends an event once its circles have left the reference
agent's footprint and every robot has passed them along the frame.  Each
decision on positions alone is one call that also returns the radii within
which it cannot change (`ObstacleField.sensed`, `running_clearance`, the
planning skip `behind`, `event_cleared`), held in one `MotionBudget`.
A robot's distance to a circle's boundary is `norm(p - c) - r`: the running
clearances take its minimum, and `niformation inspect` reads
`boundary_distances` over a whole logged run.  Every simulated team plans
with the footprints `FOV` and `ROBOT_RADIUS`, and clears by
`CLEARANCE_MARGIN`.  All coordinates are centimeters.

The budget, sensing and the clearances take the team as stacked Python
floats (x, y a robot) and run on floats, in numpy's operation order, so
they round as the former array code did; a min or max keeps numpy's rule
(`minimum_of`, `maximum_of`): the first NaN wins, and of equal values the
later.  Everything that goes through a BLAS dot keeps numpy: the gate's
scalar norm, `behind`, `PathFrame`, `detect_mode` and `event_cleared`.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

DEGENERATE_AREA = 1e-9
DEFAULT_GROUP_RADIUS_CAP = 150.0
DEFAULT_GROUP_MAX_MEMBERS = 3
# the one sensor and robot footprint every team plans with (cm)
FOV = 220.0               # sensor footprint diameter
LOOK_AHEAD = 100.0        # obstacle reaction range
ROBOT_RADIUS = 32.0       # planning footprint of every robot
CLEARANCE_MARGIN = 2.0    # planned clearance beyond that footprint
COLLISION_RADIUS = 25.0   # physical footprint: contact below this
FOOTPRINT_SIDES = 64
# a footprint of radius r about c is the polygon c + r * FOOTPRINT_RING
_ANGLES = 2.0 * np.pi * np.arange(FOOTPRINT_SIDES) / FOOTPRINT_SIDES
FOOTPRINT_RING = np.column_stack([np.cos(_ANGLES), np.sin(_ANGLES)])
SENSING_MARGIN = 1e-8   # rounding margin per cm (per cm^2 for a product) of
                        # the lengths a reuse or skip bound is computed from
GATE_ULPS = 64          # squared gate distances this close are re-decided
ALIGNED_ANGLE = 1e-3    # rad: an edge this close to a clip line's direction
                        # keeps its polygon from `apart` (`ObstacleField`)
_RIM_COS, _RIM_SIN = math.cos(math.pi / FOOTPRINT_SIDES), math.sin(math.pi / FOOTPRINT_SIDES)
_TINY_SCALE = 2.0 ** -900  # `behind` rescales rows whose products fall below

MODE_SINGLE = 1
MODE_FACING = 2
SUB_PASS = 1
SUB_SQUEEZE = 2
SUB_QUEUE = 3
STRATEGY_FOLLOWER = 1
STRATEGY_REFERENCE = 2


class UnsupportedManeuver(ValueError):
    """The detected geometry calls for a maneuver this planner does not do."""


def minimum_of(values) -> float:
    """numpy's `min` of floats: the first NaN, else the least, the later of
    equal values (so of 0.0 and -0.0)."""
    out = None
    for value in values:
        if out is None or not (out < value or out != out):
            out = value
    return out


def maximum_of(values) -> float:
    """numpy's `max` of floats, by `minimum_of`'s rule."""
    out = None
    for value in values:
        if out is None or not (out > value or out != out):
            out = value
    return out


def _nonnegative(value: float) -> float:
    """numpy's `maximum(value, 0.0)`: NaN stays NaN, -0.0 becomes 0.0."""
    return value if value > 0.0 or value != value else 0.0


def _pairs(stacked) -> list[list[float]]:
    return [[x, y] for x, y in zip(stacked[0::2], stacked[1::2])]


class MotionBudget:
    """One anchor for every decision held on the robots' positions alone.

    Row k of `radii` is decision k's radius per robot about `anchor`: its
    outcome stands while every robot stays strictly inside it (NaN never
    does).  A `stale` row holds nothing; its decision is made again when
    next needed.  The budget, each robot's least radius, is tested once a
    step.  Once it is spent the anchor moves to the team: each row the team
    has left goes stale and each other shrinks by the distance moved (the
    triangle inequality) and by `SENSING_MARGIN` of that distance and its
    radius, far above the few ulps a displacement and its test round by.
    An expired row limits the budget until the next renewal.

    Positions are stacked floats (x, y a robot); `radii` is a float list a
    row and `anchor` an [x, y] list a robot.  The arithmetic is the former
    (rows, robots) array's, in its order, with `np.maximum`'s and
    `np.minimum.reduce`'s rule for NaN and equal values (`minimum_of`).
    """

    def __init__(self, positions, rows: int):
        self.anchor, self.moved2 = _pairs(positions), None
        self.radii = [[math.inf] * len(self.anchor) for _ in range(rows)]
        self.stale, self.budget2 = [True] * rows, [math.inf] * len(self.anchor)

    def spend(self, stacked):
        """Test stacked positions on floats; renew if spent."""
        self.moved2 = [(x - a) * (x - a) + (y - b) * (y - b)
                       for (a, b), x, y in zip(self.anchor, stacked[::2], stacked[1::2])]
        for moved, budget in zip(self.moved2, self.budget2):
            if not moved < budget:
                return self.renew(stacked)

    def renew(self, positions, row: int | None = None, radius=None):
        """Move the anchor to `positions`, the last spent, then hold decision
        `row`, just made there, within `radius` (a float, or a float list
        per robot).  A radius not above 0 everywhere (NaN included) holds
        nothing: the row stays stale, and neither the anchor nor the budget
        moves."""
        if row is not None:
            radius = radius if isinstance(radius, list) else [radius] * len(self.anchor)
            if not all(r > 0.0 for r in radius):
                return self.expire(row)
        if self.moved2 is not None:
            shrink = [(1.0 + SENSING_MARGIN) * math.sqrt(m) for m in self.moved2]
            for k, radii in enumerate(self.radii):
                if self.stale[k]:   # inf everywhere, which neither test nor shrink moves
                    continue
                for moved2, r in zip(self.moved2, radii):
                    if not moved2 < r * r:   # left, as is every row after an inf move
                        self.expire(k)
                        break
                else:   # np.maximum(shrunk, 0.0)
                    self.radii[k] = [v if (v := (1.0 - SENSING_MARGIN) * r - s) > 0.0
                                     or v != v else 0.0 for r, s in zip(radii, shrink)]
            self.anchor, self.moved2 = _pairs(positions), None
        if row is not None:
            self.radii[row], self.stale[row] = radius, False
        self.budget2 = [r * r for r in map(minimum_of, zip(*self.radii))]

    def expire(self, row: int):
        self.radii[row], self.stale[row] = [math.inf] * len(self.anchor), True


@dataclass(frozen=True)
class ObstacleCircle:
    """Conservative circular wrap of one or more observed obstacles."""

    center: tuple[float, float]
    radius: float
    members: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "center",
                           (float(self.center[0]), float(self.center[1])))
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")


@dataclass(frozen=True)
class PathFrame:
    """The reference agent's path frame: origin where it stood, `along` its
    unit heading, `lateral` that heading turned +90 degrees, stored once as
    read-only float arrays.  `coords` and `to_world` map one point at a
    time; a batched product over many points may round differently."""

    origin: np.ndarray
    along: np.ndarray
    lateral: np.ndarray

    def __post_init__(self):
        for name in ("origin", "along", "lateral"):
            vector = np.array(getattr(self, name), dtype=float)
            vector.flags.writeable = False
            object.__setattr__(self, name, vector)

    def coords(self, point) -> tuple[float, float]:
        """A world point's (along-track, lateral) coordinates."""
        d = np.asarray(point, dtype=float) - self.origin
        return float(d @ self.along), float(d @ self.lateral)

    def to_world(self, s: float, lateral: float) -> np.ndarray:
        return self.origin + s * self.along + lateral * self.lateral


@dataclass(frozen=True)
class AvoidanceEvent:
    """A planned avoidance maneuver in the reference agent's path frame.

    `frame` is that frame when the event fired.  `master_lateral` is the
    lateral line the reference agent should ride while the event is active
    (None: keep its own line); `slave_laterals` are absolute lateral
    stations per steered follower id.  `geometry` names the plan's
    construction points; no log carries it.  `event_cleared` decides its end.
    """

    mode: int
    obstacles: tuple[ObstacleCircle, ...]
    frame: PathFrame
    sub_case: int | None = None
    strategy: int | None = None
    threatened: int | None = None                 # 1-based agent id
    master_lateral: float | None = None
    slave_laterals: dict[int, float] = field(default_factory=dict)
    geometry: dict[str, tuple[float, float]] = field(default_factory=dict)


# ----------------------------------------------------------- observations

def polygon_area_centroid(vertices) -> tuple[float, np.ndarray]:
    """Signed shoelace area and centroid; degenerate polygons fall back to
    the vertex mean."""
    v = np.asarray(vertices, dtype=float).reshape(-1, 2)
    if v.shape[0] < 3:
        return 0.0, v.mean(axis=0)
    x, y = v[:, 0], v[:, 1]
    xr, yr = np.roll(x, -1), np.roll(y, -1)
    cross = x * yr - xr * y
    area = 0.5 * cross.sum()
    if abs(area) < DEGENERATE_AREA:
        return 0.0, v.mean(axis=0)
    cx = ((x + xr) * cross).sum() / (6.0 * area)
    cy = ((y + yr) * cross).sum() / (6.0 * area)
    return float(area), np.array([cx, cy])


def circle_from_observation(vertices, members=()) -> ObstacleCircle:
    """Wrap an observed boundary polygon: centroid center, radius to the
    farthest vertex."""
    v = np.asarray(vertices, dtype=float).reshape(-1, 2)
    if v.shape[0] == 0:
        raise ValueError("observation has no vertices")
    _, centroid = polygon_area_centroid(v)
    radius = float(np.linalg.norm(v - centroid, axis=1).max())
    return ObstacleCircle(center=tuple(centroid), radius=radius,
                          members=tuple(members))


def clip_polygon_to_disc(vertices, center, radius) -> np.ndarray:
    """Clip a polygon to the regular `FOOTPRINT_SIDES`-gon inscribed in the
    disc (Sutherland-Hodgman against each polygon edge).

    `ObstacleField.sensed` calls it only for the pairs its two distances
    leave undecided, at the footprint's rim.  The clip loop runs on plain
    floats: numpy scalars would cost far more than the arithmetic.
    """
    c = np.asarray(center, dtype=float)
    clip = (c + radius * FOOTPRINT_RING).tolist()
    output = np.asarray(vertices, dtype=float).reshape(-1, 2).tolist()
    for k in range(FOOTPRINT_SIDES):
        ax, ay = clip[k]
        bx, by = clip[(k + 1) % FOOTPRINT_SIDES]
        ex, ey = bx - ax, by - ay
        if not output:
            return np.zeros((0, 2))
        polygon, output = output, []
        px, py = polygon[-1]
        prev_in = ex * (py - ay) - ey * (px - ax) >= 0.0
        for point in polygon:
            x, y = point
            cur_in = ex * (y - ay) - ey * (x - ax) >= 0.0
            if cur_in != prev_in:
                dx, dy = x - px, y - py
                denom = ex * dy - ey * dx
                t = (ex * (ay - py) - ey * (ax - px)) / denom if denom else 0.0
                output.append([px + t * dx, py + t * dy])
            if cur_in:
                output.append(point)
            px, py, prev_in = x, y, cur_in
    return np.array(output) if output else np.zeros((0, 2))


def circle_arrays(circles) -> tuple[np.ndarray, np.ndarray]:
    """Centers (m, 2) and radii (m,) of a sequence of circles."""
    return (np.array([c.center for c in circles], dtype=float).reshape(-1, 2),
            np.array([c.radius for c in circles], dtype=float))


def circle_floats(circles) -> tuple[tuple[tuple[float, float], ...], tuple[float, ...]]:
    """Centers, (x, y) float pairs, and radii of a sequence of circles."""
    return tuple(c.center for c in circles), tuple(c.radius for c in circles)


def boundary_distances(positions, centers, radii) -> np.ndarray:
    """|p - c| - r for every position p and circle (c, r): shape (..., n, m)
    for (..., n, 2) positions, so a whole logged run at once.  Each distance
    is `norm` of p - c, bit for bit."""
    diff = positions[..., None, :] - centers
    return np.sqrt(np.add.reduce(diff * diff, axis=-1)) - radii


def running_clearance(least: float, positions, centers, radii,
                      floor: float) -> tuple[float, float]:
    """The running minimum `least` lowered to this evaluation's `gap`, the
    least `boundary_distances` of the stacked `positions` to the circles
    (`circle_floats`; inf without circles) less `floor`, and the radius
    within which no robot can set a lower one: a distance to a boundary
    shrinks by at most the displacement, so it is the slack `gap - least`
    less `SENSING_MARGIN` * (|gap| + |least| + |floor| + the largest radius),
    far above the few ulps the gaps and the slack round by, clamped at 0 (a
    team that has just set the minimum never holds).

    On floats: each distance is `math.sqrt(dx*dx + dy*dy) - r`, the bits of
    `boundary_distances`, and a Python float product overflows to inf
    without a warning.  A NaN distance makes the gap NaN, as numpy's `min`
    did: the minimum keeps `least`, and the radius is NaN, which never
    holds."""
    gap = math.inf
    for x, y in zip(positions[0::2], positions[1::2]):
        for (cx, cy), r in zip(centers, radii):
            dx, dy = x - cx, y - cy
            distance = math.sqrt(dx * dx + dy * dy) - r
            if not (gap < distance or gap != gap):
                gap = distance
    gap -= floor
    least = min(least, gap)
    scale = abs(gap) + abs(least) + abs(floor) + maximum_of((0.0, *radii))
    return least, _nonnegative(gap - least - SENSING_MARGIN * scale)


class ObstacleField:
    """A run's obstacle polygons at one sensor reach, built once (wrap
    circles as `circles` and `circle_floats`), so a whole team's sensing is
    decided as the clip's, mostly by two distances per (viewer, polygon)
    pair.

    For viewer v and polygon P_i, wrap circle (c_i, r_i): `near` is the
    least distance from v to the edges of P_i's vertex list, the closing
    edge included, for a list of at least 3 vertices; `apart` is the
    distance from v to P_i's convex hull (0 inside it) less `reach`,
    capped by the line-0 clearance below, or -inf where the hull lemma
    does not cover P_i.  A gate-passing pair with `near` under the inner
    bound (the footprint's incircle radius less `SENSING_MARGIN` * scale,
    clamped at 0) is sensed; one with `apart` above the pair margin
    `SENSING_MARGIN` * (norm(v - c_i) + scale) is not; only the pairs
    between, at the footprint's rim, are clipped.  Here `scale` is the
    largest vertex coordinate plus 2*reach, u = 2**-53, and L <= 6*scale
    bounds every length the clip of a gate-passing pair subtracts (the gate
    bounds |v|).  Rounding moves a clip line by under 100*u*L and a
    computed distance by a few u*L; each margin covers that 1e5 times over.

    Edge-witness lemma: a vertex list of at least 3 vertices with a point q
    of an edge inside the inner bound clips to at least 3 vertices.  q
    passes every half-plane by the margin, so at each stage one end of q's
    edge is in (q is a convex combination of the two).  The stage keeps
    that end and either the other or their crossing, whose t is well
    conditioned since the in end lies a margin inside; so an edge through
    q, moved by a few u*L at most, goes on to the next stage.  A stage
    outputs its whole input, or its in-vertices plus a crossing per in/out
    change around the cycle: at least 3 either way.

    Hull lemma: if the hull lies farther than `reach` plus the pair margin
    from v, and every crossing the clip computes lies on its input edge up
    to rounding, the clip keeps no vertex: each crossing stays in the hull
    and in the half-planes already passed, and no point of the hull passes
    all 64.  A crossing's t = -S(p) / (e x d), S the in-test's cross
    product, is off by a few u*L*|e| / |e x d|: when both ends of an input
    edge lie within rounding of the clip line, the crossing can land
    anywhere along that line, and the clip keeps points of a polygon wholly
    outside its disc.  Two kinds of such edge are ruled out.  (1) Part of a
    polygon edge: a polygon with an edge within `ALIGNED_ANGLE` of a clip
    line's direction ((2k+1)*pi/64 + pi/2) gets `apart` -inf, and any
    other edge's crossing is off by under 10*u*L / sin(ALIGNED_ANGLE / 2)
    < 1e-10 * scale (while reach >= 1e-6 * scale keeps the footprint's
    edge directions within 1e-7 rad; else `apart` decides nothing).  (2)
    An edge ending at a crossing of an earlier clip line k: that crossing
    lies in the hull, so beyond the disc on line k's ray past footprint
    vertex k + 1 (the one past vertex k fails half-plane k - 1, which both
    ends passed), decisively outside half-plane k + 1, which drops it; but
    line 0's ray past vertex 0 fails only half-plane 63, tested last.  So
    `apart` is capped by the hull's line-0 clearance, the largest of min
    s_p, -max s_p and min a_p over its vertices p, for s_p the signed
    distance of p beyond line 0 and a_p its distance along that line past
    footprint vertex 0, toward vertex 1: a positive clearance keeps the
    hull off line 0 or off that ray.

    Reuse: v's decision on P_i cannot flip while v moves less than the
    largest of `norm(v - c_i) - (reach + r_i)`, which keeps the gate
    failing, `apart`, which keeps the hull and its clearance clear, and,
    for a gate-passing pair, `inner - near`, which keeps an edge point the
    witness; each is 1-Lipschitz in v.  Each slack loses the pair margin,
    far above the few ulps of those distances, the displacement and its
    test, and of pairs within `GATE_ULPS` of the gate.  v's reuse radius,
    which `sensed` returns for a `MotionBudget` row, is its least slack,
    clamped at 0; a NaN stays NaN and never passes.  A pair whose gate
    slack alone cannot lower that least slack skips `apart`.

    `sensed` runs on floats the field copies once: each polygon's gate
    (centre, `reach` + radius, its square and the square's `GATE_ULPS`
    tolerance), `points`, its vertices as (x, y) pairs, `rim`, line 0's
    unit normal, its distance from the viewer and footprint vertex 0's
    distance from the normal's foot, and `sides`: the polygon's edges (none
    under 3 vertices), its hull's edges and vertices (with 3 or more the
    hull has an inside) and whether `apart` may decide it.  An edge is
    (ax, ay, dx, dy, |d|^2, bx, by) for d = b - a; a hull runs
    counterclockwise.
    """

    def __init__(self, polygons, reach: float):
        self.polygons = tuple(np.asarray(p, dtype=float).reshape(-1, 2) for p in polygons)
        self.circles = tuple(circle_from_observation(p, (i,))
                             for i, p in enumerate(self.polygons))
        radii = circle_arrays(self.circles)[1]
        self.reach = float(reach)
        limits = self.reach + radii
        limits2 = limits ** 2
        scale = np.abs(np.concatenate([np.zeros((0, 2)), *self.polygons])).max(
            initial=0.0) + 2.0 * self.reach
        margin = SENSING_MARGIN * scale
        inner = max(self.reach * np.cos(np.pi / FOOTPRINT_SIDES) - margin, 0.0)
        self.scale, self.inner = float(scale), float(inner)
        for values in self.polygons:
            values.flags.writeable = False
        self.circle_floats = circle_floats(self.circles)
        self.points = tuple(tuple(map(tuple, p.tolist())) for p in self.polygons)
        self.gates = tuple(zip(self.circle_floats[0], limits.tolist(), limits2.tolist(),
                               (GATE_ULPS * np.spacing(limits2)).tolist()))
        self.rim = (_RIM_COS, _RIM_SIN, self.reach * _RIM_COS, self.reach * _RIM_SIN)
        footprint = self.reach >= 1e-6 * self.scale
        self.sides = tuple(_sides(points, footprint) for points in self.points)

    def settle(self, i: int, vx: float, vy: float, margin: float) -> tuple[bool | None, float]:
        """The distance rule for gate-passing viewer (vx, vy) and polygon i,
        `margin` the pair margin: (True, inner - near) where `near` settles
        the pair sensed, (False, apart) where `apart` settles it not, and
        (None, apart) where the clip must decide."""
        edges = self.sides[i][0]
        if edges and (near := math.sqrt(_edge_pass(edges, vx, vy)[0])) < self.inner:
            return True, self.inner - near
        apart = self.apart(i, vx, vy)
        return (False if apart > margin else None), apart

    def apart(self, i: int, vx: float, vy: float) -> float:
        """`apart` of viewer (vx, vy) and polygon i.  The hull's line-0
        clearance is taken only where the wrap circle's, a lower bound,
        does not clear the hull distance by far more than rounding."""
        _, hull, corners, clear = self.sides[i]
        if not clear:
            return -math.inf
        hull2, outside = _edge_pass(hull, vx, vy)
        distance = (math.sqrt(hull2) if outside or len(corners) < 3 else 0.0) - self.reach
        circle = _clearance((self.gates[i][0],), vx, vy, self.rim) - self.circle_floats[1][i]
        if circle > distance + SENSING_MARGIN * self.scale:
            return distance
        return min(distance, _clearance(corners, vx, vy, self.rim))

    def sensed(self, viewers) -> tuple[list[ObstacleCircle], list[float]]:
        """Circles of the polygons i that some viewer v senses, for stacked
        viewers: v passes the gate `not norm(v - c_i) > reach + r_i` and the
        clip of P_i to v's footprint keeps at least 3 vertices.  Squared gate
        distances within `GATE_ULPS` ulps of the squared limit (the squared
        norms differ by about 10 u at most) are re-decided by the scalar
        norm.  A gate-passing pair is settled by `near`, else by `apart`;
        the clip runs last, in (viewer, polygon) order, for the pairs
        neither settles, and only while the polygon is not yet seen.  Each
        viewer also gets its reuse radius."""
        seen, clips, reuse = [False] * len(self.circles), [], []
        scale = self.scale
        for v, (vx, vy) in enumerate(zip(viewers[0::2], viewers[1::2])):
            nearest = math.inf
            for i, ((cx, cy), limit, limit2, tol) in enumerate(self.gates):
                dx, dy = vx - cx, vy - cy
                centre2 = dx * dx + dy * dy
                gate = centre2 <= limit2
                if abs(centre2 - limit2) <= tol:
                    gate = not np.linalg.norm(np.array((dx, dy))) > limit
                dist = math.sqrt(centre2)
                slack, margin = dist - limit, SENSING_MARGIN * (dist + scale)
                if gate:
                    hit, settled = self.settle(i, vx, vy, margin)
                    if hit:
                        seen[i] = True
                    elif hit is None:
                        clips.append((v, i))
                elif slack - margin < nearest:   # else it cannot lower the least slack
                    settled = self.apart(i, vx, vy)
                else:
                    settled = slack
                if not (slack > settled or slack != slack):
                    slack = settled
                slack -= margin
                if not (nearest < slack or nearest != nearest):
                    nearest = slack
            reuse.append(_nonnegative(nearest))
        for v, i in clips:
            if not seen[i]:
                seen[i] = clip_polygon_to_disc(self.polygons[i], viewers[2 * v:2 * v + 2],
                                               self.reach).shape[0] >= 3
        return [circle for circle, hit in zip(self.circles, seen) if hit], reuse


def _edge_pass(edges, vx, vy) -> tuple[float, bool]:
    """The least squared distance from (vx, vy) to the edges, and whether
    the point lies strictly right of one of them (outside a
    counterclockwise hull)."""
    near2, outside = math.inf, False
    for ax, ay, dx, dy, length2, bx, by in edges:
        wx, wy = vx - ax, vy - ay
        cross = wx * dy - wy * dx
        outside = outside or cross > 0.0
        along = wx * dx + wy * dy
        if along <= 0.0:
            dist2 = wx * wx + wy * wy
        elif along >= length2:
            ex, ey = vx - bx, vy - by
            dist2 = ex * ex + ey * ey
        else:
            dist2 = cross * cross / length2
        if dist2 < near2:
            near2 = dist2
    return near2, outside


def _clearance(points, vx, vy, rim) -> float:
    """The line-0 clearance (see `ObstacleField`) of `points` from viewer
    (vx, vy): the largest of min s, -max s and min a over them, for s the
    signed distance beyond line 0 and a the distance along it past
    footprint vertex 0; `rim` is `ObstacleField.rim`."""
    nx, ny, offset, behind = rim
    low, high, ahead = math.inf, -math.inf, math.inf
    for px, py in points:
        rx, ry = px - vx, py - vy
        beyond = nx * rx + ny * ry - offset
        along = nx * ry - ny * rx + behind
        low, high, ahead = min(low, beyond), max(high, beyond), min(ahead, along)
    return max(low, -high, ahead)


def _convex_hull(points) -> list[tuple[float, float]]:
    """The vertices of the convex hull of float (x, y) pairs,
    counterclockwise from the least (x, y), with duplicate and collinear
    points dropped: Andrew's monotone chain on exact orientation tests."""
    unique = sorted(set(points))
    if len(unique) < 3:
        return unique

    def turns_left(o, a, b) -> bool:
        (ox, oy), (ax, ay), (bx, by) = (tuple(map(Fraction, p)) for p in (o, a, b))
        return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox) > 0

    chains = []
    for run in (unique, unique[::-1]):
        chain = []
        for point in run:
            while len(chain) >= 2 and not turns_left(chain[-2], chain[-1], point):
                chain.pop()
            chain.append(point)
        chains.append(chain[:-1])
    return chains[0] + chains[1]


def _edges(corners) -> tuple[tuple[float, ...], ...]:
    """(ax, ay, dx, dy, |d|^2, bx, by) of each edge a -> b of a closed
    vertex list."""
    out = []
    for (ax, ay), (bx, by) in zip(corners, corners[1:] + corners[:1]):
        dx, dy = bx - ax, by - ay
        out.append((ax, ay, dx, dy, dx * dx + dy * dy, bx, by))
    return tuple(out)


def _aligned(points) -> bool:
    """Whether some edge of the closed vertex list (a zero edge aside) lies
    within `ALIGNED_ANGLE` of a clip line's direction, (2k+1)*pi/64 + pi/2."""
    step = 2.0 * math.pi / FOOTPRINT_SIDES
    for (ax, ay), (bx, by) in zip(points, points[1:] + points[:1]):
        if (ax, ay) != (bx, by):
            turn = (math.atan2(by - ay, bx - ax) - 0.5 * step) % step
            if min(turn, step - turn) < ALIGNED_ANGLE:
                return True
    return False


def _sides(points, footprint: bool):
    """`ObstacleField.sides` of one polygon's vertex pairs: `apart` decides
    it only for a usable `footprint` and finite, non-aligned edges."""
    points = list(points)
    finite = all(math.isfinite(c) for p in points for c in p)
    corners = _convex_hull(points) if finite else []
    edges = _edges(points) if len(points) >= 3 else ()
    clear = footprint and finite and not _aligned(points)
    return edges, _edges(corners), tuple(corners), clear


def shared_field(polygons, reach: float) -> ObstacleField:
    """The `ObstacleField` of `polygons` at `reach`, read-only and built once
    per process: keyed on bits, as `lti._bilinear` is, so 0.0 and -0.0 differ."""
    return _field(struct.pack("d", reach),
                  *(struct.pack(f"{2 * len(p)}d", *[c for v in p for c in v]) for p in polygons))


@functools.lru_cache(maxsize=32)
def _field(reach: bytes, *polygons: bytes) -> ObstacleField:
    return ObstacleField([np.frombuffer(p).reshape(-1, 2) for p in polygons],
                         np.frombuffer(reach)[0])


# ---------------------------------------------------------------- grouping

def enclosing_circle(one: ObstacleCircle, two: ObstacleCircle) -> ObstacleCircle:
    """Smallest circle containing both input circles."""
    c1, c2 = np.asarray(one.center), np.asarray(two.center)
    gap = float(np.linalg.norm(c2 - c1))
    members = tuple(one.members) + tuple(two.members)
    if gap + two.radius <= one.radius:
        return ObstacleCircle(one.center, one.radius, members)
    if gap + one.radius <= two.radius:
        return ObstacleCircle(two.center, two.radius, members)
    radius = 0.5 * (gap + one.radius + two.radius)
    direction = (c2 - c1) / gap
    center = c1 + (radius - one.radius) * direction
    return ObstacleCircle(tuple(center), radius, members)


def group_all(circles, robot_diameter: float,
              radius_cap: float = DEFAULT_GROUP_RADIUS_CAP,
              max_members: int = DEFAULT_GROUP_MAX_MEMBERS) -> list[ObstacleCircle]:
    """Merge circles pairwise to a fixpoint, tightest pairs first.

    A merge happens only when the pair is too narrow to pass (its boundary
    gap, the centre gap less both radii, is under `robot_diameter`), the
    merged radius stays within `radius_cap`, and the merged member count
    stays within `max_members`.  The tightest pair has the least boundary
    gap.
    """
    pool = [c if c.members else ObstacleCircle(c.center, c.radius, (i,))
            for i, c in enumerate(circles)]
    while True:
        best = None
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                a, b = pool[i], pool[j]
                gap = float(np.linalg.norm(np.asarray(b.center) - np.asarray(a.center)))
                if not gap < robot_diameter + a.radius + b.radius:
                    continue
                merged = enclosing_circle(a, b)
                if merged.radius > radius_cap or len(merged.members) > max_members:
                    continue
                boundary_gap = gap - a.radius - b.radius
                if best is None or boundary_gap < best[0]:
                    best = (boundary_gap, i, j, merged)
        if best is None:
            return pool
        _, i, j, merged = best
        pool = [c for k, c in enumerate(pool) if k not in (i, j)] + [merged]


# --------------------------------------------------------------- detection

def behind(centers, head, target) -> tuple[bool, float]:
    """Whether every centre lies behind `head` on its run toward `target`, by
    more than a rounding margin, so `detect_mode` plans nothing; and if so,
    how far `head` and `target` may each move with that still true.

    `detect_mode` passes over every circle whose along-track coordinate
    (c - head) @ (target - head) / |target - head| is <= 0, and plans only
    with the others.  This tests the unnormalised product instead; a
    product below -`SENSING_MARGIN` * |c - head| @ |target - head| (the
    absolute values taken per axis) stays negative through the rounding of
    both forms, which is a few ulps of that sum.  A NaN or a zero heading
    never passes.  Products below the normal range round to a fixed grid
    rather than to an ulp, so rows that fail there are tested again with
    each row and the heading scaled up, exactly, by a power of two.

    With a = c - head, b = target - head and both moves below r, a.b and
    the margin term each change by at most 2r|a| + r|b| + 2r^2.  A radius
    r = slack / (4|a| + 3|b|), the slack being -a.b less twice the margin
    term, is at most |a|/3, so that change stays under 3/4 of the slack:
    the rest covers rounding.  A NaN stays NaN, and so does the radius of
    a skip whose every length underflows; a skip that fails has radius 0.
    """
    rel = centers - head
    heading = target - head
    dot, scale = rel @ heading, np.abs(rel) @ np.abs(heading)
    if not (dot < -SENSING_MARGIN * scale).all():
        if not scale.min() < _TINY_SCALE:
            return False, 0.0
        rows_up = np.ldexp(rel, -np.minimum(np.frexp(np.abs(rel).max(axis=1))[1], 0)[:, None])
        aim_up = np.ldexp(heading, -min(int(np.frexp(np.abs(heading).max())[1]), 0))
        if not (rows_up @ aim_up < -SENSING_MARGIN * (np.abs(rows_up) @ np.abs(aim_up))).all():
            return False, 0.0
    slack = -dot - 2.0 * SENSING_MARGIN * scale
    length = 4.0 * np.sqrt(np.add.reduce(rel * rel, axis=1)) + 3.0 * np.sqrt(heading @ heading)
    with np.errstate(invalid="ignore"):
        return True, float((slack / length).min())


def point_segment_distance(point, seg_a, seg_b) -> float:
    p = np.asarray(point, dtype=float)
    a = np.asarray(seg_a, dtype=float)
    b = np.asarray(seg_b, dtype=float)
    d = b - a
    denom = float(d @ d)
    if denom < 1e-18:
        return float(np.linalg.norm(p - a))
    t = float(np.clip((p - a) @ d / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * d)))


def _path_frame(origin, target) -> PathFrame | None:
    d = np.asarray(target, dtype=float) - np.asarray(origin, dtype=float)
    norm = float(np.linalg.norm(d))
    if norm < 1e-9:
        return None
    along = d / norm
    return PathFrame(origin, along, np.array([-along[1], along[0]]))


def detect_mode(positions, targets, master_index: int, obstacles,
                fov: float, look_ahead: float) -> AvoidanceEvent | None:
    """Detect and plan the highest-priority avoidance maneuver, if any.

    positions/targets are (n, 2): each robot's location and the point its
    straight run currently aims at.  `obstacles` are the already-grouped
    circles.  A facing pair outranks a single obstacle.
    Returns None when nothing within range threatens anyone.  The simulator
    skips the call on a step where `behind` holds for the grouped
    circles, the reference agent and its target, since it would return None.
    """
    pos = np.asarray(positions, dtype=float).reshape(-1, 2)
    tgt = np.asarray(targets, dtype=float).reshape(-1, 2)
    n = pos.shape[0]
    frame = _path_frame(pos[master_index], tgt[master_index])
    if frame is None or not obstacles:
        return None
    followers = [i for i in range(n) if i != master_index]

    # ---- facing pair (mode 2)
    if len(followers) == 2:
        pair = _detect_facing_pair(pos, followers, obstacles, fov, look_ahead, frame)
        if pair is not None:
            return pair

    # ---- single obstacle (mode 1)
    for robot in [master_index] + followers:
        for circle in obstacles:
            s_oc, _ = frame.coords(circle.center)
            if s_oc <= 0:
                continue  # behind the formation's motion
            reach = float(np.linalg.norm(pos[robot] - np.asarray(circle.center)))
            if reach - circle.radius > look_ahead:
                continue
            if not (point_segment_distance(circle.center, pos[robot], tgt[robot])
                    < circle.radius + ROBOT_RADIUS):
                continue
            others_near = any(
                float(np.linalg.norm(np.asarray(c.center) - np.asarray(circle.center))) <= fov / 2.0
                for c in obstacles if c is not circle)
            if others_near:
                continue  # not an isolated single: leave it to the pair logic
            return _plan_single(pos, master_index, robot, circle, frame)
    return None


def _detect_facing_pair(pos, followers, obstacles, fov, look_ahead, frame: PathFrame):
    candidates = []
    for idx, circle in enumerate(obstacles):
        s, l = frame.coords(circle.center)
        if s <= 0:
            continue
        reach = float(np.linalg.norm(frame.origin - np.asarray(circle.center)))
        if reach - circle.radius <= look_ahead + ROBOT_RADIUS:
            candidates.append((idx, circle, s, l))
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            _, c1, _, l1 = candidates[i]
            _, c2, _, l2 = candidates[j]
            if l1 * l2 >= 0:
                continue  # same side: not a facing pair
            span = float(np.linalg.norm(np.asarray(c2.center) - np.asarray(c1.center)))
            if span >= fov:
                continue
            return _plan_facing(pos, followers, c1, c2, frame)
    return None


def _plan_facing(pos, followers, c1, c2, frame: PathFrame) -> AvoidanceEvent:
    p1, p2 = np.asarray(c1.center), np.asarray(c2.center)
    axis = p2 - p1
    span = float(np.linalg.norm(axis))
    axis = axis / span
    inner_a = p1 + c1.radius * axis
    inner_b = p2 - c2.radius * axis

    s1, s2 = followers
    sc1, sc2 = pos[s1], pos[s2]
    line = sc2 - sc1
    line_len = float(np.linalg.norm(line))
    if line_len < 1e-9:
        raise UnsupportedManeuver("followers are co-located; no line to squeeze on")
    line = line / line_len
    sp_a = sc1 + float((inner_a - sc1) @ line) * line
    sp_b = sc1 + float((inner_b - sc1) @ line) * line
    gap = float(np.linalg.norm(sp_b - sp_a))

    master_diameter = 2.0 * ROBOT_RADIUS
    squeeze_floor = master_diameter + ROBOT_RADIUS + ROBOT_RADIUS
    pass_floor = line_len + ROBOT_RADIUS + ROBOT_RADIUS
    mid_c = 0.5 * (inner_a + inner_b)

    geometry = {"inner_a": tuple(inner_a), "inner_b": tuple(inner_b),
                "line_a": tuple(sp_a), "line_b": tuple(sp_b),
                "mid": tuple(mid_c)}
    common = dict(mode=MODE_FACING, obstacles=(c1, c2), frame=frame,
                  geometry=geometry)

    if gap > pass_floor:
        return AvoidanceEvent(sub_case=SUB_PASS, **common)
    if gap > squeeze_floor:
        mid_line = 0.5 * (sp_a + sp_b)
        # assign each follower the nearer projected point, then pull both
        # stations inward by the robot radius plus the margin
        if (np.linalg.norm(sc1 - sp_a) + np.linalg.norm(sc2 - sp_b)
                <= np.linalg.norm(sc1 - sp_b) + np.linalg.norm(sc2 - sp_a)):
            assignment = [(s1, sp_a), (s2, sp_b)]
        else:
            assignment = [(s1, sp_b), (s2, sp_a)]
        slave_laterals = {}
        for robot, point in assignment:
            inward = mid_line - point
            inward_len = float(np.linalg.norm(inward))
            station = point + (ROBOT_RADIUS + CLEARANCE_MARGIN) * (inward / inward_len)
            slave_laterals[robot + 1] = frame.coords(station)[1]
        _, master_lat = frame.coords(mid_c)
        return AvoidanceEvent(sub_case=SUB_SQUEEZE, master_lateral=master_lat,
                              slave_laterals=slave_laterals, **common)
    if gap > master_diameter:
        raise UnsupportedManeuver(
            f"gap {gap:.1f} cm only admits single-file passage; queueing is "
            f"not planned")
    raise UnsupportedManeuver(f"gap {gap:.1f} cm is narrower than the "
                              f"reference agent's diameter")


def _plan_single(pos, master_index, robot, circle, frame: PathFrame) -> AvoidanceEvent:
    s_oc, l_oc = frame.coords(circle.center)
    clearance = circle.radius + ROBOT_RADIUS + CLEARANCE_MARGIN
    common = dict(mode=MODE_SINGLE, obstacles=(circle,), frame=frame,
                  threatened=robot + 1)

    if robot == master_index:
        side = 1.0 if abs(l_oc) < 1e-9 else -float(np.sign(l_oc))
        master_lat = l_oc + side * clearance
        geometry = {"detour": tuple(frame.to_world(s_oc, master_lat))}
        # followers hold their current lateral stations while the reference
        # agent sidesteps
        slave_laterals = {i + 1: frame.coords(pos[i])[1]
                          for i in range(pos.shape[0]) if i != master_index}
        return AvoidanceEvent(strategy=STRATEGY_REFERENCE,
                              master_lateral=master_lat,
                              slave_laterals=slave_laterals,
                              geometry=geometry, **common)

    _, l_robot = frame.coords(pos[robot])
    rel = l_robot - l_oc
    side = 1.0 if abs(rel) < 1e-9 else float(np.sign(rel))
    station = l_oc + side * clearance
    geometry = {"station": tuple(frame.to_world(s_oc, station))}
    return AvoidanceEvent(strategy=STRATEGY_FOLLOWER,
                          slave_laterals={robot + 1: station},
                          geometry=geometry, **common)


def event_cleared(event: AvoidanceEvent, positions, master: int, fov: float,
                  robot_radius: float) -> tuple[bool, np.ndarray | None]:
    """Whether the maneuver ends and, if not, radii per robot within which
    it stays so.  It ends once no involved circle lies within fov/2 of robot
    `master`, the reference agent, and every robot's along-track coordinate
    is above every circle's plus its radius and `robot_radius`.  The
    reference agent's progress alone is not enough: followers stationed
    behind it are still alongside the hazards when it passes, and
    re-expanding the schedule then would sweep them into the walls.  The
    reference agent is one of the robots, so it is also past every centre.
    A NaN coordinate passes both tests.

    The head's slack fov/2 - min |head - c| keeps a circle within fov/2 of
    it or, if larger, the largest along-track gap bar - s of any robot at or
    below the highest bar keeps it there (`along` is a unit vector); the
    others may move anywhere.  Each slack loses `SENSING_MARGIN` of the
    lengths it is computed from; NaN never holds.  The radii's batched
    products round apart from the decision's: neither derives the other.
    """
    pos = np.asarray(positions, dtype=float)
    frame = event.frame
    if not any(float(np.linalg.norm(pos[master] - np.asarray(c.center))) <= fov / 2.0
               for c in event.obstacles):
        passed = [frame.coords(c.center)[0] + c.radius + robot_radius
                  for c in event.obstacles]
        progress = [frame.coords(p)[0] for p in pos]
        if not any(s <= bar for s in progress for bar in passed):
            return True, None
    centers, radii = circle_arrays(event.obstacles)
    origin, along = frame.origin, frame.along
    rel = pos[master] - centers
    head = fov / 2.0 - np.sqrt(np.add.reduce(rel * rel, axis=1)).min()
    bar = float(((centers - origin) @ along + radii).max()) + robot_radius
    gaps = bar - (pos - origin) @ along
    robot = int(np.argmax(gaps))
    scale = (np.abs(centers - origin).sum() + radii.sum() + robot_radius
             + np.abs(pos[robot] - origin).sum())
    head, gap = head - SENSING_MARGIN * fov, gaps[robot] - SENSING_MARGIN * scale
    radius = np.full(len(pos), np.inf)
    if head >= gap:
        radius[master] = head
    else:
        radius[robot] = gap
    return False, radius
