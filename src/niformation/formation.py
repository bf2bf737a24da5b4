"""Transition bookkeeping for time-varying formations.

The phase schedule is part of a scenario (`scenario.FormationSpec`), and
avoidance replanning overrides it entirely while it is active.

A transition records, as stacked Python floats (each agent's x, y in turn),
the offsets the steered agents start from and land on, for a waypoint change
where each must end, and the time budget.  One convergence test serves every
transition: the caller passes each steered agent's (x, y) residual (against
the destination for a waypoint transition, against the target offsets for an
avoidance override), and the transition converges once every participating
agent has been inside the band together for a hold time, or times out after
the deadline plus a grace window.  A NaN decides as on numpy arrays: never
inside the band, and a NaN displacement does not participate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

CONVERGED = "converged"
IN_PROGRESS = "in-progress"
TIMED_OUT = "timed-out"


@dataclass
class TransitionState:
    """One in-flight offset change for a set of steered agents.

    `label` names the kind of change.  A transition keeps the offsets it
    starts from and lands on, and a waypoint change also the `destination`
    of each steered agent, fixed when it starts; `in_band_since` is when
    the participating agents last entered the band together.  `moving`
    indexes the agents that participate, those whose offsets change.
    """

    start_time: float
    duration: float
    agents: tuple[int, ...]              # 1-based ids of the steered agents
    start_offsets: list[float]           # stacked (x, y) per steered agent
    target_offsets: list[float]          # stacked (x, y) per steered agent
    label: str = ""
    destination: list[float] | None = None
    first_entry: dict[int, float] = field(default_factory=dict)
    in_band_since: float | None = None
    converged_time: float | None = None
    moving: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("transition duration must be positive")
        if {len(self.start_offsets), len(self.target_offsets)} != {2 * len(self.agents)}:
            raise ValueError("offsets must match the agent list")
        dis = [t - s for s, t in zip(self.start_offsets, self.target_offsets)]
        self.moving = tuple(k for k, (dx, dy) in enumerate(zip(dis[0::2], dis[1::2]))
                            if (abs(dx) > 1e-12 or abs(dy) > 1e-12) and dx == dx and dy == dy)

    @property
    def deadline(self) -> float:
        return self.start_time + self.duration


def check_convergence(state: TransitionState, residual: list[tuple[float, float]], now: float,
                      *, tolerance: float, grace: float, hold: float) -> str:
    """Band-hold convergence test on the steered agents' residuals.

    residual holds one (x, y) pair per steered agent, its per-axis distance
    from where the transition wants it.  An agent is inside the band when
    both axes are within `tolerance`; its first entry time is recorded.
    The transition converges once every participating agent has been inside
    the band together for `hold` seconds (its converged time is when that
    stretch began) and times out when `now` passes the deadline plus
    `grace` without that happening.
    """
    if len(residual) != len(state.agents):
        raise ValueError("residual must match the transition agent list")
    inside = [abs(x) <= tolerance and abs(y) <= tolerance for x, y in residual]
    if any(inside):
        # an agent's earlier entry wins over this one
        state.first_entry = (dict.fromkeys(compress(state.agents, inside), now)
                             | state.first_entry)

    if all(inside[k] for k in state.moving):
        if state.in_band_since is None:
            state.in_band_since = now
        if now - state.in_band_since >= hold:
            if state.converged_time is None:
                state.converged_time = state.in_band_since
            return CONVERGED
        return IN_PROGRESS
    state.in_band_since = None
    return TIMED_OUT if now > state.deadline + grace else IN_PROGRESS
