"""Transition bookkeeping for time-varying formations.

The phase schedule is part of a scenario (`scenario.FormationSpec`), and
avoidance replanning overrides it entirely while it is active.

A transition records where the steered agents started, the displacement each
one must cover, and the time budget.  One convergence test serves every
transition: the caller passes each steered agent's per-axis residual
(against the destination for a waypoint transition, against the target
offsets for an avoidance override), and the transition converges once
every participating agent has been inside the band together for a hold
time, or times out after the deadline plus a grace window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

import numpy as np

CONVERGED = "converged"
IN_PROGRESS = "in-progress"
TIMED_OUT = "timed-out"


@dataclass
class TransitionState:
    """One in-flight offset change for a set of steered agents.

    `label` names the kind of change.  An override that slews the offsets
    keeps the offsets it starts from and lands on; `in_band_since` is when
    the participating agents last entered the band together.  `moving`
    indexes the agents that participate, worked out once from `dis`.
    """

    start_time: float
    duration: float
    agents: tuple[int, ...]              # 1-based ids of the steered agents
    start_positions: np.ndarray          # (len(agents), 2) at activation
    dis: np.ndarray                      # (len(agents), 2) displacement to cover
    label: str = ""
    start_offsets: np.ndarray | None = None
    target_offsets: np.ndarray | None = None
    first_entry: dict[int, float] = field(default_factory=dict)
    in_band_since: float | None = None
    converged_time: float | None = None
    moving: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.start_positions = np.asarray(self.start_positions, dtype=float).reshape(-1, 2)
        self.dis = np.asarray(self.dis, dtype=float).reshape(-1, 2)
        if self.duration <= 0:
            raise ValueError("transition duration must be positive")
        if self.start_positions.shape != (len(self.agents), 2):
            raise ValueError("start_positions must match the agent list")
        if self.dis.shape != (len(self.agents), 2):
            raise ValueError("dis must match the agent list")
        self.moving = tuple(np.flatnonzero(np.abs(self.dis).max(axis=1) > 1e-12).tolist())

    @property
    def destination(self) -> np.ndarray:
        return self.start_positions + self.dis

    @property
    def deadline(self) -> float:
        return self.start_time + self.duration


def check_convergence(state: TransitionState, residual: np.ndarray, now: float,
                      *, tolerance: float, grace: float, hold: float) -> str:
    """Band-hold convergence test on the steered agents' residuals.

    residual is (len(agents), 2), each steered agent's per-axis distance
    from where the transition wants it.  An agent is inside the band when
    both axes are within `tolerance`; its first entry time is recorded.
    The transition converges once every participating agent has been inside
    the band together for `hold` seconds (its converged time is when that
    stretch began) and times out when `now` passes the deadline plus
    `grace` without that happening.
    """
    res = np.asarray(residual, dtype=float).reshape(-1, 2)
    if res.shape != state.dis.shape:
        raise ValueError("residual must match the transition agent list")
    # plain floats: the same booleans as numpy's, NaN outside the band
    inside = [abs(x) <= tolerance and abs(y) <= tolerance for x, y in res.tolist()]
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
    if now > state.deadline + grace:
        return TIMED_OUT
    return IN_PROGRESS
