"""Directed interconnection topology and its control matrices.

A topology is a directed graph over agents 1..n plus a set of reference
agents.  Three matrices drive the cooperative controller:

* incidence (n x L): column e has +1 at the head agent and -1 at the tail
  agent of edge e.  Its transpose maps stacked agent outputs to per-edge
  differences head - tail.
* consensus actuation (n x L): column e has -1 at the tail agent only.  Only
  the tail of an edge steers to close that edge's error, so information flows
  head -> tail.
* reference injection (n x 1): 1 at each reference agent.

The topology also keeps each edge's head and tail as 0-based index arrays,
so per-edge quantities of stacked agent rows are one gather, for example
`positions[tails] - positions[heads]`.

`kron_expand` lifts the stacked [incidence | reference] and
[consensus | reference] blocks to m coordinates per agent.  The blocks are
constant, so the controller lifts them once per topology per process
(planar m=2, yaw m=1; see `controller.lift`) rather than on every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class NetworkTopology:
    """Validated directed topology with its derived, read-only control
    matrices, which `==` and `hash` skip: they are functions of the first
    three fields."""

    n_agents: int
    edges: tuple[tuple[int, int], ...]      # (head, tail), 1-based agent ids
    reference_agents: tuple[int, ...]
    incidence: np.ndarray = field(compare=False)
    consensus: np.ndarray = field(compare=False)
    reference: np.ndarray = field(compare=False)
    heads: np.ndarray = field(compare=False)   # (n_edges,) 0-based head rows
    tails: np.ndarray = field(compare=False)   # (n_edges,) 0-based tail rows

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def build_topology(n_agents: int, edges, reference_agents) -> NetworkTopology:
    """Construct and validate the topology matrices.

    Edges are (head, tail) pairs of 1-based agent ids; the tail follows the
    head.  Reference agents receive the external reference injection.
    """
    if n_agents < 1:
        raise ValueError("at least one agent is required")
    edge_list: list[tuple[int, int]] = []
    seen: set[frozenset[int]] = set()
    for k, edge in enumerate(edges):
        head, tail = (int(edge[0]), int(edge[1]))
        if head == tail:
            raise ValueError(f"edge {k} is a self-loop on agent {head}")
        for agent in (head, tail):
            if not 1 <= agent <= n_agents:
                raise ValueError(f"edge {k} references agent {agent}, "
                                 f"valid ids are 1..{n_agents}")
        key = frozenset((head, tail))
        if key in seen:
            raise ValueError(f"edge {k} duplicates the pair {head}-{tail}")
        seen.add(key)
        edge_list.append((head, tail))

    refs = tuple(sorted({int(r) for r in reference_agents}))
    if not refs:
        raise ValueError("at least one reference agent is required")
    for agent in refs:
        if not 1 <= agent <= n_agents:
            raise ValueError(f"reference agent {agent} out of range 1..{n_agents}")

    heads, tails = np.array(edge_list, dtype=int).reshape(-1, 2).T - 1
    columns = np.arange(len(edge_list))
    incidence = np.zeros((n_agents, len(edge_list)))
    incidence[heads, columns] = 1.0
    incidence[tails, columns] = -1.0
    consensus = np.zeros((n_agents, len(edge_list)))
    consensus[tails, columns] = -1.0
    reference = np.zeros((n_agents, 1))
    reference[np.subtract(refs, 1), 0] = 1.0
    for array in (incidence, consensus, reference, heads, tails):
        array.flags.writeable = False

    return NetworkTopology(n_agents=n_agents, edges=tuple(edge_list),
                           reference_agents=refs, incidence=incidence,
                           consensus=consensus, reference=reference,
                           heads=heads, tails=tails)


def kron_expand(topology: NetworkTopology, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Lift the stacked topology blocks to m coordinates per agent.

    Returns (sensing, actuation): sensing = [incidence | reference] (x) I_m,
    actuation = [consensus | reference] (x) I_m.  The transpose of `sensing`
    maps the stacked n*m agent vector to per-edge differences followed by the
    reference-agent rows; `actuation` maps gained errors back to agents.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    eye = np.eye(m)
    sensing = np.kron(np.hstack([topology.incidence, topology.reference]), eye)
    actuation = np.kron(np.hstack([topology.consensus, topology.reference]), eye)
    return sensing, actuation
