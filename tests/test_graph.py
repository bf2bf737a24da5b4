"""Topology matrices: hand-checked examples plus structural properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from niformation import graph


def star_three_agents():
    """Agent 1 heads two edges, one per follower; agent 1 takes the reference."""
    return graph.build_topology(3, [(1, 2), (1, 3)], [1])


# ------------------------------------------------------------- construction

def test_star_matrices_match_hand_derivation():
    top = star_three_agents()
    np.testing.assert_array_equal(top.incidence, [[1.0, 1.0],
                                                  [-1.0, 0.0],
                                                  [0.0, -1.0]])
    np.testing.assert_array_equal(top.consensus, [[0.0, 0.0],
                                                  [-1.0, 0.0],
                                                  [0.0, -1.0]])
    np.testing.assert_array_equal(top.reference, [[1.0], [0.0], [0.0]])
    np.testing.assert_array_equal(top.heads, [0, 0])
    np.testing.assert_array_equal(top.tails, [1, 2])


def test_pair_topology():
    top = graph.build_topology(2, [(1, 2)], [1])
    np.testing.assert_array_equal(top.incidence, [[1.0], [-1.0]])
    np.testing.assert_array_equal(top.consensus, [[0.0], [-1.0]])
    np.testing.assert_array_equal(top.reference, [[1.0], [0.0]])


def test_single_agent_no_edges():
    top = graph.build_topology(1, [], [1])
    assert top.incidence.shape == (1, 0)
    assert top.consensus.shape == (1, 0)
    assert top.heads.shape == top.tails.shape == (0,)
    np.testing.assert_array_equal(top.reference, [[1.0]])


def test_chain_with_two_references():
    top = graph.build_topology(3, [(1, 2), (2, 3)], [1, 3])
    np.testing.assert_array_equal(top.reference, [[1.0], [0.0], [1.0]])
    assert top.reference_agents == (1, 3)


@pytest.mark.parametrize("n, edges, refs, match", [
    (0, [], [1], "at least one agent"),
    (3, [(2, 2)], [1], "self-loop"),
    (3, [(1, 2), (1, 2)], [1], "duplicates"),
    (3, [(1, 2), (2, 1)], [1], "duplicates"),
    (3, [(1, 4)], [1], "references agent 4"),
    (3, [(1, 2)], [], "reference agent"),
    (3, [(1, 2)], [5], "out of range"),
])
def test_invalid_topologies_are_rejected(n, edges, refs, match):
    with pytest.raises(ValueError, match=match):
        graph.build_topology(n, edges, refs)


# ----------------------------------------------------------------- laplacian
# incidence @ incidence.T is the Laplacian of the underlying undirected graph

def test_pair_laplacian():
    q = graph.build_topology(2, [(1, 2)], [1]).incidence
    np.testing.assert_array_equal(q @ q.T, [[1.0, -1.0],
                                            [-1.0, 1.0]])


def test_star_laplacian():
    q = star_three_agents().incidence
    lap = q @ q.T
    np.testing.assert_array_equal(lap, [[2.0, -1.0, -1.0],
                                        [-1.0, 1.0, 0.0],
                                        [-1.0, 0.0, 1.0]])


# -------------------------------------------------------------- kron_expand

def test_kron_expand_planar_blocks_match_hand_expansion():
    top = star_three_agents()
    sensing, actuation = graph.kron_expand(top, 2)
    # [incidence | reference] (x) I2, written out block by block
    expected_sensing = np.array([
        [1, 0, 1, 0, 1, 0],
        [0, 1, 0, 1, 0, 1],
        [-1, 0, 0, 0, 0, 0],
        [0, -1, 0, 0, 0, 0],
        [0, 0, -1, 0, 0, 0],
        [0, 0, 0, -1, 0, 0],
    ], dtype=float)
    expected_actuation = np.array([
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
        [-1, 0, 0, 0, 0, 0],
        [0, -1, 0, 0, 0, 0],
        [0, 0, -1, 0, 0, 0],
        [0, 0, 0, -1, 0, 0],
    ], dtype=float)
    np.testing.assert_array_equal(sensing, expected_sensing)
    np.testing.assert_array_equal(actuation, expected_actuation)


def test_kron_expand_with_one_coordinate_is_plain_stacking():
    top = star_three_agents()
    sensing, actuation = graph.kron_expand(top, 1)
    np.testing.assert_array_equal(sensing, np.hstack([top.incidence, top.reference]))
    np.testing.assert_array_equal(actuation, np.hstack([top.consensus, top.reference]))


def test_kron_expand_rejects_zero_coordinates():
    with pytest.raises(ValueError):
        graph.kron_expand(star_three_agents(), 0)


def test_sensing_transpose_produces_edge_differences():
    top = star_three_agents()
    sensing, _ = graph.kron_expand(top, 2)
    positions = np.array([10.0, 20.0, 3.0, 4.0, -5.0, 6.0])  # agents stacked (x, y)
    lifted = sensing.T @ positions
    # edge rows: head - tail per coordinate; reference row: agent 1
    np.testing.assert_allclose(lifted, [10.0 - 3.0, 20.0 - 4.0,
                                        10.0 + 5.0, 20.0 - 6.0,
                                        10.0, 20.0])


# --------------------------------------------------------------- properties

def random_topologies(draw):
    n = draw(st.integers(2, 8))
    possible = [(h, t) for h in range(1, n + 1) for t in range(1, n + 1) if h < t]
    chosen = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible)))
    oriented = [(h, t) if draw(st.booleans()) else (t, h) for h, t in chosen]
    refs = draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
    return n, oriented, refs


@given(st.builds(lambda d: d, st.data()))
@settings(max_examples=40, deadline=None)
def test_structural_properties(d):
    n, edges, refs = random_topologies(d.draw)
    top = graph.build_topology(n, edges, refs)

    # every incidence column sums to zero and has exactly one +1 and one -1
    if top.n_edges:
        np.testing.assert_allclose(top.incidence.sum(axis=0), 0.0)
        assert np.all(np.sort(np.abs(top.incidence), axis=0)[-2:, :] == 1.0)
    # consensus has exactly one -1 per column, at the tail
    for col, (_head, tail) in enumerate(top.edges):
        assert top.consensus[tail - 1, col] == -1.0
        assert np.count_nonzero(top.consensus[:, col]) == 1

    # the index arrays name each edge's head and tail rows
    np.testing.assert_array_equal(
        np.column_stack([top.heads, top.tails]) + 1,
        np.reshape(top.edges, (-1, 2)))
    cols = np.arange(top.n_edges)
    np.testing.assert_array_equal(top.incidence[top.heads, cols], 1.0)
    np.testing.assert_array_equal(top.incidence[top.tails, cols], -1.0)

    lap = top.incidence @ top.incidence.T
    np.testing.assert_allclose(lap, lap.T)
    np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)
    assert np.linalg.eigvalsh(lap).min() >= -1e-10


@given(st.builds(lambda d: d, st.data()))
@settings(max_examples=25, deadline=None)
def test_kron_expand_acts_blockwise(d):
    n, edges, refs = random_topologies(d.draw)
    m = d.draw(st.integers(1, 3))
    top = graph.build_topology(n, edges, refs)
    sensing, actuation = graph.kron_expand(top, m)

    rng = np.random.default_rng(d.draw(st.integers(0, 2**16)))
    stacked = rng.normal(size=n * m)
    per_agent = stacked.reshape(n, m)

    block = np.hstack([top.incidence, top.reference])
    np.testing.assert_allclose(sensing.T @ stacked, (block.T @ per_agent).ravel())
    gains = rng.normal(size=(top.n_edges + 1) * m)
    block_c = np.hstack([top.consensus, top.reference])
    np.testing.assert_allclose(actuation @ gains,
                               (block_c @ gains.reshape(-1, m)).ravel())
