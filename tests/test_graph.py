import numpy as np
import numpy.testing as npt
import pytest

from minignn.graph import Graph, add_self_loops, batch, unbatch
from minignn.rng import Rng


def make_graph(num_nodes, edges, d=2, seed=0, **kwargs):
    rng = Rng(seed)
    return Graph(num_nodes=num_nodes, edges=np.array(edges).reshape(-1, 2),
                 node_features=rng.normals((num_nodes, d)), **kwargs)


def graphs_equal(a: Graph, b: Graph) -> bool:
    if a.num_nodes != b.num_nodes or not np.array_equal(a.edges, b.edges):
        return False
    if not np.array_equal(a.node_features, b.node_features):
        return False
    for attr in ("edge_features", "node_labels", "edge_labels"):
        va, vb = getattr(a, attr), getattr(b, attr)
        if (va is None) != (vb is None):
            return False
        if va is not None and not np.array_equal(va, vb):
            return False
    return a.graph_label == b.graph_label


def test_edge_endpoint_validation():
    with pytest.raises(ValueError, match="out of range"):
        make_graph(2, [(0, 2)])


def test_feature_row_validation():
    with pytest.raises(ValueError):
        Graph(num_nodes=3, edges=np.zeros((0, 2)), node_features=np.zeros((2, 1)))


def test_batch_single_roundtrip():
    g = make_graph(3, [(0, 1), (1, 2)], node_labels=np.array([0, 1, 0]))
    out = unbatch(batch([g]))
    assert len(out) == 1 and graphs_equal(out[0], g)


def test_batch_offsets():
    g1 = make_graph(3, [(0, 1)])
    g2 = make_graph(4, [(0, 1), (2, 3)])
    b = batch([g1, g2])
    assert b.num_nodes == 7
    npt.assert_array_equal(b.edges, [[0, 1], [3, 4], [5, 6]])
    npt.assert_array_equal(b.graph_id, [0, 0, 0, 1, 1, 1, 1])


def test_batch_roundtrip_many():
    rng = Rng(5)
    graphs = []
    for i in range(6):
        n = 2 + rng.randint(5)
        edges = [(u, v) for u in range(n) for v in range(n)
                 if u != v and rng.uniform() < 0.4]
        if not edges:
            edges = [(0, 1)]
        graphs.append(make_graph(n, edges, seed=i,
                                 node_labels=np.arange(n) % 2,
                                 edge_labels=np.zeros(len(edges), dtype=np.int64)))
    out = unbatch(batch(graphs))
    assert all(graphs_equal(a, b) for a, b in zip(graphs, out))


def test_batch_block_diagonal():
    g1 = make_graph(3, [(0, 1)])
    g2 = make_graph(4, [(0, 1)])
    b = batch([g1, g2])
    for s, d in b.edges:
        assert b.graph_id[s] == b.graph_id[d]


def test_batch_rejects_mixed_fields():
    g1 = make_graph(2, [(0, 1)], edge_features=np.ones((1, 1)))
    g2 = make_graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="mixed presence"):
        batch([g1, g2])


def test_add_self_loops():
    g = make_graph(3, [(0, 1)], edge_features=np.ones((1, 2)))
    g2 = add_self_loops(g)
    assert g2.num_edges == 4
    npt.assert_array_equal(g2.edges[1:], [[0, 0], [1, 1], [2, 2]])
    npt.assert_array_equal(g2.edge_features[1:], np.zeros((3, 2)))
    assert g.num_edges == 1  # original untouched


def test_permute_nodes_roundtrip():
    g = make_graph(5, [(0, 1), (3, 2), (4, 0)], node_labels=np.arange(5))
    perm = np.array([2, 0, 4, 1, 3])
    pg = g.permute_nodes(perm)
    npt.assert_array_equal(pg.node_features[perm], g.node_features)
    npt.assert_array_equal(pg.node_labels[perm], g.node_labels)
    npt.assert_array_equal(pg.edges, perm[g.edges])
