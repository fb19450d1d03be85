import numpy as np
import numpy.testing as npt
import pytest

from minignn.generators import GENERATORS
from minignn.graph import TASK_LABELS, TASKS, Graph, batch
from minignn.layers import HEADS
from minignn.rng import Rng
from minignn.training import TASK_LOSSES, labels_of


def make_graph(num_nodes, edges, d=2, seed=0, **kwargs):
    rng = Rng(seed)
    return Graph(num_nodes=num_nodes, edges=np.array(edges).reshape(-1, 2),
                 node_features=rng.normals((num_nodes, d)), **kwargs)


def assert_batch_holds(b, graphs):
    """Each graph's rows are a slice of the batch, its edges shifted by its node offset."""
    assert b.num_graphs == len(graphs)
    assert b.num_nodes == sum(g.num_nodes for g in graphs)
    assert b.num_edges == sum(g.num_edges for g in graphs)
    n0 = e0 = 0
    for i, g in enumerate(graphs):
        n1, e1 = n0 + g.num_nodes, e0 + g.num_edges
        npt.assert_array_equal(b.edges[e0:e1] - n0, g.edges)
        npt.assert_array_equal(b.node_features[n0:n1], g.node_features)
        npt.assert_array_equal(b.graph_id.idx[n0:n1], np.full(g.num_nodes, i))
        if g.edge_features is None:
            assert b.edge_features is None
        else:
            npt.assert_array_equal(b.edge_features[e0:e1], g.edge_features)
        # labels stay on the graphs; labels_of lines them up with the batch's rows
        for attr, task, lo, hi in (("node_labels", "node-class", n0, n1),
                                   ("edge_labels", "edge-pred", e0, e1)):
            if getattr(g, attr) is not None:
                npt.assert_array_equal(labels_of(graphs, task)[lo:hi], getattr(g, attr))
        if g.graph_label is not None:
            assert labels_of(graphs, "graph-class")[i] == g.graph_label
        n0, e0 = n1, e1


def test_edge_endpoint_validation():
    with pytest.raises(ValueError, match="out of range"):
        make_graph(2, [(0, 2)])


@pytest.mark.parametrize("field,values", [
    ("edges", [[0, 1], [1, 0.5]]),
    ("node_labels", [0, 0.7, 1]),
    ("edge_labels", [1.9, 0]),
    ("node_labels", [0, np.nan, 1]),
])
def test_fractional_integer_fields_are_rejected(field, values):
    kwargs = {"edges": [[0, 1], [1, 0]], field: values}
    with pytest.raises(ValueError, match=f"{field} must hold integers"):
        Graph(num_nodes=3, node_features=np.zeros((3, 1)), **kwargs)


def test_integral_floats_load_as_int64():
    g = Graph(num_nodes=3, edges=np.array([[0.0, 1.0], [1.0, 0.0]]),
              node_features=np.zeros((3, 1)), node_labels=[0.0, 2.0, 1.0],
              edge_labels=np.array([True, False]))
    for values in (g.edges, g.node_labels, g.edge_labels):
        assert values.dtype == np.int64
    assert g.node_labels.tolist() == [0, 2, 1] and g.edge_labels.tolist() == [1, 0]
    assert Graph(num_nodes=1, edges=[], node_features=np.zeros((1, 1))).edges.shape == (0, 2)


@pytest.mark.parametrize("edges", [[[0, 1, 2, 3]], np.zeros((2, 1, 2)), [0, 1]],
                         ids=["one-row-of-four", "three-d", "flat-pair"])
def test_edges_must_be_src_dst_pairs(edges):
    # never reshaped into other edges, e.g. [[0, 1, 2, 3]] into [[0, 1], [2, 3]]
    with pytest.raises(ValueError, match=r"edges must be a list of \[src, dst\] pairs, got shape"):
        Graph(num_nodes=4, edges=edges, node_features=np.zeros((4, 1)))


def test_feature_row_validation():
    with pytest.raises(ValueError):
        Graph(num_nodes=3, edges=np.zeros((0, 2)), node_features=np.zeros((2, 1)))


def test_batch_single_roundtrip():
    g = make_graph(3, [(0, 1), (1, 2)], node_labels=np.array([0, 1, 0]))
    assert_batch_holds(batch([g]), [g])


def test_batch_offsets():
    g1 = make_graph(3, [(0, 1)])
    g2 = make_graph(4, [(0, 1), (2, 3)])
    b = batch([g1, g2])
    assert b.num_nodes == 7
    npt.assert_array_equal(b.edges, [[0, 1], [3, 4], [5, 6]])
    npt.assert_array_equal(b.graph_id.idx, [0, 0, 0, 1, 1, 1, 1])


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
                                 edge_features=rng.normals((len(edges), 3)),
                                 node_labels=np.arange(n) % 2,
                                 edge_labels=np.arange(len(edges)) % 2,
                                 graph_label=i % 3))
    assert_batch_holds(batch(graphs), graphs)


def test_batch_block_diagonal():
    g1 = make_graph(3, [(0, 1)])
    g2 = make_graph(4, [(0, 1)])
    b = batch([g1, g2])
    for s, d in b.edges:
        assert b.graph_id.idx[s] == b.graph_id.idx[d]


def test_batch_rejects_mixed_fields():
    g1 = make_graph(2, [(0, 1)], edge_features=np.ones((1, 1)))
    g2 = make_graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="mixed presence"):
        batch([g1, g2])


def test_permute_nodes_roundtrip():
    g = make_graph(5, [(0, 1), (3, 2), (4, 0)], node_labels=np.arange(5))
    perm = np.array([2, 0, 4, 1, 3])
    pg = g.permute_nodes(perm)
    npt.assert_array_equal(pg.node_features[perm], g.node_features)
    npt.assert_array_equal(pg.node_labels[perm], g.node_labels)
    npt.assert_array_equal(pg.edges, perm[g.edges])


def test_every_task_table_covers_the_same_tasks():
    # a task missing from one table would fail only deep inside a run
    assert set(TASK_LABELS) == set(TASK_LOSSES) == set(HEADS) == set(TASKS)
    assert {task for _, task in GENERATORS.values()} == set(TASKS)
