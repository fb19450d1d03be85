import numpy as np
import numpy.testing as npt
import pytest

from minignn import tensor as T
from minignn.graph import Graph, batch
from minignn.layers import (BatchNorm, GatedGcnLayer, GcnLayer, GraphView,
                            Linear, Model, ModelConfig, interaction_encoding,
                            mean_pool)
from minignn.rng import Rng
from minignn.tensor import NumericsError, Tensor, backward, finite_diff_check
from minignn.cli import _random_graph


def simple_graph(num_nodes, edges, d_in=2, seed=0, **kwargs):
    return Graph(num_nodes=num_nodes, edges=np.array(edges).reshape(-1, 2),
                 node_features=Rng(seed).normals((num_nodes, d_in)), **kwargs)


# --- mean-aggregation messages ------------------------------------------------

def test_gcn_star_graph_mean_of_equal_vectors():
    # 4 leaves feeding the center; W = I, all-ones leaf features.
    edges = [(1, 0), (2, 0), (3, 0), (4, 0)]
    g = Graph(num_nodes=5, edges=np.array(edges), node_features=np.ones((5, 3)))
    layer = GcnLayer(3, Rng(1), encode_interactions=False)
    layer.W.data = np.eye(3)
    out = layer.forward(Tensor(g.node_features), GraphView(g), training=False)
    npt.assert_array_equal(out.data[0], np.ones(3))  # 4 * 0.25 * 1


def test_gcn_isolated_node_gets_zero():
    g = simple_graph(3, [(0, 1)], d_in=4)
    layer = GcnLayer(4, Rng(2), encode_interactions=False)
    out = layer.forward(Tensor(g.node_features), GraphView(g), training=False)
    npt.assert_array_equal(out.data[2], np.zeros(4))
    npt.assert_array_equal(out.data[0], np.zeros(4))  # no incoming edges either


def test_gcn_two_node_swap_with_identity_weights():
    g = simple_graph(2, [(0, 1), (1, 0)], d_in=3, seed=4)
    layer = GcnLayer(3, Rng(3), encode_interactions=True)
    layer.W.data = np.eye(3)
    layer.fc.weight.data = np.zeros_like(layer.fc.weight.data)
    layer.fc.bias.data = np.zeros_like(layer.fc.bias.data)
    out = layer.forward(Tensor(g.node_features), GraphView(g), training=False)
    npt.assert_array_equal(out.data[0], np.maximum(g.node_features[1], 0.0))
    npt.assert_array_equal(out.data[1], np.maximum(g.node_features[0], 0.0))


def test_gcn_messages_match_naive_loop():
    rng = Rng(11)
    g = _random_graph(6, rng.spawn("g"), False)
    d = 4
    layer = GcnLayer(d, rng.spawn("layer"), encode_interactions=False)
    h = rng.normals((6, d))
    out = layer.forward(Tensor(h), GraphView(g), training=False)
    expected = np.zeros((6, d))
    for u in range(6):
        nbrs = sorted(int(s) for s, dst in g.edges if dst == u)
        for v in nbrs:
            expected[u] += (h[v] @ layer.W.data) / len(nbrs)
    # summation order differs from the vectorized scatter-add
    npt.assert_allclose(out.data, np.maximum(expected, 0.0), atol=1e-12)


# --- interaction encoding -------------------------------------------------------

def test_encoding_single_neighbour_rest_is_zero():
    rng = Rng(5)
    d = 3
    fc = Linear(2 * d, d, rng)
    m = rng.normals((1, d))
    msg = Tensor(m)
    total = T.segment_sum(msg, np.array([0]), 1)
    enc = interaction_encoding(msg, total, fc, np.array([0]), 1)
    direct = np.concatenate([m, np.zeros((1, d))], axis=1) @ fc.weight.data + fc.bias.data
    npt.assert_allclose(enc.data, direct, atol=1e-15)


def test_zero_encoder_gives_zero_encoding():
    rng = Rng(6)
    d = 3
    fc = Linear(2 * d, d, rng)
    fc.weight.data[:] = 0.0
    fc.bias.data[:] = 0.0
    msg = Tensor(rng.normals((4, d)))
    dst = np.array([0, 0, 1, 1])
    total = T.segment_sum(msg, dst, 2)
    enc = interaction_encoding(msg, total, fc, dst, 2)
    npt.assert_array_equal(enc.data, np.zeros((2, d)))


def test_subtract_form_equals_direct_rest_sum():
    rng = Rng(7)
    d = 4
    fc = Linear(2 * d, d, rng)
    dst = np.array([0, 0, 0, 1, 1, 2])
    m = rng.normals((6, d))
    msg = Tensor(m)
    total = T.segment_sum(msg, dst, 3)
    enc = interaction_encoding(msg, total, fc, dst, 3)

    direct = np.zeros((3, d))
    for i in range(6):
        rest = sum((m[j] for j in range(6) if dst[j] == dst[i] and j != i),
                   np.zeros(d))
        row = np.concatenate([m[i], rest]).reshape(1, -1)
        direct[dst[i]] += (row @ fc.weight.data + fc.bias.data).reshape(-1)
    assert np.max(np.abs(enc.data - direct)) < 1e-12


# --- edge gating -----------------------------------------------------------------

def gated_setup(edges, n, d=3, seed=8):
    rng = Rng(seed)
    g = Graph(num_nodes=n, edges=np.array(edges),
              node_features=rng.normals((n, d)),
              edge_features=rng.normals((len(edges), d)))
    layer = GatedGcnLayer(d, rng.spawn("layer"), encode_interactions=True)
    return g, layer, rng


def _gates(layer, g):
    view = GraphView(g)
    h = Tensor(g.node_features)
    e = Tensor(g.edge_features)
    hu = T.gather_rows(h, view.dst)
    hv = T.gather_rows(h, view.src)
    e_can = T.gather_rows(e, view.edge_perm)
    e_pre = T.add(T.add(T.matmul(hu, layer.A), T.matmul(hv, layer.B)),
                  T.matmul(e_can, layer.C))
    sig = T.sigmoid(e_pre)
    denom = T.add(T.gather_rows(T.segment_sum(sig, view.dst, view.num_nodes), view.dst),
                  Tensor(np.full((view.num_edges, layer.d), layer.eps)))
    return T.mul(sig, T.powc(denom, -1.0)).data, view


def test_single_incoming_edge_gate_near_one():
    g, layer, _ = gated_setup([(0, 1)], 2)
    alpha, _ = _gates(layer, g)
    npt.assert_allclose(alpha[0], np.ones(3), atol=1e-5)


def test_identical_preactivations_share_gate_equally():
    # Nodes 0 and 1 identical, identical edge features into node 2.
    rng = Rng(9)
    x = rng.normals((1, 3))
    ef = rng.normals((1, 3))
    g = Graph(num_nodes=3, edges=np.array([(0, 2), (1, 2)]),
              node_features=np.concatenate([x, x, rng.normals((1, 3))]),
              edge_features=np.concatenate([ef, ef]))
    layer = GatedGcnLayer(3, rng.spawn("l"), encode_interactions=True)
    alpha, _ = _gates(layer, g)
    npt.assert_allclose(alpha[0], alpha[1], atol=0)
    npt.assert_allclose(alpha[0], 0.5 * np.ones(3), atol=1e-5)


def test_gate_sums_in_unit_interval():
    rng = Rng(10)
    g = _random_graph(7, rng.spawn("g"), True)
    g = Graph(num_nodes=g.num_nodes, edges=g.edges,
              node_features=rng.normals((g.num_nodes, 3)),
              edge_features=rng.normals((g.num_edges, 3)))
    layer = GatedGcnLayer(3, rng.spawn("l"), encode_interactions=True)
    alpha, view = _gates(layer, g)
    sums = np.zeros((g.num_nodes, 3))
    np.add.at(sums, view.dst.idx, alpha)
    present = view.in_deg > 0
    assert np.all(sums[present] > 0.0)
    assert np.all(sums[present] <= 1.0)


def test_gated_layer_rejects_bad_eps():
    with pytest.raises(ValueError, match="eps"):
        GatedGcnLayer(3, Rng(0), encode_interactions=True, eps=0.0)


# --- batch norm -------------------------------------------------------------------

def test_batchnorm_train_normalizes():
    rng = Rng(12)
    bn = BatchNorm(4)
    x = Tensor(rng.normals((50, 4)) * 3.0 + 2.0)
    out = bn(x, training=True)
    npt.assert_allclose(out.data.mean(axis=0), np.zeros(4), atol=1e-10)
    npt.assert_allclose(out.data.var(axis=0), np.ones(4), atol=1e-3)


def test_batchnorm_eval_uses_running_stats():
    bn = BatchNorm(2)
    bn.running_mean = np.array([1.0, -1.0])
    bn.running_var = np.array([4.0, 0.25])
    x = Tensor(np.array([[3.0, 0.0]]))
    out = bn(x, training=False)
    expected = (x.data - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
    npt.assert_allclose(out.data, expected, atol=1e-12)


# --- full layer and model properties ------------------------------------------------

@pytest.mark.parametrize("base,nlmi", [("gcn", False), ("gcn", True),
                                       ("gatedgcn", False), ("gatedgcn", True)])
def test_model_forward_deterministic(base, nlmi):
    rng = Rng(14)
    g = _random_graph(6, rng.spawn("g"), True)
    cfg = ModelConfig(task="node-class", base=base, nlmi=nlmi, k_layers=2,
                      width=4, d_in=3, d_edge=2)
    m1 = Model(cfg, Rng(5))
    m2 = Model(cfg, Rng(5))
    with T.no_grad():
        assert np.array_equal(m1.forward(g).data, m2.forward(g).data)


def test_permutation_equivariance_exact_layer():
    rng = Rng(15)
    g = _random_graph(7, rng.spawn("g"), True)
    cfg = ModelConfig(task="node-class", base="gatedgcn", nlmi=True,
                      k_layers=2, width=4, d_in=3, d_edge=2)
    model = Model(cfg, rng.spawn("m"))
    perm = np.array(rng.spawn("p").sample(7, 7))
    with T.no_grad():
        h0, _, _ = model.embeddings(g)
        h1, _, _ = model.embeddings(g.permute_nodes(perm))
    assert np.max(np.abs(h1.data[perm] - h0.data)) < 1e-12


def test_full_gated_layer_gradient_check():
    rng = Rng(16)
    g = _random_graph(5, rng.spawn("g"), True)
    cfg = ModelConfig(task="node-class", base="gatedgcn", nlmi=True,
                      k_layers=1, width=3, d_in=3, d_edge=2)
    model = Model(cfg, rng.spawn("m"))

    def f(_):
        h, _, _ = model.embeddings(g, training=False)
        return T.sum_all(T.mul(h, h))

    layer = model.layers[0]
    for p in (layer.A, layer.B, layer.C, layer.F, layer.fc.weight,
              layer.fc.bias, layer.bn.gamma, layer.bn.beta):
        assert finite_diff_check(f, p) < 1e-4


def test_batch_forward_equals_per_graph_concat():
    rng = Rng(18)
    graphs = [_random_graph(4 + i, rng.spawn(f"g{i}"), True) for i in range(3)]
    cfg = ModelConfig(task="node-class", base="gatedgcn", nlmi=True,
                      k_layers=2, width=4, d_in=3, d_edge=2)
    model = Model(cfg, rng.spawn("m"))
    with T.no_grad():
        hb, _, _ = model.embeddings(batch(graphs), training=False)
        singles = [model.embeddings(g, training=False)[0].data for g in graphs]
    npt.assert_allclose(hb.data, np.concatenate(singles, axis=0), atol=1e-12)


def test_zero_depth_model_is_readout_of_encoded_inputs():
    rng = Rng(19)
    g = _random_graph(5, rng.spawn("g"), False)
    cfg = ModelConfig(task="node-class", base="gcn", nlmi=False, k_layers=0,
                      width=4, d_in=3, n_classes=2)
    model = Model(cfg, rng.spawn("m"))
    with T.no_grad():
        pred = model.forward(g)
        h = model.node_encoder(Tensor(g.node_features))
        expected = model.head(h, GraphView(g))
    npt.assert_array_equal(pred.data, expected.data)


@pytest.mark.parametrize("base,task", [("gcn", "node-class"), ("gatedgcn", "edge-pred"),
                                       ("gatedgcn", "graph-class")])
def test_reused_view_gives_the_graphs_forward_and_gradients(base, task):
    rng = Rng(23)
    g = batch([_random_graph(n, rng.spawn(f"g/{n}"), True) for n in (5, 6)])
    cfg = ModelConfig(task=task, base=base, nlmi=True, k_layers=2, width=4, d_in=3,
                      d_edge=2)
    model = Model(cfg, rng.spawn("m"))
    view = GraphView(g)
    runs = []
    for arg in (g, view, view):  # the second forward of the view reuses its cached indices
        model.zero_grads()
        pred = model.forward(arg, training=True)
        backward(T.sum_all(T.mul(pred, pred)))
        runs.append((pred.data, [p.grad for p in model.params().values()]))
    for pred, grads in runs[1:]:
        assert np.array_equal(pred, runs[0][0])
        assert all(np.array_equal(a, b) for a, b in zip(grads, runs[0][1]))


def test_nan_input_fails_with_layer_index():
    rng = Rng(20)
    g = _random_graph(4, rng.spawn("g"), False)
    cfg = ModelConfig(task="node-class", base="gcn", nlmi=True, k_layers=2,
                      width=4, d_in=3)
    model = Model(cfg, rng.spawn("m"))
    model.layers[1].W.data[0, 0] = np.nan
    with pytest.raises(NumericsError, match="layer 1"):
        with T.no_grad():
            model.forward(g)


# --- readout heads ----------------------------------------------------------------

def test_mean_pool_of_identical_embeddings():
    g = simple_graph(4, [(0, 1)], d_in=2)
    h = Tensor(np.tile(np.array([[1.5, -2.0]]), (4, 1)))
    pooled = mean_pool(h, GraphView(g))
    npt.assert_allclose(pooled.data, [[1.5, -2.0]], atol=1e-15)


def test_mean_pool_single_node_identity():
    g = Graph(num_nodes=1, edges=np.zeros((0, 2)), node_features=np.ones((1, 3)))
    h = Tensor(np.array([[0.2, -0.4, 7.0]]))
    pooled = mean_pool(h, GraphView(g))
    npt.assert_array_equal(pooled.data, h.data)


def test_edge_head_scores_follow_stored_direction():
    rng = Rng(22)
    g = _random_graph(5, rng.spawn("g"), True)
    cfg = ModelConfig(task="edge-pred", base="gatedgcn", nlmi=True, k_layers=1,
                      width=4, d_in=3, d_edge=2)
    model = Model(cfg, rng.spawn("m"))
    with T.no_grad():
        h, _, view = model.embeddings(g)
        scores = model.head(h, view).data
        # recompute per stored edge: concat(h_src, h_dst) through the MLP
        for ei, (s, d) in enumerate(g.edges):
            row = np.concatenate([h.data[s], h.data[d]]).reshape(1, -1)
            hid = np.maximum(row @ model.head.lin1.weight.data
                             + model.head.lin1.bias.data, 0.0)
            expected = hid @ model.head.lin2.weight.data + model.head.lin2.bias.data
            npt.assert_allclose(scores[ei], expected.reshape(-1), atol=1e-12)


# --- checkpoints -------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    rng = Rng(25)
    g = _random_graph(6, rng.spawn("g"), True)
    cfg = ModelConfig(task="graph-reg", base="gatedgcn", nlmi=True, k_layers=2,
                      width=4, d_in=3, d_edge=2)
    model = Model(cfg, rng.spawn("m"))
    # push running stats away from their defaults
    with T.no_grad():
        model.embeddings(g, training=True)
    path = tmp_path / "ckpt.json"
    model.save(path)
    loaded = Model.load(path)
    with T.no_grad():
        npt.assert_array_equal(model.forward(g).data, loaded.forward(g).data)


def test_checkpoint_shape_mismatch_rejected(tmp_path):
    cfg = ModelConfig(task="graph-reg", base="gcn", nlmi=False, k_layers=1,
                      width=4, d_in=3)
    model = Model(cfg, Rng(1))
    state = model.state()
    state["params"]["node_encoder.weight"] = [[0.0]]
    with pytest.raises(ValueError, match="shape mismatch"):
        model.load_state(state)


@pytest.mark.parametrize("base, section, key", [
    ("gcn", "params", "head.lin1.weight"),
    ("gatedgcn", "stats", "layers.0.running_var"),
])
def test_checkpoint_missing_key_rejected(base, section, key):
    cfg = ModelConfig(task="node-class", base=base, nlmi=True, k_layers=1,
                      width=4, d_in=3, d_edge=2)
    state = Model(cfg, Rng(1)).state()
    del state[section][key]
    with pytest.raises(ValueError, match=rf"missing \['{key}'\]"):
        Model(cfg, Rng(2)).load_state(state)


def test_checkpoint_unknown_key_rejected():
    cfg = ModelConfig(task="graph-reg", base="gcn", nlmi=False, k_layers=1,
                      width=4, d_in=3)
    model = Model(cfg, Rng(1))
    state = model.state()
    state["params"]["layers.3.W"] = [[0.0]]
    with pytest.raises(ValueError, match=r"unknown \['layers.3.W'\]"):
        model.load_state(state)
