import gc
import json
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from minignn import tensor as T
from minignn.graph import Graph, batch
from minignn.layers import (BN_EPS, GATE_EPS, BatchNorm, GatedGcnLayer, GcnLayer, Linear,
                            Model, ModelConfig, interaction_encoding, mean_pool)
from minignn.rng import Rng
from minignn.tensor import NumericsError, Tensor, backward, finite_diff_check
from minignn.verify import _random_graph


def degrees(dst, n):
    """interaction_encoding's degree columns, 1 / max(k, 1) and the in-degree k."""
    deg = np.bincount(dst, minlength=n).astype(float)[:, None]
    return Tensor(1.0 / np.maximum(deg, 1.0)), Tensor(deg)


def subtract_form_encoding(msg, total, fc, dst, num_nodes):
    """The interaction encoding edge by edge: each message m is encoded as
    fc(concat(m, total_at_dst - m)) on an (E, 2d) row, then summed per node."""
    rest = T.sub(T.gather_rows(total, dst), msg)
    return T.segment_sum(fc(T.concat_cols(msg, rest)), dst, num_nodes)


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
    out = layer.forward(Tensor(g.node_features), batch([g]), training=False)
    npt.assert_array_equal(out.data[0], np.ones(3))  # 4 * 0.25 * 1


def test_gcn_isolated_node_gets_zero():
    g = simple_graph(3, [(0, 1)], d_in=4)
    layer = GcnLayer(4, Rng(2), encode_interactions=False)
    out = layer.forward(Tensor(g.node_features), batch([g]), training=False)
    npt.assert_array_equal(out.data[2], np.zeros(4))
    npt.assert_array_equal(out.data[0], np.zeros(4))  # no incoming edges either


def test_gcn_two_node_swap_with_identity_weights():
    g = simple_graph(2, [(0, 1), (1, 0)], d_in=3, seed=4)
    layer = GcnLayer(3, Rng(3), encode_interactions=True)
    layer.W.data = np.eye(3)
    layer.fc.weight.data = np.zeros_like(layer.fc.weight.data)
    layer.fc.bias.data = np.zeros_like(layer.fc.bias.data)
    out = layer.forward(Tensor(g.node_features), batch([g]), training=False)
    npt.assert_array_equal(out.data[0], np.maximum(g.node_features[1], 0.0))
    npt.assert_array_equal(out.data[1], np.maximum(g.node_features[0], 0.0))


def test_gcn_messages_match_naive_loop():
    rng = Rng(11)
    g = _random_graph(6, rng.spawn("g"), False)
    d = 4
    layer = GcnLayer(d, rng.spawn("layer"), encode_interactions=False)
    h = rng.normals((6, d))
    out = layer.forward(Tensor(h), batch([g]), training=False)
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
    enc = interaction_encoding(total, fc, *degrees(np.array([0]), 1))
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
    enc = interaction_encoding(total, fc, *degrees(dst, 2))
    npt.assert_array_equal(enc.data, np.zeros((2, d)))


def test_subtract_form_equals_direct_rest_sum():
    rng = Rng(7)
    d = 4
    fc = Linear(2 * d, d, rng)
    dst = np.array([0, 0, 0, 1, 1, 2])
    m = rng.normals((6, d))
    msg = Tensor(m)
    total = T.segment_sum(msg, dst, 3)
    enc = interaction_encoding(total, fc, *degrees(dst, 3))

    direct = np.zeros((3, d))
    for i in range(6):
        rest = sum((m[j] for j in range(6) if dst[j] == dst[i] and j != i),
                   np.zeros(d))
        row = np.concatenate([m[i], rest]).reshape(1, -1)
        direct[dst[i]] += (row @ fc.weight.data + fc.bias.data).reshape(-1)
    assert np.max(np.abs(enc.data - direct)) < 1e-12


@pytest.mark.parametrize("as_rows", [False, True])
def test_closed_form_encoding_matches_the_subtract_form(as_rows):
    rng = Rng(30)
    d, n = 4, 5
    # in-degrees: node 0 three, node 1 one, node 2 none, node 3 two, node 4 none
    dst = np.array([0, 3, 1, 0, 3, 0])
    index = T.Rows(dst, n) if as_rows else dst
    m0 = rng.normals((len(dst), d))
    fc = Linear(2 * d, d, rng.spawn("fc"))
    weights = Tensor(rng.normals((n, d)))
    runs = []
    for encode in (lambda msg, total: interaction_encoding(total, fc, *degrees(dst, n)),
                   lambda msg, total: subtract_form_encoding(msg, total, fc, index, n)):
        msg = Tensor(m0.copy(), requires_grad=True)
        fc.weight.zero_grad()
        fc.bias.zero_grad()
        total = T.segment_sum(msg, index, n)  # msg's gradient flows through total too
        enc = encode(msg, total)
        backward(T.sum_all(T.mul(enc, weights)))
        runs.append((enc.data, msg.grad, fc.weight.grad, fc.bias.grad))
    for closed, reference in zip(*runs):
        npt.assert_allclose(closed, reference, rtol=0, atol=1e-12)
    npt.assert_array_equal(runs[0][0][[2, 4]], 0.0)


@pytest.mark.parametrize("base", ["gcn", "gatedgcn"])
def test_nlmi_creates_no_edge_row_tensor(base, monkeypatch):
    rng = Rng(31)
    g = _random_graph(9, rng.spawn("g"), True)
    view = batch([g])
    assert view.num_edges != view.num_nodes
    h = Tensor(rng.normals((9, 4)), requires_grad=True)
    e = Tensor(rng.normals((g.num_edges, 4)), requires_grad=True)
    rows = {}
    for nlmi in (False, True):
        if base == "gcn":
            layer = GcnLayer(4, Rng(32), encode_interactions=nlmi)
        else:
            layer = GatedGcnLayer(4, Rng(32), encode_interactions=nlmi)
        made = rows[nlmi] = []
        record = T._record

        def counting(out, inputs, backward_fn, _made=made, _record=record):
            _made.append(out.shape[0] if out.data.ndim else None)
            return _record(out, inputs, backward_fn)

        monkeypatch.setattr(T, "_record", counting)
        if base == "gcn":
            layer.forward(h, view, training=True)
        else:
            layer.forward(h, e, view, training=True)
        monkeypatch.undo()
    assert len(rows[True]) > len(rows[False])  # the encoding ran
    assert rows[True].count(view.num_edges) == rows[False].count(view.num_edges)


@pytest.mark.parametrize("base,edge_rows", [("gcn", 1), ("gatedgcn", 6)])
def test_layer_forward_makes_few_edge_row_tensors(base, edge_rows, monkeypatch):
    # Edges stay in canonical order and degrees on the view, so a layer gathers
    # only node rows: no edge permutation and no per-edge degree or normaliser.
    # A gated layer reads h B and h F through the source index, in add and mul.
    rng = Rng(33)
    g = _random_graph(9, rng.spawn("g"), True)
    view = batch([g])
    assert view.num_edges != view.num_nodes
    h = Tensor(rng.normals((9, 4)), requires_grad=True)
    e = Tensor(rng.normals((g.num_edges, 4)), requires_grad=True)
    if base == "gcn":
        layer = GcnLayer(4, Rng(34), encode_interactions=True)
    else:
        layer = GatedGcnLayer(4, Rng(34), encode_interactions=True)
    made, gathered = [], []
    record, gather = T._record, T.gather_rows

    def counting(out, inputs, backward_fn):
        made.append(out.shape[0] if out.data.ndim else None)
        return record(out, inputs, backward_fn)

    def gathering(a, idx):
        gathered.append(a.shape[0])
        return gather(a, idx)

    monkeypatch.setattr(T, "_record", counting)
    monkeypatch.setattr(T, "gather_rows", gathering)
    if base == "gcn":
        layer.forward(h, view, training=True)
    else:
        layer.forward(h, e, view, training=True)
    monkeypatch.undo()
    assert made.count(view.num_edges) == edge_rows
    assert gathered and view.num_edges not in gathered


@pytest.mark.parametrize("base,nlmi", [("gcn", False), ("gcn", True),
                                       ("gatedgcn", False), ("gatedgcn", True)])
def test_model_forward_computes_no_dead_tensor(base, nlmi, monkeypatch):
    # Every tensor the forward links into the autograd graph feeds the output;
    # in particular the last gated layer builds no edge update. Every parameter
    # feeds it too, so a layer that does not encode holds no encoder, and a
    # model with no layer holds no edge encoder.
    rng = Rng(35)
    g = _random_graph(9, rng.spawn("g"), True)
    record = T._record
    for k_layers in (2, 0):
        cfg = ModelConfig(task="node-class", base=base, nlmi=nlmi, k_layers=k_layers,
                          width=4, d_in=3, d_edge=2)
        model = Model(cfg, rng.spawn("m"))
        linked = []

        def recording(out, inputs, backward_fn, _linked=linked):
            out = record(out, inputs, backward_fn)
            if out.requires_grad:
                _linked.append(out)
            return out

        monkeypatch.setattr(T, "_record", recording)
        pred = model.forward(g, training=True)
        monkeypatch.undo()
        reached, stack = {pred.node}, [pred.node]
        while stack:
            for inp in stack.pop().inputs:
                if inp is not None and inp not in reached:
                    reached.add(inp)
                    if isinstance(inp, T.Node):
                        stack.append(inp)
        assert pred in linked
        assert [t.shape for t in linked if t.node not in reached] == []
        assert [key for key, p in model.params().items() if p not in reached] == []


def test_training_forward_keeps_two_edge_row_arrays_per_gated_layer(monkeypatch):
    # The graph holds no op output, and a backward rule keeps only what it reads.
    # Per gated layer that is sig (the sigmoid's and the message product's rules)
    # and the layer's input e (e @ C's). The message product reads F h through
    # the source index, so it keeps F h's node rows, not their gathered copy.
    rng = Rng(36)
    view = batch([_random_graph(9, rng.spawn("g"), True)])
    assert view.num_edges != view.num_nodes
    cfg = ModelConfig(task="node-class", base="gatedgcn", nlmi=True, k_layers=2, width=4,
                      d_in=3, d_edge=2)
    model = Model(cfg, rng.spawn("m"))
    edge_rows = []
    record = T._record

    def watching(out, inputs, backward_fn):
        if out.data.ndim and out.shape[0] == view.num_edges:
            edge_rows.append(weakref.ref(out.data))
        return record(out, inputs, backward_fn)

    monkeypatch.setattr(T, "_record", watching)
    pred = model.forward(view, training=True)
    monkeypatch.undo()
    loss = T.sum_all(pred)
    del pred
    gc.collect()
    assert len(edge_rows) > 6
    assert sum(ref() is not None for ref in edge_rows) == 2 * cfg.k_layers


def test_no_grad_propagate_frees_an_edge_pre_activation_before_the_next_layer():
    rng = Rng(37)
    view = batch([_random_graph(9, rng.spawn("g"), True)])
    cfg = ModelConfig(task="node-class", base="gatedgcn", nlmi=True, k_layers=2, width=4,
                      d_in=3, d_edge=2)
    model = Model(cfg, rng.spawn("m"))
    first, second = model.layers
    e_pre, alive = [], []

    def first_forward(*args, _forward=first.forward):
        h, e = _forward(*args)
        e_pre.append(weakref.ref(e.data))
        return h, e

    def second_forward(*args, _forward=second.forward):
        alive.append(e_pre[0]() is not None)
        return _forward(*args)

    first.forward, second.forward = first_forward, second_forward
    with T.no_grad():
        model.forward(view)
    assert alive == [False]


# --- edge gating -----------------------------------------------------------------

def gated_setup(edges, n, d=3, seed=8):
    rng = Rng(seed)
    g = Graph(num_nodes=n, edges=np.array(edges),
              node_features=rng.normals((n, d)),
              edge_features=rng.normals((len(edges), d)))
    layer = GatedGcnLayer(d, rng.spawn("layer"), encode_interactions=True)
    return g, layer, rng


def _gates(layer, g):
    view = batch([g])
    h = Tensor(g.node_features)
    e = Tensor(g.edge_features)
    hu = T.gather_rows(h, view.dst)
    hv = T.gather_rows(h, view.src)
    e_can = T.gather_rows(e, view.edge_perm)
    e_pre = T.add(T.add(T.matmul(hu, layer.A), T.matmul(hv, layer.B)),
                  T.matmul(e_can, layer.C))
    sig = T.sigmoid(e_pre)
    denom = T.add(T.gather_rows(T.segment_sum(sig, view.dst, view.num_nodes), view.dst),
                  Tensor(np.full((view.num_edges, layer.A.shape[0]), GATE_EPS)))
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
    present = view.in_deg.data[:, 0] > 0
    assert np.all(sums[present] > 0.0)
    assert np.all(sums[present] <= 1.0)


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
    bn.running_mean.data = np.array([1.0, -1.0])
    bn.running_var.data = np.array([4.0, 0.25])
    x = Tensor(np.array([[3.0, 0.0]]))
    out = bn(x, training=False)
    expected = (x.data - bn.running_mean.data) / np.sqrt(bn.running_var.data + BN_EPS)
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
        h0, _ = model.embeddings(g)
        h1, _ = model.embeddings(g.permute_nodes(perm))
    assert np.max(np.abs(h1.data[perm] - h0.data)) < 1e-12


def test_full_gated_layer_gradient_check():
    rng = Rng(16)
    g = _random_graph(5, rng.spawn("g"), True)
    cfg = ModelConfig(task="node-class", base="gatedgcn", nlmi=True,
                      k_layers=1, width=3, d_in=3, d_edge=2)
    model = Model(cfg, rng.spawn("m"))

    def f(_):
        h, _ = model.embeddings(g, training=False)
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
        hb, _ = model.embeddings(batch(graphs), training=False)
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
        expected = model.head(h, batch([g]))
    npt.assert_array_equal(pred.data, expected.data)


@pytest.mark.parametrize("base,task", [("gcn", "node-class"), ("gatedgcn", "edge-pred"),
                                       ("gatedgcn", "graph-class")])
def test_reused_view_gives_the_graphs_forward_and_gradients(base, task):
    rng = Rng(23)
    graphs = [_random_graph(n, rng.spawn(f"g/{n}"), True) for n in (5, 6)]
    cfg = ModelConfig(task=task, base=base, nlmi=True, k_layers=2, width=4, d_in=3,
                      d_edge=2)
    model = Model(cfg, rng.spawn("m"))
    view = batch(graphs)
    runs = []
    for arg in (batch(graphs), view, view):  # the view's second forward reuses its cached indices
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
    pooled = mean_pool(h, batch([g]))
    npt.assert_allclose(pooled.data, [[1.5, -2.0]], atol=1e-15)


def test_mean_pool_single_node_identity():
    g = Graph(num_nodes=1, edges=np.zeros((0, 2)), node_features=np.ones((1, 3)))
    h = Tensor(np.array([[0.2, -0.4, 7.0]]))
    pooled = mean_pool(h, batch([g]))
    npt.assert_array_equal(pooled.data, h.data)


def test_edge_head_scores_follow_stored_direction():
    rng = Rng(22)
    g = _random_graph(5, rng.spawn("g"), True)
    cfg = ModelConfig(task="edge-pred", base="gatedgcn", nlmi=True, k_layers=1,
                      width=4, d_in=3, d_edge=2)
    model = Model(cfg, rng.spawn("m"))
    with T.no_grad():
        h, view = model.embeddings(g)
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
    path.write_text(json.dumps(model.state()))  # as minignn train writes it
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


def test_checkpoint_stat_shape_mismatch_rejected_before_any_load():
    cfg = ModelConfig(task="node-class", base="gatedgcn", nlmi=True, k_layers=2,
                      width=4, d_in=3, d_edge=2)
    state = Model(cfg, Rng(1)).state()
    state["stats"]["layers.1.running_var"] = [1.0, 1.0]
    model = Model(cfg, Rng(2))
    before = model.state()
    with pytest.raises(ValueError, match=r"shape mismatch for layers\.1\.running_var"):
        model.load_state(state)
    assert model.state() == before


@pytest.mark.parametrize("terms,nlmi", [((False, False, False), True),
                                        ((False, False, True), False),
                                        ((True, False, False), True),
                                        ((True, False, True), False)])
def test_config_selecting_no_node_update_term_rejected(terms, nlmi):
    with pytest.raises(ValueError, match="no node-update term"):
        ModelConfig(task="node-class", base="gatedgcn", nlmi=nlmi, terms=terms)


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
