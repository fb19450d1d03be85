"""Independent reference computations for checking the vectorized layers.

``naive_forward_oracle`` re-runs a model's forward pass (eval mode) as
literal per-node, per-neighbour loops in plain numpy, recomputing each
rest-of-neighbourhood sum directly instead of using the closed form. The
harnesses below compare the vectorized path against this oracle, against
node permutations, and against the base layers when the interaction
encoder is zeroed. ``subtract_form_encoding`` is the interaction encoding
edge by edge, a differentiable reference for the closed form, and
``gradcheck_variant`` finite-difference checks one layer variant on a
random graph.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .generators import random_edges
from .graph import Graph, batch
from .layers import BN_EPS, GATE_EPS, GatedGcnLayer, GcnLayer, Linear, Model, ModelConfig
from .rng import Rng
from . import tensor as T
from .tensor import Tensor

VARIANTS = {
    "gcn": ("gcn", False),
    "nlmi-gcn": ("gcn", True),
    "gatedgcn": ("gatedgcn", False),
    "nlmi-gatedgcn": ("gatedgcn", True),
}


def _random_graph(n: int, rng: Rng, with_edge_features: bool) -> Graph:
    edges = random_edges(n, 0.5, rng)
    if not len(edges):
        edges = np.array([[0, 1], [1, 0]], dtype=np.int64)
    return Graph(
        num_nodes=n,
        edges=edges,
        node_features=rng.normals((n, 3)),
        edge_features=rng.normals((len(edges), 2)) if with_edge_features else None,
    )


def gradcheck_variant(variant: str, d: int, n_nodes: int, seed: int,
                      h: float = 1e-5) -> float:
    """Max relative finite-difference error over all parameters of one variant."""
    base, nlmi = VARIANTS[variant]
    rng = Rng(seed)
    g = _random_graph(n_nodes, rng.spawn("graph"), with_edge_features=base == "gatedgcn")
    config = ModelConfig(task="node-class", base=base, nlmi=nlmi, k_layers=1,
                         width=d, d_in=3, d_edge=2, n_classes=2)
    model = Model(config, rng.spawn("model"))
    view = batch([g])  # every forward of the check shares g's indices

    def f(_x, _model=model, _view=view):
        pred = _model.forward(_view, training=False)
        return T.sum_all(T.mul(pred, pred))

    worst = 0.0
    for p in model.params().values():
        worst = max(worst, T.finite_diff_check(f, p, h))
    return worst


def subtract_form_encoding(msg: Tensor, total: Tensor, fc: Linear,
                           dst: T.Rows | np.ndarray, num_nodes: int) -> Tensor:
    """The interaction encoding edge by edge: each message m is encoded as
    fc(concat(m, total_at_dst - m)) on an (E, 2d) row, then summed per node."""
    rest = T.sub(T.gather_rows(total, dst), msg)
    return T.segment_sum(fc(T.concat_cols(msg, rest)), dst, num_nodes)


def _neighbours(g: Graph) -> list[list[tuple[int, int]]]:
    """Incoming (source, edge_index) pairs per node, sorted by source id."""
    inc: list[list[tuple[int, int]]] = [[] for _ in range(g.num_nodes)]
    for ei, (s, d) in enumerate(g.edges):
        inc[d].append((int(s), ei))
    for lst in inc:
        lst.sort()
    return inc


def _affine(x: np.ndarray, lin) -> np.ndarray:
    return x @ lin.weight.data + lin.bias.data


def _naive_encoding(msgs: list[np.ndarray], fc: Linear) -> np.ndarray:
    """Sum over neighbours i of fc(concat(m_i, rest_i)), with each rest sum
    rest_i = sum of m_j over j != i built by a literal loop."""
    enc = np.zeros_like(fc.bias.data)
    for i in range(len(msgs)):
        rest = np.zeros_like(enc)
        for j in range(len(msgs)):
            if j != i:
                rest = rest + msgs[j]
        enc = enc + _affine(np.concatenate([msgs[i], rest]).reshape(1, -1), fc).reshape(-1)
    return enc


def _gcn_layer_naive(h: np.ndarray, g: Graph, layer: GcnLayer) -> np.ndarray:
    inc = _neighbours(g)
    W = layer.W.data
    out = np.zeros_like(h)
    for u in range(g.num_nodes):
        nbrs = [s for s, _ in inc[u]]
        if not nbrs:
            continue
        msgs = [(1.0 / len(nbrs)) * (h[v] @ W) for v in nbrs]
        total = np.zeros(h.shape[1])
        for m in msgs:
            total = total + m
        if layer.fc is not None:
            total = total + _naive_encoding(msgs, layer.fc)
        out[u] = total
    return np.maximum(out, 0.0)


def _gated_layer_naive(h: np.ndarray, e: np.ndarray, g: Graph,
                       layer: GatedGcnLayer) -> tuple[np.ndarray, np.ndarray]:
    inc = _neighbours(g)
    A, B, C, F = layer.A.data, layer.B.data, layer.C.data, layer.F.data
    d = h.shape[1]
    e_pre = np.zeros_like(e)
    for ei, (s, dn) in enumerate(g.edges):
        e_pre[ei] = h[dn] @ A + h[s] @ B + e[ei] @ C
    sig = 1.0 / (1.0 + np.exp(-e_pre))

    use_self, use_msg, _ = layer.terms
    pre = np.zeros_like(h)
    for u in range(g.num_nodes):
        pairs = inc[u]
        denom = np.full(d, GATE_EPS)
        for _, ei in pairs:
            denom = denom + sig[ei]
        msgs = [sig[ei] / denom * (h[v] @ F) for v, ei in pairs]
        total = np.zeros(d)
        for m in msgs:
            total = total + m
        acc = np.zeros(d)
        if use_self:
            acc = acc + h[u] @ A
        if use_msg:
            acc = acc + total
        if layer.fc is not None:
            acc = acc + _naive_encoding(msgs, layer.fc)
        pre[u] = acc

    bn = layer.bn
    normed = (pre - bn.running_mean.data) / np.sqrt(bn.running_var.data + BN_EPS)
    normed = normed * bn.gamma.data + bn.beta.data
    h_new = np.maximum(normed, 0.0) + h
    e_new = np.maximum(e_pre, 0.0) + e
    return h_new, e_new


def naive_forward_oracle(g: Graph, model: Model) -> np.ndarray:
    """Final node embeddings via literal loops, eval mode."""
    h = _affine(g.node_features, model.node_encoder)
    e = None
    if model.edge_encoder is not None:
        raw = g.edge_features
        if raw is None:
            raw = np.zeros((g.num_edges, model.config.d_edge))
        e = _affine(raw, model.edge_encoder)
    for layer in model.layers:
        if isinstance(layer, GcnLayer):
            h = _gcn_layer_naive(h, g, layer)
        else:
            h, e = _gated_layer_naive(h, e, g, layer)
    return h


def oracle_harness(model: Model, graphs: list[Graph]) -> float:
    """Max |vectorized - naive| over node embeddings, eval mode."""
    worst = 0.0
    for g in graphs:
        with T.no_grad():
            h, _ = model.embeddings(g, training=False)
        ref = naive_forward_oracle(g, model)
        worst = max(worst, float(np.max(np.abs(h.data - ref))))
    return worst


def equivariance_harness(model: Model, g: Graph, n_perms: int, rng: Rng) -> float:
    """Max |P.f(G) - f(P.G)| over random node permutations, eval mode."""
    with T.no_grad():
        h0, _ = model.embeddings(g, training=False)
    worst = 0.0
    for _ in range(n_perms):
        perm = np.array(rng.sample(g.num_nodes, g.num_nodes), dtype=np.int64)
        pg = g.permute_nodes(perm)
        with T.no_grad():
            h1, _ = model.embeddings(pg, training=False)
        worst = max(worst, float(np.max(np.abs(h1.data[perm] - h0.data))))
    return worst


def edge_order_harness(model: Model, g: Graph, n_shuffles: int, rng: Rng) -> float:
    """Max deviation of node embeddings under shuffled edge storage order."""
    with T.no_grad():
        h0, _ = model.embeddings(g, training=False)
    worst = 0.0
    for _ in range(n_shuffles):
        order = np.array(rng.sample(g.num_edges, g.num_edges), dtype=np.int64)
        shuffled = Graph(
            num_nodes=g.num_nodes,
            edges=g.edges[order],
            node_features=g.node_features.copy(),
            edge_features=None if g.edge_features is None else g.edge_features[order],
            node_labels=g.node_labels,
            graph_label=g.graph_label,
            edge_labels=None if g.edge_labels is None else g.edge_labels[order],
        )
        with T.no_grad():
            h1, _ = model.embeddings(shuffled, training=False)
        worst = max(worst, float(np.max(np.abs(h1.data - h0.data))))
    return worst


def make_zero_encoder_twin(base: Model) -> Model:
    """Clone a base model's parameters and statistics into its
    interaction-encoding variant, whose encoders fc are zero.

    The twin computes the encoding path explicitly, but with zero encoder
    parameters its output must match the base model exactly.
    """
    config = base.config
    twin_config = replace(config, nlmi=True, terms=(config.terms[0], config.terms[1], True))
    twin = Model(twin_config, Rng(0))
    copied = base.tensors()
    for name, t in twin.tensors().items():
        t.data = np.zeros(t.shape) if ".fc." in name else copied[name].data.copy()
    return twin


def reduction_harness(base: Model, graphs: list[Graph]) -> float:
    """Max |base - zero-encoder twin| over node embeddings, eval mode."""
    twin = make_zero_encoder_twin(base)
    worst = 0.0
    for g in graphs:
        with T.no_grad():
            hb, _ = base.embeddings(g, training=False)
            ht, _ = twin.embeddings(g, training=False)
        worst = max(worst, float(np.max(np.abs(hb.data - ht.data))))
    return worst
