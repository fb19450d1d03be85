import hashlib

import numpy as np
import pytest

from minignn import tensor as T
from minignn.layers import Model, ModelConfig
from minignn.rng import Rng
from minignn.verify import (_random_graph, edge_order_harness, equivariance_harness,
                            make_zero_encoder_twin, naive_forward_oracle,
                            oracle_harness, reduction_harness)


def build(base, nlmi, terms=(True, True, True), seed=0, k_layers=2, width=4):
    cfg = ModelConfig(task="node-class", base=base, nlmi=nlmi, k_layers=k_layers,
                      width=width, d_in=3, d_edge=2, terms=terms)
    return Model(cfg, Rng(seed).spawn("m"))


def graphs_for(base, count, seed=100):
    rng = Rng(seed)
    return [_random_graph(4 + rng.randint(5), rng.spawn(f"g/{i}"),
                          base == "gatedgcn")
            for i in range(count)]


@pytest.mark.parametrize("base,nlmi", [("gcn", False), ("gcn", True),
                                       ("gatedgcn", False), ("gatedgcn", True)])
def test_oracle_matches_vectorized(base, nlmi):
    model = build(base, nlmi, seed=1)
    assert oracle_harness(model, graphs_for(base, 5)) < 1e-10


def test_oracle_detects_a_different_model():
    # sanity: the harness is not vacuously zero
    g = graphs_for("gcn", 1)[0]
    ref = naive_forward_oracle(g, build("gcn", True, seed=2))
    with T.no_grad():
        h, _ = build("gcn", True, seed=3).embeddings(g)
    assert np.max(np.abs(h.data - ref)) > 1e-3


@pytest.mark.parametrize("base,nlmi", [("gcn", True), ("gatedgcn", True)])
def test_equivariance_tight(base, nlmi):
    model = build(base, nlmi, seed=3)
    g = graphs_for(base, 1, seed=200)[0]
    assert equivariance_harness(model, g, 5, Rng(7)) < 1e-9


def test_edge_order_invariance_exact():
    model = build("gatedgcn", True, seed=4)
    g = graphs_for("gatedgcn", 1, seed=300)[0]
    assert edge_order_harness(model, g, 5, Rng(8)) == 0.0


@pytest.mark.parametrize("base", ["gcn", "gatedgcn"])
def test_zero_encoder_reduction_exact(base):
    model = build(base, nlmi=False, seed=5)
    assert reduction_harness(model, graphs_for(base, 5)) == 0.0


def test_zero_encoder_twin_copies_everything_but_fc():
    model = build("gatedgcn", nlmi=False, seed=6)
    twin = make_zero_encoder_twin(model)
    assert twin.config.nlmi is True
    bp, tp = model.params(), twin.params()
    for name in bp:
        if ".fc." in name:
            assert np.all(tp[name].data == 0.0)
        else:
            assert np.array_equal(tp[name].data, bp[name].data)


def test_nonzero_encoder_breaks_reduction():
    # sanity: the reduction harness is sensitive to the encoding path
    model = build("gatedgcn", nlmi=False, seed=7)
    twin = make_zero_encoder_twin(model)
    twin.layers[0].fc.weight.data = twin.layers[0].fc.weight.data + 0.3
    g = graphs_for("gatedgcn", 1, seed=400)[0]
    with T.no_grad():
        hb, _ = model.embeddings(g)
        ht, _ = twin.embeddings(g)
    assert np.max(np.abs(hb.data - ht.data)) > 1e-6


def test_ablation_terms_respected_by_oracle():
    for terms in [(True, True, False), (True, False, True),
                  (False, True, True), (True, True, True),
                  (False, True, False), (False, False, True)]:
        model = build("gatedgcn", nlmi=True, terms=terms, seed=8, k_layers=1)
        assert oracle_harness(model, graphs_for("gatedgcn", 3)) < 1e-10


@pytest.mark.parametrize("with_edge_features,digest", [
    (False, "2a2837aca7e345f2823bf19e79f1ba27155f748fe336b4de0564bf94ce83a1ae"),
    (True, "bd27ffbeb1e4c0355cf73e83faa4d71d8aa2df5f7712df7b4db8fc18903b1baf"),
])
def test_random_graph_bytes_are_pinned(with_edge_features, digest):
    # pins the rng stream the gradcheck and harness graphs are drawn from
    g = _random_graph(7, Rng(3), with_edge_features)
    h = hashlib.sha256(g.edges.tobytes() + g.node_features.tobytes())
    if with_edge_features:
        h.update(g.edge_features.tobytes())
    assert h.hexdigest() == digest
