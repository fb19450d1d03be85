import hashlib

import numpy as np
import pytest

from minignn import tensor as T
from minignn.graph import batch
from minignn.layers import Model, ModelConfig
from minignn.rng import Rng
from minignn.verify import (VARIANTS, _random_graph, edge_order_harness,
                            equivariance_harness, gradcheck_variant, make_zero_encoder_twin,
                            naive_forward_oracle, oracle_harness, reduction_harness)


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
    with T.no_grad():  # move the running statistics off their initial values
        model.embeddings(graphs_for("gatedgcn", 1)[0], training=True)
    twin = make_zero_encoder_twin(model)
    assert twin.config.nlmi is True
    base, copied = model.tensors(), twin.tensors()
    assert set(copied) == set(base) | {f"layers.{k}.fc.{p}" for k in (0, 1)
                                       for p in ("weight", "bias")}
    for name, t in copied.items():
        if ".fc." in name:
            assert np.all(t.data == 0.0)
        else:
            assert np.array_equal(t.data, base[name].data)


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


def reference_gradcheck_errors(variant, d, n_nodes, seed, h=1e-5):
    """gradcheck_variant's error per weight, with the full-model f for every
    weight, the head's too."""
    base, nlmi = VARIANTS[variant]
    rng = Rng(seed)
    g = _random_graph(n_nodes, rng.spawn("graph"), with_edge_features=base == "gatedgcn")
    config = ModelConfig(task="node-class", base=base, nlmi=nlmi, k_layers=1,
                         width=d, d_in=3, d_edge=2, n_classes=2)
    model = Model(config, rng.spawn("model"))
    view = batch([g])

    def f(_x):
        pred = model.forward(view, training=False)
        return T.sum_all(T.mul(pred, pred))

    return [T.finite_diff_check(f, p, h) for p in model.params().values()]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_gradcheck_stages_are_exact(monkeypatch, variant):
    # layer weights are checked from encoder outputs computed once, and head
    # weights on embeddings computed once; every error, and so the maximum,
    # must equal the full-model check's, bit for bit
    check, errors = T.finite_diff_check, []

    def recording(f, x, h):
        errors.append(check(f, x, h))
        return errors[-1]

    for seed in (0, 1):
        expected = reference_gradcheck_errors(variant, 5, 5 + seed, seed)
        errors.clear()
        with monkeypatch.context() as patch:
            patch.setattr(T, "finite_diff_check", recording)
            worst = gradcheck_variant(variant, 5, 5 + seed, seed)
        assert errors == expected and worst == max(expected)
