import csv
import hashlib
import json
import math
import resource
import sys

import numpy as np
import numpy.testing as npt
import pytest

from minignn import tensor as T
from minignn.generators import DatasetSpec, generate_dataset, load_dataset, save_dataset
from minignn.graph import Graph, batch
from minignn.layers import Model, ModelConfig
from minignn.rng import Rng
from minignn.tensor import NumericsError, Tensor, backward, finite_diff_check
from minignn.training import (Adam, PlateauScheduler, TrainConfig, accuracy, binary_ce,
                              class_weights, compute_loss, cross_entropy, evaluate,
                              f1_positive, l1, labels_of, mae, run_seeds, train_loop,
                              weighted_accuracy, write_metrics_csv, write_summary_json)


# --- optimizer ---------------------------------------------------------------

def test_adam_zero_gradient_is_noop():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.zeros(2)
    before = p.data.copy()
    opt.step()
    npt.assert_array_equal(p.data, before)


def test_adam_first_step_closed_form():
    # After bias correction the first update is -lr * g / (|g| + eps').
    p = Tensor(np.array([0.0, 0.0]), requires_grad=True)
    g = np.array([3.0, -0.5])
    opt = Adam({"p": p}, lr=0.01)
    p.grad = g.copy()
    opt.step()
    expected = -0.01 * g / (np.abs(g) + 1e-8)
    npt.assert_allclose(p.data, expected, atol=1e-12)


def test_adam_minimizes_quadratic_bowl():
    p = Tensor(np.array([4.0, -3.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.05)
    for _ in range(200):
        p.zero_grad()
        backward(T.sum_all(T.mul(p, p)))
        opt.step()
    assert np.max(np.abs(p.data)) < 1e-2


def test_adam_missing_grad_treated_as_zero():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    p.grad = None
    opt.step()
    npt.assert_array_equal(p.data, [1.0])


# --- scheduler ----------------------------------------------------------------

def scheduler(lr=1e-3, **knobs):
    return PlateauScheduler(TrainConfig(lr=lr, **knobs))


def test_scheduler_improvement_keeps_lr():
    s = scheduler(patience=2)
    for loss in (1.0, 0.9, 0.8):
        lr, stop = s.step(loss)
    assert lr == 1e-3 and not stop


def test_scheduler_halves_after_patience():
    s = scheduler(patience=2)
    s.step(1.0)
    s.step(1.0)
    lr, stop = s.step(1.0)
    assert lr == 5e-4 and not stop


def test_scheduler_counter_resets_after_halving():
    s = scheduler(patience=2)
    for _ in range(4):
        lr, _ = s.step(1.0)
    assert lr == 5e-4  # halved once at step 3, next halving needs 2 more


def test_scheduler_equal_loss_is_not_improvement():
    s = scheduler(patience=1)
    s.step(0.5)
    lr, _ = s.step(0.5)
    assert lr == 5e-4


def test_scheduler_stops_below_min_lr():
    s = scheduler(1.9e-6, patience=1, min_lr=1e-6)
    s.step(1.0)
    lr, stop = s.step(1.0)
    assert lr == pytest.approx(0.95e-6) and stop


# --- losses --------------------------------------------------------------------

def test_cross_entropy_uniform_logits_is_log_c():
    logits = Tensor(np.zeros((5, 4)))
    labels = np.array([0, 1, 2, 3, 0])
    npt.assert_allclose(cross_entropy(logits, labels).data, np.full((5, 1), math.log(4)),
                        rtol=0, atol=1e-12)
    loss = compute_loss(logits, labels, "node-class")
    assert float(loss.data) == pytest.approx(math.log(4), abs=1e-12)


def test_cross_entropy_confident_correct_near_zero():
    logits = Tensor(np.array([[50.0, 0.0], [0.0, 50.0]]))
    assert float(compute_loss(logits, np.array([0, 1]), "graph-class").data) < 1e-12


def test_cross_entropy_shift_invariant():
    rng = Rng(1)
    z = rng.normals((6, 3))
    labels = np.array([0, 1, 2, 0, 1, 2])
    a = cross_entropy(Tensor(z), labels)
    b = cross_entropy(Tensor(z + 1000.0), labels)
    npt.assert_allclose(a.data, b.data, rtol=0, atol=1e-9)


def test_cross_entropy_class_weights_reweight_mean():
    logits = Tensor(np.array([[2.0, 0.0], [0.0, 2.0]]))
    labels = np.array([0, 1])
    weighted = compute_loss(logits, labels, "node-class", np.array([3.0, 1.0]))
    plain = compute_loss(logits, labels, "node-class")
    # both rows have identical nll here, so reweighting changes nothing
    assert float(weighted.data) == pytest.approx(float(plain.data), abs=1e-12)
    only_first = compute_loss(Tensor(np.array([[5.0, 0.0], [5.0, 0.0]])),
                              np.array([0, 1]), "node-class", np.array([1.0, 0.0]))
    direct = compute_loss(Tensor(np.array([[5.0, 0.0]])), np.array([0]), "node-class")
    assert float(only_first.data) == pytest.approx(float(direct.data), abs=1e-12)


def test_cross_entropy_gradient_matches_finite_differences():
    rng = Rng(2)
    labels = np.array([0, 2, 1, 1])
    x = Tensor(rng.normals((4, 3)), requires_grad=True)
    for weights in (None, np.array([0.5, 2.0, 1.0])):
        assert finite_diff_check(lambda t: compute_loss(t, labels, "node-class", weights),
                                 x) < 1e-6


def test_binary_ce_zero_logits():
    loss = compute_loss(Tensor(np.zeros((4, 1))), np.array([0, 1, 0, 1]), "edge-pred")
    assert float(loss.data) == pytest.approx(math.log(2), abs=1e-12)


def test_binary_ce_matches_naive_formula():
    rng = Rng(3)
    z = rng.normals((6, 1))
    y = np.array([1, 0, 1, 1, 0, 0])
    per = binary_ce(Tensor(z), y)
    p = 1.0 / (1.0 + np.exp(-z.reshape(-1)))
    naive = -(y * np.log(p) + (1 - y) * np.log(1 - p))
    npt.assert_allclose(per.data, naive.reshape(-1, 1), rtol=0, atol=1e-10)


def test_binary_ce_pos_weight():
    z = np.array([[0.0], [0.0]])
    y = np.array([1, 0])
    loss = compute_loss(Tensor(z), y, "edge-pred", np.array([1.0, 3.0]))
    # (3*log2 + 1*log2) / 4
    assert float(loss.data) == pytest.approx(math.log(2), abs=1e-12)
    z = np.array([[2.0], [-1.0]])
    per = binary_ce(Tensor(z), y).data.reshape(-1)
    loss = compute_loss(Tensor(z), y, "edge-pred", np.array([1.0, 3.0]))
    assert float(loss.data) == pytest.approx((3 * per[0] + per[1]) / 4, abs=1e-12)


def test_binary_ce_stable_for_large_logits():
    per = binary_ce(Tensor(np.array([[500.0], [-500.0]])), np.array([1, 0]))
    npt.assert_allclose(per.data, np.zeros((2, 1)), rtol=0, atol=1e-12)


def test_binary_ce_gradient_matches_finite_differences():
    rng = Rng(4)
    y = np.array([1, 0, 1])
    x = Tensor(rng.normals((3, 1)), requires_grad=True)
    weights = np.array([1.0, 2.0])
    assert finite_diff_check(lambda t: compute_loss(t, y, "edge-pred", weights), x) < 1e-6


def test_l1_values_and_gradient():
    pred = Tensor(np.array([[1.0], [3.0]]), requires_grad=True)
    target = np.array([0.5, 5.0])
    npt.assert_array_equal(l1(pred, target).data, [[0.5], [2.0]])
    assert float(compute_loss(pred, target, "graph-reg").data) == pytest.approx(1.25, abs=1e-15)
    x = Tensor(np.array([[1.0], [3.0]]), requires_grad=True)
    assert finite_diff_check(lambda t: compute_loss(t, target, "graph-reg"), x) < 1e-6


NODES = [Graph(num_nodes=4, edges=np.zeros((0, 2)), node_features=np.zeros((4, 1)),
               node_labels=[0, 0, 0, 1], graph_label=1)]


def test_inverse_frequency_weights():
    npt.assert_allclose(class_weights(NODES, "node-class", 2), [4 / 6, 4 / 2], atol=1e-15)
    npt.assert_allclose(class_weights(NODES, "graph-class", 3), [1 / 3, 1 / 3, 1 / 3],
                        atol=1e-15)  # absent classes count once


def test_class_weights_of_edges_and_regression():
    # edge-pred weights are [1, neg / pos] exactly, not inverse frequency:
    # rescaled weights would change the weighted mean's rounding
    edges = [Graph(num_nodes=2, edges=[[0, 1], [1, 0], [0, 0], [1, 1]],
                   node_features=np.zeros((2, 1)), edge_labels=[1, 0, 0, 0])]
    assert class_weights(edges, "edge-pred", 2).tolist() == [1.0, 3.0]
    assert class_weights(NODES, "graph-reg", 2) is None


# --- metrics ---------------------------------------------------------------------

def test_accuracy():
    assert accuracy(np.array([1, 0, 1]), np.array([1, 1, 1])) == pytest.approx(2 / 3)


def test_weighted_accuracy_mean_of_recalls():
    labels = np.array([0, 0, 1, 1])
    pred = np.array([0, 0, 1, 0])  # recalls 1.0 and 0.5
    assert weighted_accuracy(pred, labels) == pytest.approx(0.75)


def test_weighted_accuracy_ignores_absent_classes():
    labels = np.zeros(4, dtype=np.int64)
    pred = np.array([0, 0, 1, 0])
    assert weighted_accuracy(pred, labels) == pytest.approx(0.75)


def test_f1_positive_cases():
    assert f1_positive(np.array([1, 1, 0]), np.array([1, 0, 1])) == pytest.approx(0.5)
    assert f1_positive(np.zeros(3, dtype=int), np.array([1, 1, 0])) == 0.0
    assert f1_positive(np.ones(3, dtype=int), np.ones(3, dtype=int)) == 1.0


def test_mae():
    assert mae(np.array([1.0, 2.0]), np.array([0.0, 4.0])) == pytest.approx(1.5)


# --- training loop ------------------------------------------------------------------

SBM_SPEC = DatasetSpec(task="node-class", generator="sbm",
                       params=dict(n_nodes=12, n_communities=2, p_in=0.7,
                                   p_intra=0.05, feature_noise=0.1),
                       n_train=8, n_val=4, n_test=4, seed=11)
SBM_MODEL = ModelConfig(task="node-class", base="gcn", nlmi=True, k_layers=2,
                        width=8, d_in=2, n_classes=2)


def small_run(max_epochs=3, lr=1e-2, seed=1):
    splits = generate_dataset(SBM_SPEC)
    model = Model(SBM_MODEL, Rng(seed).spawn("init"))
    cfg = TrainConfig(lr=lr, max_epochs=max_epochs, batch_size=4, patience=2)
    history, best = train_loop(splits, model, cfg, Rng(seed).spawn("train"))
    return splits, model, history, best


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="tunes glibc's malloc")
def test_training_step_reuses_the_memory_the_last_step_freed():
    spec = DatasetSpec(task="node-class", generator="sbm",
                       params=dict(n_nodes=60, n_communities=2, p_in=0.3,
                                   p_intra=0.05, feature_noise=0.1),
                       n_train=16, n_val=1, n_test=1, seed=12)
    splits = generate_dataset(spec)
    config = ModelConfig(task="node-class", base="gatedgcn", k_layers=2, width=8,
                         d_in=2, n_classes=2)
    model = Model(config, Rng(1).spawn("init"))
    train_loop(splits, model, TrainConfig(max_epochs=1), Rng(1).spawn("train"))
    b = batch(splits["train"])
    labels = labels_of(splits["train"], "node-class")

    def step():
        model.zero_grads()
        backward(compute_loss(model.forward(b, training=True), labels, "node-class"))

    step()  # a step frees what it allocated when it returns
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    step()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults < 100


def test_train_loop_reduces_loss():
    _, _, history, _ = small_run(max_epochs=10)
    train = [r.loss for r in history if r.split == "train"]
    assert train[-1] < train[0]


def test_train_loop_zero_lr_freezes_params():
    splits = generate_dataset(SBM_SPEC)
    model = Model(SBM_MODEL, Rng(1).spawn("init"))
    before = {k: v.data.copy() for k, v in model.params().items()}
    cfg = TrainConfig(lr=0.0, max_epochs=2, batch_size=4, min_lr=0.0)
    train_loop(splits, model, cfg, Rng(1).spawn("train"))
    after = model.params()
    assert all(np.array_equal(before[k], after[k].data) for k in before)


def test_train_loop_deterministic_history():
    _, _, h1, s1 = small_run(max_epochs=3)
    _, _, h2, s2 = small_run(max_epochs=3)
    assert [(r.epoch, r.split, r.loss, r.value) for r in h1] == \
           [(r.epoch, r.split, r.loss, r.value) for r in h2]
    assert s1["params"] == s2["params"]


def test_train_loop_nan_aborts_with_location():
    splits = generate_dataset(SBM_SPEC)
    model = Model(SBM_MODEL, Rng(1).spawn("init"))
    model.node_encoder.weight.data[0, 0] = np.nan
    cfg = TrainConfig(lr=1e-3, max_epochs=2, batch_size=4)
    with pytest.raises(NumericsError):
        train_loop(splits, model, cfg, Rng(1).spawn("train"))


def test_best_state_tracks_validation_minimum():
    splits, model, history, best = small_run(max_epochs=6)
    val = [r for r in history if r.split == "val"]
    best_epoch = min(val, key=lambda r: r.loss).epoch
    model.load_state(best)
    loss, _ = evaluate(model, splits["val"], 4)
    assert loss == pytest.approx(min(r.loss for r in val), abs=1e-9)
    assert any(r.epoch == best_epoch for r in val)


def test_reloaded_dataset_gives_identical_history(tmp_path):
    splits = generate_dataset(SBM_SPEC)
    path = tmp_path / "d.json"
    save_dataset(path, SBM_SPEC, splits)
    _, splits2 = load_dataset(path)

    def run(sp):
        model = Model(SBM_MODEL, Rng(2).spawn("init"))
        cfg = TrainConfig(lr=1e-2, max_epochs=3, batch_size=4)
        history, _ = train_loop(sp, model, cfg, Rng(2).spawn("train"))
        return [(r.loss, r.value) for r in history]

    assert run(splits) == run(splits2)


def test_run_seeds_summary_shape():
    splits = generate_dataset(SBM_SPEC)
    cfg = TrainConfig(lr=1e-2, max_epochs=2, batch_size=4)
    out = run_seeds(splits, SBM_MODEL, cfg, [1, 2])
    assert out["metric"] == "weighted_accuracy"
    assert out["seeds"] == [1, 2] and len(out["values"]) == 2
    assert out["mean"] == pytest.approx(np.mean(out["values"]))
    assert set(out["histories"]) == {1, 2}


def test_evaluate_batch_size_invariant():
    splits, model, _, _ = small_run(max_epochs=1)
    l1_, m1 = evaluate(model, splits["val"], batch_size=1)
    l2, m2 = evaluate(model, splits["val"], batch_size=64)
    assert l1_ == pytest.approx(l2, abs=1e-9)
    assert m1 == pytest.approx(m2, abs=1e-12)


WEIGHTED_SPLITS = {
    "density": (DatasetSpec(task="graph-class", generator="density",
                            params=dict(n_nodes=8, p_sparse=0.1, p_dense=0.5),
                            n_train=7, n_val=9, n_test=1, seed=3),
                ModelConfig(task="graph-class", base="gcn", nlmi=True, k_layers=1,
                            width=4, d_in=1, n_classes=2)),
    "tsp": (DatasetSpec(task="edge-pred", generator="tsp", params=dict(n_cities=8, k_nn=5),
                        n_train=3, n_val=5, n_test=1, seed=3),
            ModelConfig(task="edge-pred", base="gatedgcn", nlmi=True, k_layers=1,
                        width=4, d_in=2, d_edge=1)),
}


@pytest.mark.parametrize("name", sorted(WEIGHTED_SPLITS))
def test_weighted_evaluate_loss_does_not_depend_on_batch_size(name):
    # class weights (density) and positive-edge weights (tsp) weight each
    # example, so the split's loss is one weighted mean, not a mean of batch means
    spec, config = WEIGHTED_SPLITS[name]
    splits = generate_dataset(spec)
    weights = class_weights(splits["train"], spec.task, config.n_classes)
    assert np.any(weights != 1.0)
    model = Model(config, Rng(4).spawn("init"))
    losses = [evaluate(model, splits["val"], size, weights)[0] for size in (1, 64)]
    assert losses[0] == pytest.approx(losses[1], rel=0, abs=1e-12)


PINNED_HISTORIES = {
    "density": (*WEIGHTED_SPLITS["density"],
                "84e1d638f0a973e8b39cb0e925870cb4f4fe35c2b0e157343d50488d431c4aba"),
    "tsp": (*WEIGHTED_SPLITS["tsp"],
            "6bab2a53ad96230d7fb95ae02462d4e8125f88abb81dd0b9643cd50aa8fd80f5"),
    "triangles": (DatasetSpec(task="graph-reg", generator="triangles",
                              params=dict(n_min=4, n_max=8), n_train=7, n_val=3, n_test=1,
                              seed=3),
                  ModelConfig(task="graph-reg", base="gatedgcn", nlmi=True, k_layers=1,
                              width=4, d_in=1),
                  "7a47c7ce273b6d801f04a80c743b7d7cb92625f033ce5f3b023003c466bc75b5"),
    "pattern": (DatasetSpec(task="node-class", generator="pattern",
                            params=dict(n_base=10, pattern_size=4), n_train=7, n_val=3,
                            n_test=1, seed=3),
                ModelConfig(task="node-class", base="gatedgcn", nlmi=True, k_layers=1,
                            width=8, d_in=1),
                "8700761c1a962831b27ab1830d3543d3af066fb7a8febdf047f012c6cf0c9b2f"),
}


@pytest.mark.parametrize("name", sorted(PINNED_HISTORIES))
def test_weighted_training_history_is_pinned(name):
    # class weights (density, pattern), positive-edge weights (tsp) and the l1
    # loss (triangles), so one run per task: the digest covers every recorded
    # loss and metric of a 2-epoch run and the best state's parameters and
    # statistics
    spec, config, digest = PINNED_HISTORIES[name]
    model = Model(config, Rng(5).spawn("init"))
    history, best = train_loop(generate_dataset(spec), model,
                               TrainConfig(lr=1e-2, max_epochs=2, batch_size=3),
                               Rng(5).spawn("train"))
    blob = repr([(r.loss, r.value) for r in history]) + json.dumps(
        [best["params"], best["stats"]], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def test_labels_of_rejects_graphs_without_the_task_labels():
    graphs = generate_dataset(SBM_SPEC)["val"]
    with pytest.raises(ValueError, match="no edge-pred labels") as err:
        labels_of(graphs, "edge-pred")
    assert "\n" not in str(err.value)


# --- reporting -----------------------------------------------------------------------

def test_metrics_csv_roundtrip(tmp_path):
    _, _, history, _ = small_run(max_epochs=2)
    path = tmp_path / "m.csv"
    write_metrics_csv(path, history)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "split", "loss", "metric", "value", "seconds"]
    assert len(rows) == 1 + len(history)
    # losses survive a float round trip exactly (written via repr)
    assert float(rows[1][2]) == history[0].loss


def test_summary_json(tmp_path):
    splits = generate_dataset(SBM_SPEC)
    cfg = TrainConfig(lr=1e-2, max_epochs=1, batch_size=4)
    out = run_seeds(splits, SBM_MODEL, cfg, [1])
    path = tmp_path / "s.json"
    write_summary_json(path, out)
    payload = json.loads(path.read_text())
    assert set(payload) == {"metric", "seeds", "values", "mean", "std"}
