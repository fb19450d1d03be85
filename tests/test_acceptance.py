"""Acceptance gate: one pass/fail line per criterion.

Property criteria (identity, gradients, reduction, equivariance, oracle)
run at pinned tolerances. The two directional experiments train real
models; their metric values were measured once on this code and frozen
as regression values (criterion 7: +/- 2 accuracy points, criterion 8:
+/- 0.05 F1). Criterion 10 repeats one training run and requires the
metric history to reproduce bit-for-bit.
"""

import sys
import time

import numpy as np
import pytest

from minignn import tensor as T
from minignn.generators import DatasetSpec, generate_dataset
from minignn.graph import batch
from minignn.layers import Linear, Model, ModelConfig, interaction_encoding
from minignn.rng import Rng
from minignn.tensor import Tensor
from minignn.training import TrainConfig, f1_positive, run_seeds, train_loop, weighted_accuracy
from minignn.verify import (VARIANTS, _random_graph, edge_order_harness,
                            equivariance_harness, gradcheck_variant, oracle_harness,
                            reduction_harness)

# Frozen regression values, measured once on this implementation.
FROZEN_SBM_BASE_ACC = 0.9936      # +/- 0.02
FROZEN_SBM_NLMI_ACC = 0.9937     # +/- 0.02
FROZEN_TSP_F1 = 0.8588           # +/- 0.05; random-cardinality floor ~0.29
ACC_TOL = 0.02
F1_TOL = 0.05


_CAPMAN = None


def report(criterion: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
    if _CAPMAN is not None:
        # bypass capture so the line reaches the terminal even on pass
        with _CAPMAN.global_and_fixture_disabled():
            print(line, file=sys.stderr, flush=True)
    else:
        print(line, file=sys.stderr, flush=True)
    assert ok, line


@pytest.fixture(autouse=True)
def capture_manager(pytestconfig):
    global _CAPMAN
    _CAPMAN = pytestconfig.pluginmanager.getplugin("capturemanager")


# --- criterion 1: scale substitution --------------------------------------------

def test_criterion_1_scale_substitution():
    report("criterion 1 (scope)", True,
           "published large-scale benchmark numbers are out of desk scope; "
           "substituted by the property suites and directional experiments below")


# --- criterion 2: closed-form identity --------------------------------------------

def test_criterion_2_identity_suite():
    rng = Rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        gr = rng.spawn(f"graph/{i}")
        n = 2 + gr.randint(19)            # n <= 20
        d = 1 + gr.randint(16)            # d <= 16
        g = _random_graph(n, gr.spawn("edges"), False)
        dst = g.edges[:, 1]
        m = gr.normals((g.num_edges, d))
        fc = Linear(2 * d, d, gr.spawn("fc"))

        msg = Tensor(m)
        total = T.segment_sum(msg, dst, n)
        view = batch([g])
        enc = interaction_encoding(total, fc, view.inv_deg, view.in_deg)

        direct = np.zeros((n, d))
        for ei in range(g.num_edges):
            rest = np.zeros(d)
            for ej in range(g.num_edges):
                if ej != ei and dst[ej] == dst[ei]:
                    rest = rest + m[ej]
            row = np.concatenate([m[ei], rest]).reshape(1, -1)
            direct[dst[ei]] += (row @ fc.weight.data + fc.bias.data).reshape(-1)
        worst = max(worst, float(np.max(np.abs(enc.data - direct))))
    secs = time.perf_counter() - t0
    report("criterion 2 (identity)", worst < 1e-12 and secs < 10.0,
           f"max |closed-form - direct rest-sum| = {worst:.3e} "
           f"(tol 1e-12) over 100 graphs in {secs:.1f}s")


# --- criterion 3: finite-difference gradients --------------------------------------

def test_criterion_3_gradient_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for variant in sorted(VARIANTS):
        for seed in range(10):
            n_nodes = 5 + seed % 4        # graphs of 5-8 nodes
            err = gradcheck_variant(variant, d=5, n_nodes=n_nodes, seed=seed)
            worst = max(worst, err)
    secs = time.perf_counter() - t0
    report("criterion 3 (gradients)", worst < 1e-4 and secs < 120.0,
           f"max rel error {worst:.3e} (tol 1e-4) over 4 variants x 10 seeds "
           f"in {secs:.1f}s")


# --- criterion 4: zero-encoder reduction ---------------------------------------------

def test_criterion_4_reduction_suite():
    rng = Rng(44)
    worst = 0.0
    for base in ("gcn", "gatedgcn"):
        cfg = ModelConfig(task="node-class", base=base, nlmi=False, k_layers=2,
                          width=6, d_in=3, d_edge=2)
        model = Model(cfg, rng.spawn(f"model/{base}"))
        graphs = [_random_graph(4 + rng.randint(6), rng.spawn(f"{base}/g/{i}"),
                                base == "gatedgcn") for i in range(20)]
        worst = max(worst, reduction_harness(model, graphs))
    report("criterion 4 (reduction)", worst == 0.0,
           f"max |base - zero-encoder variant| = {worst!r} (must be exactly 0) "
           "over 20 inputs per base")


# --- criterion 5: equivariance and edge-order invariance -------------------------------

def test_criterion_5_equivariance_suite():
    rng = Rng(55)
    cfg = ModelConfig(task="node-class", base="gatedgcn", nlmi=True, k_layers=2,
                      width=6, d_in=3, d_edge=2)
    model = Model(cfg, rng.spawn("model"))
    worst_perm = worst_order = 0.0
    for i in range(10):
        g = _random_graph(5 + rng.randint(8), rng.spawn(f"g/{i}"), True)
        worst_perm = max(worst_perm,
                         equivariance_harness(model, g, 20, rng.spawn(f"p/{i}")))
        worst_order = max(worst_order,
                          edge_order_harness(model, g, 20, rng.spawn(f"o/{i}")))
    ok = worst_perm < 1e-9 and worst_order < 1e-9
    report("criterion 5 (equivariance)", ok,
           f"permutation dev {worst_perm:.3e}, edge-order dev {worst_order:.3e} "
           "(tol 1e-9) over 20 perms x 10 graphs")


# --- criterion 6: naive-loop oracle ------------------------------------------------------

def test_criterion_6_oracle_suite():
    rng = Rng(66)
    worst = 0.0
    for variant, (base, nlmi) in sorted(VARIANTS.items()):
        cfg = ModelConfig(task="node-class", base=base, nlmi=nlmi, k_layers=2,
                          width=6, d_in=3, d_edge=2)
        model = Model(cfg, rng.spawn(f"model/{variant}"))
        graphs = [_random_graph(4 + rng.randint(6), rng.spawn(f"{variant}/g/{i}"),
                                base == "gatedgcn") for i in range(20)]
        worst = max(worst, oracle_harness(model, graphs))
    report("criterion 6 (oracle)", worst < 1e-10,
           f"max |vectorized - naive loops| = {worst:.3e} (tol 1e-10) "
           "over 20 graphs per variant")


# --- criterion 7: directional community-detection experiment ------------------------------

SBM_SPEC = DatasetSpec(
    task="node-class", generator="sbm",
    params=dict(n_nodes=60, n_communities=2, p_in=0.3, p_intra=0.05,
                feature_noise=0.1),
    n_train=200, n_val=50, n_test=50, seed=1001,
)
SBM_TRAIN = TrainConfig(lr=1e-3, max_epochs=30, patience=5, batch_size=16)
SBM_SEEDS = [1, 2, 3, 4]


def sbm_model_config(nlmi: bool) -> ModelConfig:
    return ModelConfig(task="node-class", base="gatedgcn", nlmi=nlmi,
                       k_layers=4, width=16, d_in=2, n_classes=2)


@pytest.fixture(scope="session")
def sbm_experiment():
    splits = generate_dataset(SBM_SPEC)
    base = run_seeds(splits, sbm_model_config(False), SBM_TRAIN, SBM_SEEDS)
    nlmi = run_seeds(splits, sbm_model_config(True), SBM_TRAIN, SBM_SEEDS)
    return splits, base, nlmi


def majority_baseline(splits) -> float:
    train_labels = np.concatenate([g.node_labels for g in splits["train"]])
    majority = int(np.bincount(train_labels).argmax())
    test_labels = np.concatenate([g.node_labels for g in splits["test"]])
    return weighted_accuracy(np.full(test_labels.shape, majority), test_labels)


def test_criterion_7_directional_sbm(sbm_experiment):
    t0 = time.perf_counter()
    splits, base, nlmi = sbm_experiment
    floor = majority_baseline(splits)
    directional = nlmi["mean"] >= base["mean"] - 0.005
    above_floor = min(base["mean"], nlmi["mean"]) >= floor + 0.10
    frozen = (abs(base["mean"] - FROZEN_SBM_BASE_ACC) <= ACC_TOL
              and abs(nlmi["mean"] - FROZEN_SBM_NLMI_ACC) <= ACC_TOL)
    ok = directional and above_floor and frozen
    report("criterion 7 (directional SBM)", ok,
           f"weighted acc base {base['mean']:.4f}±{base['std']:.4f}, "
           f"interaction-encoded {nlmi['mean']:.4f}±{nlmi['std']:.4f}, "
           f"majority floor {floor:.3f}; frozen {FROZEN_SBM_BASE_ACC}/"
           f"{FROZEN_SBM_NLMI_ACC} ±{ACC_TOL} ({time.perf_counter() - t0:.0f}s "
           "beyond training)")


# --- criterion 8: tour-edge prediction sanity ----------------------------------------------

TSP_SPEC = DatasetSpec(
    task="edge-pred", generator="tsp",
    params=dict(n_cities=8, k_nn=7),
    n_train=400, n_val=50, n_test=50, seed=2002,
)


def random_scorer_floor(splits, rng: Rng) -> float:
    """F1 of predicting a random cardinality-matched positive set."""
    scores = []
    for _ in range(20):
        preds, labels = [], []
        for g in splits["test"]:
            k = int(g.edge_labels.sum())
            pick = rng.sample(g.num_edges, k)
            p = np.zeros(g.num_edges, dtype=np.int64)
            p[pick] = 1
            preds.append(p)
            labels.append(g.edge_labels)
        scores.append(f1_positive(np.concatenate(preds), np.concatenate(labels)))
    return float(np.mean(scores))


def test_criterion_8_tsp_edge_prediction():
    splits = generate_dataset(TSP_SPEC)
    model_config = ModelConfig(task="edge-pred", base="gatedgcn", nlmi=True,
                               k_layers=4, width=16, d_in=2, d_edge=1)
    train_config = TrainConfig(lr=1e-3, max_epochs=40, patience=5, batch_size=16)
    out = run_seeds(splits, model_config, train_config, [1])
    f1 = out["mean"]
    floor = random_scorer_floor(splits, Rng(808))
    ok = f1 >= 0.6 and abs(f1 - FROZEN_TSP_F1) <= F1_TOL and f1 > floor
    report("criterion 8 (TSP edges)", ok,
           f"positive-class F1 {f1:.4f} (require >= 0.6, frozen "
           f"{FROZEN_TSP_F1} ±{F1_TOL}), random-scorer floor {floor:.3f}")


# --- criterion 9: overfit guard ---------------------------------------------------------------

def test_criterion_9_overfit_guard():
    rng = Rng(99)
    memo = [  # 2-graph memorization set
        # reuse the triangle-count regression generator for informative inputs
        *(generate_dataset(DatasetSpec(
            task="graph-reg", generator="triangles",
            params=dict(n_min=5, n_max=9), n_train=2, n_val=1, n_test=1,
            seed=3003))["train"]),
    ]
    splits = {"train": memo, "val": memo, "test": memo}
    results = {}
    for variant, (base, nlmi) in sorted(VARIANTS.items()):
        cfg = ModelConfig(task="graph-reg", base=base, nlmi=nlmi, k_layers=2,
                          width=8, d_in=1, d_edge=1)
        model = Model(cfg, Rng(1).spawn(f"overfit/{variant}"))
        train_config = TrainConfig(lr=1e-2, max_epochs=500, patience=100,
                                   batch_size=2, weight_classes=False)
        history, _ = train_loop(splits, model, train_config, Rng(1).spawn("t"))
        losses = [r.loss for r in history if r.split == "train"]
        hit = next((i for i, v in enumerate(losses) if v < 0.01), None)
        results[variant] = hit
    ok = all(h is not None for h in results.values())
    report("criterion 9 (overfit guard)", ok,
           "epochs to train loss < 0.01 within 500: "
           + ", ".join(f"{k}={v}" for k, v in results.items()))


# --- criterion 10: bit-for-bit determinism ------------------------------------------------------

def test_criterion_10_determinism(sbm_experiment):
    splits, _, nlmi = sbm_experiment
    rerun = run_seeds(splits, sbm_model_config(True), SBM_TRAIN, [SBM_SEEDS[0]])
    def records(run):  # by repr, bit for bit: -0.0 differs from 0.0, and any nan equals nan
        return [repr((r.epoch, r.split, r.loss, r.value)) for r in run["histories"][SBM_SEEDS[0]]]

    first, second = records(nlmi), records(rerun)
    same_values = (first == second)
    same_metric = rerun["values"][0] == nlmi["values"][0]
    ok = same_values and same_metric
    report("criterion 10 (determinism)", ok,
           f"seed {SBM_SEEDS[0]} history of {len(first)} records and test metric "
           "reproduce bit-for-bit" if ok else
           "rerun diverged from the first training run")
