"""Tests of the benchmark's own arithmetic: spans, self time, statistics, checks.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def spans_of(names, rows):
    """Span arrays from (name, parent, start, end, value) rows."""
    ids = {n: i for i, n in enumerate(names)}
    return {
        "name": np.array([ids[r[0]] for r in rows], dtype=np.int32),
        "parent": np.array([r[1] for r in rows], dtype=np.int32),
        "start": np.array([r[2] for r in rows], dtype=np.float64),
        "end": np.array([r[3] for r in rows], dtype=np.float64),
        "value": np.array([r[4] for r in rows], dtype=np.int64),
    }


# --- spans ----------------------------------------------------------------

def test_tracer_records_nesting_and_values():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda x: x * 2, "tensor.inner", value=lambda out: out)
    outer = tracer.wrap(lambda x: inner(x) + inner(x + 1), "layers.outer")
    assert outer(3) == 14
    inner(5)
    s = tracer.arrays()
    names = [tracer.names[i] for i in s["name"]]
    assert names == ["layers.outer", "tensor.inner", "tensor.inner", "tensor.inner"]
    assert s["parent"].tolist() == [-1, 0, 0, -1]
    assert s["value"].tolist() == [0, 6, 8, 10]
    assert (s["end"] >= s["start"]).all()
    # children lie inside their parent
    for i, p in enumerate(s["parent"]):
        if p >= 0:
            assert s["start"][p] <= s["start"][i] and s["end"][i] <= s["end"][p]


def test_tracer_closes_span_when_call_raises():
    tracer = tracing.Tracer()

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap(boom, "cli.boom")
    with pytest.raises(KeyError):
        wrapped()
    ok = tracer.wrap(lambda: 1, "cli.ok")
    ok()
    assert tracer.arrays()["parent"].tolist() == [-1, -1]


def test_tracer_names_spans_from_arguments():
    tracer = tracing.Tracer()
    f = tracer.wrap(lambda on: on, lambda on: "layers.a_nlmi" if on else "layers.a")
    f(True)
    f(False)
    assert [tracer.names[i] for i in tracer.arrays()["name"]] == ["layers.a_nlmi", "layers.a"]


def test_self_time_subtracts_direct_children_only():
    #  0: [0, 10]      children 1 [1, 4] and 2 [5, 9]
    #  1: [1, 4]       child 3 [2, 3]
    #  3: [2, 3]
    parent = np.array([-1, 0, 0, 1])
    start = np.array([0.0, 1.0, 5.0, 2.0])
    end = np.array([10.0, 4.0, 9.0, 3.0])
    assert tracing.self_times(parent, start, end).tolist() == [3.0, 2.0, 4.0, 1.0]


def test_nearest_marked_ancestor():
    # 0 train_loop > 1 evaluate > 2 op ; 0 > 3 op ; 4 op at top level
    name = np.array([0, 1, 2, 2, 2])
    parent = np.array([-1, 0, 1, 0, -1])
    assert tracing.nearest(parent, name, {0: 1, 1: 2}).tolist() == [1, 2, 2, 1, 0]


def test_layer_metrics_from_synthetic_spans():
    names = ["training.train_loop", "training.optimizer", "tensor.add", "training.evaluate",
             "training.loss", "rng.next_u64", "layers.gated_nlmi", "layers.nlmi",
             "tensor.segment_sum"]
    rows = [
        ("training.train_loop", -1, 0.0, 10.0, 0),     # 0
        ("layers.gated_nlmi", 0, 0.0, 4.0, 0),         # 1
        ("layers.nlmi", 1, 1.0, 2.0, 0),               # 2
        ("tensor.add", 2, 1.0, 1.5, 800),              # 3
        ("tensor.segment_sum", 1, 3.0, 3.5, 80),       # 4
        ("training.loss", 0, 4.0, 4.25, 0),            # 5
        ("training.optimizer", 0, 4.5, 5.0, 0),        # 6
        ("training.optimizer", 0, 5.0, 5.5, 0),        # 7
        ("training.evaluate", 0, 6.0, 8.0, 0),         # 8
        ("training.loss", 8, 6.0, 7.0, 0),             # 9
        ("tensor.add", 8, 7.0, 7.5, 8),                # 10
        ("training.evaluate", -1, 11.0, 12.0, 0),      # 11
        ("rng.next_u64", -1, 12.0, 12.5, 0),           # 12
    ]
    m = {k: v for k, (v, _) in tracing.layer_metrics(names, spans_of(names, rows)).items()}
    assert m["training.steps"] == 2
    assert m["training.optimizer_s"] == 1.0
    assert m["training.loss_s"] == 0.25            # the loss inside evaluate is eval time
    assert m["training.eval_s"] == 2.0             # only the evaluate inside train_loop
    assert m["tensor.add.calls"] == 2
    assert m["tensor.add.fwd_s"] == 1.0
    assert m["tensor.add.bytes"] == 808
    assert m["tensor.ops_per_step"] == 1.0         # 2 ops in steps (not in evaluate) / 2
    assert m["tensor.op_us"] == pytest.approx(1e6 * 1.5 / 3)
    assert m["layers.gated_nlmi.fwd_ms"] == 4000.0
    assert m["layers.gated.fwd_ms"] == 0.0
    assert m["layers.nlmi_share"] == 0.25
    assert m["rng.draws"] == 1
    assert m["rng.busy_s"] == 0.5
    assert m["rng.self_s"] == 0.5
    # layers: span 1 (4 - 1 - 0.5) + span 2 (1 - 0.5)
    assert m["layers.self_s"] == 3.0
    # training: loop 10 - (4 + .25 + .5 + .5 + 2) + loss .25 + opt 1 + eval (2 - 1 - .5)
    #           + loss in eval 1 + top-level eval 1
    assert m["training.self_s"] == pytest.approx(2.75 + 0.25 + 1.0 + 0.5 + 1.0 + 1.0)
    assert m["tensor.self_s"] == 1.5
    assert m["verify.self_s"] == 0.0


def test_layer_metrics_with_no_spans_are_zero():
    empty = spans_of([], [])
    m = tracing.layer_metrics([], empty)
    assert all(v == 0 for v, _ in m.values())


def test_install_wraps_names_where_callers_look_them_up():
    from minignn import graph, layers, rng, tensor, training
    from minignn.generators import DatasetSpec, generate_dataset

    originals = (tensor.add, training.make_batch, rng.Rng.next_u64, layers.Model.forward)
    tracer = tracing.Tracer()
    restore, missing = tracing.install(tracer)
    try:
        assert missing == []
        spec = DatasetSpec(task="node-class", generator="sbm",
                           params=dict(n_nodes=8, n_communities=2, p_in=0.6, p_intra=0.1,
                                       feature_noise=0.1),
                           n_train=4, n_val=2, n_test=2, seed=3)
        splits = generate_dataset(spec)
        config = layers.ModelConfig(task="node-class", base="gatedgcn", nlmi=True,
                                    k_layers=1, width=4, d_in=2, n_classes=2)
        model = layers.Model(config, rng.Rng(1))
        training.train_loop(splits, model, training.TrainConfig(max_epochs=1, batch_size=2),
                            rng.Rng(2))
    finally:
        restore()
    assert (tensor.add, training.make_batch, rng.Rng.next_u64, layers.Model.forward) == originals
    m = {k: v for k, (v, _) in tracing.layer_metrics(tracer.names, tracer.arrays()).items()}
    assert m["generators.graphs"] == 8
    assert m["rng.draws"] > 0
    assert m["training.steps"] == 2
    assert m["graph.batch_calls"] == 3           # two steps and one validation batch
    assert m["layers.view_calls"] == 3
    assert m["layers.gated_nlmi.fwd_ms"] > 0
    assert m["layers.nlmi.fwd_ms"] > 0
    assert m["tensor.segment_sum.calls"] > 0
    assert m["tensor.backward_s"] > 0
    assert m["tensor.ops_per_step"] > 0
    # tensor ops run inside layer spans, so layers' self time excludes them
    names = tracer.names
    s = tracer.arrays()
    op_ids = {i for i, n in enumerate(names) if n.startswith("tensor.")}
    layer_id = names.index("layers.gated_nlmi")
    children = [i for i in range(len(s["name"])) if s["parent"][i] >= 0
                and s["name"][s["parent"][i]] == layer_id]
    assert children and all(s["name"][i] in op_ids | {names.index("layers.nlmi")}
                            for i in children)


# --- statistics ---------------------------------------------------------------

def test_quartiles_and_spread_match_statistics_module():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q[0], q[2])
    assert stats.spread(values) == pytest.approx((q[2] - q[0]) / statistics.median(values))
    assert stats.median(values) == 3.75
    assert stats.spread([2.0, 2.0, 2.0]) == 0.0


def test_best_total_sums_the_shortest_lap_at_each_position():
    rows = [[1.0, 5.0, 2.0], [3.0, 1.0, 2.5], [2.0, 2.0, 0.5]]
    assert stats.best_total(rows) == 1.0 + 1.0 + 0.5
    assert stats.best_total([[0.25, 0.5]]) == 0.75
    with pytest.raises(ValueError):
        stats.best_total([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        stats.best_total([])


def test_laps_cut_a_phase_at_each_marked_call():
    laps = workloads.Laps()
    step = laps.marked(lambda x: x + 1)
    assert step(1) == 2                       # outside a phase: no lap
    with laps.phase("train"):
        step(1)
        step(2)
    with laps.phase("eval"):
        pass
    with laps.phase("train"):                 # each region is one repeat
        step(3)
    got = laps.take()
    assert sorted(got) == ["eval", "train"]
    assert [len(r) for r in got["train"]] == [3, 2] and [len(r) for r in got["eval"]] == [1]
    assert all(t >= 0 for rows in got.values() for r in rows for t in r)
    assert laps.take() == {}
    layer = laps.marked(lambda: None, fine=True)
    with laps.phase("coarse"):
        step(0)
        layer()
    with laps.phase("fine", fine=True):
        step(0)
        layer()
    assert {k: len(v[0]) for k, v in laps.take().items()} == {"coarse": 2, "fine": 3}
    with pytest.raises(RuntimeError):
        with laps.phase("a"):
            with laps.phase("b"):
                pass


# --- output checks --------------------------------------------------------------

def test_compare_admits_reordering_but_not_a_wrong_formula():
    want = {"a": {"loss": [0.5, 0.25], "metric": [0.9]}}
    assert workloads.compare("sbm-train", {"a": {"loss": [0.5 * (1 + 1e-12), 0.25],
                                                 "metric": [0.9]}}, want) == []
    assert workloads.compare("sbm-train", {"a": {"loss": [0.5, 0.25],
                                                 "metric": [0.91]}}, want) == []
    assert workloads.compare("sbm-train", {"a": {"loss": [0.5001, 0.25],
                                                 "metric": [0.9]}}, want)
    assert workloads.compare("sbm-train", {"a": {"loss": [0.5, 0.25],
                                                 "metric": [0.95]}}, want)
    assert workloads.compare("sbm-train", {"a": {"loss": [0.5], "metric": [0.9]}}, want)
    assert workloads.compare("sbm-train", {"b": {"loss": [0.5, 0.25],
                                                 "metric": [0.9]}}, want)


def test_gradcheck_output_parsing():
    line = "variant=gcn d=5 n=5 max_rel_error=2.429e-12 tolerance=1e-04\n"
    assert workloads._parse_gradcheck(line) == 2.429e-12
    assert workloads._parse_gradcheck("error: bad variant") == float("inf")
