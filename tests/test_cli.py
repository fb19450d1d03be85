import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minignn
from minignn import tensor as T
from minignn.cli import (ABLATION_ROWS, GRADCHECK_TOLERANCE, ConfigError, build_parser,
                         load_run_config, main)
from minignn.verify import gradcheck_variant


BASE_CONFIG = {
    "version": 1,
    "dataset": {
        "task": "node-class",
        "generator": "sbm",
        "params": {"n_nodes": 10, "n_communities": 2, "p_in": 0.7,
                   "p_intra": 0.05, "feature_noise": 0.1},
        "n_train": 6, "n_val": 3, "n_test": 3, "seed": 7,
    },
    "model": {"task": "node-class", "base": "gcn", "nlmi": True,
              "k_layers": 1, "width": 4, "d_in": 2, "n_classes": 2},
    "train": {"lr": 0.01, "max_epochs": 2, "batch_size": 4},
    "seeds": [1, 2],
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# --- config loading -------------------------------------------------------------

def test_unknown_top_level_key_rejected(tmp_path):
    cfg = dict(BASE_CONFIG, extra=1)
    with pytest.raises(ConfigError, match="extra"):
        load_run_config(write_config(tmp_path, cfg))


def test_unknown_nested_key_rejected(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"]["learning_rate"] = 0.1
    with pytest.raises(ConfigError, match="learning_rate"):
        load_run_config(write_config(tmp_path, cfg))


def test_version_mismatch_rejected(tmp_path):
    cfg = dict(BASE_CONFIG, version=2)
    with pytest.raises(ConfigError, match="version"):
        load_run_config(write_config(tmp_path, cfg))


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_run_config(str(path))


def test_missing_config_exits_1(capsys):
    assert main(["gen", "--config", "/nonexistent.json", "--out", "/tmp/x"]) == 1
    assert "error:" in capsys.readouterr().err


# --- gen --------------------------------------------------------------------------

def test_gen_writes_dataset(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "data.json"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["splits"]["train"]) == 6
    assert "wrote" in capsys.readouterr().out


# --- train / eval -------------------------------------------------------------------

def test_train_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seeds"] == [1, 2] and len(summary["values"]) == 2
    for seed in (1, 2):
        assert (out / f"metrics_seed{seed}.csv").exists()
        assert (out / f"checkpoint_seed{seed}.json").exists()
    assert "weighted_accuracy" in capsys.readouterr().out


def test_train_seed_override_runs_single_seed(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out), "--seed", "9"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seeds"] == [9]


def test_train_flag_overrides_change_model(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out), "--seed", "1",
                 "--base", "gatedgcn", "--nlmi", "off", "--layers", "2"]) == 0
    ckpt = json.loads((out / "checkpoint_seed1.json").read_text())
    assert ckpt["config"]["base"] == "gatedgcn"
    assert ckpt["config"]["nlmi"] is False
    assert ckpt["config"]["k_layers"] == 2


def test_bad_terms_flag_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    code = main(["train", "--config", cfg, "--out", str(tmp_path / "r"),
                 "--terms", "self,bogus"])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


def test_eval_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "run"
    data = tmp_path / "data.json"
    assert main(["train", "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
    assert main(["gen", "--config", cfg, "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(out / "checkpoint_seed1.json"),
                 "--data", str(data), "--split", "test"]) == 0
    assert "metric=" in capsys.readouterr().out


def test_eval_unknown_split_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "run"
    data = tmp_path / "data.json"
    main(["train", "--config", cfg, "--out", str(out), "--seed", "1"])
    main(["gen", "--config", cfg, "--out", str(data)])
    assert main(["eval", "--checkpoint", str(out / "checkpoint_seed1.json"),
                 "--data", str(data), "--split", "holdout"]) == 1


def test_eval_checkpoint_with_unknown_key_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "run"
    data = tmp_path / "data.json"
    assert main(["train", "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
    assert main(["gen", "--config", cfg, "--out", str(data)]) == 0
    ckpt = json.loads((out / "checkpoint_seed1.json").read_text())
    ckpt["params"]["layers.9.W"] = [[0.0]]
    bad = tmp_path / "bad_ckpt.json"
    bad.write_text(json.dumps(ckpt))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(bad), "--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert "layers.9.W" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_eval_checkpoint_with_a_wrong_stat_shape_exits_1(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["model"]["base"] = "gatedgcn"
    path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    data = tmp_path / "data.json"
    assert main(["train", "--config", path, "--out", str(out), "--seed", "1"]) == 0
    assert main(["gen", "--config", path, "--out", str(data)]) == 0
    ckpt = json.loads((out / "checkpoint_seed1.json").read_text())
    ckpt["stats"]["layers.0.running_var"] = [1.0, 1.0]
    bad = tmp_path / "bad_ckpt.json"
    bad.write_text(json.dumps(ckpt))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(bad), "--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert "layers.0.running_var" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.fixture(scope="module")
def gated_run(tmp_path_factory):
    """(checkpoint object, dataset path) of a 1-layer gatedgcn run on BASE_CONFIG."""
    root = tmp_path_factory.mktemp("gated")
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["model"]["base"] = "gatedgcn"
    path = write_config(root, cfg)
    assert main(["train", "--config", path, "--out", str(root / "run"), "--seed", "1"]) == 0
    assert main(["gen", "--config", path, "--out", str(root / "data.json")]) == 0
    return json.loads((root / "run" / "checkpoint_seed1.json").read_text()), root / "data.json"


@pytest.mark.parametrize("section,key,value,message", [
    ("stats", None, None, "checkpoint stats must be a JSON object, got None"),
    ("params", "layers.0.A", [[None] * 4] * 4,
     "checkpoint layers.0.A must hold finite numbers, got None"),
    ("params", "layers.0.A", [[math.nan] * 4] * 4,
     "checkpoint layers.0.A must hold finite numbers, got nan"),
    ("params", "layers.0.A", [[True] * 4] * 4,
     "checkpoint layers.0.A must hold finite numbers, got True"),
    ("params", "layers.0.A", "x", "checkpoint layers.0.A must hold finite numbers, got 'x'"),
    ("params", "layers.0.A", [[0.0] * 4] * 3 + [[0.0]],
     "checkpoint layers.0.A must be a rectangular array of numbers"),
    ("stats", "layers.0.running_var", [1.0, -0.5, 1.0, 1.0],
     "checkpoint layers.0.running_var must be >= 0, got -0.5"),
    ("params", "layers.0.A", [[10 ** 400] * 4] * 4,
     "checkpoint layers.0.A must hold finite numbers, got 1000000"),
], ids=["null-stats", "null-values", "nan-value", "bool-values", "string-value",
        "ragged-values", "negative-running-var", "int-beyond-float64"])
def test_eval_on_a_malformed_checkpoint_exits_1(tmp_path, capsys, gated_run, section, key,
                                                value, message):
    ckpt, data = gated_run
    ckpt = json.loads(json.dumps(ckpt))  # a copy: the run is shared by every case
    if key is None:
        ckpt[section] = value
    else:
        ckpt[section][key] = value
    bad = tmp_path / "bad_ckpt.json"
    bad.write_text(json.dumps(ckpt))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(bad), "--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_train_with_no_node_update_term_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    code = main(["train", "--config", cfg, "--out", str(tmp_path / "r"),
                 "--base", "gatedgcn", "--terms", ""])
    assert code == 1
    err = capsys.readouterr().err
    assert "no node-update term" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "r").exists()


def test_train_gcn_with_terms_exits_1(tmp_path, capsys):
    # gcn has no update terms to select, so a terms choice would be recorded but not applied
    cfg = write_config(tmp_path, BASE_CONFIG)
    code = main(["train", "--config", cfg, "--out", str(tmp_path / "r"),
                 "--terms", "self,msg"])
    assert code == 1
    err = capsys.readouterr().err
    assert "gcn" in err and "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "r").exists()


def test_eval_checkpoint_without_config_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "run"
    data = tmp_path / "data.json"
    assert main(["train", "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
    assert main(["gen", "--config", cfg, "--out", str(data)]) == 0
    ckpt = json.loads((out / "checkpoint_seed1.json").read_text())
    del ckpt["config"]
    bad = tmp_path / "bad_ckpt.json"
    bad.write_text(json.dumps(ckpt))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(bad), "--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert "config" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_eval_checkpoint_config_with_unknown_key_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "run"
    data = tmp_path / "data.json"
    assert main(["train", "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
    assert main(["gen", "--config", cfg, "--out", str(data)]) == 0
    ckpt = json.loads((out / "checkpoint_seed1.json").read_text())
    ckpt["config"]["bogus"] = 1
    bad = tmp_path / "bad_ckpt.json"
    bad.write_text(json.dumps(ckpt))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(bad), "--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert "bogus" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_eval_checkpoint_config_without_task_says_config_once(tmp_path, capsys, gated_run):
    ckpt, data = gated_run
    ckpt = json.loads(json.dumps(ckpt))
    del ckpt["config"]["task"]
    bad = tmp_path / "bad_ckpt.json"
    bad.write_text(json.dumps(ckpt))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(bad), "--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert "bad checkpoint config: " in err and "'task'" in err
    assert "config config" not in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_eval_on_a_truncated_checkpoint_names_the_file(tmp_path, capsys, gated_run):
    ckpt, data = gated_run
    bad = tmp_path / "bad_ckpt.json"
    bad.write_text(json.dumps(ckpt)[:200])
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(bad), "--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert f"cannot read checkpoint {bad}" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("version", [None, 2, True])
def test_eval_checkpoint_of_another_version_exits_1(tmp_path, capsys, version):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "run"
    data = tmp_path / "data.json"
    assert main(["train", "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
    assert main(["gen", "--config", cfg, "--out", str(data)]) == 0
    ckpt = json.loads((out / "checkpoint_seed1.json").read_text())
    if version is None:
        del ckpt["version"]
    else:
        ckpt["version"] = version
    bad = tmp_path / "bad_ckpt.json"
    bad.write_text(json.dumps(ckpt))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(bad), "--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert f"has version {version}" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


DENSITY_CONFIG = {
    "version": 1,
    "dataset": {"task": "graph-class", "generator": "density",
                "params": {"n_nodes": 6, "p_sparse": 0.1, "p_dense": 0.6},
                "n_train": 4, "n_val": 2, "n_test": 2, "seed": 7},
    "model": {"task": "graph-class", "base": "gcn", "k_layers": 1, "width": 4,
              "n_classes": 2},
    "train": {"max_epochs": 1},
    "seeds": [1],
}


@pytest.mark.parametrize("command,config,label", [
    ("train", "sbm-3-communities", None),
    ("eval", "sbm", 5),
    ("eval", "sbm", -1),
    ("eval", "density", 2),
    ("eval", "density", -1),
])
def test_class_label_outside_n_classes_exits_1(tmp_path, capsys, command, config, label):
    cfg = json.loads(json.dumps(DENSITY_CONFIG if config == "density" else BASE_CONFIG))
    if config == "sbm-3-communities":  # labels 0..2 for a 2-class model
        cfg["dataset"]["params"]["n_communities"] = 3
        cfg["model"]["d_in"] = 3
    path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    argv = ["train", "--config", path, "--out", str(out), "--seed", "1"]
    if command == "eval":
        data = tmp_path / "data.json"
        assert main(argv) == 0
        assert main(["gen", "--config", path, "--out", str(data)]) == 0
        payload = json.loads(data.read_text())
        first = payload["splits"]["test"][0]
        if config == "density":
            first["y"] = label
        else:
            first["y"][0] = label
        data.write_text(json.dumps(payload))
        argv = ["eval", "--checkpoint", str(out / "checkpoint_seed1.json"),
                "--data", str(data)]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "n_classes" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def one_epoch_config(task, generator, params):
    """A 1-epoch gcn run on a generator whose node features have width 1."""
    return {
        "version": 1,
        "dataset": {"task": task, "generator": generator, "params": params,
                    "n_train": 2, "n_val": 1, "n_test": 1, "seed": 7},
        "model": {"task": task, "base": "gcn", "k_layers": 1, "width": 4, "d_in": 1,
                  "n_classes": 2},
        "train": {"max_epochs": 1},
        "seeds": [1],
    }


PATTERN = ("node-class", "pattern", {"n_base": 8, "pattern_size": 3})
TRIANGLES = ("graph-reg", "triangles", {"n_min": 4, "n_max": 7})


@pytest.mark.parametrize("model_data,eval_data", [(PATTERN, TRIANGLES), (TRIANGLES, PATTERN)])
def test_eval_on_data_of_another_task_exits_1(tmp_path, capsys, model_data, eval_data):
    out = tmp_path / "run"
    data = tmp_path / "data.json"
    model_cfg = write_config(tmp_path, one_epoch_config(*model_data), "model.json")
    data_cfg = write_config(tmp_path, one_epoch_config(*eval_data), "data_config.json")
    assert main(["train", "--config", model_cfg, "--out", str(out)]) == 0
    assert main(["gen", "--config", data_cfg, "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(out / "checkpoint_seed1.json"),
                 "--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert model_data[0] in err and eval_data[0] in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_eval_on_an_empty_split_exits_1(tmp_path, capsys):
    out = tmp_path / "run"
    data = tmp_path / "data.json"
    cfg = one_epoch_config(*PATTERN)
    assert main(["train", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    cfg["dataset"]["n_val"] = 0
    data_cfg = write_config(tmp_path, cfg, "data_config.json")
    assert main(["gen", "--config", data_cfg, "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(out / "checkpoint_seed1.json"),
                 "--data", str(data), "--split", "val"]) == 1
    err = capsys.readouterr().err
    assert "'val'" in err and "empty" in err and str(data) in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("task,mutate,message", [
    ("node-class", lambda y: y[:-1], "labels has shape"),
    ("edge-pred", lambda y: 3, "labels has shape"),
    ("edge-pred", lambda y: [2] + y[1:], "must be 0 or 1, but the data has label 2"),
    ("edge-pred", lambda y: y[:-1] + [-1], "must be 0 or 1, but the data has label -1"),
    ("node-class", lambda y: [0.7] + y[1:], "node_labels must hold integers, got 0.7"),
    ("edge-pred", lambda y: y[:-1] + [1.9], "edge_labels must hold integers, got 1.9"),
], ids=["short-node-labels", "scalar-edge-labels", "edge-label-2", "edge-label--1",
        "fractional-node-label", "fractional-edge-label"])
def test_eval_on_labels_that_do_not_fit_the_graph_exits_1(tmp_path, capsys, task, mutate,
                                                          message):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    if task == "edge-pred":
        cfg["dataset"].update(task=task, generator="tsp", params={"n_cities": 5, "k_nn": 4})
        cfg["model"] = {"task": task, "base": "gatedgcn", "k_layers": 1, "width": 4,
                        "d_in": 2, "d_edge": 1}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    data = tmp_path / "data.json"
    assert main(["train", "--config", path, "--out", str(out), "--seed", "1"]) == 0
    assert main(["gen", "--config", path, "--out", str(data)]) == 0
    payload = json.loads(data.read_text())
    first = payload["splits"]["test"][0]
    first["y"] = mutate(first["y"])
    data.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(out / "checkpoint_seed1.json"),
                 "--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


DENSITY = ("graph-class", "density", {"n_nodes": 6, "p_sparse": 0.1, "p_dense": 0.6})


@pytest.fixture(scope="module")
def one_epoch_run(tmp_path_factory):
    """(checkpoint path, dataset file text) of a 1-epoch run, made once per dataset."""
    made = {}

    def get(data):
        task, generator, params = data
        if generator not in made:
            root = tmp_path_factory.mktemp(generator)
            path = write_config(root, one_epoch_config(task, generator, params))
            assert main(["train", "--config", path, "--out", str(root / "run")]) == 0
            assert main(["gen", "--config", path, "--out", str(root / "data.json")]) == 0
            made[generator] = (str(root / "run" / "checkpoint_seed1.json"),
                               (root / "data.json").read_text())
        return made[generator]

    return get


@pytest.mark.parametrize("data,mutate,message", [
    (DENSITY, lambda g: {**g, "y": 0.7}, "y must hold integers, got 0.7"),
    (DENSITY, lambda g: {**g, "y": True}, "y must hold integers, got True"),
    (DENSITY, lambda g: {**g, "y": "1"}, "y must hold integers, got '1'"),
    (TRIANGLES, lambda g: {**g, "y": math.nan}, "y must hold finite numbers, got nan"),
    (TRIANGLES, lambda g: {**g, "y": "2.5"}, "y must hold finite numbers, got '2.5'"),
    (TRIANGLES, lambda g: {**g, "y": True}, "y must hold finite numbers, got True"),
    (DENSITY, lambda g: {**g, "y": [1]}, "y must be one number, got shape (1,)"),
    (TRIANGLES, lambda g: {**g, "y": [[2.5]]}, "y must be one number, got shape (1, 1)"),
    (PATTERN, lambda g: {**g, "n": g["n"] + 0.5}, "n must be an integer >= 0, got "),
    (PATTERN, lambda g: {**g, "edges": sum(g["edges"], [])},
     "edges must be a list of [src, dst] pairs, got shape"),
    (PATTERN, lambda g: {**g, "y": [str(v) for v in g["y"]]},
     "node_labels must hold integers, got '"),
    (PATTERN, lambda g: {**g, "y": [v == 1 for v in g["y"]]},
     "node_labels must hold integers, got "),
    (PATTERN, lambda g: {**g, "x": [[math.nan]] + g["x"][1:]},
     "x must hold finite numbers, got nan"),
    (PATTERN, lambda g: {**g, "x": [[]] + g["x"][1:]}, "x must be a rectangular array"),
    (PATTERN, lambda g: {**g, "x": [[True]] + g["x"][1:]},
     "x must hold finite numbers, got True"),
    (PATTERN, lambda g: {**g, "x": 0}, "node_features has shape () for 8 nodes"),
], ids=["class-y-fraction", "class-y-bool", "class-y-string", "reg-y-nan", "reg-y-string",
        "reg-y-bool", "class-y-list", "reg-y-nested-list", "fractional-n", "flat-edges",
        "string-node-labels", "bool-node-labels", "nan-feature", "ragged-features", "bool-feature",
        "scalar-features"])
def test_eval_on_a_malformed_dataset_file_exits_1(tmp_path, capsys, one_epoch_run, data,
                                                  mutate, message):
    checkpoint, text = one_epoch_run(data)
    payload = json.loads(text)
    payload["splits"]["test"][0] = mutate(payload["splits"]["test"][0])
    path = tmp_path / "data.json"
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", checkpoint, "--data", str(path)]) == 1
    err = capsys.readouterr().err
    assert message in err and "test graph 0" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1

def test_eval_on_a_dataset_file_of_version_true_exits_1(tmp_path, capsys, one_epoch_run):
    checkpoint, text = one_epoch_run(DENSITY)
    path = tmp_path / "data.json"
    path.write_text(json.dumps({**json.loads(text), "version": True}))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", checkpoint, "--data", str(path)]) == 1
    err = capsys.readouterr().err
    assert "has version True, expected 1" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command,data,model_task,base", [
    ("train", DENSITY, "graph-reg", "gcn"),
    ("train", TRIANGLES, "graph-class", "gcn"),
    ("ablate", PATTERN, "graph-class", "gatedgcn"),
], ids=["train-class-data-reg-model", "train-reg-data-class-model", "ablate-node-data"])
def test_training_on_data_of_another_task_exits_1(tmp_path, capsys, command, data,
                                                  model_task, base):
    # the model's head, loss and metric follow its task: a graph-reg model
    # would fit an l1 regression to 0/1 classes, and a graph-class model
    # would truncate each regression target to a class
    cfg = one_epoch_config(*data)
    cfg["model"].update(task=model_task, base=base)
    out = tmp_path / "run"
    capsys.readouterr()
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"model task is {model_task!r}, but the data's task is {data[0]!r}" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_diverging_run_prints_one_line_and_exits_2(tmp_path):
    # A process of its own: there numpy's RuntimeWarnings would reach stderr.
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"]["lr"] = 1e300
    env = dict(os.environ, PYTHONPATH=str(Path(minignn.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "minignn.cli", "train", "--config",
                           write_config(tmp_path, cfg), "--out", str(tmp_path / "run")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("numerical failure:")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("key,value", [
    ("width", 0), ("k_layers", -1), ("d_in", 0), ("d_edge", 0), ("task", "bogus"),
    ("width", "16"), ("n_classes", 0), ("nlmi", "off"), ("terms", "msg"),
    ("terms", [True, "no", True]),
])
def test_invalid_model_config_exits_1(tmp_path, capsys, key, value):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["model"][key] = value
    path = write_config(tmp_path, cfg)
    assert main(["train", "--config", path, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


DELETE = "<delete>"


def dataset_with(data, **params):
    """The dataset section of a 1-epoch run on data, with params overridden."""
    task, generator, base = data
    return one_epoch_config(task, generator, {**base, **params})["dataset"]


@pytest.mark.parametrize("command,path,value,message", [
    ("train", "dataset", DELETE, "no dataset section"),
    ("gen", "dataset", DELETE, "no dataset section"),
    ("train", "model.task", DELETE, "'task'"),
    ("train", "dataset.task", DELETE, "'task'"),
    ("gen", "dataset.generator", DELETE, "'generator'"),
    ("train", "dataset", "sbm", "dataset must be a JSON object"),
    ("train", "seeds", 3, "seeds"),
    ("train", "seeds", [], "seeds"),
    ("train", "out", 5, "out"),
    ("train", "train.batch_size", 0, "batch_size"),
    ("train", "train.lr", -0.5, "lr"),
    ("train", "dataset.n_val", 0, "n_val"),
    ("ablate", "dataset.n_test", 0, "n_test"),
    ("gen", "dataset.n_train", "3", "n_train"),
    ("train", "model", "gcn", "model must be a JSON object"),
    ("train", "train", 5, "train must be a JSON object"),
    ("train", "dataset.seed", 1.5, "dataset seed must be an integer"),
    ("train", "dataset.seed", "x", "dataset seed must be an integer"),
    ("train", "dataset.seed", True, "dataset seed must be an integer"),
    # these ids keep the message each case was first pinned with, so no case is renamed
    pytest.param("gen", "dataset.params.n_nodes", "12",
                 "n_nodes must be an integer >= 1, got '12'",
                 id="gen-dataset.params.n_nodes-12-n_nodes must be of type int"),
    pytest.param("gen", "dataset.params.n_nodes", 12.5,
                 "n_nodes must be an integer >= 1, got 12.5",
                 id="gen-dataset.params.n_nodes-12.5-n_nodes must be of type int"),
    pytest.param("gen", "dataset.params.p_in", "0.3", "p_in must be a finite number, got '0.3'",
                 id="gen-dataset.params.p_in-0.3-p_in must be of type float"),
    pytest.param("gen", "dataset.params.n_communities", "2",
                 "n_communities must be an integer, got '2'",
                 id="gen-dataset.params.n_communities-2-n_communities must be of type int"),
    pytest.param("gen", "dataset.params.feature_noise", False,
                 "feature_noise must be a finite number >= 0.0, got False",
                 id="gen-dataset.params.feature_noise-False-feature_noise must be of type float"),
    pytest.param("gen", "dataset.params.n_nodes", 0, "n_nodes must be an integer >= 1, got 0",
                 id="gen-dataset.params.n_nodes-0-need n_nodes >= 1, got 0"),
    pytest.param("train", "dataset.params.n_nodes", 0, "n_nodes must be an integer >= 1, got 0",
                 id="train-dataset.params.n_nodes-0-need n_nodes >= 1, got 0"),
    pytest.param("gen", "dataset.params.n_nodes", -3, "n_nodes must be an integer >= 1, got -3",
                 id="gen-dataset.params.n_nodes--3-need n_nodes >= 1, got -3"),
    pytest.param("gen", "dataset.params.hint_fraction", 2,
                 "hint_fraction must be a finite number in [0.0, 1.0], got 2",
                 id="gen-dataset.params.hint_fraction-2-need hint_fraction in [0.0, 1.0], got 2"),
    pytest.param("gen", "dataset.params.hint_fraction", -0.25,
                 "hint_fraction must be a finite number in [0.0, 1.0], got -0.25",
                 id="gen-dataset.params.hint_fraction--0.25-need hint_fraction in [0.0, 1.0], "
                    "got -0.25"),
    pytest.param("gen", "dataset.params.feature_noise", -0.1,
                 "feature_noise must be a finite number >= 0.0, got -0.1",
                 id="gen-dataset.params.feature_noise--0.1-need feature_noise >= 0.0, got -0.1"),
    pytest.param("gen", "dataset", dataset_with(DENSITY, n_nodes=0),
                 "n_nodes must be an integer >= 1, got 0",
                 id="gen-dataset-value30-need n_nodes >= 1, got 0"),
    pytest.param("gen", "dataset", dataset_with(TRIANGLES, noise_sigma=-1.0),
                 "noise_sigma must be a finite number >= 0.0, got -1.0",
                 id="gen-dataset-value31-need noise_sigma >= 0.0, got -1.0"),
    pytest.param("gen", "dataset", dataset_with(TRIANGLES, extra_edge_p=-0.2),
                 "extra_edge_p must be a finite number in [0.0, 1.0], got -0.2",
                 id="gen-dataset-value32-need extra_edge_p in [0.0, 1.0], got -0.2"),
    pytest.param("gen", "dataset", dataset_with(TRIANGLES, extra_edge_p=1.5),
                 "extra_edge_p must be a finite number in [0.0, 1.0], got 1.5",
                 id="gen-dataset-value33-need extra_edge_p in [0.0, 1.0], got 1.5"),
    pytest.param("train", "version", True, "has version True, expected 1",
                 id="train-version-True-config version must be 1"),
    pytest.param("train", "train.lr", math.inf, "train lr must be a finite number >= 0.0, got inf",
                 id="train-train.lr-inf-train lr must be finite"),
    pytest.param("train", "train.min_lr", math.inf,
                 "train min_lr must be a finite number >= 0.0, got inf",
                 id="train-train.min_lr-inf-train min_lr must be finite"),
    pytest.param("train", "train.lr", 10 ** 400,
                 "train lr must be a finite number >= 0.0, got 1000000",
                 id="train-train.lr-int-beyond-float64"),
    pytest.param("gen", "dataset.params.feature_noise", 10 ** 400,
                 "feature_noise must be a finite number >= 0.0, got 1000000",
                 id="gen-feature_noise-int-beyond-float64"),
    pytest.param("gen", "dataset.params.n_nodes", 10 ** 400,
                 "n_nodes must be an integer >= 1, got 1000000",
                 id="gen-n_nodes-int-beyond-int64"),
    pytest.param("gen", "dataset.params.n_communities", 10 ** 400,
                 "n_communities must be an integer, got 1000000",
                 id="gen-n_communities-int-beyond-int64"),
    pytest.param("gen", "dataset.generator", ["sbm"], "unknown generator ['sbm']",
                 id="gen-dataset.generator-list"),
])
def test_config_hole_exits_1(tmp_path, capsys, command, path, value, message):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    *parents, key = path.split(".")
    section = cfg
    for name in parents:
        section = section[name]
    if value is DELETE:
        del section[key]
    else:
        section[key] = value
    argv = [command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "run")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command,seeds,flag", [
    ("train", [10 ** 400], None),
    ("train", None, str(10 ** 30)),
    ("ablate", None, str(10 ** 30)),
])
def test_seed_beyond_int64_exits_1_before_training(tmp_path, capsys, command, seeds, flag):
    # checked after the --seed override, and before the out directory is made
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["model"]["base"] = "gatedgcn"
    if seeds is not None:
        cfg["seeds"] = seeds
    argv = [command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "run")]
    if flag is not None:
        argv += ["--seed", flag]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "seeds[" in err and "must be an integer" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_repeated_seed_exits_1_before_training(tmp_path, capsys, command):
    # a seed trained twice would count one run as two and shrink the reported std
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["model"]["base"] = "gatedgcn"
    cfg["seeds"] = [1, 2, 1]
    argv = [command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "run")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "seeds[2] repeats seed 1" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "run").exists()


def test_d_in_not_matching_the_data_exits_1(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["model"]["d_in"] = 3  # sbm node features have width 2
    path = write_config(tmp_path, cfg)
    assert main(["train", "--config", path, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "d_in" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


TSP_D_EDGE_2 = {
    "version": 1,
    "dataset": {"task": "edge-pred", "generator": "tsp",
                "params": {"n_cities": 5, "k_nn": 4},
                "n_train": 2, "n_val": 1, "n_test": 1, "seed": 7},
    "model": {"task": "edge-pred", "base": "gatedgcn", "k_layers": 1, "width": 4,
              "d_in": 2, "d_edge": 2},  # tsp edge features have width 1
    "train": {"max_epochs": 1},
    "seeds": [1],
}


def test_d_edge_not_matching_the_data_exits_1(tmp_path, capsys):
    cfg = json.loads(json.dumps(TSP_D_EDGE_2))
    path = write_config(tmp_path, cfg)
    assert main(["train", "--config", path, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "model d_edge is 2, but the data's edge features have width 1" in err
    assert "Traceback" not in err
    cfg["model"]["d_edge"] = 1
    path = write_config(tmp_path, cfg)
    assert main(["train", "--config", path, "--out", str(tmp_path / "run")]) == 0


def test_d_edge_is_not_checked_without_a_layer_to_read_edges(tmp_path, capsys):
    # a gatedgcn model with no layers holds no edge encoder, so d_edge reads nothing
    cfg = json.loads(json.dumps(TSP_D_EDGE_2))
    cfg["model"]["k_layers"] = 0
    path = write_config(tmp_path, cfg)
    assert main(["train", "--config", path, "--out", str(tmp_path / "run")]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_unknown_generator_param_exits_1(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["dataset"]["params"]["typo"] = 1
    path = write_config(tmp_path, cfg)
    assert main(["train", "--config", path, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "typo" in err and "Traceback" not in err


# --- gradcheck ------------------------------------------------------------------------

def test_gradcheck_exits_0_within_tolerance(capsys):
    assert main(["gradcheck", "--variant", "nlmi-gcn", "--width", "4",
                 "--nodes", "5", "--seed", "3"]) == 0
    assert "max_rel_error" in capsys.readouterr().out


def test_gradcheck_step_across_a_relu_kink_exits_0(capsys):
    # At h=1e-5 one coordinate's central difference straddles a relu kink.
    assert main(["gradcheck", "--variant", "nlmi-gcn", "--width", "5",
                 "--nodes", "7", "--seed", "302"]) == 0
    assert "max_rel_error" in capsys.readouterr().out


def test_gradcheck_unknown_variant_exits_1(capsys):
    assert main(["gradcheck", "--variant", "transformer"]) == 1
    assert "unknown variant" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--nodes", "0"), ("--nodes", "1"), ("--width", "0")])
def test_gradcheck_size_below_its_least_exits_1(capsys, flag, value):
    assert main(["gradcheck", "--variant", "nlmi-gcn", flag, value]) == 1
    err = capsys.readouterr().err
    assert f"{flag} must be an integer >= " in err and f"got {value}" in err
    assert len(err.strip().splitlines()) == 1


def test_gradcheck_seed_beyond_int64_exits_1(capsys):
    # the rng would reduce it mod 2**64; train and ablate reject the same seed
    assert main(["gradcheck", "--variant", "gcn", "--width", "3", "--nodes", "4",
                 "--seed", str(10 ** 29)]) == 1
    err = capsys.readouterr().err
    assert f"--seed must be an integer, got {10 ** 29}" in err
    assert len(err.strip().splitlines()) == 1


def test_gradcheck_nan_weight_gradient_exits_2(monkeypatch, capsys):
    # a backward rule that gives NaN for the weights of every matmul, while
    # the bias errors stay small, must fail the check rather than be skipped
    matmul = T.matmul

    def nan_weight_grad(a, b):
        out = matmul(a, b)
        if out.node is not None:
            rule = out.node.backward_fn

            def backward_fn(g):
                ga, gb = rule(g)
                return ga, None if gb is None else np.full_like(gb, np.nan)

            out.node.backward_fn = backward_fn
        return out

    monkeypatch.setattr(T, "matmul", nan_weight_grad)
    assert main(["gradcheck", "--variant", "nlmi-gcn", "--width", "4",
                 "--nodes", "5", "--seed", "3"]) == 2
    assert "max_rel_error=nan" in capsys.readouterr().out


def test_each_call_parses_its_own_arguments(capsys):
    # the parser is built once per process; one call's flags must not carry
    # over into the next call's defaults
    assert build_parser() is build_parser()
    assert main(["gradcheck", "--variant", "gcn", "--width", "3", "--nodes", "4",
                 "--seed", "1"]) == 0
    assert "variant=gcn d=3 n=4 " in capsys.readouterr().out
    assert main(["gradcheck", "--variant", "nlmi-gcn"]) == 0
    assert "variant=nlmi-gcn d=8 n=6 " in capsys.readouterr().out


def test_gradcheck_variant_errors_small():
    assert gradcheck_variant("nlmi-gatedgcn", d=3, n_nodes=5, seed=1) < GRADCHECK_TOLERANCE


# --- ablate ----------------------------------------------------------------------------

def test_ablate_emits_four_rows(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["model"]["base"] = "gatedgcn"
    cfg["seeds"] = [1]
    cfg["train"]["max_epochs"] = 1
    path = write_config(tmp_path, cfg)
    out = tmp_path / "abl"
    assert main(["ablate", "--config", path, "--out", str(out)]) == 0
    with open(out / "ablation.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["terms", "metric", "mean", "std"]
    assert [r[0] for r in rows[1:]] == [name for name, _ in ABLATION_ROWS]
    assert len(rows) == 5


def test_ablate_rejects_gcn_base(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG)
    assert main(["ablate", "--config", path, "--out", str(tmp_path / "a")]) == 1
    assert "gatedgcn" in capsys.readouterr().err
