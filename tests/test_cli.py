import csv
import json

import pytest

from minignn.cli import (ABLATION_ROWS, GRADCHECK_TOLERANCE, ConfigError,
                         gradcheck_variant, load_run_config, main)


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


@pytest.mark.parametrize("key,value", [
    ("width", 0), ("k_layers", -1), ("d_in", 0), ("d_edge", 0), ("task", "bogus"),
    ("width", "16"),
])
def test_invalid_model_config_exits_1(tmp_path, capsys, key, value):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["model"][key] = value
    path = write_config(tmp_path, cfg)
    assert main(["train", "--config", path, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_d_in_not_matching_the_data_exits_1(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["model"]["d_in"] = 3  # sbm node features have width 2
    path = write_config(tmp_path, cfg)
    assert main(["train", "--config", path, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "d_in" in err and "Traceback" not in err


def test_d_edge_not_matching_the_data_exits_1(tmp_path, capsys):
    cfg = {
        "version": 1,
        "dataset": {"task": "edge-pred", "generator": "tsp",
                    "params": {"n_cities": 5, "k_nn": 4},
                    "n_train": 2, "n_val": 1, "n_test": 1, "seed": 7},
        "model": {"task": "edge-pred", "base": "gatedgcn", "k_layers": 1, "width": 4,
                  "d_in": 2, "d_edge": 2},  # tsp edge features have width 1
        "train": {"max_epochs": 1},
        "seeds": [1],
    }
    path = write_config(tmp_path, cfg)
    assert main(["train", "--config", path, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "d_edge" in err and "Traceback" not in err
    cfg["model"]["d_edge"] = 1
    path = write_config(tmp_path, cfg)
    assert main(["train", "--config", path, "--out", str(tmp_path / "run")]) == 0


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
