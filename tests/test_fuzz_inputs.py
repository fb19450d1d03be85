"""Seeded fuzz of the three JSON inputs: a run config, a dataset file and a
checkpoint.

Each case replaces one value of a valid input, at a path drawn from all of its
paths, with a value from a fixed palette, and runs the CLI in-process. It
must exit 0, 1 or 2, print at most one stderr line, and raise nothing. No
palette value is a size large enough to allocate.
"""

import copy
import json
import math

import pytest

from minignn.cli import main
from minignn.rng import Rng

PALETTE = [True, None, "x", -1, 0, 1.5, 10 ** 400, math.nan, math.inf, [], {}, [[0, 1], [2]]]

CONFIG = {
    "version": 1,
    "dataset": {"task": "node-class", "generator": "sbm",
                "params": {"n_nodes": 6, "n_communities": 2, "p_in": 0.7, "p_intra": 0.1,
                           "feature_noise": 0.1},
                "n_train": 2, "n_val": 1, "n_test": 1, "seed": 3},
    "model": {"task": "node-class", "base": "gatedgcn", "nlmi": True, "k_layers": 1,
              "width": 3, "d_in": 2, "d_edge": 1, "n_classes": 2,
              "terms": [True, True, True]},
    "train": {"lr": 0.01, "patience": 1, "factor": 0.5, "min_lr": 1e-6, "max_epochs": 1,
              "batch_size": 2, "weight_classes": True},
    "seeds": [1],
    "out": "run",
}

CASES = 300  # per input


def shapes(obj, path=()):
    """Every path below obj, with "*" for a list index: the elements of a list
    share the paths of its first element."""
    children = obj.items() if isinstance(obj, dict) else \
        [("*", obj[0])] if isinstance(obj, list) and obj else []
    for key, child in children:
        yield path + (key,)
        yield from shapes(child, path + (key,))


def mutated(obj, shape, rng):
    """A copy of obj with a palette value at the path of that shape, each "*"
    drawn as an index of its list (an empty list takes the value itself); and
    the path."""
    obj = copy.deepcopy(obj)
    node, path = obj, []
    for step in shape:
        if step == "*" and not node:
            break
        holder, key = node, rng.randint(len(node)) if step == "*" else step
        path.append(key)
        node = holder[key]
    holder[key] = PALETTE[rng.randint(len(PALETTE))]
    return obj, path


def obj_at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@pytest.fixture(scope="module")
def valid_run(tmp_path_factory):
    """The paths of a valid run config, its dataset file and a checkpoint."""
    root = tmp_path_factory.mktemp("fuzz")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    assert main(["train", "--config", str(config), "--out", str(root / "run")]) == 0
    assert main(["gen", "--config", str(config), "--out", str(root / "data.json")]) == 0
    return {"config": config, "data": root / "data.json",
            "checkpoint": root / "run" / "checkpoint_seed1.json"}


@pytest.mark.parametrize("target", ["config", "data", "checkpoint"])
def test_one_bad_value_exits_cleanly(tmp_path, monkeypatch, capsys, valid_run, target):
    monkeypatch.chdir(tmp_path)  # a mutated run config writes under its "out", here
    rng = Rng(18).spawn(target)
    valid = json.loads(valid_run[target].read_text())
    paths = list(shapes(valid))
    for i in range(CASES):
        obj, path = mutated(valid, paths[rng.randint(len(paths))], rng)
        file = tmp_path / f"{target}{i}.json"
        file.write_text(json.dumps(obj))
        files = {**valid_run, target: file}
        argv = (["train", "--config", str(file)] if target == "config" else
                ["eval", "--checkpoint", str(files["checkpoint"]), "--data", str(files["data"])])
        capsys.readouterr()
        case = f"{target} {path} = {json.dumps(obj_at(obj, path))[:40]}"
        try:
            code = main(argv)
        except Exception as err:  # noqa: BLE001 - any escape is the failure under test
            pytest.fail(f"{case}: {type(err).__name__}: {err}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2), case
        assert len(err.splitlines()) <= 1, f"{case}: {err}"
