"""Command-line entry point.

Subcommands: gen (materialize a dataset), train (multi-seed training
runs), eval (score a checkpoint on a split), gradcheck (finite-difference
check of a layer variant), ablate (the four node-update term combinations).

Exit codes: 0 success, 1 validation/config error, 2 numerical failure.
Config files are JSON with a ``version`` field; unknown keys are rejected
so a typo cannot silently change an experiment. All randomness derives
from the config's seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .generators import DatasetSpec, generate_dataset, load_dataset, save_dataset
from .graph import Graph
from .layers import GraphView, Model, ModelConfig
from .rng import Rng
from .tensor import NumericsError, finite_diff_check
from .training import (TrainConfig, evaluate, run_seeds, write_metrics_csv,
                       write_summary_json)

CONFIG_VERSION = 1

GRADCHECK_TOLERANCE = 1e-4

ABLATION_ROWS = [
    ("self+msg", (True, True, False)),
    ("self+enc", (True, False, True)),
    ("msg+enc", (False, True, True)),
    ("self+msg+enc", (True, True, True)),
]


class ConfigError(ValueError):
    pass


def _check_keys(obj: dict, allowed: set[str], context: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {context}: {sorted(unknown)}")


def _fields(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def load_run_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    _check_keys(raw, {"version", "dataset", "model", "train", "seeds", "out"}, "config")
    if raw.get("version") != CONFIG_VERSION:
        raise ConfigError(f"{path}: config version must be {CONFIG_VERSION}")
    _check_keys(raw.get("dataset", {}), _fields(DatasetSpec), "dataset")
    _check_keys(raw.get("model", {}), _fields(ModelConfig), "model")
    _check_keys(raw.get("train", {}), _fields(TrainConfig), "train")
    return raw


def _apply_overrides(raw: dict, args) -> dict:
    model = dict(raw.get("model", {}))
    if getattr(args, "layers", None) is not None:
        model["k_layers"] = args.layers
    if getattr(args, "base", None) is not None:
        model["base"] = args.base
    if getattr(args, "nlmi", None) is not None:
        model["nlmi"] = args.nlmi == "on"
    if getattr(args, "terms", None) is not None:
        parts = {p.strip() for p in args.terms.split(",") if p.strip()}
        bad = parts - {"self", "msg", "enc"}
        if bad:
            raise ConfigError(f"unknown terms: {sorted(bad)}")
        model["terms"] = ["self" in parts, "msg" in parts, "enc" in parts]
    raw = dict(raw)
    raw["model"] = model
    if getattr(args, "seed", None) is not None:
        raw["seeds"] = [args.seed]
        raw.setdefault("dataset", {})
        raw["dataset"] = {**raw["dataset"], "seed": raw["dataset"].get("seed", args.seed)}
    if getattr(args, "out", None) is not None:
        raw["out"] = args.out
    return raw


def _build(raw: dict):
    spec = DatasetSpec(**raw["dataset"])
    model_config = ModelConfig(**raw["model"])
    train_config = TrainConfig(**raw.get("train", {}))
    seeds = raw.get("seeds", [0])
    out = Path(raw.get("out", "."))
    return spec, model_config, train_config, seeds, out


def _check_feature_widths(config: ModelConfig, splits: dict) -> None:
    """The model's input widths must equal the widths of the data's features."""
    for graphs in splits.values():
        for g in graphs:
            if g.node_features.shape[1] != config.d_in:
                raise ConfigError(f"model d_in is {config.d_in}, but the data's node "
                                  f"features have width {g.node_features.shape[1]}")
            if (config.base == "gatedgcn" and g.edge_features is not None
                    and g.edge_features.shape[1] != config.d_edge):
                raise ConfigError(f"model d_edge is {config.d_edge}, but the data's edge "
                                  f"features have width {g.edge_features.shape[1]}")


# --- subcommands -------------------------------------------------------------

def cmd_gen(args) -> int:
    raw = load_run_config(args.config)
    spec = DatasetSpec(**raw["dataset"])
    splits = generate_dataset(spec)
    save_dataset(args.out, spec, splits)
    sizes = {name: len(graphs) for name, graphs in splits.items()}
    print(f"wrote {args.out}: {sizes}")
    return 0


def cmd_train(args) -> int:
    raw = _apply_overrides(load_run_config(args.config), args)
    spec, model_config, train_config, seeds, out = _build(raw)
    out.mkdir(parents=True, exist_ok=True)
    splits = generate_dataset(spec)
    _check_feature_widths(model_config, splits)
    summary = run_seeds(splits, model_config, train_config, seeds)
    for seed in seeds:
        write_metrics_csv(out / f"metrics_seed{seed}.csv", summary["histories"][seed])
        with open(out / f"checkpoint_seed{seed}.json", "w") as fh:
            json.dump(summary["states"][seed], fh)
    write_summary_json(out / "summary.json", summary)
    print(f"{summary['metric']}: mean={summary['mean']:.4f} std={summary['std']:.4f} "
          f"over seeds {seeds}")
    return 0


def cmd_eval(args) -> int:
    model = Model.load(args.checkpoint)
    spec, splits = load_dataset(args.data)
    if args.split not in splits:
        raise ConfigError(f"split {args.split!r} not in dataset (has {sorted(splits)})")
    _check_feature_widths(model.config, splits)
    loss, metric = evaluate(model, splits[args.split])
    print(f"split={args.split} loss={loss:.6f} metric={metric:.6f}")
    return 0


def _random_graph(n: int, rng: Rng, with_edge_features: bool) -> Graph:
    pairs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.uniform() < 0.5:
                pairs.append((u, v))
    if not pairs:
        pairs = [(0, 1)]
    directed = sorted(set(pairs) | {(v, u) for u, v in pairs})
    edges = np.array(directed, dtype=np.int64)
    return Graph(
        num_nodes=n,
        edges=edges,
        node_features=rng.normals((n, 3)),
        edge_features=rng.normals((len(directed), 2)) if with_edge_features else None,
    )


VARIANTS = {
    "gcn": ("gcn", False),
    "nlmi-gcn": ("gcn", True),
    "gatedgcn": ("gatedgcn", False),
    "nlmi-gatedgcn": ("gatedgcn", True),
}


def gradcheck_variant(variant: str, d: int, n_nodes: int, seed: int,
                      h: float = 1e-5) -> float:
    """Max relative finite-difference error over all parameters of one variant."""
    base, nlmi = VARIANTS[variant]
    rng = Rng(seed)
    g = _random_graph(n_nodes, rng.spawn("graph"), with_edge_features=base == "gatedgcn")
    config = ModelConfig(task="node-class", base=base, nlmi=nlmi, k_layers=1,
                         width=d, d_in=3, d_edge=2, n_classes=2)
    model = Model(config, rng.spawn("model"))
    view = GraphView(g)  # every forward of the check shares g's indices

    from . import tensor as T

    def f(_x, _model=model, _view=view):
        pred = _model.forward(_view, training=False)
        return T.sum_all(T.mul(pred, pred))

    worst = 0.0
    for p in model.params().values():
        worst = max(worst, finite_diff_check(f, p, h))
    return worst


def cmd_gradcheck(args) -> int:
    if args.variant not in VARIANTS:
        raise ConfigError(f"unknown variant {args.variant!r}, "
                          f"expected one of {sorted(VARIANTS)}")
    err = gradcheck_variant(args.variant, args.width, args.nodes, args.seed)
    print(f"variant={args.variant} d={args.width} n={args.nodes} "
          f"max_rel_error={err:.3e} tolerance={GRADCHECK_TOLERANCE:.0e}")
    return 0 if err < GRADCHECK_TOLERANCE else 2


def cmd_ablate(args) -> int:
    raw = _apply_overrides(load_run_config(args.config), args)
    spec, model_config, train_config, seeds, out = _build(raw)
    if model_config.base != "gatedgcn":
        raise ConfigError("ablation rows are defined for the gatedgcn base")
    out.mkdir(parents=True, exist_ok=True)
    splits = generate_dataset(spec)
    _check_feature_widths(model_config, splits)
    rows = []
    for name, terms in ABLATION_ROWS:
        config = ModelConfig(**{**model_config.to_dict(), "nlmi": True,
                                "terms": terms})
        summary = run_seeds(splits, config, train_config, seeds)
        rows.append((name, summary["metric"], summary["mean"], summary["std"]))
        print(f"{name:14s} {summary['metric']}={summary['mean']:.4f} "
              f"±{summary['std']:.4f}")
    with open(out / "ablation.csv", "w") as fh:
        fh.write("terms,metric,mean,std\n")
        for name, metric, mean, std in rows:
            fh.write(f"{name},{metric},{mean!r},{std!r}\n")
    return 0


# --- argument parsing ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="minignn")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="materialize a dataset file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="run training per seed")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--layers", type=int)
    p.add_argument("--base", choices=["gcn", "gatedgcn"])
    p.add_argument("--nlmi", choices=["on", "off"])
    p.add_argument("--terms")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check a layer variant")
    p.add_argument("--variant", required=True)
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--nodes", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("ablate", help="run the four node-update term ablations")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--layers", type=int)
    p.set_defaults(fn=cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericsError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
