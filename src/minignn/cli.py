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
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .checks import ConfigError, check_keys, check_value, make_config, read_json
from .generators import DatasetSpec, generate_dataset, load_dataset, save_dataset
from .graph import TASK_LABELS
from .layers import Model, ModelConfig
# perfbench/tracing.py wraps finite_diff_check under this module's name too
from .tensor import NumericsError, finite_diff_check  # noqa: F401
from .training import (TrainConfig, evaluate, labels_of, run_seeds, write_metrics_csv,
                       write_summary_json)
from .verify import VARIANTS, gradcheck_variant

CONFIG_VERSION = 1

GRADCHECK_TOLERANCE = 1e-4

ABLATION_ROWS = [
    ("self+msg", (True, True, False)),
    ("self+enc", (True, False, True)),
    ("msg+enc", (False, True, True)),
    ("self+msg+enc", (True, True, True)),
]


def load_run_config(path) -> dict:
    raw = read_json(path, "config", CONFIG_VERSION)
    unknown = set(raw) - {"version", "dataset", "model", "train", "seeds", "out"}
    if unknown:
        raise ConfigError(f"unknown keys in config: {sorted(unknown)}")
    if "dataset" not in raw:
        raise ConfigError(f"{path}: config has no dataset section")
    for section, cls in (("dataset", DatasetSpec), ("model", ModelConfig), ("train", TrainConfig)):
        check_keys(raw.get(section, {}), cls, section)
    if not isinstance(raw.get("out", "."), str):
        raise ConfigError(f"{path}: out must be a path string")
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
        raw["dataset"] = {**raw["dataset"], "seed": raw["dataset"].get("seed", args.seed)}
    if getattr(args, "out", None) is not None:
        raw["out"] = args.out
    return raw


def _build(raw: dict):
    """The parts of a train or ablate run; both need graphs in every split. The
    seeds are checked here, after a --seed override."""
    seeds = raw.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError(f"seeds must be a non-empty list of integers, got {seeds!r}")
    for i, seed in enumerate(seeds):
        check_value(f"seeds[{i}]", seed, "int")
        if seed in seeds[:i]:
            raise ConfigError(f"seeds[{i}] repeats seed {seed}; each seed trains one run")
    spec = make_config(DatasetSpec, raw["dataset"], "dataset")
    empty = [name for name in ("n_train", "n_val", "n_test") if getattr(spec, name) == 0]
    if empty:
        raise ConfigError(f"dataset {', '.join(empty)} must be >= 1 to train")
    model_config = make_config(ModelConfig, raw["model"], "model")
    _check_data_fits(model_config, spec.task, {})  # the task, before any graph is made
    train_config = make_config(TrainConfig, raw.get("train", {}), "train")
    out = Path(raw.get("out", "."))
    return spec, model_config, train_config, seeds, out


def _generate(spec: DatasetSpec, config: ModelConfig, out: Path) -> dict:
    """The run's splits, checked against the model. The out directory is made
    only after every check has passed, so a rejected run leaves none behind."""
    splits = generate_dataset(spec)
    _check_data_fits(config, spec.task, splits)
    out.mkdir(parents=True, exist_ok=True)
    return splits


def _check_data_fits(config: ModelConfig, task: str, splits: dict) -> None:
    """The model's task and input widths must be the data's, every class label
    must lie in [0, n_classes), and every edge label in [0, 2)."""
    if config.task != task:
        raise ConfigError(f"model task is {config.task!r}, but the data's task is {task!r}")
    for graphs in splits.values():
        for g in graphs:
            if g.node_features.shape[1] != config.d_in:
                raise ConfigError(f"model d_in is {config.d_in}, but the data's node "
                                  f"features have width {g.node_features.shape[1]}")
            if (config.base == "gatedgcn" and config.k_layers > 0  # else no edge encoder
                    and g.edge_features is not None and g.edge_features.shape[1] != config.d_edge):
                raise ConfigError(f"model d_edge is {config.d_edge}, but the data's edge "
                                  f"features have width {g.edge_features.shape[1]}")
        if graphs and TASK_LABELS[task][1] == "int":
            edge = task == "edge-pred"
            labels = labels_of(graphs, task)
            bad = labels[(labels < 0) | (labels >= (2 if edge else config.n_classes))]
            if bad.size:
                limit = "edge labels must be 0 or 1" if edge else \
                    f"model n_classes is {config.n_classes}"
                raise ConfigError(f"{limit}, but the data has label {bad[0]}")


# --- subcommands -------------------------------------------------------------

def cmd_gen(args) -> int:
    raw = load_run_config(args.config)
    spec = make_config(DatasetSpec, raw["dataset"], "dataset")
    splits = generate_dataset(spec)
    save_dataset(args.out, spec, splits)
    sizes = {name: len(graphs) for name, graphs in splits.items()}
    print(f"wrote {args.out}: {sizes}")
    return 0


def cmd_train(args) -> int:
    raw = _apply_overrides(load_run_config(args.config), args)
    spec, model_config, train_config, seeds, out = _build(raw)
    splits = _generate(spec, model_config, out)
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
    if not splits[args.split]:
        raise ConfigError(f"split {args.split!r} of {args.data} is empty")
    _check_data_fits(model.config, spec.task, splits)
    loss, metric = evaluate(model, splits[args.split])
    print(f"split={args.split} loss={loss:.6f} metric={metric:.6f}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.variant not in VARIANTS:
        raise ConfigError(f"unknown variant {args.variant!r}, "
                          f"expected one of {sorted(VARIANTS)}")
    check_value("--width", args.width, "int", 1)
    check_value("--nodes", args.nodes, "int", 2)
    check_value("--seed", args.seed, "int")
    err = gradcheck_variant(args.variant, args.width, args.nodes, args.seed)
    print(f"variant={args.variant} d={args.width} n={args.nodes} "
          f"max_rel_error={err:.3e} tolerance={GRADCHECK_TOLERANCE:.0e}")
    return 0 if err < GRADCHECK_TOLERANCE else 2


def cmd_ablate(args) -> int:
    raw = _apply_overrides(load_run_config(args.config), args)
    spec, model_config, train_config, seeds, out = _build(raw)
    if model_config.base != "gatedgcn":
        raise ConfigError("ablation rows are defined for the gatedgcn base")
    splits = _generate(spec, model_config, out)
    rows = []
    for name, terms in ABLATION_ROWS:
        config = dataclasses.replace(model_config, nlmi=True, terms=terms)
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

@functools.cache  # built on first use, not at import; parse_args leaves it unchanged
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
        with np.errstate(all="ignore"):  # the finite checks report a divergence, in one line
            return args.fn(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericsError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
