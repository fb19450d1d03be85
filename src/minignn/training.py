"""Optimization and the experiment loop.

Training uses Adam with a reduce-on-plateau schedule: the learning rate
is halved whenever the validation loss has not improved for ``patience``
epochs, and training stops once the rate drops below ``min_lr`` (or at
the epoch cap). Each run is fully deterministic given the dataset seed,
the model seed, and the config.
"""

from __future__ import annotations

import csv
import ctypes
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .checks import DTYPES, check_fields
from .graph import TASK_LABELS, Graph, batch as make_batch
from .layers import Model, ModelConfig
from .rng import Rng
from . import tensor as T
from .tensor import Tensor, NumericsError


# --- optimizer and schedule -------------------------------------------------

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class Adam:
    """Bias-corrected Adam over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros(p.shape) for k, p in params.items()}
        self.v = {k: np.zeros(p.shape) for k, p in params.items()}

    def step(self) -> None:
        beta1, beta2 = ADAM_BETAS
        self.t += 1
        bc1 = 1.0 - beta1 ** self.t
        bc2 = 1.0 - beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros(p.shape)
            self.m[name] = beta1 * self.m[name] + (1.0 - beta1) * g
            self.v[name] = beta2 * self.v[name] + (1.0 - beta2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


class PlateauScheduler:
    """Scale the learning rate by ``config.factor`` after ``config.patience``
    non-improving epochs, starting from ``config.lr`` (a TrainConfig)."""

    def __init__(self, config: TrainConfig):
        self.config = config
        self.lr = config.lr
        self.best_val_loss = math.inf
        self.epochs_since_improvement = 0

    def step(self, val_loss: float) -> tuple[float, bool]:
        """Returns (current lr, stop flag). lr never increases."""
        if val_loss < self.best_val_loss:
            self.best_val_loss = val_loss
            self.epochs_since_improvement = 0
        else:
            self.epochs_since_improvement += 1
            if self.epochs_since_improvement >= self.config.patience:
                self.lr *= self.config.factor
                self.epochs_since_improvement = 0
        return self.lr, self.lr < self.config.min_lr


# --- losses -----------------------------------------------------------------
# Each loss gives one value per example, an (n, 1) column; compute_loss is the
# one place that reduces them to a (weighted) mean.

def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Softmax cross-entropy of each row of logits."""
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    z = T.sub(logits, Tensor(logits.data.max(axis=1, keepdims=True)))  # (n, 1) column
    lse = T.log(T.sum_cols(T.exp(z)))
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    return T.sub(lse, T.sum_cols(T.mul(z, Tensor(onehot))))


def binary_ce(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Stable sigmoid cross-entropy of each entry of a column of logits."""
    y = Tensor(np.asarray(labels, dtype=np.float64).reshape(-1, 1))
    # max(z, 0) - z*y + log(1 + exp(-|z|))
    softplus = T.log(T.add(T.exp(T.scale(T.absolute(logits), -1.0)), Tensor(np.ones(1))))
    return T.add(T.sub(T.relu(logits), T.mul(logits, y)), softplus)


def l1(pred: Tensor, target: np.ndarray) -> Tensor:
    """Absolute error of each entry of a column of predictions."""
    target = np.asarray(target, dtype=np.float64).reshape(pred.shape)
    return T.absolute(T.sub(pred, Tensor(target)))


# --- metrics ----------------------------------------------------------------

def accuracy(pred: np.ndarray, labels: np.ndarray) -> float:
    return float((pred == labels).mean())


def weighted_accuracy(pred: np.ndarray, labels: np.ndarray) -> float:
    """Mean of per-class recalls over classes present in labels."""
    recalls = []
    for c in np.unique(labels):
        mask = labels == c
        recalls.append(float((pred[mask] == c).mean()))
    return float(np.mean(recalls))


def f1_positive(pred: np.ndarray, labels: np.ndarray) -> float:
    tp = int(((pred == 1) & (labels == 1)).sum())
    fp = int(((pred == 1) & (labels == 0)).sum())
    fn = int(((pred == 0) & (labels == 1)).sum())
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def mae(pred: np.ndarray, target: np.ndarray) -> float:
    return float(np.mean(np.abs(pred.reshape(-1) - np.asarray(target).reshape(-1))))


# --- experiment loop ----------------------------------------------------------

@dataclass
class TrainConfig:
    lr: float = 1e-3
    patience: int = 10
    factor: float = 0.5
    min_lr: float = 1e-6
    max_epochs: int = 1000
    batch_size: int = 16
    weight_classes: bool = True

    def __post_init__(self):
        check_fields("train", vars(self), self.__annotations__,  # lr may be 0: a frozen run
                     {"lr": (0.0,), "patience": (0,), "factor": (0.0, 1.0), "min_lr": (0.0,),
                      "max_epochs": (1,), "batch_size": (1,)})


@dataclass
class MetricsRecord:
    epoch: int
    split: str
    loss: float
    metric: str
    value: float
    seconds: float


def labels_of(graphs: list[Graph], task: str) -> np.ndarray:
    """The task's labels for ``graphs``, concatenated in graph order."""
    attr, kind = TASK_LABELS[task]
    parts = [getattr(g, attr) for g in graphs]
    if any(p is None for p in parts):
        raise ValueError(f"a graph has no {task} labels ({attr})")
    return np.concatenate([np.atleast_1d(p) for p in parts]).astype(DTYPES[kind], copy=False)


def class_weights(graphs: list[Graph], task: str, n_classes: int) -> np.ndarray | None:
    """One loss weight per class, from the training split's labels.

    Classes are weighted by inverse frequency; edge-pred weights positives by
    neg / pos and negatives by exactly 1. A float target has no classes: None.
    """
    if TASK_LABELS[task][1] == "float":
        return None
    labels = labels_of(graphs, task)
    if task == "edge-pred":
        pos = max(int(labels.sum()), 1)
        neg = max(int(labels.size - pos), 1)
        return np.array([1.0, neg / pos])
    counts = np.maximum(np.bincount(labels, minlength=n_classes), 1)
    return labels.size / (n_classes * counts.astype(np.float64))


TASK_LOSSES = {  # task: (per-example loss, metric name, metric of predictions and labels)
    "node-class": (cross_entropy, "weighted_accuracy",
                   lambda p, y: weighted_accuracy(p.argmax(axis=1), y)),
    "graph-class": (cross_entropy, "accuracy", lambda p, y: accuracy(p.argmax(axis=1), y)),
    "edge-pred": (binary_ce, "f1_positive", lambda p, y: f1_positive(p.ravel() > 0, y)),
    "graph-reg": (l1, "mae", mae),
}


def compute_loss(pred: Tensor, labels: np.ndarray, task: str,
                 weights: np.ndarray | None = None) -> Tensor:
    """The task's loss, averaged over examples, each weighted by its class's
    entry of ``weights`` (a plain mean when None)."""
    per = TASK_LOSSES[task][0](pred, labels)
    if weights is None:
        w = np.ones((per.shape[0], 1))
    else:
        w = weights[np.asarray(labels, dtype=np.int64)].reshape(-1, 1)
    return T.scale(T.sum_all(T.mul(per, Tensor(w))), 1.0 / w.sum())


def evaluate(model: Model, graphs: list[Graph], batch_size: int = 64,
             weights: np.ndarray | None = None) -> tuple[float, float]:
    """(loss, task metric) over a split, eval mode.

    The model runs one batch at a time; the loss is then taken once over the
    whole split's predictions, so it does not depend on ``batch_size``.
    """
    task = model.config.task
    with T.no_grad():
        preds = [model.forward(make_batch(graphs[i:i + batch_size]), training=False).data
                 for i in range(0, len(graphs), batch_size)]
        pred = Tensor(np.concatenate(preds, axis=0))
        labels = labels_of(graphs, task)
        loss = compute_loss(pred, labels, task, weights)
    return float(loss.data), TASK_LOSSES[task][2](pred.data, labels)


# mallopt parameter numbers from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _retain_freed_memory() -> None:
    """Ask glibc's malloc to keep freed memory in the process for reuse.

    A training step allocates and frees tens of MB of activation and gradient
    arrays of about 1 MB each. By default glibc hands the top of the heap back
    to the OS as soon as a few MB are free there, so unless some long-lived
    array happens to sit above them, every step faults the same pages in
    again: about 15k minor faults per forward on a 16-graph SBM batch
    (960 nodes, 9.7k edges). Fixed thresholds keep arrays below 32 MB on the
    heap and the heap at its peak size, so the pages are reused. Elsewhere
    than Linux this does nothing; a C library without mallopt is skipped.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def train_loop(splits: dict[str, list[Graph]], model: Model, config: TrainConfig,
               rng: Rng) -> tuple[list[MetricsRecord], dict]:
    """Train with plateau scheduling; returns (history, best-val model state)."""
    _retain_freed_memory()
    task = model.config.task
    metric_name = TASK_LOSSES[task][1]
    weights = (class_weights(splits["train"], task, model.config.n_classes)
               if config.weight_classes else None)
    opt = Adam(model.params(), lr=config.lr)
    sched = PlateauScheduler(config)
    order_rng = rng.spawn("batch-order")

    history: list[MetricsRecord] = []
    best_state = model.state()
    train_graphs = splits["train"]

    for epoch in range(config.max_epochs):
        t0 = time.perf_counter()
        idx = list(range(len(train_graphs)))
        order_rng.shuffle(idx)
        batch_losses = []
        for bstart in range(0, len(idx), config.batch_size):
            chunk = [train_graphs[i] for i in idx[bstart:bstart + config.batch_size]]
            b = make_batch(chunk)
            model.zero_grads()
            pred = model.forward(b, training=True)
            loss = compute_loss(pred, labels_of(chunk, task), task, weights)
            if not np.isfinite(loss.data):
                raise NumericsError(
                    f"non-finite loss at epoch {epoch}, batch {bstart // config.batch_size}"
                )
            T.backward(loss)
            opt.step()
            batch_losses.append(float(loss.data))
            del pred, loss  # free this step's graph before the next forward

        train_loss = float(np.mean(batch_losses))
        val_loss, val_metric = evaluate(model, splits["val"], config.batch_size, weights)
        seconds = time.perf_counter() - t0
        history.append(MetricsRecord(epoch, "train", train_loss, metric_name,
                                     math.nan, seconds))
        history.append(MetricsRecord(epoch, "val", val_loss, metric_name,
                                     val_metric, seconds))
        if val_loss < sched.best_val_loss:  # read before sched.step records val_loss
            best_state = model.state()
        lr, stop = sched.step(val_loss)
        opt.lr = lr
        if stop:
            break
    return history, best_state


def run_seeds(splits: dict[str, list[Graph]], model_config: ModelConfig,
              train_config: TrainConfig, seeds: list[int]) -> dict:
    """Train once per seed; report per-seed test metrics with mean and std."""
    metric_name = TASK_LOSSES[model_config.task][1]
    values = []
    histories = {}
    states = {}
    for seed in seeds:
        model = Model(model_config, Rng(seed).spawn("init"))
        history, best_state = train_loop(splits, model, train_config,
                                         Rng(seed).spawn("train"))
        model.load_state(best_state)
        _, test_metric = evaluate(model, splits["test"], train_config.batch_size)
        values.append(test_metric)
        histories[seed] = history
        states[seed] = best_state
    return {
        "metric": metric_name,
        "seeds": list(seeds),
        "values": values,
        "mean": float(np.mean(values)),
        "std": float(np.std(values)),
        "histories": histories,
        "states": states,
    }


# --- reporting ----------------------------------------------------------------

def write_metrics_csv(path, history: list[MetricsRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "split", "loss", "metric", "value", "seconds"])
        for rec in history:
            writer.writerow([rec.epoch, rec.split, repr(rec.loss), rec.metric,
                             repr(rec.value), f"{rec.seconds:.3f}"])


def write_summary_json(path, summary: dict) -> None:
    slim = {k: summary[k] for k in ("metric", "seeds", "values", "mean", "std")}
    with open(path, "w") as fh:
        json.dump(slim, fh, indent=2)
