"""Spans around calls into minignn, recorded from the benchmark's side.

``Tracer`` keeps one span per wrapped call (name, start, end, parent span,
and a byte count for tensor ops) in flat arrays, so that hundreds of
thousands of spans stay cheap to hold in memory until the run ends.
``install`` replaces public minignn names with recording wrappers at the
place each caller looks them up, and returns a function that puts the
originals back. ``layer_metrics`` turns the spans into the per-layer
metrics listed in ``BENCHMARK.json``.

Nothing under ``src/`` is changed: the wrappers are installed at run time
in the traced process only.
"""

from __future__ import annotations

import array
import sys
from time import perf_counter

import numpy as np

MODULES = ("rng", "generators", "graph", "layers", "tensor", "training", "verify", "cli")

# Tensor ops that get their own calls / fwd_s / bytes metrics.
REPORTED_OPS = ("matmul", "add", "sub", "mul", "gather_rows", "segment_sum",
                "concat_cols", "sigmoid", "relu", "powc")
# Every primitive op in minignn.tensor; all are counted in ops_per_step and op_us.
ALL_OPS = REPORTED_OPS + ("scale", "exp", "log", "absolute", "sum_all", "sum_rows",
                          "sum_cols")

LAYER_TYPES = ("gcn", "gcn_nlmi", "gated", "gated_nlmi")


class Tracer:
    """Flat, append-only span store for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.value = array.array("q")
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.start)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.value.append(0)
        stack.append(idx)
        return idx

    def wrap(self, fn, name, value=None):
        """Return fn wrapped so each call records a span.

        ``name`` is a span name, or a function of the call's arguments that
        returns one. ``value`` maps the call's result to an integer stored
        with the span (the output bytes of a tensor op).
        """
        fixed = None if callable(name) else self.name_id(name)
        starts, ends, values, stack = self.start, self.end, self.value, self._stack

        def wrapped(*args, **kwargs):
            nid = fixed if fixed is not None else self.name_id(name(*args, **kwargs))
            idx = self._open(nid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if value is not None:
                values[idx] = value(out)
            return out

        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapped

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "value": np.frombuffer(self.value, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# --- span arithmetic -------------------------------------------------------

def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct child spans cover.

    Spans come from one thread and nest properly, so the children of a
    span never overlap each other and their durations can be summed.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered


def nearest(parent: np.ndarray, name: np.ndarray, marks: dict[int, int]) -> np.ndarray:
    """For each span, the mark of its nearest ancestor-or-self whose name is marked.

    ``marks`` maps name ids to small positive ints; spans with no marked
    ancestor get 0. Parents always precede their children.
    """
    out = np.zeros(len(name), dtype=np.int64)
    for i, (nid, p) in enumerate(zip(name.tolist(), parent.tolist())):
        m = marks.get(nid, 0)
        out[i] = m if m else (out[p] if p >= 0 else 0)
    return out


def layer_metrics(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from one traced run's spans."""
    name, parent = spans["name"], spans["parent"]
    start, end, value = spans["start"], spans["end"], spans["value"]
    dur = end - start
    ids = {n: i for i, n in enumerate(names)}
    n_names = len(names)
    calls_by = np.bincount(name, minlength=n_names) if len(name) else np.zeros(n_names)
    time_by = (np.bincount(name, weights=dur, minlength=n_names)
               if len(name) else np.zeros(n_names))

    def calls(n):
        return int(calls_by[ids[n]]) if n in ids else 0

    def total(n):
        return float(time_by[ids[n]]) if n in ids else 0.0

    def per_call_ms(n):
        c = calls(n)
        return 1e3 * total(n) / c if c else 0.0

    # Phase of each span: inside a train_loop step, inside an evaluate, or neither.
    TRAIN, EVAL = 1, 2
    marks = {ids[n]: m for n, m in (("training.train_loop", TRAIN),
                                   ("training.evaluate", EVAL)) if n in ids}
    phase = nearest(parent, name, marks)
    parent_phase = np.where(parent >= 0, phase[np.maximum(parent, 0)], 0)

    def total_where(n, mask):
        if n not in ids:
            return 0.0
        return float(dur[(name == ids[n]) & mask].sum())

    m: dict[str, tuple[float, str]] = {}
    m["rng.draws"] = (calls("rng.next_u64"), "count")
    m["rng.busy_s"] = (total("rng.next_u64"), "s")

    m["generators.graphs"] = (calls("generators.graph"), "count")
    m["generators.graph_ms"] = (per_call_ms("generators.graph"), "ms")

    m["graph.batch_calls"] = (calls("graph.batch"), "count")
    m["graph.batch_s"] = (total("graph.batch"), "s")
    m["graph.validate_s"] = (total("graph.validate"), "s")

    m["layers.view_calls"] = (calls("layers.view"), "count")
    m["layers.view_s"] = (total("layers.view"), "s")
    for kind in LAYER_TYPES:
        m[f"layers.{kind}.fwd_ms"] = (per_call_ms(f"layers.{kind}"), "ms")
    m["layers.nlmi.fwd_ms"] = (per_call_ms("layers.nlmi"), "ms")
    layer_s = sum(total(f"layers.{kind}") for kind in LAYER_TYPES)
    m["layers.nlmi_share"] = (total("layers.nlmi") / layer_s if layer_s else 0.0, "ratio")
    m["layers.head.fwd_ms"] = (per_call_ms("layers.head"), "ms")

    op_calls = op_time = 0.0
    for op in ALL_OPS:
        op_calls += calls(f"tensor.{op}")
        op_time += total(f"tensor.{op}")
    for op in REPORTED_OPS:
        n = f"tensor.{op}"
        m[f"{n}.calls"] = (calls(n), "count")
        m[f"{n}.fwd_s"] = (total(n), "s")
        nbytes = int(value[name == ids[n]].sum()) if n in ids else 0
        m[f"{n}.bytes"] = (nbytes, "bytes")
    steps = calls("training.optimizer")
    in_step = phase == TRAIN
    step_ops = sum(int(((name == ids[f"tensor.{op}"]) & in_step).sum())
                   for op in ALL_OPS if f"tensor.{op}" in ids)
    m["tensor.ops_per_step"] = (step_ops / steps if steps else 0.0, "count")
    m["tensor.op_us"] = (1e6 * op_time / op_calls if op_calls else 0.0, "us")
    m["tensor.backward_s"] = (total("tensor.backward"), "s")
    m["tensor.finite_diff_check_s"] = (total("tensor.finite_diff_check"), "s")

    m["training.steps"] = (steps, "count")
    m["training.forward_s"] = (total("layers.forward_train"), "s")
    m["training.loss_s"] = (total_where("training.loss", phase == TRAIN), "s")
    m["training.optimizer_s"] = (total("training.optimizer"), "s")
    m["training.eval_s"] = (total_where("training.evaluate", parent_phase == TRAIN), "s")

    m["verify.oracle_s"] = (total("verify.oracle"), "s")
    m["verify.equivariance_s"] = (total("verify.equivariance") + total("verify.edge_order"), "s")
    m["cli.gradcheck_s"] = (total("cli.gradcheck"), "s")

    own = self_times(parent, start, end) if len(name) else np.zeros(0)
    own_by = (np.bincount(name, weights=own, minlength=n_names)
              if len(name) else np.zeros(n_names))
    for mod in MODULES:
        s = sum(float(own_by[i]) for n, i in ids.items() if n.split(".")[0] == mod)
        m[f"{mod}.self_s"] = (s, "s")
    return m


# --- wrappers ----------------------------------------------------------------

def _nbytes(out) -> int:
    return int(out.data.nbytes)


def _layer_name(prefix: str):
    def name(layer, *args, **kwargs):
        if prefix == "gcn":
            on = layer.encode_interactions
        else:
            on = layer.encode_interactions and layer.terms[2]
        return f"layers.{prefix}_nlmi" if on else f"layers.{prefix}"
    return name


def _forward_name(model, g, training=False):
    return "layers.forward_train" if training else "layers.forward_eval"


def install(tracer: Tracer):
    """Wrap minignn's public names where callers look them up.

    Returns (restore, missing): ``restore()`` puts every original back;
    ``missing`` lists names that no longer exist, whose spans would
    otherwise be silently absent.
    """
    from minignn import cli, generators, graph, layers, rng, tensor, training, verify

    undo: list[tuple[object, str, object]] = []
    missing: list[str] = []

    def lookup(owner, attr):
        # On a class, read __dict__ so a classmethod stays a classmethod object.
        if isinstance(owner, type):
            return owner.__dict__.get(attr)
        return getattr(owner, attr, None)

    def patch(owner, attr, span, value=None, also=()):
        """Wrap owner.attr; install the same wrapper at each (owner, attr) in also."""
        raw = lookup(owner, attr)
        if raw is None:
            missing.append(f"{owner.__name__}.{attr}")
            return
        if isinstance(raw, classmethod):
            new = classmethod(tracer.wrap(raw.__func__, span, value))
        else:
            new = tracer.wrap(raw, span, value)
        for o, a in ((owner, attr),) + tuple(also):
            old = lookup(o, a)
            if old is None:
                missing.append(f"{o.__name__}.{a}")
                continue
            undo.append((o, a, old))
            setattr(o, a, new)

    patch(rng.Rng, "next_u64", "rng.next_u64")

    patch(generators, "generate_dataset", "generators.generate_dataset")
    # generate_dataset looks generator functions up in this table, not by name.
    table = generators.GENERATORS
    undo.append((table, None, dict(table)))
    for key, (fn, task) in list(table.items()):
        table[key] = (tracer.wrap(fn, "generators.graph"), task)

    patch(graph, "batch", "graph.batch", also=((training, "make_batch"),))
    patch(graph.Graph, "validate", "graph.validate")

    patch(layers.GraphView, "__init__", "layers.view")
    patch(layers.GcnLayer, "forward", _layer_name("gcn"))
    patch(layers.GatedGcnLayer, "forward", _layer_name("gated"))
    patch(layers, "interaction_encoding", "layers.nlmi")
    for head in (layers.NodeClassHead, layers.GraphHead, layers.EdgeHead):
        patch(head, "__call__", "layers.head")
    patch(layers.Model, "forward", _forward_name)

    for op in ALL_OPS:
        patch(tensor, op, f"tensor.{op}", _nbytes)
    patch(tensor, "backward", "tensor.backward")
    patch(tensor, "finite_diff_check", "tensor.finite_diff_check",
          also=((cli, "finite_diff_check"),))

    patch(training, "train_loop", "training.train_loop")
    patch(training, "evaluate", "training.evaluate")
    patch(training, "compute_loss", "training.loss")
    patch(training.Adam, "step", "training.optimizer")

    patch(verify, "oracle_harness", "verify.oracle")
    patch(verify, "equivariance_harness", "verify.equivariance")
    patch(verify, "edge_order_harness", "verify.edge_order")
    patch(cli, "main", "cli.gradcheck")

    def restore():
        for owner, attr, original in reversed(undo):
            if attr is None:
                owner.clear()
                owner.update(original)
            else:
                setattr(owner, attr, original)
        undo.clear()

    if missing:
        print(f"perfbench: cannot trace missing names: {', '.join(missing)}",
              file=sys.stderr)
    return restore, missing
