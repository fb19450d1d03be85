"""Message-passing layers, readout heads, and the stacked model.

Two layer families are provided: a mean-aggregation convolution and an
edge-gated convolution with batch norm and residual connections. Both can
additionally encode, for every incoming message, the interaction between
that message and the aggregated message of the remaining neighbours: each
per-edge message m is concatenated with (total - m) and passed through a
per-layer affine encoder; the encoded vectors are summed per node and
added to the aggregated message. The subtraction form is algebraically
identical to recomputing the rest-sum directly, but linear in edges.

All per-node sums run over edges in a canonical order (sorted by
destination, then source), so results are independent of edge storage
order and node-permutation equivariance is testable at tight tolerances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .generators import TASKS
from .graph import Graph, GraphBatch
from .rng import Rng
from . import tensor as T
from .tensor import Tensor

BASES = ("gcn", "gatedgcn")
GATE_EPS = 1e-6


class GraphView:
    """Precomputed index structure for one forward pass over a graph/batch.

    ``src``, ``dst``, ``edge_perm``, ``inv_perm`` and ``graph_id`` are
    ``tensor.Rows``: every gather, segment sum and backward scatter of the
    pass goes through them, so all layers share one flattened index each.
    A view can be passed to ``Model.forward`` in place of its graph, so
    repeated forwards of one graph share its indices too.
    """

    def __init__(self, g: Graph | GraphBatch):
        self.graph = g
        n, e = g.num_nodes, g.num_edges
        self.num_nodes = n
        self.num_edges = e
        src = g.edges[:, 0]
        dst = g.edges[:, 1]
        order = np.lexsort((src, dst))  # canonical: by dst, then src
        self.src = T.Rows(src[order], n)
        self.dst = T.Rows(dst[order], n)
        self.edge_perm = T.Rows(order, e)  # canonical row i came from storage row order[i]
        inv_perm = np.empty_like(order)
        inv_perm[order] = np.arange(e)
        self.inv_perm = T.Rows(inv_perm, e)
        self.in_deg = np.bincount(dst, minlength=n).astype(float)
        if isinstance(g, GraphBatch):
            self.num_graphs = g.num_graphs
            self.graph_id = T.Rows(g.graph_id, g.num_graphs)
        else:
            self.num_graphs = 1
            self.graph_id = T.Rows(np.zeros(n, dtype=np.int64), 1)

    def inv_deg_tile(self, width: int) -> Tensor:
        """Constant (E, width) tensor of 1/|N(dst)| per canonical edge."""
        inv = 1.0 / np.maximum(self.in_deg[self.dst.idx], 1.0)
        return Tensor(np.repeat(inv.reshape(-1, 1), width, axis=1))


class Linear:
    """Affine map on row vectors; init uniform(-1/sqrt(fan_in), +1/sqrt(fan_in))."""

    def __init__(self, d_in: int, d_out: int, rng: Rng, bias: bool = True):
        bound = 1.0 / np.sqrt(d_in)
        self.weight = Tensor(rng.uniforms((d_in, d_out), -bound, bound), requires_grad=True)
        self.bias = Tensor(rng.uniforms((d_out,), -bound, bound), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        y = T.matmul(x, self.weight)
        return T.add(y, self.bias) if self.bias is not None else y

    def params(self, prefix: str) -> dict[str, Tensor]:
        out = {f"{prefix}.weight": self.weight}
        if self.bias is not None:
            out[f"{prefix}.bias"] = self.bias
        return out


class BatchNorm:
    """Per-feature normalization over the node axis with running statistics."""

    def __init__(self, d: int, momentum: float = 0.1, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(d), requires_grad=True)
        self.beta = Tensor(np.zeros(d), requires_grad=True)
        self.running_mean = np.zeros(d)
        self.running_var = np.ones(d)
        self.momentum = momentum
        self.eps = eps

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        if training:
            n = x.shape[0]
            mean = T.scale(T.sum_rows(x), 1.0 / n)
            xc = T.sub(x, mean)
            var = T.scale(T.sum_rows(T.mul(xc, xc)), 1.0 / n)
            self.running_mean = (
                (1.0 - self.momentum) * self.running_mean + self.momentum * mean.data
            )
            self.running_var = (
                (1.0 - self.momentum) * self.running_var + self.momentum * var.data
            )
        else:
            xc = T.sub(x, Tensor(self.running_mean))
            var = Tensor(self.running_var)
        inv_std = T.powc(T.add(var, Tensor(np.full(var.shape, self.eps))), -0.5)
        return T.add(T.mul(T.mul(xc, inv_std), self.gamma), self.beta)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.gamma": self.gamma, f"{prefix}.beta": self.beta}

    def stats(self) -> dict[str, np.ndarray]:
        return {"running_mean": self.running_mean, "running_var": self.running_var}


def interaction_encoding(
    msg: Tensor, total: Tensor, fc: Linear, dst: T.Rows | np.ndarray, num_nodes: int
) -> Tensor:
    """Per-node sum of fc(concat(m, total_at_dst - m)) over incoming edges."""
    rest = T.sub(T.gather_rows(total, dst), msg)
    return T.segment_sum(fc(T.concat_cols(msg, rest)), dst, num_nodes)


class GcnLayer:
    """Mean-of-neighbours convolution, optionally with interaction encoding."""

    def __init__(self, d: int, rng: Rng, encode_interactions: bool):
        bound = 1.0 / np.sqrt(d)
        self.W = Tensor(rng.uniforms((d, d), -bound, bound), requires_grad=True)
        self.fc = Linear(2 * d, d, rng.spawn("fc"))
        self.encode_interactions = encode_interactions
        self.d = d

    def forward(self, h: Tensor, view: GraphView, training: bool) -> Tensor:
        hv = T.gather_rows(h, view.src)
        msg = T.mul(T.matmul(hv, self.W), view.inv_deg_tile(self.d))
        total = T.segment_sum(msg, view.dst, view.num_nodes)
        pre = total
        if self.encode_interactions:
            enc = interaction_encoding(msg, total, self.fc, view.dst, view.num_nodes)
            pre = T.add(pre, enc)
        return T.relu(pre)

    def params(self, prefix: str) -> dict[str, Tensor]:
        out = {f"{prefix}.W": self.W}
        out.update(self.fc.params(f"{prefix}.fc"))
        return out

    def stats(self):
        return {}


class GatedGcnLayer:
    """Edge-gated convolution with batch norm and residual connections.

    Gate pre-activation per edge (v -> u): A h_u + B h_v + C e_uv. The
    gate is sigmoid, normalized per destination node by the sum of its
    incoming sigmoids plus a small constant. The node update sums up to
    three terms (A h_u, aggregated message, interaction encoding),
    selectable via ``terms`` for ablations; edge features update as
    relu(pre-activation) plus the previous edge features.
    """

    def __init__(
        self,
        d: int,
        rng: Rng,
        encode_interactions: bool,
        terms: tuple[bool, bool, bool] = (True, True, True),
        eps: float = GATE_EPS,
    ):
        if eps <= 0:
            raise ValueError(f"gate eps must be positive, got {eps}")
        bound = 1.0 / np.sqrt(d)

        def mat(label):
            return Tensor(rng.spawn(label).uniforms((d, d), -bound, bound), requires_grad=True)

        self.A = mat("A")
        self.B = mat("B")
        self.C = mat("C")
        self.F = mat("F")
        self.fc = Linear(2 * d, d, rng.spawn("fc"))
        self.bn = BatchNorm(d)
        self.encode_interactions = encode_interactions
        self.terms = terms
        self.eps = eps
        self.d = d

    def forward(self, h: Tensor, e: Tensor, view: GraphView, training: bool):
        hu = T.gather_rows(h, view.dst)
        hv = T.gather_rows(h, view.src)
        e_can = T.gather_rows(e, view.edge_perm)
        e_pre = T.add(
            T.add(T.matmul(hu, self.A), T.matmul(hv, self.B)), T.matmul(e_can, self.C)
        )
        sig = T.sigmoid(e_pre)
        denom = T.add(
            T.gather_rows(T.segment_sum(sig, view.dst, view.num_nodes), view.dst),
            Tensor(np.full(self.d, self.eps)),
        )
        alpha = T.mul(sig, T.powc(denom, -1.0))
        msg = T.mul(alpha, T.matmul(hv, self.F))
        total = T.segment_sum(msg, view.dst, view.num_nodes)

        use_self, use_msg, use_enc = self.terms
        use_enc = use_enc and self.encode_interactions
        pre = Tensor(np.zeros((view.num_nodes, self.d)))
        if use_self:
            pre = T.add(pre, T.matmul(h, self.A))
        if use_msg:
            pre = T.add(pre, total)
        if use_enc:
            enc = interaction_encoding(msg, total, self.fc, view.dst, view.num_nodes)
            pre = T.add(pre, enc)

        h_new = T.add(T.relu(self.bn(pre, training)), h)
        e_new_can = T.add(T.relu(e_pre), e_can)
        e_new = T.gather_rows(e_new_can, view.inv_perm)
        return h_new, e_new

    def params(self, prefix: str) -> dict[str, Tensor]:
        out = {
            f"{prefix}.A": self.A,
            f"{prefix}.B": self.B,
            f"{prefix}.C": self.C,
            f"{prefix}.F": self.F,
        }
        out.update(self.fc.params(f"{prefix}.fc"))
        out.update(self.bn.params(f"{prefix}.bn"))
        return out

    def stats(self):
        return self.bn.stats()


def mean_pool(h: Tensor, view: GraphView) -> Tensor:
    """Per-graph mean of node embeddings."""
    sums = T.segment_sum(h, view.graph_id, view.num_graphs)
    counts = np.bincount(view.graph_id.idx, minlength=view.num_graphs).astype(float)
    inv = np.repeat((1.0 / counts).reshape(-1, 1), h.shape[1], axis=1)
    return T.mul(sums, Tensor(inv))


class NodeClassHead:
    def __init__(self, d: int, n_classes: int, rng: Rng):
        self.lin1 = Linear(d, d, rng.spawn("lin1"))
        self.lin2 = Linear(d, n_classes, rng.spawn("lin2"))

    def __call__(self, h: Tensor, view: GraphView) -> Tensor:
        return self.lin2(T.relu(self.lin1(h)))

    def params(self, prefix):
        return {**self.lin1.params(f"{prefix}.lin1"), **self.lin2.params(f"{prefix}.lin2")}


class GraphHead:
    """Mean pooling followed by a two-layer MLP (classification or regression)."""

    def __init__(self, d: int, d_out: int, rng: Rng):
        self.lin1 = Linear(d, d, rng.spawn("lin1"))
        self.lin2 = Linear(d, d_out, rng.spawn("lin2"))

    def __call__(self, h: Tensor, view: GraphView) -> Tensor:
        return self.lin2(T.relu(self.lin1(mean_pool(h, view))))

    def params(self, prefix):
        return {**self.lin1.params(f"{prefix}.lin1"), **self.lin2.params(f"{prefix}.lin2")}


class EdgeHead:
    """One logit per stored directed edge from concat(h_src, h_dst)."""

    def __init__(self, d: int, rng: Rng):
        self.lin1 = Linear(2 * d, d, rng.spawn("lin1"))
        self.lin2 = Linear(d, 1, rng.spawn("lin2"))

    def __call__(self, h: Tensor, view: GraphView) -> Tensor:
        edges = view.graph.edges  # stored order
        pair = T.concat_cols(T.gather_rows(h, edges[:, 0]), T.gather_rows(h, edges[:, 1]))
        return self.lin2(T.relu(self.lin1(pair)))

    def params(self, prefix):
        return {**self.lin1.params(f"{prefix}.lin1"), **self.lin2.params(f"{prefix}.lin2")}


@dataclass
class ModelConfig:
    task: str
    base: str = "gatedgcn"
    nlmi: bool = True
    k_layers: int = 4
    width: int = 16
    d_in: int = 1
    d_edge: int = 1
    n_classes: int = 2
    terms: tuple[bool, bool, bool] = (True, True, True)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}, expected one of {TASKS}")
        if self.base not in BASES:
            raise ValueError(f"unknown base {self.base!r}, expected one of {BASES}")
        for name, least in (("k_layers", 0), ("width", 1), ("d_in", 1), ("d_edge", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"model {name} must be an integer >= {least}, got {value!r}")
        self.terms = tuple(bool(t) for t in self.terms)
        if len(self.terms) != 3:
            raise ValueError("terms must be a (self, msg, enc) triple")

    def to_dict(self) -> dict:
        d = self.__dict__.copy()
        d["terms"] = list(self.terms)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        try:
            return cls(**{**d, "terms": tuple(d.get("terms", (True, True, True)))})
        except TypeError as err:  # unknown or missing keys
            raise ValueError(f"bad model config: {err}") from err


class Model:
    """Input encoders, a stack of message-passing layers, and a readout head."""

    def __init__(self, config: ModelConfig, rng: Rng):
        self.config = config
        d = config.width
        self.node_encoder = Linear(config.d_in, d, rng.spawn("node_encoder"))
        self.edge_encoder = None
        if config.base == "gatedgcn":
            self.edge_encoder = Linear(config.d_edge, d, rng.spawn("edge_encoder"))
        self.layers = []
        for k in range(config.k_layers):
            layer_rng = rng.spawn(f"layer/{k}")
            if config.base == "gcn":
                self.layers.append(GcnLayer(d, layer_rng, config.nlmi))
            else:
                self.layers.append(
                    GatedGcnLayer(d, layer_rng, config.nlmi, config.terms)
                )
        head_rng = rng.spawn("head")
        if config.task == "node-class":
            self.head = NodeClassHead(d, config.n_classes, head_rng)
        elif config.task == "graph-class":
            self.head = GraphHead(d, config.n_classes, head_rng)
        elif config.task == "edge-pred":
            self.head = EdgeHead(d, head_rng)
        else:  # graph-reg
            self.head = GraphHead(d, 1, head_rng)

    # --- forward ---------------------------------------------------------

    def embeddings(self, g: Graph | GraphBatch | GraphView, training: bool = False):
        """Final node embeddings (and edge embeddings for the gated base)."""
        view = g if isinstance(g, GraphView) else GraphView(g)
        g = view.graph
        h = self.node_encoder(Tensor(g.node_features))
        e = None
        if self.edge_encoder is not None:
            raw = g.edge_features
            if raw is None:
                raw = np.zeros((g.num_edges, self.config.d_edge))
            e = self.edge_encoder(Tensor(raw))
        for k, layer in enumerate(self.layers):
            if isinstance(layer, GcnLayer):
                h = layer.forward(h, view, training)
            else:
                h, e = layer.forward(h, e, view, training)
            T.assert_finite(h, f"layer {k} node output")
        return h, e, view

    def forward(self, g: Graph | GraphBatch | GraphView, training: bool = False) -> Tensor:
        h, _, view = self.embeddings(g, training)
        return self.head(h, view)

    # --- parameters and checkpoints ---------------------------------------

    def params(self) -> dict[str, Tensor]:
        out = self.node_encoder.params("node_encoder")
        if self.edge_encoder is not None:
            out.update(self.edge_encoder.params("edge_encoder"))
        for k, layer in enumerate(self.layers):
            out.update(layer.params(f"layers.{k}"))
        out.update(self.head.params("head"))
        return out

    def zero_grads(self) -> None:
        for p in self.params().values():
            p.zero_grad()

    def state(self) -> dict:
        state = {
            "config": self.config.to_dict(),
            "params": {k: v.data.tolist() for k, v in self.params().items()},
            "stats": {
                f"layers.{k}.{name}": arr.tolist()
                for k, layer in enumerate(self.layers)
                for name, arr in layer.stats().items()
            },
        }
        return state

    def load_state(self, state: dict) -> None:
        """Load every parameter and statistic; the key sets must equal the model's."""
        params = self.params()
        stats = {
            f"layers.{k}.{name}": (layer.bn, name)
            for k, layer in enumerate(self.layers)
            for name in layer.stats()
        }
        for kind, have, want in (("param", state.get("params", {}), params),
                                 ("stat", state.get("stats", {}), stats)):
            missing = sorted(set(want) - set(have))
            unknown = sorted(set(have) - set(want))
            if missing or unknown:
                raise ValueError(f"checkpoint {kind} keys do not match the model: "
                                 f"missing {missing}, unknown {unknown}")
        for key, vals in state["params"].items():
            arr = np.array(vals, dtype=np.float64)
            if arr.shape != params[key].shape:
                raise ValueError(f"checkpoint shape mismatch for {key}")
            params[key].data = arr
        for key, vals in state.get("stats", {}).items():
            owner, name = stats[key]
            setattr(owner, name, np.array(vals, dtype=np.float64))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.state(), fh)

    @classmethod
    def load(cls, path) -> "Model":
        with open(path) as fh:
            state = json.load(fh)
        if not isinstance(state, dict) or not isinstance(state.get("config"), dict):
            raise ValueError(f"checkpoint {path} has no 'config' object")
        config = ModelConfig.from_dict(state["config"])
        model = cls(config, Rng(0))
        model.load_state(state)
        return model
