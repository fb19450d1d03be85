"""Message-passing layers, readout heads, and the stacked model.

Two layer families are provided: a mean-aggregation convolution and an
edge-gated convolution with batch norm and residual connections. Both can
additionally encode, for every incoming message, the interaction between
that message and the aggregated message of the remaining neighbours: each
per-edge message m is concatenated with (total - m) and passed through a
per-layer affine encoder; the encoded vectors are summed per node and
added to the aggregated message; a layer that does not encode holds no
encoder. The encoder is affine, so that sum is T·W1 + (k-1)·T·W2 + k·b for
a node with message total T and in-degree k, computed on node rows. Every
dense weight multiplies node rows too, before the products are gathered
onto edges: h[idx] @ W == (h @ W)[idx].

Edges are in a canonical order (sorted by destination, then source) from
the edge encoder onwards: the model indexes the raw edge features once, and
the gated layers read edge embeddings and return gate pre-activations in
that order. So all per-node sums run over edges in one order, results are
independent of edge storage order, and node-permutation equivariance is
testable at tight tolerances. In-degrees live on the view as one column.
The gate normaliser stays on node rows too: it multiplies each node's sum
of gated messages, since sum(s_i / D * m_i) == sum(s_i * m_i) / D, so no
edge row carries it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import reduce

import numpy as np

from .checks import as_array, check_fields, make_config, read_json
from .generators import TASKS
from .graph import Graph, GraphView, batch
from .rng import Rng
from . import tensor as T
from .tensor import Tensor

BASES = ("gcn", "gatedgcn")
GATE_EPS = 1e-6
BN_MOMENTUM = 0.1
BN_EPS = 1e-5
CHECKPOINT_VERSION = 1  # Model.load reads only this layout
SECTIONS = (("params", True), ("stats", False))  # checkpoint section, requires_grad


class Linear:
    """Affine map on row vectors; init uniform(-1/sqrt(fan_in), +1/sqrt(fan_in))."""

    def __init__(self, d_in: int, d_out: int, rng: Rng):
        bound = 1.0 / np.sqrt(d_in)
        self.weight = Tensor(rng.uniforms((d_in, d_out), -bound, bound), requires_grad=True)
        self.bias = Tensor(rng.uniforms((d_out,), -bound, bound), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.add(T.matmul(x, self.weight), self.bias)

    def tensors(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


class BatchNorm:
    """Per-feature normalization over the node axis with running statistics,
    which are Tensors without requires_grad, so no optimizer sees them."""

    def __init__(self, d: int):
        self.gamma = Tensor(np.ones(d), requires_grad=True)
        self.beta = Tensor(np.zeros(d), requires_grad=True)
        self.running_mean = Tensor(np.zeros(d))
        self.running_var = Tensor(np.ones(d))
        self.eps = Tensor(np.full(d, BN_EPS))  # a constant: neither a parameter nor a statistic

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        if training:
            n = x.shape[0]
            mean = T.scale(T.sum_rows(x), 1.0 / n)
            xc = T.sub(x, mean)
            var = T.scale(T.sum_rows(T.mul(xc, xc)), 1.0 / n)
            for stat, batch_stat in ((self.running_mean, mean), (self.running_var, var)):
                stat.data = (1.0 - BN_MOMENTUM) * stat.data + BN_MOMENTUM * batch_stat.data
        else:
            xc = T.sub(x, self.running_mean)
            var = self.running_var
        inv_std = T.powc(T.add(var, self.eps), -0.5)
        return T.add(T.mul(T.mul(xc, inv_std), self.gamma), self.beta)


def interaction_encoding(total: Tensor, fc: Linear, inv_deg: Tensor, deg: Tensor) -> Tensor:
    """Per-node sum of fc(concat(m, total_at_dst - m)) over incoming messages m.

    In closed form on node rows, from each node's message total T and its
    in-degree k (deg and inv_deg: (n, 1) columns of k and 1 / max(k, 1)).
    For fc.weight = [W1; W2] and mean message M = T/k:
    T·W1 + (k-1)·T·W2 + k·b = k·fc(concat(M, T - M)).
    """
    mean = T.mul(total, inv_deg)
    return T.mul(fc(T.concat_cols(mean, T.sub(total, mean))), deg)


def _encoder_tensors(fc: Linear | None, prefix: str) -> dict[str, Tensor]:
    return {} if fc is None else fc.tensors(f"{prefix}.fc")


class GcnLayer:
    """Mean-of-neighbours convolution, optionally with interaction encoding."""

    def __init__(self, d: int, rng: Rng, encode_interactions: bool):
        bound = 1.0 / np.sqrt(d)
        self.W = Tensor(rng.uniforms((d, d), -bound, bound), requires_grad=True)
        # the encoder exists only where it encodes; its own sub-stream leaves W's draws alone
        self.fc = Linear(2 * d, d, rng.spawn("fc")) if encode_interactions else None
        self.encode_interactions = encode_interactions

    def forward(self, h: Tensor, view: GraphView, training: bool) -> Tensor:
        msgs = T.gather_rows(T.matmul(h, self.W), view.src)
        total = T.mul(T.segment_sum(msgs, view.dst, view.num_nodes),
                      view.inv_deg)  # sum of h_v W / k
        pre = total
        if self.fc is not None:
            pre = T.add(pre, interaction_encoding(total, self.fc, view.inv_deg, view.in_deg))
        return T.relu(pre)

    def tensors(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.W": self.W, **_encoder_tensors(self.fc, prefix)}


class GatedGcnLayer:
    """Edge-gated convolution with batch norm and residual connections.

    Gate pre-activation per edge (v -> u): A h_u + B h_v + C e_uv. The
    gate is sigmoid, normalized per destination node by the sum of its
    incoming sigmoids plus a small constant; the normaliser multiplies the
    node's sum of gated messages, on node rows. The node update sums up to
    three terms (A h_u, aggregated message, interaction encoding),
    selectable via ``terms`` for ablations. ``forward`` returns the new node
    embeddings and the gate pre-activation in canonical edge order;
    ``Model.embeddings`` turns that into the next layer's edge features,
    relu(pre-activation) plus the previous ones, only where a layer follows,
    so the last layer computes no edge update.
    """

    def __init__(
        self,
        d: int,
        rng: Rng,
        encode_interactions: bool,
        terms: tuple[bool, bool, bool] = (True, True, True),
    ):
        bound = 1.0 / np.sqrt(d)

        def mat(label):
            return Tensor(rng.spawn(label).uniforms((d, d), -bound, bound), requires_grad=True)

        self.A = mat("A")
        self.B = mat("B")
        self.C = mat("C")
        self.F = mat("F")
        self.fc = Linear(2 * d, d, rng.spawn("fc")) if encode_interactions and terms[2] else None
        self.bn = BatchNorm(d)
        self.gate_eps = Tensor(np.full(d, GATE_EPS))
        self.encode_interactions = encode_interactions
        self.terms = terms

    def forward(self, h: Tensor, e: Tensor, view: GraphView, training: bool):
        hA = T.matmul(h, self.A)
        e_pre = T.add(
            T.add(T.gather_rows(hA, view.dst), T.gather_rows(T.matmul(h, self.B), view.src)),
            T.matmul(e, self.C),
        )
        sig = T.sigmoid(e_pre)
        denom = T.add(T.segment_sum(sig, view.dst, view.num_nodes), self.gate_eps)
        msg = T.mul(sig, T.gather_rows(T.matmul(h, self.F), view.src))
        total = T.mul(T.segment_sum(msg, view.dst, view.num_nodes), T.powc(denom, -1.0))

        use_self, use_msg, _ = self.terms
        parts = [hA] if use_self else []
        if use_msg:
            parts.append(total)
        if self.fc is not None:
            parts.append(interaction_encoding(total, self.fc, view.inv_deg, view.in_deg))
        pre = reduce(T.add, parts)  # ModelConfig rejects terms that read no message

        h_new = T.add(T.relu(self.bn(pre, training)), h)
        return h_new, e_pre

    def tensors(self, prefix: str) -> dict[str, Tensor]:
        """The weights, then the batch norm's; its statistics are keyed on the
        layer (``layers.k.running_mean``), as checkpoints store them."""
        bn = self.bn
        return {f"{prefix}.A": self.A, f"{prefix}.B": self.B, f"{prefix}.C": self.C,
                f"{prefix}.F": self.F, **_encoder_tensors(self.fc, prefix),
                f"{prefix}.bn.gamma": bn.gamma, f"{prefix}.bn.beta": bn.beta,
                f"{prefix}.running_mean": bn.running_mean,
                f"{prefix}.running_var": bn.running_var}


def mean_pool(h: Tensor, view: GraphView) -> Tensor:
    """Per-graph mean of node embeddings."""
    return T.mul(T.segment_sum(h, view.graph_id, view.num_graphs), view.inv_size)


class MlpHead:
    """A two-layer MLP readout, lin2(relu(lin1(x))); subclasses pick its rows x."""

    def __init__(self, d_in: int, d: int, d_out: int, rng: Rng):
        self.lin1 = Linear(d_in, d, rng.spawn("lin1"))
        self.lin2 = Linear(d, d_out, rng.spawn("lin2"))

    def mlp(self, x: Tensor) -> Tensor:
        return self.lin2(T.relu(self.lin1(x)))

    def tensors(self, prefix: str) -> dict[str, Tensor]:
        return {**self.lin1.tensors(f"{prefix}.lin1"), **self.lin2.tensors(f"{prefix}.lin2")}


class NodeClassHead(MlpHead):
    def __call__(self, h: Tensor, view: GraphView) -> Tensor:
        return self.mlp(h)


class GraphHead(MlpHead):
    """Mean pooling followed by the MLP (classification or regression)."""

    def __call__(self, h: Tensor, view: GraphView) -> Tensor:
        return self.mlp(mean_pool(h, view))


class EdgeHead(MlpHead):
    """One logit per stored directed edge from concat(h_src, h_dst)."""

    def __call__(self, h: Tensor, view: GraphView) -> Tensor:
        edges = view.edges  # stored order
        return self.mlp(T.concat_cols(T.gather_rows(h, edges[:, 0]),
                                      T.gather_rows(h, edges[:, 1])))


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
        check_fields("model", vars(self), self.__annotations__,
                     {"k_layers": (0,), "width": (1,), "d_in": (1,), "d_edge": (1,),
                      "n_classes": (1,)})
        if not isinstance(self.terms, (list, tuple)) or len(self.terms) != 3 \
                or not all(isinstance(t, bool) for t in self.terms):
            raise ValueError(f"model terms must be a (self, msg, enc) triple of booleans, "
                             f"got {self.terms!r}")
        self.terms = tuple(self.terms)
        _, use_msg, use_enc = self.terms
        if self.base == "gcn" and self.terms != (True, True, True):
            raise ValueError(f"terms select gatedgcn update terms; base gcn takes only "
                             f"the default [true, true, true], got {list(self.terms)}")
        if self.base == "gatedgcn" and not (use_msg or (use_enc and self.nlmi)):
            # the self term alone would leave the gates and the edge stream unread
            raise ValueError(f"terms {list(self.terms)} with nlmi={self.nlmi} select no "
                             "node-update term that reads the messages (msg, or enc with nlmi)")


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
            self.head = NodeClassHead(d, d, config.n_classes, head_rng)
        elif config.task == "graph-class":
            self.head = GraphHead(d, d, config.n_classes, head_rng)
        elif config.task == "edge-pred":
            self.head = EdgeHead(2 * d, d, 1, head_rng)
        else:  # graph-reg
            self.head = GraphHead(d, d, 1, head_rng)

    # --- forward ---------------------------------------------------------

    def embeddings(self, g: Graph | GraphView, training: bool = False):
        """Final node embeddings and the view they were computed over."""
        view = g if isinstance(g, GraphView) else batch([g])
        h, e = self.encode(view)
        return self.propagate(h, e, view, training), view

    def encode(self, view: GraphView):
        """Input node embeddings, and edge embeddings (None without an edge encoder)."""
        h = self.node_encoder(Tensor(view.node_features))
        e = None
        if self.edge_encoder is not None:
            raw = view.edge_features
            if raw is None:
                raw = np.zeros((view.num_edges, self.config.d_edge))
            e = self.edge_encoder(Tensor(raw[view.edge_perm]))  # canonical order
        return h, e

    def propagate(self, h: Tensor, e: Tensor | None, view: GraphView, training=False) -> Tensor:
        """The layers, from encoded embeddings (h, e) to final node embeddings."""
        for k, layer in enumerate(self.layers):
            if isinstance(layer, GcnLayer):
                h = layer.forward(h, view, training)
            else:
                h, e_pre = layer.forward(h, e, view, training)
                if k + 1 < len(self.layers):  # the last layer's edge update feeds nothing
                    e = T.add(T.relu(e_pre), e)
            T.assert_finite(h, f"layer {k} node output")
        return h

    def forward(self, g: Graph | GraphView, training: bool = False) -> Tensor:
        h, view = self.embeddings(g, training)
        return self.head(h, view)

    # --- parameters and checkpoints ---------------------------------------

    def tensors(self) -> dict[str, Tensor]:
        """Every parameter and running statistic, under its checkpoint key."""
        out = self.node_encoder.tensors("node_encoder")
        if self.edge_encoder is not None:
            out.update(self.edge_encoder.tensors("edge_encoder"))
        for k, layer in enumerate(self.layers):
            out.update(layer.tensors(f"layers.{k}"))
        out.update(self.head.tensors("head"))
        return out

    def params(self) -> dict[str, Tensor]:
        return {key: t for key, t in self.tensors().items() if t.requires_grad}

    def zero_grads(self) -> None:
        for p in self.params().values():
            p.zero_grad()

    def state(self) -> dict:
        tensors = self.tensors()
        return {
            "version": CHECKPOINT_VERSION,
            "config": asdict(self.config),
            **{section: {key: t.data.tolist() for key, t in tensors.items()
                         if t.requires_grad == learned}
               for section, learned in SECTIONS},
        }

    def load_state(self, state: dict) -> None:
        """Load every parameter and statistic. Each section's keys and each
        value's shape must equal the model's, and each value is read as strictly
        as a dataset feature, all before anything is assigned."""
        tensors = self.tensors()
        loads = {}
        for section, learned in SECTIONS:
            have = state.get(section)
            if not isinstance(have, dict):
                raise ValueError(f"checkpoint {section} must be a JSON object, got {have!r:.40}")
            want = {key for key, t in tensors.items() if t.requires_grad == learned}
            missing, unknown = sorted(want - set(have)), sorted(set(have) - want)
            if missing or unknown:
                raise ValueError(f"checkpoint {section} keys do not match the model: "
                                 f"missing {missing}, unknown {unknown}")
            for key, vals in have.items():
                arr = loads[key] = as_array(f"checkpoint {key}", vals, "float")
                if arr.shape != tensors[key].shape:
                    raise ValueError(f"checkpoint shape mismatch for {key}")
                if key.endswith(".running_var") and np.any(arr < 0.0):
                    raise ValueError(f"checkpoint {key} must be >= 0, got {float(arr.min())}")
        for key, arr in loads.items():
            tensors[key].data = arr

    @classmethod
    def load(cls, path) -> "Model":
        state = read_json(path, "checkpoint", CHECKPOINT_VERSION)
        model = cls(make_config(ModelConfig, state.get("config"), "checkpoint config"), Rng(0))
        model.load_state(state)
        return model
