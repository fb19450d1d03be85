"""Graph containers, and the batch a forward pass reads.

Edges are directed (src, dst) pairs; messages flow along the edge into
dst, so the neighbourhood of u is the set of sources of its incoming
edges. Undirected graphs store both directions. Self-loops are never
added implicitly.

A Graph carries its labels; a batch (a GraphView) carries only structure,
features and indices. ``training.labels_of`` reads a task's labels from
the graphs themselves, in the order they were batched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import as_array
from .tensor import Rows, Tensor


@dataclass
class Graph:
    num_nodes: int
    edges: np.ndarray  # (E, 2) int64, rows are (src, dst)
    node_features: np.ndarray  # (num_nodes, d_in) float64
    edge_features: np.ndarray | None = None  # (E, d_e) float64
    node_labels: np.ndarray | None = None  # (num_nodes,) int64
    graph_label: float | int | None = None
    edge_labels: np.ndarray | None = None  # (E,) int64

    def __post_init__(self):
        self.edges = as_array("edges", self.edges, "int").reshape(-1, 2)
        self.node_features = np.asarray(self.node_features, dtype=np.float64)
        if self.edge_features is not None:
            self.edge_features = np.asarray(self.edge_features, dtype=np.float64)
        if self.node_labels is not None:
            self.node_labels = as_array("node_labels", self.node_labels, "int")
        if self.edge_labels is not None:
            self.edge_labels = as_array("edge_labels", self.edge_labels, "int")
        self.validate()

    def validate(self) -> None:
        if self.node_features.ndim != 2 or self.node_features.shape[0] != self.num_nodes:
            raise ValueError(f"node_features has shape {self.node_features.shape} "
                             f"for {self.num_nodes} nodes")
        if self.num_edges and (
            self.edges.min() < 0 or self.edges.max() >= self.num_nodes
        ):
            raise ValueError("edge endpoint out of range")
        if self.edge_features is not None and (self.edge_features.ndim != 2
                                               or self.edge_features.shape[0] != self.num_edges):
            raise ValueError(f"edge_features has shape {self.edge_features.shape} "
                             f"for {self.num_edges} edges")
        if self.node_labels is not None and self.node_labels.shape != (self.num_nodes,):
            raise ValueError(f"node_labels has shape {self.node_labels.shape} "
                             f"for {self.num_nodes} nodes")
        if self.edge_labels is not None and self.edge_labels.shape != (self.num_edges,):
            raise ValueError(f"edge_labels has shape {self.edge_labels.shape} "
                             f"for {self.num_edges} edges")

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def permute_nodes(self, perm: np.ndarray) -> "Graph":
        """Relabel node i as perm[i]; edge storage order is unchanged."""
        perm = np.asarray(perm, dtype=np.int64)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(self.num_nodes)
        x = np.empty_like(self.node_features)
        x[perm] = self.node_features
        labels = None
        if self.node_labels is not None:
            labels = np.empty_like(self.node_labels)
            labels[perm] = self.node_labels
        edges = perm[self.edges] if self.num_edges else self.edges.copy()
        return Graph(
            num_nodes=self.num_nodes,
            edges=edges,
            node_features=x,
            edge_features=None if self.edge_features is None else self.edge_features.copy(),
            node_labels=labels,
            graph_label=self.graph_label,
            edge_labels=None if self.edge_labels is None else self.edge_labels.copy(),
        )


class GraphView:
    """Block-diagonal union of graphs, and the indices one forward pass reads.

    Built by ``batch``. ``edges`` and the features are in stored order.
    ``src``, ``dst`` and ``graph_id`` are ``tensor.Rows``, so every gather,
    segment sum and backward scatter of all layers shares one flattened
    index each. ``edge_perm`` takes stored edge rows to canonical ones
    (sorted by destination, then source). ``in_deg`` and ``inv_deg`` are
    constant (n, 1) Tensors of the in-degree k and of 1 / max(k, 1), and
    ``inv_size`` a (num_graphs, 1) one of 1 / the graph's node count.
    Repeated forwards of one view share its indices.
    """

    def __init__(self, edges: np.ndarray, node_features: np.ndarray,
                 edge_features: np.ndarray | None, graph_id: np.ndarray, num_graphs: int):
        n = self.num_nodes = node_features.shape[0]
        self.num_edges = edges.shape[0]
        self.num_graphs = num_graphs
        self.edges = edges
        self.node_features = node_features
        self.edge_features = edge_features
        src, dst = edges.T
        order = np.lexsort((src, dst))  # canonical row i came from storage row order[i]
        self.src = Rows(src[order], n)
        self.dst = Rows(dst[order], n)
        self.edge_perm = order
        self.in_deg = Tensor(np.bincount(dst, minlength=n).astype(float)[:, None])
        self.inv_deg = Tensor(1.0 / np.maximum(self.in_deg.data, 1.0))
        self.graph_id = Rows(graph_id, num_graphs)
        self.inv_size = Tensor(1.0 / np.bincount(graph_id, minlength=num_graphs)[:, None])


def batch(graphs: list[Graph]) -> GraphView:
    if not graphs:
        raise ValueError("cannot batch an empty list of graphs")
    node_offsets = np.cumsum([0] + [g.num_nodes for g in graphs])
    edges = np.concatenate([g.edges + off for g, off in zip(graphs, node_offsets[:-1])], axis=0)
    x = np.concatenate([g.node_features for g in graphs], axis=0)
    graph_id = np.concatenate(
        [np.full(g.num_nodes, i, dtype=np.int64) for i, g in enumerate(graphs)]
    )
    feats = [g.edge_features for g in graphs]
    if len({f is None for f in feats}) > 1:
        raise ValueError("cannot batch graphs with mixed presence of edge features")
    return GraphView(edges, x, None if feats[0] is None else np.concatenate(feats, axis=0),
                     graph_id, len(graphs))
