"""Synthetic graph task generators and the dataset file format.

Each generator is pure given (parameters, rng): the same seed yields a
byte-identical dataset. Labels come from exact oracles (exhaustive tour
enumeration for the routing task, direct triangle enumeration for the
regression target), not from approximations.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .graph import Graph
from .rng import Rng

DATASET_FORMAT_VERSION = 1

TASKS = ("node-class", "graph-class", "edge-pred", "graph-reg")


class DatasetError(ValueError):
    """Malformed or incompatible dataset file."""


def _both_directions(pairs: list[tuple[int, int]]) -> np.ndarray:
    """Directed edge array for an undirected pair list, lexicographically sorted."""
    directed = sorted(set(pairs) | {(v, u) for u, v in pairs})
    if not directed:
        return np.zeros((0, 2), dtype=np.int64)
    return np.array(directed, dtype=np.int64)


# --- community graphs (node classification) --------------------------------

def gen_sbm_communities(
    n_nodes: int,
    n_communities: int,
    p_in: float,
    p_intra: float,
    feature_noise: float,
    rng: Rng,
    hint_fraction: float = 0.25,
) -> Graph:
    """Stochastic block model with one-hot community hints on a node subset.

    p_in is the within-community edge probability, p_intra the
    between-community one. Features are one-hot community indicators for a
    random hint_fraction of nodes (zeros elsewhere) plus Gaussian noise.
    """
    if not (0.0 <= p_intra < p_in <= 1.0):
        raise ValueError(f"need 0 <= p_intra < p_in <= 1, got {p_intra}, {p_in}")
    if n_communities < 2:
        raise ValueError(f"need at least 2 communities, got {n_communities}")
    # Contiguous, near-equal blocks: node i belongs to community labels[i].
    sizes = [n_nodes // n_communities] * n_communities
    for i in range(n_nodes % n_communities):
        sizes[i] += 1
    labels = np.repeat(np.arange(n_communities), sizes)

    pairs = []
    for u in range(n_nodes):
        for v in range(u + 1, n_nodes):
            p = p_in if labels[u] == labels[v] else p_intra
            if rng.uniform() < p:
                pairs.append((u, v))
    edges = _both_directions(pairs)

    x = np.zeros((n_nodes, n_communities))
    n_hints = int(round(hint_fraction * n_nodes))
    for u in rng.sample(n_nodes, n_hints):
        x[u, labels[u]] = 1.0
    if feature_noise > 0.0:
        x = x + feature_noise * rng.normals(x.shape)

    return Graph(num_nodes=n_nodes, edges=edges, node_features=x, node_labels=labels)


# --- planted denser subgraph (binary node classification) ------------------

def gen_planted_pattern(
    n_base: int,
    pattern_size: int,
    rng: Rng,
    p_base: float = 0.15,
    p_pattern: float = 0.6,
) -> Graph:
    """Sparse random base graph with a denser planted node subset (label 1)."""
    if not 0 < pattern_size < n_base:
        raise ValueError(f"need 0 < pattern_size < n_base, got {pattern_size}, {n_base}")
    if not 0.0 <= p_base < p_pattern <= 1.0:
        raise ValueError(f"need 0 <= p_base < p_pattern <= 1, got {p_base}, {p_pattern}")
    planted = set(rng.sample(n_base, pattern_size))
    labels = np.array([1 if u in planted else 0 for u in range(n_base)], dtype=np.int64)
    pairs = []
    for u in range(n_base):
        for v in range(u + 1, n_base):
            p = p_pattern if (u in planted and v in planted) else p_base
            if rng.uniform() < p:
                pairs.append((u, v))
    edges = _both_directions(pairs)
    x = np.ones((n_base, 1))
    return Graph(num_nodes=n_base, edges=edges, node_features=x, node_labels=labels)


# --- shortest-tour edge labels (edge prediction) ----------------------------

def brute_force_tour(coords: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Exhaustively enumerate all tours and return the shortest one.

    Ties are broken by the lexicographically smallest city sequence, so
    labels are deterministic. City 0 is fixed as the start and each cycle
    is enumerated in one direction only ((n-1)!/2 candidates).
    """
    n = coords.shape[0]
    dist = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))
    best_tour = None
    best_len = math.inf
    for perm in itertools.permutations(range(1, n)):
        if perm[0] > perm[-1]:
            continue  # each undirected cycle once
        tour = (0,) + perm
        length = dist[0, perm[0]] + dist[perm[-1], 0]
        for a, b in zip(perm, perm[1:]):
            length += dist[a, b]
        if length < best_len or (length == best_len and tour < best_tour):
            best_len = length
            best_tour = tour
    return best_tour, float(best_len)


def gen_tsp_instance(n_cities: int, k_nn: int, rng: Rng) -> Graph:
    """k-nearest-neighbour graph over random cities; tour edges are label 1.

    Node features are the unit-square coordinates, edge features the
    Euclidean distances. Raises if the exhaustively optimal tour uses an
    edge missing from the k-NN graph (labels stay exact, never clipped).
    """
    if n_cities > 10:
        raise ValueError(f"n_cities must be <= 10 for exhaustive labelling, got {n_cities}")
    if not 0 < k_nn < n_cities:
        raise ValueError(f"need 0 < k_nn < n_cities, got {k_nn}")
    coords = rng.uniforms((n_cities, 2))
    dist = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))

    pairs = []
    for u in range(n_cities):
        order = sorted((dist[u, v], v) for v in range(n_cities) if v != u)
        for _, v in order[:k_nn]:
            pairs.append((min(u, v), max(u, v)))
    edges = _both_directions(pairs)

    tour, _ = brute_force_tour(coords)
    cycle = set()
    for a, b in zip(tour, tour[1:] + tour[:1]):
        cycle.add((a, b))
        cycle.add((b, a))
    edge_set = {tuple(e) for e in edges}
    missing = cycle - edge_set
    if missing:
        raise ValueError(
            f"optimal tour uses edges absent from the {k_nn}-NN graph: {sorted(missing)}"
        )
    edge_labels = np.array(
        [1 if (s, d) in cycle else 0 for s, d in edges], dtype=np.int64
    )
    edge_features = dist[edges[:, 0], edges[:, 1]].reshape(-1, 1)
    return Graph(
        num_nodes=n_cities,
        edges=edges,
        node_features=coords,
        edge_features=edge_features,
        edge_labels=edge_labels,
    )


# --- closed-form graph statistic (graph regression) -------------------------

def count_triangles(edges: np.ndarray, num_nodes: int) -> int:
    """Exhaustive triangle enumeration over node triples."""
    adj = [set() for _ in range(num_nodes)]
    for s, d in edges:
        adj[s].add(int(d))
    count = 0
    for u, v, w in itertools.combinations(range(num_nodes), 3):
        if v in adj[u] and w in adj[u] and w in adj[v]:
            count += 1
    return count


def regression_target(g: Graph) -> float:
    """Triangle count normalized by node count, plus half the mean degree."""
    triangles = count_triangles(g.edges, g.num_nodes)
    mean_degree = g.num_edges / g.num_nodes  # directed edges = sum of degrees
    return triangles / g.num_nodes + 0.5 * mean_degree


def gen_graph_regression(
    n_min: int,
    n_max: int,
    rng: Rng,
    extra_edge_p: float = 0.2,
    noise_sigma: float = 0.0,
) -> Graph:
    """Random connected graph; target is the closed-form statistic above."""
    if not 3 <= n_min <= n_max:
        raise ValueError(f"need 3 <= n_min <= n_max, got {n_min}, {n_max}")
    n = n_min + rng.randint(n_max - n_min + 1)
    pairs = []
    for v in range(1, n):  # random spanning tree keeps the graph connected
        u = rng.randint(v)
        pairs.append((u, v))
    tree = set(pairs)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in tree and rng.uniform() < extra_edge_p:
                pairs.append((u, v))
    edges = _both_directions(pairs)
    deg = np.bincount(edges[:, 1], minlength=n).astype(float)
    x = (deg / max(1, n - 1)).reshape(-1, 1)
    g = Graph(num_nodes=n, edges=edges, node_features=x)
    target = regression_target(g)
    if noise_sigma > 0.0:
        target += noise_sigma * rng.normal()
    g.graph_label = float(target)
    return g


# --- density two-class graphs (graph classification) ------------------------

def gen_graph_class(
    n_nodes: int,
    p_sparse: float,
    p_dense: float,
    rng: Rng,
) -> Graph:
    """ER graph, label 0 with edge probability p_sparse, label 1 with p_dense."""
    if not 0.0 <= p_sparse < p_dense <= 1.0:
        raise ValueError(f"need 0 <= p_sparse < p_dense <= 1, got {p_sparse}, {p_dense}")
    label = rng.randint(2)
    p = p_dense if label else p_sparse
    pairs = [
        (u, v)
        for u in range(n_nodes)
        for v in range(u + 1, n_nodes)
        if rng.uniform() < p
    ]
    edges = _both_directions(pairs)
    x = np.ones((n_nodes, 1))
    return Graph(num_nodes=n_nodes, edges=edges, node_features=x, graph_label=int(label))


GENERATORS = {
    "sbm": (gen_sbm_communities, "node-class"),
    "pattern": (gen_planted_pattern, "node-class"),
    "tsp": (gen_tsp_instance, "edge-pred"),
    "triangles": (gen_graph_regression, "graph-reg"),
    "density": (gen_graph_class, "graph-class"),
}


@dataclass
class DatasetSpec:
    task: str
    generator: str
    params: dict = field(default_factory=dict)
    n_train: int = 0
    n_val: int = 0
    n_test: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}, expected one of {TASKS}")
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        fn, expected = GENERATORS[self.generator]
        if self.task != expected:
            raise ValueError(
                f"generator {self.generator!r} produces {expected!r} labels, "
                f"not {self.task!r}"
            )
        if not isinstance(self.params, dict):
            raise ValueError(f"generator params must be an object, got {self.params!r}")
        signature = inspect.signature(fn).parameters
        accepted = set(signature) - {"rng"}
        required = {k for k in accepted if signature[k].default is inspect.Parameter.empty}
        unknown = sorted(set(self.params) - accepted)
        missing = sorted(required - set(self.params))
        if unknown or missing:
            raise ValueError(f"generator {self.generator!r} params: unknown {unknown}, "
                             f"missing {missing}; it accepts {sorted(accepted)}")


def generate_dataset(spec: DatasetSpec) -> dict[str, list[Graph]]:
    """Materialize train/val/test splits; splits use disjoint sub-seeds."""
    fn = GENERATORS[spec.generator][0]
    root = Rng(spec.seed)
    splits = {}
    for name, count in (("train", spec.n_train), ("val", spec.n_val), ("test", spec.n_test)):
        split_rng = root.spawn(f"dataset/{name}")
        splits[name] = [
            fn(rng=split_rng.spawn(f"graph/{i}"), **spec.params) for i in range(count)
        ]
    return splits


# --- serialization ----------------------------------------------------------

def _graph_to_obj(g: Graph, task: str) -> dict:
    obj = {
        "n": g.num_nodes,
        "edges": g.edges.tolist(),
        "x": g.node_features.tolist(),
    }
    if g.edge_features is not None:
        obj["e"] = g.edge_features.tolist()
    if task == "node-class":
        obj["y"] = g.node_labels.tolist()
    elif task == "graph-class":
        obj["y"] = int(g.graph_label)
    elif task == "edge-pred":
        obj["y"] = g.edge_labels.tolist()
    else:
        obj["y"] = float(g.graph_label)
    return obj


def _graph_from_obj(obj: dict, task: str) -> Graph:
    try:
        kwargs = {
            "num_nodes": int(obj["n"]),
            "edges": np.array(obj["edges"], dtype=np.int64).reshape(-1, 2),
            "node_features": np.array(obj["x"], dtype=np.float64),
        }
        if "e" in obj:
            kwargs["edge_features"] = np.array(obj["e"], dtype=np.float64)
        y = obj["y"]
        if task == "node-class":
            kwargs["node_labels"] = np.array(y, dtype=np.int64)
        elif task == "graph-class":
            kwargs["graph_label"] = int(y)
        elif task == "edge-pred":
            kwargs["edge_labels"] = np.array(y, dtype=np.int64)
        else:
            kwargs["graph_label"] = float(y)
        return Graph(**kwargs)
    except (KeyError, TypeError, ValueError) as err:
        raise DatasetError(f"malformed graph object: {err}") from err


def save_dataset(path, spec: DatasetSpec, splits: dict[str, list[Graph]]) -> None:
    payload = {
        "version": DATASET_FORMAT_VERSION,
        "spec": asdict(spec),
        "splits": {
            name: [_graph_to_obj(g, spec.task) for g in graphs]
            for name, graphs in splits.items()
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_dataset(path) -> tuple[DatasetSpec, dict[str, list[Graph]]]:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, OSError) as err:
        raise DatasetError(f"cannot read dataset file {path}: {err}") from err
    if not isinstance(payload, dict) or "version" not in payload:
        raise DatasetError(f"{path} is not a dataset file")
    if payload["version"] != DATASET_FORMAT_VERSION:
        raise DatasetError(
            f"dataset format version {payload['version']} != "
            f"supported {DATASET_FORMAT_VERSION}"
        )
    try:
        spec = DatasetSpec(**payload["spec"])
        splits = {
            name: [_graph_from_obj(obj, spec.task) for obj in graphs]
            for name, graphs in payload["splits"].items()
        }
    except (KeyError, TypeError) as err:
        raise DatasetError(f"malformed dataset file {path}: {err}") from err
    return spec, splits
