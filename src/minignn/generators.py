"""Synthetic graph task generators and the dataset file format.

Each generator is pure given (parameters, rng): the same seed yields a
byte-identical dataset. Labels come from exact oracles (exhaustive tour
enumeration for the routing task, direct triangle enumeration for the
regression target), not from approximations.

Every random edge is drawn by ``random_edges``: the pairs u < v that are
not fixed take one ``rng.uniforms`` call, one draw per pair in (u, v)
order, so the datasets' bytes depend on that one function's draw order.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .graph import Graph, _int64
from .rng import Rng

DATASET_FORMAT_VERSION = 1

TASKS = ("node-class", "graph-class", "edge-pred", "graph-reg")


class DatasetError(ValueError):
    """Malformed or incompatible dataset file."""


class ConfigError(ValueError):
    """A config object that does not fit the dataclass it builds."""


def check_int(what: str, value, least: int | None = None) -> None:
    """Raise ValueError unless value is an integer (not a bool), and >= least if given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{what} must be an integer{bound}, got {value!r}")


def check_keys(obj, cls, context: str) -> None:
    """Raise ConfigError unless obj is a JSON object whose keys are fields of cls."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown keys in {context}: {sorted(unknown)}")


def make_config(cls, obj, context: str):
    """cls(**obj) after check_keys, with a missing key reported as a ConfigError."""
    check_keys(obj, cls, context)
    try:
        return cls(**obj)
    except TypeError as err:
        raise ConfigError(f"bad {context} config: {err}") from err


def _need_range(name: str, value, low, high=np.inf) -> None:
    """Raise unless low <= value <= high and value is finite (a NaN fails every comparison)."""
    if not (low <= value <= high and value != np.inf):
        bound = f">= {low}" if high == np.inf else f"in [{low}, {high}]"
        raise ValueError(f"need {name} {bound}, got {value}")


def _both_directions(adj: np.ndarray) -> np.ndarray:
    """Directed edge array of the pairs marked in a boolean (n, n) adjacency,
    each in both directions, lexicographically sorted."""
    return np.argwhere(adj | adj.T).astype(np.int64, copy=False)


@functools.lru_cache(maxsize=32)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index of every pair u < v, in (u, v) order."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def random_edges(n: int, p, rng: Rng, fixed=frozenset()) -> np.ndarray:
    """Directed edge array of a random undirected graph on n nodes.

    Each pair u < v that is not in fixed takes one draw of a single
    rng.uniforms call, in (u, v) order, and is kept when its draw is below
    p[u][v]; p is one probability or an (n, n) array of them. Pairs in
    fixed are kept and draw nothing.
    """
    rows, cols = _upper_pairs(n)
    keep = np.zeros(len(rows), dtype=bool)
    if fixed:
        is_fixed = np.zeros((n, n), dtype=bool)
        is_fixed[tuple(np.array(list(fixed)).T)] = True
        keep = is_fixed[rows, cols]
    free = ~keep
    p = p[rows[free], cols[free]] if isinstance(p, np.ndarray) else p
    keep[free] = rng.uniforms(int(free.sum())) < p
    adj = np.zeros((n, n), dtype=bool)
    adj[rows[keep], cols[keep]] = True
    return _both_directions(adj)


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
    _need_range("n_nodes", n_nodes, 1)
    _need_range("hint_fraction", hint_fraction, 0.0, 1.0)
    _need_range("feature_noise", feature_noise, 0.0)
    # Contiguous, near-equal blocks: node i belongs to community labels[i].
    sizes = [n_nodes // n_communities] * n_communities
    for i in range(n_nodes % n_communities):
        sizes[i] += 1
    labels = np.repeat(np.arange(n_communities), sizes)
    edges = random_edges(n_nodes, np.where(labels[:, None] == labels, p_in, p_intra), rng)

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
    labels = np.zeros(n_base, dtype=np.int64)
    labels[rng.sample(n_base, pattern_size)] = 1
    edges = random_edges(n_base, np.where(labels[:, None] & labels, p_pattern, p_base), rng)
    x = np.ones((n_base, 1))
    return Graph(num_nodes=n_base, edges=edges, node_features=x, node_labels=labels)


# --- shortest-tour edge labels (edge prediction) ----------------------------

def brute_force_tour(coords: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Exhaustively enumerate all tours and return the shortest one.

    Ties are broken by the lexicographically smallest city sequence, so
    labels are deterministic. City 0 is fixed as the start and each cycle
    is enumerated in one direction only ((n-1)!/2 candidates). All tours
    are scored as one array, summed edge by edge along the tour, and the
    permutations come in lexicographic order, so argmin's first minimum
    is the smallest tour.
    """
    n = coords.shape[0]
    dist = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))
    perms = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(1, n))),
                        dtype=np.int64).reshape(-1, n - 1)
    perms = perms[~(perms[:, 0] > perms[:, -1])]  # each undirected cycle once
    lengths = dist[0, perms[:, 0]] + dist[perms[:, -1], 0]
    for j in range(n - 2):
        lengths += dist[perms[:, j], perms[:, j + 1]]
    best = int(np.argmin(lengths))
    return (0, *perms[best].tolist()), float(lengths[best])


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

    knn = np.zeros((n_cities, n_cities), dtype=bool)
    for u in range(n_cities):
        order = sorted((dist[u, v], v) for v in range(n_cities) if v != u)
        knn[u, [v for _, v in order[:k_nn]]] = True
    edges = _both_directions(knn)

    tour, _ = brute_force_tour(coords)
    cycle = np.zeros_like(knn)
    cycle[tour, tour[1:] + tour[:1]] = True
    missing = _both_directions(cycle & ~(knn | knn.T)).tolist()
    if missing:
        raise ValueError(f"optimal tour uses edges absent from the {k_nn}-NN graph: "
                         f"{[tuple(e) for e in missing]}")
    edge_labels = (cycle | cycle.T)[edges[:, 0], edges[:, 1]].astype(np.int64)
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
    _need_range("extra_edge_p", extra_edge_p, 0.0, 1.0)
    _need_range("noise_sigma", noise_sigma, 0.0)
    n = n_min + rng.randint(n_max - n_min + 1)
    tree = {(rng.randint(v), v) for v in range(1, n)}  # a random spanning tree keeps it connected
    edges = random_edges(n, extra_edge_p, rng, fixed=tree)
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
    _need_range("n_nodes", n_nodes, 1)
    label = rng.randint(2)
    edges = random_edges(n_nodes, p_dense if label else p_sparse, rng)
    x = np.ones((n_nodes, 1))
    return Graph(num_nodes=n_nodes, edges=edges, node_features=x, graph_label=int(label))


# generator parameter annotation -> accepted value types; a bool is neither
PARAM_TYPES = {"int": (int, np.integer), "float": (int, float, np.integer)}

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
        for name in ("n_train", "n_val", "n_test"):
            check_int(f"dataset {name}", getattr(self, name), 0)
        check_int("dataset seed", self.seed)
        if not isinstance(self.params, dict):
            raise ValueError(f"generator params must be an object, got {self.params!r}")
        signature = inspect.signature(fn).parameters
        accepted = set(signature) - {"rng"}
        required = {k for k in accepted if signature[k].default is inspect.Parameter.empty}
        unknown = sorted(self.params.keys() - accepted)
        missing = sorted(required - set(self.params))
        if unknown or missing:
            raise ValueError(f"generator {self.generator!r} params: unknown {unknown}, "
                             f"missing {missing}; it accepts {sorted(accepted)}")
        for name, value in self.params.items():
            kind = signature[name].annotation  # a string: this module defers annotations
            if kind in PARAM_TYPES and (isinstance(value, bool)
                                        or not isinstance(value, PARAM_TYPES[kind])):
                raise ValueError(f"generator {self.generator!r} param {name} must be "
                                 f"of type {kind}, got {value!r}")


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


def _no_bools(name: str, values) -> None:
    """Raise if values hold a JSON true or false, which numpy reads as 1 or 0."""
    bools = [v for v in np.asarray(values, dtype=object).ravel().tolist() if type(v) is bool]
    if bools:
        raise ValueError(f"{name} must hold numbers, got {bools[0]!r}")


def _float64(name: str, values) -> np.ndarray:
    """values as a float64 array; a boolean, a string, a null, a non-finite
    value or a ragged list raises, naming ``name``."""
    _no_bools(name, values)
    try:
        arr = np.asarray(values)
    except ValueError as err:  # a ragged list
        raise ValueError(f"{name} must be a rectangular array of numbers") from err
    bad = [] if arr.dtype.kind in "iuf" else \
        [v for v in arr.ravel().tolist() if type(v) not in (int, float)]
    if not bad:
        arr = arr.astype(np.float64)
        bad = arr[~np.isfinite(arr)].tolist()
    if bad:
        raise ValueError(f"{name} must hold finite numbers, got {bad[0]!r}")
    return arr


def _graph_from_obj(obj: dict, task: str, where: str) -> Graph:
    """Graph of one dataset file object, read strictly: a count, an endpoint
    or a class label is an integer, a feature or target a finite number, and
    a JSON true or false is neither (numpy would read it as 1 or 0). An error
    names the object by ``where``, e.g. "test graph 0"."""
    try:
        if not isinstance(obj, dict):
            raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
        for key in ("edges", "y"):  # integer reads; check_int and _float64 sweep the rest
            _no_bools(key, obj.get(key))
        check_int("n", obj["n"], 0)
        edges = _int64("edges", obj["edges"])
        if edges.size and (edges.ndim != 2 or edges.shape[1] != 2):
            raise ValueError(f"edges must be a list of [src, dst] pairs, got shape {edges.shape}")
        kwargs = {
            "num_nodes": obj["n"],
            "edges": edges,
            "node_features": _float64("x", obj["x"]),
        }
        if "e" in obj:
            kwargs["edge_features"] = _float64("e", obj["e"])
        y = obj["y"]
        if task == "node-class":
            kwargs["node_labels"] = y
        elif task == "graph-class":
            kwargs["graph_label"] = int(_int64("y", y))
        elif task == "edge-pred":
            kwargs["edge_labels"] = y
        else:
            kwargs["graph_label"] = float(_float64("y", y))
        return Graph(**kwargs)
    except KeyError as err:
        raise DatasetError(f"malformed {where}: missing key {err}") from err
    except (TypeError, ValueError, OverflowError) as err:
        raise DatasetError(f"malformed {where}: {err}") from err


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
    splits = payload.get("splits")
    if not isinstance(splits, dict) or not all(isinstance(s, list) for s in splits.values()):
        raise DatasetError(f"malformed dataset file {path}: splits must map names to lists")
    try:
        spec = make_config(DatasetSpec, payload.get("spec"), "dataset spec")
    except ValueError as err:
        raise DatasetError(f"malformed dataset file {path}: {err}") from err
    return spec, {name: [_graph_from_obj(obj, spec.task, f"{name} graph {i}")
                         for i, obj in enumerate(graphs)]
                  for name, graphs in splits.items()}
