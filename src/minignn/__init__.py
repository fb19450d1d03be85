"""Message-passing graph networks with neighbour-interaction message encoding.

Self-contained: a float64 autodiff core, graph containers and synthetic
task generators with exact label oracles, two convolution families
(mean-aggregation and edge-gated), a training harness, and a
verification suite of loop oracles and property harnesses.
"""

from .graph import Graph, batch
from .generators import DatasetSpec, generate_dataset, load_dataset, save_dataset
from .layers import Model, ModelConfig
from .rng import Rng
from .tensor import Tensor, backward, finite_diff_check
from .training import TrainConfig, train_loop, run_seeds, evaluate

__all__ = [
    "Graph", "batch",
    "DatasetSpec", "generate_dataset", "load_dataset", "save_dataset",
    "Model", "ModelConfig", "Rng", "Tensor", "backward", "finite_diff_check",
    "TrainConfig", "train_loop", "run_seeds", "evaluate",
]
