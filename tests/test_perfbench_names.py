"""The traced benchmark run finds every minignn name it wraps.

``perfbench/tracing.install`` reports the names it cannot find instead of
failing, so a rename in ``src/`` would silently drop spans from the traced
run. This guard keeps that list empty and checks that the originals come
back afterwards.
"""

import importlib.util
from pathlib import Path

from minignn import cli, generators, graph, layers, tensor, training

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# A sample of the wrapped names, from each kind of owner install patches.
SAMPLE = ((tensor, "backward"), (tensor, "matmul"), (cli, "finite_diff_check"),
          (layers.GcnLayer, "forward"), (training.Adam, "step"),
          (training, "make_batch"), (cli, "main"), (layers.GraphView, "__init__"),
          (graph, "batch"))


def test_tracing_install_finds_every_name_and_restores_them():
    tracing = load_tracing()
    before = [getattr(owner, attr) for owner, attr in SAMPLE]
    table = dict(generators.GENERATORS)
    restore, missing = tracing.install(tracing.Tracer())
    try:
        assert missing == []
        assert tensor.backward is not before[0]
    finally:
        restore()
    assert [getattr(owner, attr) for owner, attr in SAMPLE] == before
    assert generators.GENERATORS == table
