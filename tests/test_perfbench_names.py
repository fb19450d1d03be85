"""The traced benchmark run finds every minignn name it wraps.

``perfbench/tracing.install`` reports the names it cannot find instead of
failing, so a rename in ``src/`` would silently drop spans from the traced
run. This guard keeps that list empty and checks that the originals come
back afterwards. A tensor op that ``tracing.ALL_OPS`` does not list would
go untraced just as silently, so the op list is checked against the module.
"""

import importlib.util
import inspect
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


def test_all_ops_lists_every_recording_op_of_tensor():
    tracing = load_tracing()
    recording = {name for name, fn in vars(tensor).items()
                 if inspect.isfunction(fn) and fn.__module__ == tensor.__name__
                 and "_record" in fn.__code__.co_names}
    assert "matmul" in recording and "segment_sum" in recording
    assert sorted(recording - set(tracing.ALL_OPS)) == []
    assert [name for name in tracing.ALL_OPS
            if not inspect.isfunction(getattr(tensor, name, None))] == []
