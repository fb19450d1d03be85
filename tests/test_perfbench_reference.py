"""The benchmark's sbm-train check run still matches its recorded reference.

``perfbench/workloads.reference_check`` reruns sbm-train at the acceptance
seed and compares its losses (relative 1e-6) and argmax metrics (absolute
0.02) with ``perfbench/reference.json``. A change of summation order that
moves the losses past that tolerance fails here, in the test suite, and not
only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports tracing by name
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sbm_train_matches_the_recorded_reference(monkeypatch):
    workloads = load_workloads(monkeypatch)
    assert workloads.reference_check("sbm-train") == (1, [])
