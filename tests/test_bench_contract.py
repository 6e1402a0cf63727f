"""The traced benchmark (bench/tracer.py) wraps rolltune functions and
methods by name. Installing it here makes a refactor that drops or
renames one of them fail this suite, not only a traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

from rolltune import nn

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = load_tracer().Tracer()
    originals = (nn.stack_step, nn.sigmoid, nn.LstmCellParams.packed)
    tracer.install()
    try:
        cell = nn.LstmCellParams.fresh(3, 2, np.random.default_rng(0))
        zeros = np.zeros((1, 2))
        nn.stack_step([cell], np.zeros((1, 3)), [(zeros, zeros)])
    finally:
        tracer.uninstall()
    assert (nn.stack_step, nn.sigmoid, nn.LstmCellParams.packed) == originals
    calls = {name: n for name, (n, _) in tracer.totals().items()}
    for name in ("nn.stack_step", "nn.stack_forward", "nn.sigmoid",
                 "nn.packed"):
        assert calls[name] == 1, name
