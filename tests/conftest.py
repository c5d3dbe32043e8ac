import importlib.util
import json
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _load_perfbench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def perfbench_pool():
    """The benchmark's pools and pins, read-only: (workloads module, pins)."""
    workloads = _load_perfbench_module("workloads")
    with open(os.path.join(PERFBENCH, "pins.json")) as f:
        pins = json.load(f)
    return workloads, pins


@pytest.fixture(scope="session")
def perfbench_tracing():
    """The benchmark's tracer module, read-only."""
    return _load_perfbench_module("tracing")
