import importlib.util
import json
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.fixture(scope="session")
def perfbench_pool():
    """The benchmark's pools and pins, read-only: (workloads module, pins)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py")
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    with open(os.path.join(PERFBENCH, "pins.json")) as f:
        pins = json.load(f)
    return workloads, pins
