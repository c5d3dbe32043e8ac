import importlib
import json
import os
import re
import subprocess
import sys
import types

import pytest

import dilates
import dilates.backend

TESTS = os.path.dirname(os.path.abspath(__file__))
README = os.path.join(TESTS, os.pardir, "README.md")


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(dilates).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(dilates.__all__) == len(set(dilates.__all__))
    assert set(dilates.__all__) == public
    for name in dilates.__all__:
        assert getattr(dilates, name) is not None
    assert len(dilates.__all__) == 38
    for name in (
        "available_backends", "enumerate_canonical", "VerificationError", "ap_exact_size",
        "Decomposition", "MarginalSplit", "marginal_split", "stabilizer",
        "AffineMap", "check_affine_invariance", "deficiency", "HypothesisError",
    ):
        assert name not in public
    assert not hasattr(dilates.backend, "available_backends")


def test_readme_quick_start_values():
    """Every ``expr  # value`` line of the README's Python block holds."""
    with open(README) as f:
        (block,) = re.findall(r"```python\n(.*?)```", f.read(), re.S)
    namespace = {}
    exec(block, namespace)
    # The values are reprs, which may name public types the block does not import.
    scope = {**{name: getattr(dilates, name) for name in dilates.__all__}, **namespace}
    pairs = re.findall(r"^(\S.*?)\s+#\s+(.+)$", block, re.M)
    assert len(pairs) == 5
    for expr, value in pairs:
        assert eval(value, scope) == eval(expr, scope), expr


def test_benchmark_names_resolve(perfbench_tracing):
    """Every name the benchmark's tracer binds or calls exists.

    The benchmark runs untraced, so a name only its traced self-check
    needs would otherwise go missing unnoticed."""
    sites = [s for sites in perfbench_tracing.REQUIRED_SITES.values() for s in sites]
    assert sites
    for site in sites:
        module, attr = site.rsplit(".", 1)
        assert callable(getattr(importlib.import_module(module), attr, None)), site
    for name in perfbench_tracing.KERNELS:
        assert callable(getattr(dilates.backend._impl, name, None)), name
    # perfbench/run.py calls both.
    assert callable(dilates.backend_name) and callable(dilates.use_backend)


# One seed-9001 pass untraced, then two traced passes, as perfbench/run.py
# --trace 1 runs them; prints the tracer's self-check problems as JSON.
TRACED_PASSES = """
import importlib, json, os, sys
root, workload = sys.argv[1:]
bench = os.path.join(root, "perfbench")
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests"), bench]
import tracing, workloads
from bruteforce import naive_dilate_sum
with open(os.path.join(bench, "pins.json")) as f:
    pins = json.load(f)
lib = importlib.import_module("dilates")
cli = importlib.import_module("dilates.cli")
ops = workloads.build_ops(workload, 9001, lib, cli, pins, naive_dilate_sum)
for op in ops:
    op.call()
tracer = tracing.Tracer(lib.ArithmeticRangeError)
sites = tracing.install(tracer, lib.backend._impl)
pass_counts = []
for _ in range(2):
    before = tracer.snapshot()[0]
    for op in ops:
        op.call()
    counts = tracer.snapshot()[0]
    counts.subtract(before)
    pass_counts.append(dict(+counts))
problems = tracing.self_check(workload, set(sites), tracer.snapshot()[2], pass_counts)
print(json.dumps(problems))
"""


@pytest.mark.parametrize("workload", ["probe", "search-mixed", "check", "sum"])
def test_benchmark_trace_self_check(workload):
    """The benchmark's traced run finds every site and count it requires.

    Each workload runs in a fresh interpreter, since installing the tracer
    rebinds functions in every loaded dilates module."""
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_PASSES, os.path.join(TESTS, os.pardir), workload],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
