import importlib
import os
import re
import types

import dilates
import dilates.backend

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


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
