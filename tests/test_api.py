import os
import re
import types

import dilates

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
    assert len(dilates.__all__) == 42
    for name in (
        "available_backends", "enumerate_canonical", "VerificationError", "ap_exact_size",
        "Decomposition", "MarginalSplit", "marginal_split", "stabilizer",
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
