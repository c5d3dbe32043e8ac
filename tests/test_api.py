import types

import dilates


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
    assert "available_backends" not in public
    assert not hasattr(dilates.backend, "available_backends")
