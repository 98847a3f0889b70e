"""The package's public surface."""

import formsense


def test_public_names_resolve_and_are_unique_and_sorted():
    names = formsense.__all__
    assert [name for name in names if not hasattr(formsense, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
