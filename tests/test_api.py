"""The public API: every exported name exists."""

import logweight as lw


def test_every_exported_name_resolves():
    missing = [name for name in lw.__all__ if not hasattr(lw, name)]
    assert missing == []


def test_exported_names_are_unique():
    assert len(set(lw.__all__)) == len(lw.__all__)
