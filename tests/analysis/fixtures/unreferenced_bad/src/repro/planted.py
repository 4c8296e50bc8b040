"""Naming ``orphan`` in a docstring does not use it."""

#: Nor does listing it in the module's own export list.
__all__ = ["orphan"]


def orphan():
    return _orphan_helper()


def _orphan_helper():
    pass


def test_only():
    pass
