"""A miniature repository: every definition has one kind of reader."""
__all__ = ["exported"]
