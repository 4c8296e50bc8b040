from repro import core


def run_table():
    return core.used_by_module(), getattr(core, "dispatched")
