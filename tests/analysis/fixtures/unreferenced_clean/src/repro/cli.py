import importlib


def _exp(module):
    return importlib.import_module(f"repro.experiments.{module}")


def main():
    return _exp("table").run_table()
