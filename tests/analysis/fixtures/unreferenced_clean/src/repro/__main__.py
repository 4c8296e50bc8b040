from repro.cli import main
