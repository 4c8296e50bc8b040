from repro.cli import main
import repro.planted
