from repro.planted import test_only
