from repro.core import used_by_benchmark
