import repro.shown
from repro.core import used_by_example
