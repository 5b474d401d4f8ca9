"""Shared test settings and helpers.

Property tests run under one hypothesis profile: examples are drawn from a
seed fixed per test (``derandomize``) and no example database is replayed,
so every run of the suite checks the same inputs; ``deadline=None`` because
numpy work on a loaded machine has no stable per-example time.
"""

import tracemalloc

from hypothesis import settings

settings.register_profile("su2topo", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("su2topo")


def peak_traced_bytes(fn):
    """``(peak, result)``: the peak of the memory tracemalloc traces while
    ``fn()`` runs (numpy's allocations included), and what it returned."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()
