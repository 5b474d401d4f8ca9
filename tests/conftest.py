"""Shared test settings.

Property tests run under one hypothesis profile: examples are drawn from a
seed fixed per test (``derandomize``) and no example database is replayed,
so every run of the suite checks the same inputs; ``deadline=None`` because
numpy work on a loaded machine has no stable per-example time.
"""

from hypothesis import settings

settings.register_profile("su2topo", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("su2topo")
