"""Settings shared by every test module.

One hypothesis profile for all property tests: derandomized examples and no
example database, so every run tries the same inputs, and no per-example
deadline, since example times vary with the host.  Each test sets only its
``max_examples``.
"""

from hypothesis import settings

settings.register_profile("qfplab", deadline=None, derandomize=True, database=None)
settings.load_profile("qfplab")
