"""Test-suite settings.

Property tests draw their examples from a fixed seed (derandomize), keep no
example database, have no per-example deadline and a bounded example count,
so every run of the suite checks the same cases and gives the same result.
"""

from hypothesis import settings

settings.register_profile(
    "wlstrack", derandomize=True, database=None, deadline=None, max_examples=150
)
settings.load_profile("wlstrack")
