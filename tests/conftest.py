"""Shared test settings.

Every property test draws its examples from the ``seeded`` hypothesis
profile: ``derandomize=True`` makes each run draw the same examples, and
with no example database no run writes one.
"""
from hypothesis import settings

settings.register_profile("seeded", derandomize=True, database=None, deadline=None,
                          max_examples=15)
settings.load_profile("seeded")
