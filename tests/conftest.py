"""Shared pytest configuration.

Property tests run under a fixed hypothesis profile: derandomized, so every
run tries the same examples; no deadline, since timings vary between
machines; and few examples, so the suite stays quick.
"""

from hypothesis import settings

settings.register_profile("multibeta", derandomize=True, deadline=None, max_examples=30,
                          database=None)
settings.load_profile("multibeta")
