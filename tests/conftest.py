"""Hypothesis profiles for the test suite.

Local runs use hypothesis's default profile.  CI selects the ``ci`` profile
with ``HYPOTHESIS_PROFILE=ci``: derandomized, so every CI run draws the same
examples and a property failure there reproduces on the next run.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
