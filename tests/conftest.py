"""Hypothesis profiles.  `HYPOTHESIS_PROFILE=ci` makes every property test
draw the same examples on every run and print a reproduction blob on
failure; without the variable the default profile applies."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
