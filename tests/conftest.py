"""Hypothesis profiles. HYPOTHESIS_PROFILE=ci draws the same examples on every
run and Python version and drops the per-example deadline, so a property
either fails everywhere or nowhere.

Hypothesis's pytest plugin imports ``hypothesis.extra._patching`` (and with it
libcst) only once a property has failed, to suggest a patch. libcst raises a
DeprecationWarning on import, which the suite's ``error::DeprecationWarning``
filter turns into an exception that ends the session with INTERNALERROR and
hides every later test. It is imported once here, with that one warning
ignored; the filter still holds for every other import and for the project's
own code."""
import contextlib
import os
import warnings

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
