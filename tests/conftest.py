"""Test-session set-up shared by every test module.

When a ``@given`` test fails, the hypothesis pytest plugin imports libcst
from its ``pytest_runtest_makereport`` hook to write a patch file.  Some
libcst releases read ``mypy_extensions.TypedDict``, which raises a
``DeprecationWarning`` on import; under ``python -W error`` that warning,
raised inside a hook, ends the whole session with ``INTERNALERROR``, and
the tests after the failing one never run.  So libcst, where it can be
imported, is imported here once with only that warning ignored, and the
plugin finds it loaded.  Every other warning filter stays as given.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass
