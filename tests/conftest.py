"""Settings shared by every test module."""

import pytest

# When a hypothesis test fails, hypothesis writes the failing example as a
# patch through libcst, whose import raises this one DeprecationWarning.
# Under -W error it would end the session in INTERNALERROR and lose the
# example.  A mark outranks -W; a `filterwarnings` line in pyproject.toml
# does not.
LIBCST_IMPORT = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.filterwarnings(LIBCST_IMPORT))
