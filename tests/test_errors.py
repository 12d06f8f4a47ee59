"""The error hierarchy: the base of each error decides the CLI exit code."""

import inspect

from skewplane import errors
from skewplane.errors import DegenerateInputError, SkewPlaneError, UsageError

BASES = (SkewPlaneError, UsageError, DegenerateInputError)


def test_every_error_has_exactly_one_exit_code_base():
    concrete = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                if issubclass(cls, SkewPlaneError) and cls not in BASES]
    assert concrete
    for cls in concrete:
        assert issubclass(cls, UsageError) != issubclass(cls, DegenerateInputError), cls
