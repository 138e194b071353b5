"""Error types and the integer and number checks shared across the package.

Plain ``ValueError`` is used for invalid arguments; the classes here mark
conditions a caller may want to handle specially.
"""

import numpy as np


def is_int(value):
    """True for Python and numpy integers, False for ``bool``.

    ``bool`` subclasses ``int``, so a bare isinstance check would take
    True for 1 and False for 0.
    """
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# the types json.loads gives a number (true and false parse to bool)
JSON_NUMBER_TYPES = frozenset({int, float})


def is_number(value):
    """True for a JSON number as json.loads returns it: an int or a float."""
    return type(value) in JSON_NUMBER_TYPES


def as_int(value, name, minimum):
    """``value`` as a plain int, or ValueError unless it is an integer >= minimum.

    The one check for every integer argument: ``2.7``, ``True`` and ``"2"``
    are refused rather than cast.
    """
    if not is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


class CapacityError(RuntimeError):
    """A requested computation exceeds an enforced size or overflow cap."""


class NumericalDomainError(ValueError):
    """An integrand or transform value left the representable range."""


class DegenerateTargetError(RuntimeError):
    """The transform of the target is numerically zero everywhere."""


class OracleRefusedError(RuntimeError):
    """The reference integrator could not certify its own refinement."""
