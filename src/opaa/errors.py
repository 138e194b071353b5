"""Error types and the integer-argument check shared across the package.

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


class CapacityError(RuntimeError):
    """A requested computation exceeds an enforced size or overflow cap."""


class NumericalDomainError(ValueError):
    """An integrand or transform value left the representable range."""


class DegenerateTargetError(RuntimeError):
    """The transform of the target is numerically zero everywhere."""


class OracleRefusedError(RuntimeError):
    """The reference integrator could not certify its own refinement."""
