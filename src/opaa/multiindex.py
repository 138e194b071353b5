"""Multi-index shells: enumeration and counting by total degree."""

from __future__ import annotations

import math

from .errors import CapacityError, as_int

__all__ = ["enumerate_shell", "shell_count"]

# shell sizes must stay usable as array dimensions / loop bounds
_MAX_COUNT = 2**63 - 1


def _validate(dim, degree):
    """(dim, degree) as plain ints, so the tuples built from them are too."""
    return as_int(dim, "dim", 1), as_int(degree, "degree", 0)


def enumerate_shell(dim, degree):
    """All multi-indices of the given dimension and total degree.

    Returned as tuples in reverse-lexicographic order, i.e. descending on
    the leading entries: enumerate_shell(2, 2) -> [(2, 0), (1, 1), (0, 2)].
    """
    dim, degree = _validate(dim, degree)
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for v in range(remaining, -1, -1):
            rec(prefix + (v,), remaining - v, slots - 1)

    rec((), degree, dim)
    return out


def shell_count(dim, degree):
    """Number of multi-indices with the given total degree: C(degree+dim-1, dim-1).

    Computed exactly; raises CapacityError if the count exceeds the platform
    integer range (it could not index anything anyway).
    """
    dim, degree = _validate(dim, degree)
    count = math.comb(degree + dim - 1, dim - 1)
    if count > _MAX_COUNT:
        raise CapacityError(
            f"shell_count({dim}, {degree}) = {count} exceeds the platform integer range"
        )
    return count
