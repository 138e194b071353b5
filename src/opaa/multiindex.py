"""Multi-index shells: enumeration by total degree."""

from __future__ import annotations

from .errors import as_int

__all__ = ["enumerate_shell"]


def enumerate_shell(dim, degree):
    """All multi-indices of the given dimension and total degree.

    Returned as tuples in reverse-lexicographic order, i.e. descending on
    the leading entries: enumerate_shell(2, 2) -> [(2, 0), (1, 1), (0, 2)].
    """
    # plain ints, so the tuples built from them are too
    dim, degree = as_int(dim, "dim", 1), as_int(degree, "degree", 0)
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for v in range(remaining, -1, -1):
            rec(prefix + (v,), remaining - v, slots - 1)

    rec((), degree, dim)
    return out
