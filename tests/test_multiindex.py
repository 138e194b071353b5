import itertools
import math

import numpy as np
import pytest

from opaa.multiindex import enumerate_shell


def brute_shell(dim, degree):
    return [
        tau
        for tau in itertools.product(range(degree + 1), repeat=dim)
        if sum(tau) == degree
    ]


def test_zero_degree():
    assert enumerate_shell(3, 0) == [(0, 0, 0)]


def test_documented_order_dim2():
    assert enumerate_shell(2, 2) == [(2, 0), (1, 1), (0, 2)]


def test_shell_sizes():
    assert len(enumerate_shell(10, 3)) == math.comb(12, 9) == 220
    assert len(enumerate_shell(1, 7)) == 1
    assert len(enumerate_shell(3, 2)) == 6
    assert len(enumerate_shell(2, 0)) == 1


def test_matches_brute_force():
    for dim in range(1, 7):
        for degree in range(9):
            shell = enumerate_shell(dim, degree)
            assert len(shell) == len(set(shell)) == math.comb(degree + dim - 1, dim - 1)
            assert set(shell) == set(brute_shell(dim, degree))


def test_order_is_reverse_lexicographic():
    for dim, degree in ((2, 4), (3, 5), (4, 3)):
        shell = enumerate_shell(dim, degree)
        assert shell == sorted(shell, reverse=True)


def test_union_of_shells_counts():
    dim = 4
    seen = set()
    for d in range(6):
        seen.update(enumerate_shell(dim, d))
    assert len(seen) == math.comb(5 + dim, dim)


def test_argument_validation():
    with pytest.raises(ValueError):
        enumerate_shell(0, 2)
    with pytest.raises(ValueError):
        enumerate_shell(2, -1)


def test_numpy_integers_give_plain_ints():
    shell = enumerate_shell(np.int64(2), np.int64(3))
    assert shell == enumerate_shell(2, 3)
    assert all(type(v) is int for tau in shell for v in tau)
