"""Exact integer roots."""

import pytest

from affine_energy.exactmath import iroot


def _is_floor_root(r, x, n):
    return r**n <= x < (r + 1) ** n


def test_iroot_small_values():
    for n in range(1, 9):
        for x in range(0, 600):
            assert _is_floor_root(iroot(x, n), x, n)


def test_iroot_exact_powers():
    for n in (3, 6, 8):
        for r in (2, 10, 3**50, 10**70 + 7):
            assert iroot(r**n, n) == r
            assert iroot(r**n - 1, n) == r - 1


@pytest.mark.parametrize("n", [3, 6, 8])
def test_iroot_beyond_float_range(n):
    for x in (10**401, 10**400 * 7 + 12345, 3**2000, 2**4000 - 1):
        assert _is_floor_root(iroot(x, n), x, n)


def test_iroot_rejects_bad_input():
    with pytest.raises(ValueError):
        iroot(-1, 3)
    with pytest.raises(ValueError):
        iroot(5, 0)

