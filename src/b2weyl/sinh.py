"""Rank-one reduction: two components, two reflections, one integer parameter.

When the first two unknowns of the full system are identified, the
system collapses to the sinh-Gordon equation with two mass components.
As data it is the rank-two ``ReflectionSystem`` ``SINH``, so its vectors,
reflections, evaluation and quadric are the shared ones in ``algebra``.
The orbit of the origin is a doubly infinite chain indexed by a single
integer m with a parity-split closed form; this module keeps that closed
form, reads the orbit off it level by level, and inverts it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .algebra import MassVector, ReflectionSystem

SINH_CARTAN = (
    (Fraction(1), Fraction(-1)),
    (Fraction(-1), Fraction(1)),
)
SINH_SYMMETRIZER = (1, 1)
SINH = ReflectionSystem("sinh", SINH_CARTAN, SINH_SYMMETRIZER)


# For e even, chain(e - 1) and chain(e) share row 1, and chain(e) and chain(e + 1) row 2.
def _row1(e: int) -> tuple[int, int]:
    return e * e, (e - 1) ** 2 - 1


def _row2(e: int) -> tuple[int, int]:
    return (e + 1) ** 2 - 1, e * e


def _chain_rows(m: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The rows of chain(m), row-major (m^2, (m-1)^2 - 1, (m+1)^2 - 1, m^2)
    for m even and ((m+1)^2, m^2 - 1, m^2 - 1, (m-1)^2) for m odd."""
    return _row1(m + m % 2), _row2(m - m % 2)


def sinh_closed_form(m: int) -> MassVector:
    """The chain element with parameter m (parity selects the branch)."""
    return MassVector(_chain_rows(m))


def sinh_orbit(max_level: int) -> Iterator[MassVector]:
    """The orbit of the origin to level ``max_level``, canonically sorted, read off the chain.

    ``max_level`` is checked at the call; the iterator builds each element as it is read.

    Generator 1 sends chain(m) to chain(m + 1) for m even and to chain(m - 1)
    for m odd, generator 2 the other way round (both sides are quadratic in m
    on a parity class, so three m per class prove it; the tests check more).
    The chain is one-to-one, so level n holds exactly m = n and m = -n, each
    built from its neighbour towards 0, with which it shares a row.  Listed as
    0, then (-n, n) for n odd and (n, -n) for n even, they are already sorted:
    within level n the pair first differs in entry 1, (n-1)^2 < (n+1)^2, for n
    odd and in entry 2, (n-1)^2 - 1 < (n+1)^2 - 1, for n even; level n's last
    and level n + 1's first differ first in entry 3, (n-1)^2 - 1 < (n+1)^2 - 1
    for n even (at n = 0 in entry 4, 0 < 4) and n^2 - 1 < (n+2)^2 - 1 for n
    odd.  The tests compare the elements with the shared walk and every element
    with the rank-one quadric (s1-s2)^2 = 4(mu1 s1 + mu2 s2).
    """
    if max_level < 0:
        raise ValueError("max_level must be >= 0")
    return _chain_walk(max_level)


def _chain_walk(max_level: int) -> Iterator[MassVector]:
    origin = sinh_closed_form(0)
    yield origin
    (row1_up, row2_up) = (row1_down, row2_down) = origin.coeff
    for n in range(1, max_level + 1):
        if n % 2:
            row1_up, row2_down = _row1(n + 1), _row2(-n - 1)
            yield from (MassVector((row1_down, row2_down)), MassVector((row1_up, row2_up)))
        else:
            row2_up, row1_down = _row2(n), _row1(-n)
            yield from (MassVector((row1_up, row2_up)), MassVector((row1_down, row2_down)))


def sinh_invert(sigma: MassVector) -> int:
    """Recover the chain parameter of an orbit element.

    The coefficient-sum difference is 4m on the odd branch and -4m on the
    even one, so d = (n1 - n2)/4, which has m's parity, names one
    candidate: m = d when d is odd, else -d.  Its chain rows are compared
    with ``sigma.coeff`` exactly.
    """
    n1, n2 = sigma.coefficient_sums()
    diff = n1 - n2
    if diff % 4:
        raise ValueError("coefficient-sum difference is not a multiple of 4")
    d = diff // 4
    m = d if d % 2 else -d
    if _chain_rows(m) != sigma.coeff:
        raise ValueError("vector is not on the parametrized chain")
    return m
