"""Rank-one reduction: two components, two reflections, one integer parameter.

When the first two unknowns of the full system are identified, the
system collapses to the sinh-Gordon equation with two mass components.
As data it is the rank-two ``ReflectionSystem`` ``SINH``, so its vectors,
reflections, evaluation and quadric are the shared ones in ``algebra``
and its orbit comes from the shared BFS.  The orbit of the origin is a
doubly infinite chain indexed by a single integer m with a parity-split
closed form; this module keeps that closed form and its inversion.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import MassVector, ReflectionSystem
from .orbit import OrbitWalk

SINH_CARTAN = (
    (Fraction(1), Fraction(-1)),
    (Fraction(-1), Fraction(1)),
)
SINH_SYMMETRIZER = (1, 1)
SINH = ReflectionSystem("sinh", SINH_CARTAN, SINH_SYMMETRIZER)


def _chain_rows(m: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The coefficient rows of the chain element with parameter m (parity selects the branch)."""
    if m % 2:
        return (((m + 1) ** 2, m * m - 1), (m * m - 1, (m - 1) ** 2))
    return ((m * m, (m - 1) ** 2 - 1), ((m + 1) ** 2 - 1, m * m))


def sinh_closed_form(m: int) -> MassVector:
    """The chain element with parameter m (parity selects the branch)."""
    return MassVector(_chain_rows(m))


def sinh_orbit(max_level: int) -> list[MassVector]:
    """BFS orbit of the origin under the two reflections, canonically sorted.

    The walk's levels, each sorted by matrix, are already in sorted order:
    level n holds m = n and m = -n (the tests check level == |m|), and its
    largest matrix sorts before level n + 1's smallest.  Row-major, m is
    (m^2, (m-1)^2 - 1, (m+1)^2 - 1, m^2) when even and ((m+1)^2, m^2 - 1,
    m^2 - 1, (m-1)^2) when odd.  For n even those two are m = -n and
    m = -n - 1, which first differ in the third entry, (n-1)^2 - 1 <
    (n+1)^2 - 1 (at n = 0 in the fourth, 0 < 4); for n odd they are m = n
    and m = n + 1, and n^2 - 1 < (n+2)^2 - 1 in the third entry.  The
    walk's matrices are square by construction, so each is wrapped without
    the shape check.  The tests check every element against the rank-one
    quadric (s1-s2)^2 = 4(mu1 s1 + mu2 s2).
    """
    return [MassVector._unchecked(coeff) for _, entries in OrbitWalk(SINH, max_level).levels()
            for coeff, _, _ in entries]


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
