"""Rank-one reduction: two components, two reflections, one integer parameter.

When the first two unknowns of the full system are identified, the
system collapses to the sinh-Gordon equation with two mass components.
As data it is the rank-two ``ReflectionSystem`` ``SINH``, so its vectors,
reflections, evaluation and quadric are the shared ones in ``algebra``.
Its orbit is a chain in one integer m: chain(m) is B2(1)'s element at
the id (d, d), d = m for m odd and -m for m even, folded (``_CHAIN``), so
``closedform``'s kernel writer evaluates it: an element's flat ``coeff``
is the four entries of the chain kernel of d's parity (``_chain``).

Proof.  The oracle ``chain_rows`` in tests/conftest.py, (m^2, (m-1)^2 - 1,
(m+1)^2 - 1, m^2) for m even and ((m+1)^2, m^2 - 1, m^2 - 1, (m-1)^2) for
m odd, row-major, is that element: both sides are quadratic in d on a
residue class mod 4 (``_F`` has no m1*m2 term, point (3) of the
``closedform`` docstring; the oracle is quadratic in m on a parity
class), so three d per class prove it, and the tests take more.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Callable, Iterator

from .algebra import MassVector, ReflectionSystem, _check_rank, _compile
from .closedform import FAMILY_BY_TYPE, _F, _kernel_source, _reject

SINH_CARTAN = (
    (Fraction(1), Fraction(-1)),
    (Fraction(-1), Fraction(1)),
)
SINH_SYMMETRIZER = (1, 1)
SINH = ReflectionSystem("sinh", SINH_CARTAN, SINH_SYMMETRIZER)


# The diagonal tables of ``_F``, types (r, r) by r = d mod 2 ((r + 2, r + 2) fold alike, as
# tested), folded to m1 = m2 in m1 alone: rows 1 and 3, each with its first two entries added,
# and each entry (a, b, c, d, e) of (m1^2, m1, m2^2, m2, 1) as (a + c, b + d, 0, 0, e).
_CHAIN = tuple(tuple(tuple((a + c, b + d, 0, 0, e) for a, b, c, d, e in
                           (tuple(map(sum, zip(first, second))), third))
                     for first, second, third in _F[FAMILY_BY_TYPE[(r, r)]][::2])
               for r in range(2))


@cache
def _chain(r: int) -> Callable[[int, int], tuple[int, ...]]:
    """The kernel of ``_CHAIN[r]``, compiled on first use: chain(m)'s four entries at (d, 0)."""
    return _compile(_kernel_source(r, _CHAIN[r]), "<sinh chain %d>" % r, _reject=_reject)


def sinh_closed_form(m: int) -> MassVector:
    """The chain element with parameter m: the chain kernel of d's parity at (d, 0)."""
    d = m if m % 2 else -m
    return MassVector(_chain(d % 2)(d, 0))


def sinh_orbit(max_level: int) -> Iterator[tuple[int, tuple[int, int, int, int]]]:
    """The orbit of the origin to level ``max_level``, canonically sorted, read off the chain.

    Yields each element as ``(m, coeff)``, its parameter and flat matrix.  ``max_level`` is
    checked at the call; the iterator builds each element as it is read.

    Generator 1 sends chain(m) to chain(m + 1) for m even and to chain(m - 1)
    for m odd, generator 2 the other way round (both sides are quadratic in m
    on a parity class, so three m per class prove it; the tests check more).
    The chain is one-to-one, so level n holds exactly m = n and m = -n.  Listed
    as 0, then d = -n and d = n at each level n, they are already sorted:
    within level n the pair first differs in entry 1, (n-1)^2 < (n+1)^2, for n
    odd and in entry 2, (n-1)^2 - 1 < (n+1)^2 - 1, for n even; level n's last
    and level n + 1's first differ first in entry 3, (n-1)^2 - 1 < (n+1)^2 - 1
    for n even (at n = 0 in entry 4, 0 < 4) and n^2 - 1 < (n+2)^2 - 1 for n
    odd.  The tests compare the elements with the shared walk, every element
    with the rank-one quadric (s1-s2)^2 = 4(mu1 s1 + mu2 s2) and every m
    with the oracle chain.
    """
    if max_level < 0:
        raise ValueError("max_level must be >= 0")
    return _walk(max_level, (_chain(0), _chain(1)))


def _walk(max_level: int, kernels: tuple) -> Iterator[tuple[int, tuple[int, int, int, int]]]:
    yield 0, kernels[0](0, 0)
    for n in range(1, max_level + 1):
        kernel = kernels[n % 2]  # -n and n share their parity
        m = n if n % 2 else -n  # the m of d = n; d = -n has -m
        yield -m, kernel(-n, 0)
        yield m, kernel(n, 0)


def sinh_invert(sigma: MassVector) -> int:
    """Recover the chain parameter of an orbit element.

    The coefficient-sum difference n1 - n2 = 4d names the one candidate,
    m = d for d odd, else -d, whose entries are compared with ``sigma.coeff``.
    """
    if len(sigma.coeff) != 4:
        _check_rank(sigma, SINH)
    a, b, c, e = sigma.coeff
    d, rest = divmod(a + b - c - e, 4)
    if rest:
        raise ValueError("coefficient-sum difference is not a multiple of 4")
    if _chain(d % 2)(d, 0) != sigma.coeff:
        raise ValueError("vector is not on the parametrized chain")
    return d if d % 2 else -d
