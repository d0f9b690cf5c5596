"""Finite rank-two reflection orbits and the singular-source mass tables.

Restricting B2(1)'s coupling matrix and symmetrizer to an ordered pair
of nodes leaves a finite parabolic subsystem: a Klein four-group for the
decoupled pair {1,2}, a dihedral group of order eight for the pairs
coupling to the third component, and the same dihedral picture, nodes
(3,1), for the two-unknown system with one singular source, whose
quantization tables are derived from its orbit.  Reflections,
evaluation, the quadric and the BFS are the shared ones in ``algebra``
and ``orbit``.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (CARTAN_MATRIX, SYMMETRIZER, Frozen, MassVector, Rational,
                      ReflectionSystem, _scale, eval_at)
from .orbit import OrbitWalk

Matrix2 = tuple[tuple[int, int], tuple[int, int]]


class Subsystem(ReflectionSystem):
    """A rank-two reflection system whose orbit closes on ``expected_size`` elements."""

    __slots__ = ("expected_size",)
    _fields = ReflectionSystem._fields + ("expected_size",)

    expected_size: int

    def __init__(self, name: str, cartan: tuple[tuple[Fraction, ...], ...],
                 symmetrizer: tuple[int, ...], expected_size: int) -> None:
        super().__init__(name, cartan, symmetrizer)
        self._assign(expected_size=expected_size)


def _restrict(name: str, nodes: tuple[int, int], expected_size: int) -> Subsystem:
    """B2(1) restricted to ``nodes``, 1-based, in their order."""
    idx = [node - 1 for node in nodes]
    return Subsystem(name, tuple(tuple(CARTAN_MATRIX[i][j] for j in idx) for i in idx),
                     tuple(SYMMETRIZER[i] for i in idx), expected_size)


PAIR_12 = _restrict("pair_12", (1, 2), 4)
PAIR_13 = _restrict("pair_13", (1, 3), 8)
PAIR_23 = _restrict("pair_23", (2, 3), 8)
APPENDIX_UV = _restrict("appendix_uv", (3, 1), 8)

SUBSYSTEMS = {s.name: s for s in (PAIR_12, PAIR_13, PAIR_23, APPENDIX_UV)}

# Any finite rank-two orbit is exhausted well before this BFS depth.
_CLOSING_DEPTH = 16


def _closed_levels(sub: Subsystem) -> list[tuple[int, tuple]]:
    """The levels of the walk over ``sub``'s orbit (``OrbitWalk.levels``), which must close."""
    walk = OrbitWalk(sub, _CLOSING_DEPTH)
    levels = list(walk.levels())
    if not walk.exhausted:
        raise RuntimeError(f"orbit of {sub.name} did not close")
    return levels


def finite_orbit(sub: Subsystem) -> list[Matrix2]:
    """All orbit elements as 2x2 coefficient matrices, canonically sorted: as the
    tests check, the walk's levels already are, in order, on every subsystem."""
    orbit = [coeff for _, entries in _closed_levels(sub) for coeff, _, _ in entries]
    if len(orbit) != sub.expected_size:
        raise RuntimeError(f"orbit of {sub.name} has {len(orbit)} elements, "
                           f"expected {sub.expected_size}")
    return orbit


def longest_element(sub: Subsystem) -> Matrix2:
    """The unique orbit element of maximal reflection depth."""
    _, deepest = _closed_levels(sub)[-1]
    if len(deepest) != 1:
        raise RuntimeError(f"orbit of {sub.name} has no unique deepest element")
    return deepest[0][0]


# appendix_uv's orbit, walked once: part (c) substitutes the strengths into
# its elements, and part (a) evaluates its deepest, the last (the deepest
# level holds it alone), at (alpha1 + 1, alpha2 + 1).
_APPENDIX_ORBIT = finite_orbit(APPENDIX_UV)
_APPENDIX_TOP = MassVector(_APPENDIX_ORBIT[-1])


class NaturalityCertificate(Frozen):
    """Part (b) evidence: base tuples at natural strengths land in 4N x 4N."""

    __slots__ = _fields = ("tuples", "all_nonnegative", "all_multiples_of_four")

    tuples: tuple[tuple[int, int], ...]
    all_nonnegative: bool
    all_multiples_of_four: bool

    def __init__(self, tuples: tuple[tuple[int, int], ...], all_nonnegative: bool,
                 all_multiples_of_four: bool) -> None:
        self._assign(tuples=tuples, all_nonnegative=all_nonnegative,
                     all_multiples_of_four=all_multiples_of_four)

    @property
    def ok(self) -> bool:
        return self.all_nonnegative and self.all_multiples_of_four


def _check_strengths(alpha1: Fraction, alpha2: Fraction) -> None:
    if alpha1 <= -1 or alpha2 <= -1:
        raise ValueError("singular strengths must exceed -1")


def _pairs(alpha1: Fraction, alpha2: Fraction) -> tuple[list[tuple[int, int]], int]:
    (n1, n2), q = _scale((alpha1.as_integer_ratio(), alpha2.as_integer_ratio()))
    return sorted({(a * n1 + b * n2, c * n1 + d * n2)
                   for (a, b), (c, d) in _APPENDIX_ORBIT}), q


def appendix_pairs(alpha1: Fraction, alpha2: Fraction) -> tuple[list[tuple[int, int]], int]:
    """The distinct part-(c) tuples as sorted integer pairs (u, v) over one denominator q.

    Each tuple is (u/q, v/q), with q > 0 the lcm of the strengths'
    denominators, so the pairs sort as the tuples do.  ValueError unless
    both strengths exceed -1.
    """
    _check_strengths(alpha1, alpha2)
    return _pairs(alpha1, alpha2)


def appendix_table(part: str, alpha1: Rational, alpha2: Rational):
    """Quantization tables for the two-unknown system with one singular source.

    part 'a': the full-blow-up tuple (8a1+4a2+12, 8a1+8a2+16).
    part 'c': the set of eight base tuples with the strengths substituted.
    part 'b': certificate that every part-(c) tuple is a pair of
              nonnegative multiples of four when the strengths are natural.
    The strengths are checked once; parts b and c read ``appendix_pairs``'s pairs.
    """
    a1, a2 = Fraction(alpha1), Fraction(alpha2)
    _check_strengths(a1, a2)
    if part == "a":
        return eval_at(_APPENDIX_TOP, (a1 + 1, a2 + 1))
    if part == "c":
        pairs, q = _pairs(a1, a2)
        return {(Fraction(u, q), Fraction(v, q)) for u, v in pairs}
    if part == "b":
        if a1.denominator != 1 or a2.denominator != 1 or a1 < 0 or a2 < 0:
            raise ValueError("part (b) needs natural strengths (integers >= 0)")
        tuples = tuple(_pairs(a1, a2)[0])  # q is 1
        nonneg = all(u >= 0 and v >= 0 for u, v in tuples)
        div4 = all(u % 4 == 0 and v % 4 == 0 for u, v in tuples)
        return NaturalityCertificate(tuples, nonneg, div4)
    raise ValueError(f"unknown part {part!r}; expected 'a', 'b' or 'c'")
