"""Finite rank-two reflection orbits and the singular-source mass tables.

Restricting the system to an active pair of components leaves a finite
reflection orbit: a Klein four-group for the decoupled pair {1,2}, a
dihedral group of order eight for the pairs coupling to the third
component, and the same dihedral picture for the two-unknown system with
one singular source whose quantization tables are reproduced here.  Each
subsystem is data, a rank-two ``ReflectionSystem`` with its expected
orbit size; reflections, evaluation, the quadric and the BFS are the
shared ones in ``algebra`` and ``orbit``.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Frozen, Rational, ReflectionSystem, _scale
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


PAIR_12 = Subsystem(
    "pair_12",
    ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
    (1, 1),
    4,
)
PAIR_13 = Subsystem(
    "pair_13",
    ((Fraction(1), Fraction(-1)), (Fraction(-1, 2), Fraction(1))),
    (1, 2),
    8,
)
# Swapping components 1 and 2 leaves the coupling to the third unchanged.
PAIR_23 = Subsystem("pair_23", PAIR_13.cartan, PAIR_13.symmetrizer, 8)
APPENDIX_UV = Subsystem(
    "appendix_uv",
    ((Fraction(1), Fraction(-1, 2)), (Fraction(-1), Fraction(1))),
    (2, 1),
    8,
)

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


# Base tuples for the single-singular-source quantization table (the 'c'
# part of appendix_table): coefficients of (alpha1, alpha2) for
# (sigma_u, sigma_v).  Kept as literal data so the orbit computation can
# be checked against an independent transcription, as the tests do.
APPENDIX_C_COEFFS: tuple[Matrix2, ...] = (
    ((0, 0), (0, 0)),
    ((4, 0), (0, 0)),
    ((0, 0), (0, 4)),
    ((4, 0), (8, 4)),
    ((4, 4), (0, 4)),
    ((4, 4), (8, 8)),
    ((8, 4), (8, 4)),
    ((8, 4), (8, 8)),
)


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


def appendix_pairs(alpha1: Fraction, alpha2: Fraction) -> tuple[list[tuple[int, int]], int]:
    """The distinct part-(c) tuples as sorted integer pairs (u, v) over one denominator q.

    Each tuple is (u/q, v/q), with q > 0 the lcm of the strengths'
    denominators, so the pairs sort as the tuples do.  ValueError unless
    both strengths exceed -1.
    """
    _check_strengths(alpha1, alpha2)
    (n1, n2), q = _scale((alpha1.as_integer_ratio(), alpha2.as_integer_ratio()))
    return sorted({(a * n1 + b * n2, c * n1 + d * n2)
                   for (a, b), (c, d) in APPENDIX_C_COEFFS}), q


def appendix_table(part: str, alpha1: Rational, alpha2: Rational):
    """Quantization tables for the two-unknown system with one singular source.

    part 'a': the full-blow-up tuple (8a1+4a2+12, 8a1+8a2+16).
    part 'c': the set of eight base tuples with the strengths substituted.
    part 'b': certificate that every part-(c) tuple is a pair of
              nonnegative multiples of four when the strengths are natural.
    Parts b and c read ``appendix_pairs``.
    """
    a1, a2 = Fraction(alpha1), Fraction(alpha2)
    _check_strengths(a1, a2)
    if part == "a":
        return (8 * a1 + 4 * a2 + 12, 8 * a1 + 8 * a2 + 16)
    if part == "c":
        pairs, q = appendix_pairs(a1, a2)
        return {(Fraction(u, q), Fraction(v, q)) for u, v in pairs}
    if part == "b":
        if a1.denominator != 1 or a2.denominator != 1 or a1 < 0 or a2 < 0:
            raise ValueError("part (b) needs natural strengths (integers >= 0)")
        tuples = tuple(appendix_pairs(a1, a2)[0])  # q is 1
        nonneg = all(u >= 0 and v >= 0 for u, v in tuples)
        div4 = all(u % 4 == 0 and v % 4 == 0 for u, v in tuples)
        return NaturalityCertificate(tuples, nonneg, div4)
    raise ValueError(f"unknown part {part!r}; expected 'a', 'b' or 'c'")
