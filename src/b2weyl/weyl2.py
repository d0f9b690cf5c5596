"""Finite rank-two reflection orbits and the singular-source mass tables.

Restricting the system to an active pair of components leaves a finite
reflection orbit: a Klein four-group for the decoupled pair {1,2}, a
dihedral group of order eight for the pairs coupling to the third
component, and the same dihedral picture for the two-unknown system with
one singular source whose quantization tables are reproduced here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import MuPolynomial, Rational, quadric_residual, reflect_rows

Matrix2 = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class Subsystem:
    """A rank-two reflection system: coupling matrix plus symmetrizer."""

    name: str
    cartan: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
    doubled: tuple[tuple[int, int], tuple[int, int]]
    symmetrizer: tuple[int, int]
    expected_size: int


PAIR_12 = Subsystem(
    "pair_12",
    ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
    ((2, 0), (0, 2)),
    (1, 1),
    4,
)
PAIR_13 = Subsystem(
    "pair_13",
    ((Fraction(1), Fraction(-1)), (Fraction(-1, 2), Fraction(1))),
    ((2, -2), (-1, 2)),
    (1, 2),
    8,
)
# Swapping components 1 and 2 leaves the coupling to the third unchanged.
PAIR_23 = Subsystem("pair_23", PAIR_13.cartan, PAIR_13.doubled, PAIR_13.symmetrizer, 8)
APPENDIX_UV = Subsystem(
    "appendix_uv",
    ((Fraction(1), Fraction(-1, 2)), (Fraction(-1), Fraction(1))),
    ((2, -1), (-2, 2)),
    (2, 1),
    8,
)

SUBSYSTEMS = {s.name: s for s in (PAIR_12, PAIR_13, PAIR_23, APPENDIX_UV)}

_ZERO: Matrix2 = ((0, 0), (0, 0))


def _orbit_levels(sub: Subsystem) -> dict[Matrix2, int]:
    """Full orbit of the origin with BFS depths; the orbit is finite."""
    levels = {_ZERO: 0}
    frontier = [_ZERO]
    depth = 0
    while frontier:
        depth += 1
        next_frontier = []
        for coeff in frontier:
            for index in (1, 2):
                child, off = reflect_rows(coeff, (0, 0), index, sub.doubled)
                if child not in levels:
                    if any(off):
                        raise ValueError("reflection produced a constant term")
                    levels[child] = depth  # type: ignore[index]
                    next_frontier.append(child)
        frontier = next_frontier  # type: ignore[assignment]
        if depth > 16:
            raise RuntimeError(f"orbit of {sub.name} did not close")
    return levels


def finite_orbit(sub: Subsystem) -> list[Matrix2]:
    """All orbit elements as 2x2 coefficient matrices, canonically sorted."""
    levels = _orbit_levels(sub)
    orbit = sorted(levels, key=lambda c: tuple(v for row in c for v in row))
    if len(orbit) != sub.expected_size:
        raise RuntimeError(f"orbit of {sub.name} has {len(orbit)} elements, "
                           f"expected {sub.expected_size}")
    return orbit


def longest_element(sub: Subsystem) -> Matrix2:
    """The unique orbit element of maximal reflection depth."""
    levels = _orbit_levels(sub)
    top = max(levels.values())
    deepest = [c for c, lv in levels.items() if lv == top]
    if len(deepest) != 1:
        raise RuntimeError(f"orbit of {sub.name} has no unique deepest element")
    return deepest[0]


def substitute(coeff: Matrix2, weights: Sequence[Rational]) -> tuple[Fraction, Fraction]:
    """Evaluate an orbit element at numeric weight values."""
    w = [Fraction(v) for v in weights]
    if len(w) != 2:
        raise ValueError("two weight values required")
    return (coeff[0][0] * w[0] + coeff[0][1] * w[1],
            coeff[1][0] * w[0] + coeff[1][1] * w[1])


def orbit_residual(sub: Subsystem, coeff: Matrix2) -> MuPolynomial:
    """Residual of the subsystem's invariant quadric at an orbit element."""
    return quadric_residual(coeff, (0, 0), sub.cartan, sub.symmetrizer)


# Base tuples for the single-singular-source quantization table (the 'c'
# part of appendix_table): coefficients of (alpha1, alpha2) for
# (sigma_u, sigma_v).  Kept as literal data so the orbit computation can
# be checked against an independent transcription.
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


@dataclass(frozen=True)
class NaturalityCertificate:
    """Part (b) evidence: base tuples at natural strengths land in 4N x 4N."""

    tuples: tuple[tuple[int, int], ...]
    all_nonnegative: bool
    all_multiples_of_four: bool

    @property
    def ok(self) -> bool:
        return self.all_nonnegative and self.all_multiples_of_four


def _check_strengths(alpha1: Fraction, alpha2: Fraction) -> None:
    if alpha1 <= -1 or alpha2 <= -1:
        raise ValueError("singular strengths must exceed -1")


def appendix_table(part: str, alpha1: Rational, alpha2: Rational):
    """Quantization tables for the two-unknown system with one singular source.

    part 'a': the full-blow-up tuple (8a1+4a2+12, 8a1+8a2+16).
    part 'c': the set of eight base tuples with the strengths substituted.
    part 'b': certificate that every part-(c) tuple is a pair of
              nonnegative multiples of four when the strengths are natural.
    """
    a1, a2 = Fraction(alpha1), Fraction(alpha2)
    _check_strengths(a1, a2)
    if part == "a":
        return (8 * a1 + 4 * a2 + 12, 8 * a1 + 8 * a2 + 16)
    if part == "c":
        return {substitute(coeff, (a1, a2)) for coeff in APPENDIX_C_COEFFS}
    if part == "b":
        if a1.denominator != 1 or a2.denominator != 1 or a1 < 0 or a2 < 0:
            raise ValueError("part (b) needs natural strengths (integers >= 0)")
        tuples = tuple(sorted(
            (int(u), int(v)) for u, v in
            {substitute(coeff, (a1, a2)) for coeff in APPENDIX_C_COEFFS}))
        nonneg = all(u >= 0 and v >= 0 for u, v in tuples)
        div4 = all(u % 4 == 0 and v % 4 == 0 for u, v in tuples)
        return NaturalityCertificate(tuples, nonneg, div4)
    raise ValueError(f"unknown part {part!r}; expected 'a', 'b' or 'c'")
