"""Rank-one reduction: two components, two reflections, one integer parameter.

When the first two unknowns of the full system are identified, the
system collapses to the sinh-Gordon equation with two mass components.
The orbit of the origin becomes a doubly infinite chain indexed by a
single integer m with a parity-split closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .algebra import (
    MuPolynomial,
    Rational,
    linear_component,
    quadric_residual,
    reflect_rows,
)

SINH_CARTAN = (
    (Fraction(1), Fraction(-1)),
    (Fraction(-1), Fraction(1)),
)
SINH_DOUBLED = ((2, -2), (-2, 2))
SINH_SYMMETRIZER = (1, 1)


@dataclass(frozen=True)
class MassVector2:
    """Two-component symbolic mass vector over weights (mu1, mu2)."""

    coeff: tuple[tuple[int, int], tuple[int, int]]
    offset: tuple[int, int] = (0, 0)

    def __post_init__(self) -> None:
        if len(self.coeff) != 2 or any(len(row) != 2 for row in self.coeff):
            raise ValueError("coefficient matrix must be 2x2")
        if len(self.offset) != 2:
            raise ValueError("offset must have two entries")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]],
                  offset: Iterable[int] = (0, 0)) -> "MassVector2":
        coeff = tuple(tuple(int(v) for v in row) for row in rows)
        return cls(coeff, tuple(int(v) for v in offset))  # type: ignore[arg-type]

    def sort_key(self) -> tuple[int, ...]:
        return self.offset + tuple(v for row in self.coeff for v in row)

    def components(self) -> tuple[MuPolynomial, MuPolynomial]:
        return tuple(linear_component(self.coeff[i], self.offset[i], 2)
                     for i in range(2))  # type: ignore[return-value]

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.components()) + ")"


ZERO2 = MassVector2(((0, 0), (0, 0)))


def sinh_reflect(sigma: MassVector2, index: int) -> MassVector2:
    """Apply one of the two affine reflections (index 1 or 2)."""
    if index not in (1, 2):
        raise ValueError(f"generator index must be 1 or 2, got {index}")
    coeff, offset = reflect_rows(sigma.coeff, sigma.offset, index, SINH_DOUBLED)
    return MassVector2(coeff, offset)  # type: ignore[arg-type]


def sinh_closed_form(m: int) -> MassVector2:
    """The chain element with parameter m (parity selects the branch)."""
    if m % 2:
        rows = (((m + 1) ** 2, m * m - 1), (m * m - 1, (m - 1) ** 2))
    else:
        rows = ((m * m, (m - 1) ** 2 - 1), ((m + 1) ** 2 - 1, m * m))
    return MassVector2(rows)


def sinh_residual(sigma: MassVector2) -> MuPolynomial:
    """Residual of the rank-one quadric (s1-s2)^2 = 4(mu1 s1 + mu2 s2)."""
    return quadric_residual(sigma.coeff, sigma.offset, SINH_CARTAN, SINH_SYMMETRIZER)


def sinh_eval(sigma: MassVector2, mu: Sequence[Rational]) -> tuple[Fraction, Fraction]:
    values = [Fraction(v) for v in mu]
    if len(values) != 2:
        raise ValueError("two weight values required")
    return tuple(
        sum((Fraction(c) * v for c, v in zip(sigma.coeff[i], values)),
            Fraction(sigma.offset[i]))
        for i in range(2)
    )  # type: ignore[return-value]


def sinh_orbit(max_level: int) -> list[MassVector2]:
    """BFS orbit of the origin under the two reflections, canonically sorted.

    Every discovered element is verified against the rank-one quadric
    before it is admitted.
    """
    if max_level < 0:
        raise ValueError("max_level must be >= 0")
    seen = {ZERO2}
    frontier = [ZERO2]
    for _ in range(max_level):
        next_frontier = []
        for sigma in frontier:
            for index in (1, 2):
                child = sinh_reflect(sigma, index)
                if child in seen:
                    continue
                if not sinh_residual(child).is_zero:
                    raise ValueError(f"quadric violated at {child}")
                seen.add(child)
                next_frontier.append(child)
        frontier = next_frontier
    return sorted(seen, key=MassVector2.sort_key)


def sinh_invert(sigma: MassVector2) -> int:
    """Recover the chain parameter of an orbit element.

    The coefficient-sum difference equals 4m up to the parity sign, so
    both candidates are re-evaluated and compared exactly.
    """
    n1 = sum(sigma.coeff[0])
    n2 = sum(sigma.coeff[1])
    diff = n1 - n2
    if diff % 4:
        raise ValueError("coefficient-sum difference is not a multiple of 4")
    for m in {diff // 4, -diff // 4}:
        if sinh_closed_form(m) == sigma:
            return m
    raise ValueError("vector is not on the parametrized chain")
