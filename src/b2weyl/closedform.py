"""The eight closed-form families covering the orbit, and their calculus.

Every orbit element is F(m1, m2) * mu for exactly one of eight constant
quadratic matrix families; which family applies is determined by the
mod-4 class of the coefficient-sum differences (the element's "type").
The tables below are transcribed data validated by the commuting-square
property in the test suite, not re-derived.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebra import GENERATORS, MassVector

TypePair = tuple[int, int]

# Fixed family <-> type correspondence; single source of truth.
TYPE_BY_FAMILY: dict[int, TypePair] = {
    1: (0, 0), 2: (0, 1), 3: (1, 0), 4: (1, 1),
    5: (2, 2), 6: (2, 3), 7: (3, 2), 8: (3, 3),
}
FAMILY_BY_TYPE: dict[TypePair, int] = {t: f for f, t in TYPE_BY_FAMILY.items()}
ADMISSIBLE_TYPES = frozenset(TYPE_BY_FAMILY.values())

_Q = Fraction
# Entry encoding: coefficients of (m1^2, m1, m2^2, m2, 1).
Entry = tuple[Fraction, Fraction, Fraction, Fraction, Fraction]

_F: dict[int, tuple[tuple[Entry, ...], ...]] = {
    1: (
        ((_Q(1, 4), _Q(0), _Q(1, 4), _Q(0), _Q(0)),
         (_Q(1, 4), _Q(1), _Q(1, 4), _Q(-1), _Q(0)),
         (_Q(1, 2), _Q(2), _Q(1, 2), _Q(0), _Q(0))),
        ((_Q(1, 4), _Q(-1), _Q(1, 4), _Q(1), _Q(0)),
         (_Q(1, 4), _Q(0), _Q(1, 4), _Q(0), _Q(0)),
         (_Q(1, 2), _Q(0), _Q(1, 2), _Q(2), _Q(0))),
        ((_Q(1, 4), _Q(-1), _Q(1, 4), _Q(0), _Q(0)),
         (_Q(1, 4), _Q(0), _Q(1, 4), _Q(-1), _Q(0)),
         (_Q(1, 2), _Q(0), _Q(1, 2), _Q(0), _Q(0))),
    ),
    2: (
        ((_Q(1, 4), _Q(0), _Q(1, 4), _Q(-1, 2), _Q(1, 4)),
         (_Q(1, 4), _Q(1), _Q(1, 4), _Q(1, 2), _Q(-3, 4)),
         (_Q(1, 2), _Q(2), _Q(1, 2), _Q(-1), _Q(1, 2))),
        ((_Q(1, 4), _Q(-1), _Q(1, 4), _Q(1, 2), _Q(-3, 4)),
         (_Q(1, 4), _Q(0), _Q(1, 4), _Q(3, 2), _Q(9, 4)),
         (_Q(1, 2), _Q(0), _Q(1, 2), _Q(1), _Q(-3, 2))),
        ((_Q(1, 4), _Q(-1), _Q(1, 4), _Q(-1, 2), _Q(1, 4)),
         (_Q(1, 4), _Q(0), _Q(1, 4), _Q(1, 2), _Q(-3, 4)),
         (_Q(1, 2), _Q(0), _Q(1, 2), _Q(-1), _Q(1, 2))),
    ),
    3: (
        ((_Q(1, 4), _Q(3, 2), _Q(1, 4), _Q(0), _Q(9, 4)),
         (_Q(1, 4), _Q(1, 2), _Q(1, 4), _Q(-1), _Q(-3, 4)),
         (_Q(1, 2), _Q(1), _Q(1, 2), _Q(0), _Q(-3, 2))),
        ((_Q(1, 4), _Q(1, 2), _Q(1, 4), _Q(1), _Q(-3, 4)),
         (_Q(1, 4), _Q(-1, 2), _Q(1, 4), _Q(0), _Q(1, 4)),
         (_Q(1, 2), _Q(-1), _Q(1, 2), _Q(2), _Q(1, 2))),
        ((_Q(1, 4), _Q(1, 2), _Q(1, 4), _Q(0), _Q(-3, 4)),
         (_Q(1, 4), _Q(-1, 2), _Q(1, 4), _Q(-1), _Q(1, 4)),
         (_Q(1, 2), _Q(-1), _Q(1, 2), _Q(0), _Q(1, 2))),
    ),
    4: (
        ((_Q(1, 4), _Q(3, 2), _Q(1, 4), _Q(-1, 2), _Q(5, 2)),
         (_Q(1, 4), _Q(1, 2), _Q(1, 4), _Q(1, 2), _Q(-3, 2)),
         (_Q(1, 2), _Q(1), _Q(1, 2), _Q(-1), _Q(-1))),
        ((_Q(1, 4), _Q(1, 2), _Q(1, 4), _Q(1, 2), _Q(-3, 2)),
         (_Q(1, 4), _Q(-1, 2), _Q(1, 4), _Q(3, 2), _Q(5, 2)),
         (_Q(1, 2), _Q(-1), _Q(1, 2), _Q(1), _Q(-1))),
        ((_Q(1, 4), _Q(1, 2), _Q(1, 4), _Q(-1, 2), _Q(-1, 2)),
         (_Q(1, 4), _Q(-1, 2), _Q(1, 4), _Q(1, 2), _Q(-1, 2)),
         (_Q(1, 2), _Q(-1), _Q(1, 2), _Q(-1), _Q(1))),
    ),
    5: (
        ((_Q(1, 4), _Q(1), _Q(1, 4), _Q(-1), _Q(2)),
         (_Q(1, 4), _Q(0), _Q(1, 4), _Q(0), _Q(-2)),
         (_Q(1, 2), _Q(2), _Q(1, 2), _Q(0), _Q(0))),
        ((_Q(1, 4), _Q(0), _Q(1, 4), _Q(0), _Q(-2)),
         (_Q(1, 4), _Q(-1), _Q(1, 4), _Q(1), _Q(2)),
         (_Q(1, 2), _Q(0), _Q(1, 2), _Q(2), _Q(0))),
        ((_Q(1, 4), _Q(0), _Q(1, 4), _Q(-1), _Q(0)),
         (_Q(1, 4), _Q(-1), _Q(1, 4), _Q(0), _Q(0)),
         (_Q(1, 2), _Q(0), _Q(1, 2), _Q(0), _Q(0))),
    ),
    6: (
        ((_Q(1, 4), _Q(1), _Q(1, 4), _Q(1, 2), _Q(5, 4)),
         (_Q(1, 4), _Q(0), _Q(1, 4), _Q(-1, 2), _Q(-7, 4)),
         (_Q(1, 2), _Q(2), _Q(1, 2), _Q(-1), _Q(1, 2))),
        ((_Q(1, 4), _Q(0), _Q(1, 4), _Q(3, 2), _Q(1, 4)),
         (_Q(1, 4), _Q(-1), _Q(1, 4), _Q(1, 2), _Q(5, 4)),
         (_Q(1, 2), _Q(0), _Q(1, 2), _Q(1), _Q(-3, 2))),
        ((_Q(1, 4), _Q(0), _Q(1, 4), _Q(1, 2), _Q(-3, 4)),
         (_Q(1, 4), _Q(-1), _Q(1, 4), _Q(-1, 2), _Q(1, 4)),
         (_Q(1, 2), _Q(0), _Q(1, 2), _Q(-1), _Q(1, 2))),
    ),
    7: (
        ((_Q(1, 4), _Q(1, 2), _Q(1, 4), _Q(-1), _Q(5, 4)),
         (_Q(1, 4), _Q(3, 2), _Q(1, 4), _Q(0), _Q(1, 4)),
         (_Q(1, 2), _Q(1), _Q(1, 2), _Q(0), _Q(-3, 2))),
        ((_Q(1, 4), _Q(-1, 2), _Q(1, 4), _Q(0), _Q(-7, 4)),
         (_Q(1, 4), _Q(1, 2), _Q(1, 4), _Q(1), _Q(5, 4)),
         (_Q(1, 2), _Q(-1), _Q(1, 2), _Q(2), _Q(1, 2))),
        ((_Q(1, 4), _Q(-1, 2), _Q(1, 4), _Q(-1), _Q(1, 4)),
         (_Q(1, 4), _Q(1, 2), _Q(1, 4), _Q(0), _Q(-3, 4)),
         (_Q(1, 2), _Q(-1), _Q(1, 2), _Q(0), _Q(1, 2))),
    ),
    8: (
        ((_Q(1, 4), _Q(1, 2), _Q(1, 4), _Q(1, 2), _Q(1, 2)),
         (_Q(1, 4), _Q(3, 2), _Q(1, 4), _Q(-1, 2), _Q(1, 2)),
         (_Q(1, 2), _Q(1), _Q(1, 2), _Q(-1), _Q(-1))),
        ((_Q(1, 4), _Q(-1, 2), _Q(1, 4), _Q(3, 2), _Q(1, 2)),
         (_Q(1, 4), _Q(1, 2), _Q(1, 4), _Q(1, 2), _Q(1, 2)),
         (_Q(1, 2), _Q(-1), _Q(1, 2), _Q(1), _Q(-1))),
        ((_Q(1, 4), _Q(-1, 2), _Q(1, 4), _Q(1, 2), _Q(-1, 2)),
         (_Q(1, 4), _Q(1, 2), _Q(1, 4), _Q(-1, 2), _Q(-1, 2)),
         (_Q(1, 2), _Q(-1), _Q(1, 2), _Q(-1), _Q(1))),
    ),
}

# Family index reached from family f by generator i, transcribed case by
# case; the parameter maps live in transition().
_TRANSITION_FAMILY: dict[int, dict[int, int]] = {
    1: {1: 3, 2: 2, 3: 8},
    2: {1: 4, 2: 1, 3: 6},
    3: {1: 1, 2: 4, 3: 7},
    4: {1: 2, 2: 3, 3: 5},
    5: {1: 7, 2: 6, 3: 4},
    6: {1: 8, 2: 5, 3: 2},
    7: {1: 5, 2: 8, 3: 3},
    8: {1: 6, 2: 7, 3: 1},
}


class ClosedFormId(NamedTuple):
    """A family index with its two integer parameters."""

    ell: int
    m1: int
    m2: int


def _check_admissible(ell: int, m1: int, m2: int) -> None:
    if ell not in TYPE_BY_FAMILY:
        raise ValueError(f"inadmissible family index {ell}; expected 1..8")
    if (m1 % 4, m2 % 4) != TYPE_BY_FAMILY[ell]:
        raise ValueError(
            f"inadmissible ({ell},{m1},{m2}): parameters are not congruent to "
            f"{TYPE_BY_FAMILY[ell]} mod 4")


def _entry_value(entry: Entry, m1: int, m2: int) -> Fraction:
    q1, l1, q2, l2, c = entry
    return q1 * m1 * m1 + l1 * m1 + q2 * m2 * m2 + l2 * m2 + c


def closed_form_eval(cid: tuple[int, int, int]) -> MassVector:
    """Evaluate a family at its integer parameters, exactly.

    The rational tables must land on nonnegative integer multiples of
    four for admissible parameters; that is checked after evaluation as
    a transcription guard, raising ValueError.
    """
    ell, m1, m2 = cid
    _check_admissible(ell, m1, m2)
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            value = _entry_value(_F[ell][i][j], m1, m2)
            if value.denominator != 1:
                raise ValueError(f"non-integer entry {value} at ({ell},{m1},{m2})")
            n = int(value)
            if n < 0 or n % 4:
                raise ValueError(f"entry {n} not in 4N at ({ell},{m1},{m2})")
            row.append(n)
        rows.append(tuple(row))
    return MassVector(tuple(rows))  # type: ignore[arg-type]


def type_of(sigma: MassVector) -> TypePair:
    """Mod-4 type of a lattice member, from its coefficient-sum differences."""
    if sigma.has_offset:
        raise ValueError("mass vector has a constant offset; no type is defined")
    sums = sigma.coefficient_sums()
    if any(v % 4 for v in sums):
        raise ValueError("coefficient sums are not multiples of 4; not a lattice member")
    m1 = (sums[0] - sums[2]) // 4
    m2 = (sums[1] - sums[2]) // 4
    tag = (m1 % 4, m2 % 4)
    if tag not in ADMISSIBLE_TYPES:
        raise ValueError(f"residue pair {tag} is outside the eight admissible types; "
                         "not an orbit-type vector")
    return tag


def invert_to_closed_form(sigma: MassVector) -> ClosedFormId:
    """Recover the unique (family, m1, m2) representing a lattice member.

    The parameters are read off the coefficient sums, then the candidate
    is re-evaluated and compared exactly; a mismatch means the input was
    not an orbit element.
    """
    tag = type_of(sigma)
    sums = sigma.coefficient_sums()
    m1 = (sums[0] - sums[2]) // 4
    m2 = (sums[1] - sums[2]) // 4
    cid = ClosedFormId(FAMILY_BY_TYPE[tag], m1, m2)
    if closed_form_eval(cid) != sigma:
        raise ValueError(f"vector is not representable by family {cid.ell} "
                         f"at ({m1},{m2})")
    return cid


def transition(cid: tuple[int, int, int], index: int) -> ClosedFormId:
    """Closed-form id of the reflection of a closed-form element.

    Parameter maps: generator 1 sends (m1,m2) to (1-m1, m2), generator 2
    to (m1, 1-m2), generator 3 to (-1-m2, -1-m1); the family moves per
    the transcribed ledger.
    """
    ell, m1, m2 = cid
    _check_admissible(ell, m1, m2)
    if index not in GENERATORS:
        raise ValueError(f"generator index must be 1..3, got {index}")
    if index == 1:
        params = (1 - m1, m2)
    elif index == 2:
        params = (m1, 1 - m2)
    else:
        params = (-1 - m2, -1 - m1)
    return ClosedFormId(_TRANSITION_FAMILY[ell][index], *params)


def type_transition(tag: TypePair, index: int) -> TypePair:
    """Mod-4 type of the reflection of a vector of the given type."""
    if tuple(tag) not in ADMISSIBLE_TYPES:
        raise ValueError(f"{tag} is not an admissible type")
    if index not in GENERATORS:
        raise ValueError(f"generator index must be 1..3, got {index}")
    m1, m2 = tag
    if index == 1:
        return ((-m1 + 1) % 4, m2)
    if index == 2:
        return (m1, (-m2 + 1) % 4)
    return ((-m2 - 1) % 4, (-m1 - 1) % 4)


def special_case_table(m1: int, m2: int) -> tuple[int, int, int]:
    """Unit-weight masses: the closed forms collapse to one integer formula.

    Defined when m1 and m2 are both congruent to 0 or 1 (mod 4), or both
    congruent to 2 or 3 (mod 4) -- exactly the admissible type classes.
    """
    if (m1 % 4, m2 % 4) not in ADMISSIBLE_TYPES:
        raise ValueError(f"inadmissible pair ({m1},{m2}): residues must lie jointly "
                         "in {0,1} or jointly in {2,3} mod 4")
    return (
        m1 * (m1 + 3) + m2 * (m2 - 1),
        m1 * (m1 - 1) + m2 * (m2 + 3),
        m1 * (m1 - 1) + m2 * (m2 - 1),
    )


def admissible_parameters(ell: int, bound: int) -> list[tuple[int, int]]:
    """All (m1, m2) for a family with both |m_i| <= bound."""
    t1, t2 = TYPE_BY_FAMILY[ell]
    ms1 = [m for m in range(-bound, bound + 1) if m % 4 == t1]
    ms2 = [m for m in range(-bound, bound + 1) if m % 4 == t2]
    return [(a, b) for a in ms1 for b in ms2]
