"""The eight closed-form families covering the orbit, and their calculus.

Every orbit element is F(m1, m2) * mu for exactly one of eight constant
quadratic matrix families; which family applies is determined by the
mod-4 class of the coefficient-sum differences (the element's "type").
The tables below are transcribed data validated by the commuting-square
property in the test suite, not re-derived.  Every coefficient is a
multiple of 1/4, so they are stored as exact integers in quarter units
and evaluated without rationals.
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

# Entry encoding: coefficients of (m1^2, m1, m2^2, m2, 1), in units of 1/4:
# each integer is four times the family's rational coefficient.
_F: dict[int, tuple[tuple[tuple[int, ...], ...], ...]] = {
    1: (
        ((1, 0, 1, 0, 0),
         (1, 4, 1, -4, 0),
         (2, 8, 2, 0, 0)),
        ((1, -4, 1, 4, 0),
         (1, 0, 1, 0, 0),
         (2, 0, 2, 8, 0)),
        ((1, -4, 1, 0, 0),
         (1, 0, 1, -4, 0),
         (2, 0, 2, 0, 0)),
    ),
    2: (
        ((1, 0, 1, -2, 1),
         (1, 4, 1, 2, -3),
         (2, 8, 2, -4, 2)),
        ((1, -4, 1, 2, -3),
         (1, 0, 1, 6, 9),
         (2, 0, 2, 4, -6)),
        ((1, -4, 1, -2, 1),
         (1, 0, 1, 2, -3),
         (2, 0, 2, -4, 2)),
    ),
    3: (
        ((1, 6, 1, 0, 9),
         (1, 2, 1, -4, -3),
         (2, 4, 2, 0, -6)),
        ((1, 2, 1, 4, -3),
         (1, -2, 1, 0, 1),
         (2, -4, 2, 8, 2)),
        ((1, 2, 1, 0, -3),
         (1, -2, 1, -4, 1),
         (2, -4, 2, 0, 2)),
    ),
    4: (
        ((1, 6, 1, -2, 10),
         (1, 2, 1, 2, -6),
         (2, 4, 2, -4, -4)),
        ((1, 2, 1, 2, -6),
         (1, -2, 1, 6, 10),
         (2, -4, 2, 4, -4)),
        ((1, 2, 1, -2, -2),
         (1, -2, 1, 2, -2),
         (2, -4, 2, -4, 4)),
    ),
    5: (
        ((1, 4, 1, -4, 8),
         (1, 0, 1, 0, -8),
         (2, 8, 2, 0, 0)),
        ((1, 0, 1, 0, -8),
         (1, -4, 1, 4, 8),
         (2, 0, 2, 8, 0)),
        ((1, 0, 1, -4, 0),
         (1, -4, 1, 0, 0),
         (2, 0, 2, 0, 0)),
    ),
    6: (
        ((1, 4, 1, 2, 5),
         (1, 0, 1, -2, -7),
         (2, 8, 2, -4, 2)),
        ((1, 0, 1, 6, 1),
         (1, -4, 1, 2, 5),
         (2, 0, 2, 4, -6)),
        ((1, 0, 1, 2, -3),
         (1, -4, 1, -2, 1),
         (2, 0, 2, -4, 2)),
    ),
    7: (
        ((1, 2, 1, -4, 5),
         (1, 6, 1, 0, 1),
         (2, 4, 2, 0, -6)),
        ((1, -2, 1, 0, -7),
         (1, 2, 1, 4, 5),
         (2, -4, 2, 8, 2)),
        ((1, -2, 1, -4, 1),
         (1, 2, 1, 0, -3),
         (2, -4, 2, 0, 2)),
    ),
    8: (
        ((1, 2, 1, 2, 2),
         (1, 6, 1, -2, 2),
         (2, 4, 2, -4, -4)),
        ((1, -2, 1, 6, 2),
         (1, 2, 1, 2, 2),
         (2, -4, 2, 4, -4)),
        ((1, -2, 1, 2, -2),
         (1, 2, 1, -2, -2),
         (2, -4, 2, -4, 4)),
    ),
}

class ClosedFormId(NamedTuple):
    """A family index with its two integer parameters."""

    ell: int
    m1: int
    m2: int


def _family_type(ell: int) -> TypePair:
    """The type of family ``ell``; ValueError unless ``ell`` is 1..8."""
    if ell not in TYPE_BY_FAMILY:
        raise ValueError(f"inadmissible family index {ell}; expected 1..8")
    return TYPE_BY_FAMILY[ell]


def _check_admissible(ell: int, m1: int, m2: int) -> None:
    tag = _family_type(ell)
    if (m1 % 4, m2 % 4) != tag:
        raise ValueError(
            f"inadmissible ({ell},{m1},{m2}): parameters are not congruent to {tag} mod 4")


def closed_form_eval(cid: tuple[int, int, int]) -> MassVector:
    """Evaluate a family at its integer parameters, exactly.

    The quarter-unit tables must land on nonnegative integer multiples of
    four for admissible parameters; that is checked after evaluation as
    a transcription guard, raising ValueError.
    """
    ell, m1, m2 = cid
    _check_admissible(ell, m1, m2)
    return MassVector(_family_rows(ell, m1, m2))


def _family_rows(ell: int, m1: int, m2: int) -> tuple[tuple[int, ...], ...]:
    """Family ``ell`` at (m1, m2) as integer rows, under the transcription guards.

    ``_F`` is read on every call.  An entry is a nonnegative multiple of
    four exactly when its quarter-unit value is a nonnegative multiple of
    16; any other value raises ValueError, naming a non-integer entry
    first.
    """
    s1, s2 = m1 * m1, m2 * m2
    rows = []
    for table_row in _F[ell]:
        row = []
        for a, b, c, d, e in table_row:
            quarter = a * s1 + b * m1 + c * s2 + d * m2 + e
            if quarter < 0 or quarter % 16:
                if quarter % 4:
                    raise ValueError(f"non-integer entry {Fraction(quarter, 4)} "
                                     f"at ({ell},{m1},{m2})")
                raise ValueError(f"entry {quarter // 4} not in 4N at ({ell},{m1},{m2})")
            row.append(quarter // 4)
        rows.append(tuple(row))
    return tuple(rows)


def parameters_from_sums(sums: tuple[int, ...]) -> tuple[TypePair, int, int]:
    """Type and (m1, m2) of a lattice member, from its three coefficient sums."""
    s1, s2, s3 = sums
    if s1 % 4 or s2 % 4 or s3 % 4:
        raise ValueError("coefficient sums are not multiples of 4; not a lattice member")
    m1 = (s1 - s3) // 4
    m2 = (s2 - s3) // 4
    tag = (m1 % 4, m2 % 4)
    if tag not in ADMISSIBLE_TYPES:
        raise ValueError(f"residue pair {tag} is outside the eight admissible types; "
                         "not an orbit-type vector")
    return tag, m1, m2


def type_of(sigma: MassVector) -> TypePair:
    """Mod-4 type of a lattice member, from its coefficient-sum differences."""
    return parameters_from_sums(sigma.coefficient_sums())[0]


def invert_rows(coeff: tuple[tuple[int, ...], ...], sums: tuple[int, ...]) -> ClosedFormId:
    """The unique (family, m1, m2) of the coefficient rows ``coeff`` with row sums ``sums``.

    The parameters are read off the sums, then the candidate family is
    evaluated and compared with ``coeff`` exactly; a mismatch means the
    rows are not an orbit element and raises ValueError.  ``sums`` must
    be ``coeff``'s own row sums (the orbit walk carries them).
    """
    tag, m1, m2 = parameters_from_sums(sums)
    ell = FAMILY_BY_TYPE[tag]
    if _family_rows(ell, m1, m2) != coeff:
        raise ValueError(f"vector is not representable by family {ell} at ({m1},{m2})")
    return ClosedFormId(ell, m1, m2)


def invert_to_closed_form(sigma: MassVector) -> ClosedFormId:
    """Recover the unique (family, m1, m2) representing a lattice member.

    The parameters are read off the coefficient sums, then the candidate
    is re-evaluated and compared exactly (``invert_rows``); a mismatch
    means the input was not an orbit element.
    """
    return invert_rows(sigma.coeff, sigma.coefficient_sums())


def _reflected_parameters(m1: int, m2: int, index: int) -> tuple[int, int]:
    """(m1, m2) after generator ``index``.

    Generator 1 sends them to (1-m1, m2), generator 2 to (m1, 1-m2) and
    generator 3 to (-1-m2, -1-m1).
    """
    if index == 1:
        return 1 - m1, m2
    if index == 2:
        return m1, 1 - m2
    return -1 - m2, -1 - m1


def reduced_word(m1: int, m2: int) -> list[int]:
    """The greedy descent word of the ids at (m1, m2), in application order.

    Each step applies generator 1 if m1 > 0, else 2 if m2 > 0, else 3.  By
    ``special_case_table``, generator i changes only row i's sum, by
    4 - 8*m1, 4 - 8*m2 and 4*(m1 + m2 + 1): it falls exactly when m1 >= 1,
    m2 >= 1 or m1 + m2 <= -2, and no admissible pair ties (m1 + m2 is
    never -1 mod 4).  So each step takes the smallest generator whose row
    sum falls.  The loop ends, as s1 + s2 + s3 = 3*m1**2 + m1 + 3*m2**2 + m2
    >= 0 falls by at least 4 a step, and only at (0, 0): the other pairs
    with no falling generator, (-1, 0) and (0, -1), are inadmissible, and
    the generators keep a pair admissible.  An inadmissible pair raises
    ValueError; generator 3 fixes (-1, 0), so the loop would never end.
    """
    if (m1 % 4, m2 % 4) not in ADMISSIBLE_TYPES:
        raise ValueError(f"inadmissible pair ({m1},{m2}): no closed-form id to descend")
    word = []
    while m1 or m2:
        index = 1 if m1 > 0 else 2 if m2 > 0 else 3
        m1, m2 = _reflected_parameters(m1, m2, index)
        word.append(index)
    return word


def transition(cid: tuple[int, int, int], index: int) -> ClosedFormId:
    """Closed-form id of the reflection of a closed-form element.

    The parameters move by ``_reflected_parameters``; the family is the
    one of their type, as for every orbit element.
    """
    ell, m1, m2 = cid
    _check_admissible(ell, m1, m2)
    if index not in GENERATORS:
        raise ValueError(f"generator index must be 1..3, got {index}")
    p1, p2 = _reflected_parameters(m1, m2, index)
    return ClosedFormId(FAMILY_BY_TYPE[(p1 % 4, p2 % 4)], p1, p2)


def type_transition(tag: TypePair, index: int) -> TypePair:
    """Mod-4 type of the reflection of a vector of the given type."""
    if tuple(tag) not in ADMISSIBLE_TYPES:
        raise ValueError(f"{tag} is not an admissible type")
    if index not in GENERATORS:
        raise ValueError(f"generator index must be 1..3, got {index}")
    p1, p2 = _reflected_parameters(*tag, index)
    return (p1 % 4, p2 % 4)


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
    """All (m1, m2) for a family with both |m_i| <= bound; ValueError unless ``ell`` is 1..8."""
    t1, t2 = _family_type(ell)
    ms1 = [m for m in range(-bound, bound + 1) if m % 4 == t1]
    ms2 = [m for m in range(-bound, bound + 1) if m % 4 == t2]
    return [(a, b) for a in ms1 for b in ms2]
