"""The eight closed-form families covering the orbit, and their calculus.

Every B2(1) orbit element is F_ell(m1, m2) * mu for one of eight quadratic
matrix families and two free integers: m1 = (s1 - s3)/4 and
m2 = (s2 - s3)/4 from the row sums s, and ell from (m1, m2) mod 4, the
element's type; (ell, m1, m2) is its id.  ``_F`` holds the coefficients
as integers in quarter units, built at import from the orbit itself
(``_derive_families``), and is evaluated without rationals.

Proof.  Generator i moves (m1, m2) by ``_reflected_parameters``, the
reflection in m1 = 1/2, m2 = 1/2 or m1 + m2 = -1, the walls of the alcove
A0 around (0, 0).  They generate W_aff = W(B2) x| 4Z^2 (Humphreys,
Reflection Groups and Coxeter Groups, 4.2), and g sends (0, 0) to its id.
(1) sigma(g) = F(id(g)), by induction on word length: F_1(0, 0) is the
origin, and the step is the commuting square reflect(F(id), i) =
F(transition(id, i)), which test_criterion_04_commuting_square proves
for every id by a degree argument, whatever table ``_F`` holds.
(2) Every admissible id is reached: ``reduced_word`` takes it to (0, 0),
so by (1) the origin under the reversed word has that id.  As
sigma = F(id), no two elements share an id.
(3) Family ell is one coset {t_v g_ell : v in 4Z^2} of the translations:
its elements share one linear part on the plane, the eight parts are
distinct and family 1's is the identity (tested on |m_i| <= 24).  A word
acts on matrices as C -> P C + T (``algebra._word_map``), so
sigma(t_v g) = P_v sigma(g) + sigma(t_v).  For v = (4, 0) and (0, 4),
P = I + N1 and I + N2, where N_i C has twice row i minus row 3 of C in
every row.  So N_j N_i = 0, P_(4a,4b) = I + a N1 + b N2, and the cocycle
gives sigma(t_(4a,4b)) = a s1 + b s2 + C(a,2) N1 s1 + C(b,2) N2 s2
+ ab N1 s2 with s_i = sigma(t_(4e_i)), where N1 s2 = 0 as rows 1 and 3
of s2 agree.  With (4a, 4b) = m - id(g_ell), F_ell is quadratic in m1 and
in m2 with no m1*m2 term, so six ids fix it.
(4) Level = length = the walls between (0, 0) and the id.  The walk's
level is the length l(g): the number of walls (2*m1 in 1 + 4Z, 2*m2 in
1 + 4Z, m1 + m2 in -1 + 4Z, m1 - m2 in 2 + 4Z) that separate A0 from
g A0, which holds the id.  l(r_i g) < l(g) exactly when the wall of r_i
is one of them (Humphreys 4.5), i.e. m1 >= 1, m2 >= 1 or m1 + m2 <= -2:
the steps of ``reduced_word``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebra import GENERATORS, ZERO, MassVector, apply_word

TypePair = tuple[int, int]

# Fixed family <-> type correspondence; single source of truth.
TYPE_BY_FAMILY: dict[int, TypePair] = {
    1: (0, 0), 2: (0, 1), 3: (1, 0), 4: (1, 1),
    5: (2, 2), 6: (2, 3), 7: (3, 2), 8: (3, 3),
}
FAMILY_BY_TYPE: dict[TypePair, int] = {t: f for f, t in TYPE_BY_FAMILY.items()}
ADMISSIBLE_TYPES = frozenset(TYPE_BY_FAMILY.values())

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

    At an admissible id every entry is a nonnegative multiple of four, as
    it is an orbit element's (point (1) of the module docstring); the
    evaluation checks it anyway, so a corrupted ``_F`` raises ValueError
    instead of returning a wrong vector.
    """
    ell, m1, m2 = cid
    _check_admissible(ell, m1, m2)
    return MassVector(_family_rows(ell, m1, m2))


def _family_rows(ell: int, m1: int, m2: int) -> tuple[tuple[int, ...], ...]:
    """Family ``ell`` at (m1, m2) as integer rows, checked to be nonnegative multiples of 4.

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
    """The unique (family, m1, m2) of a lattice member: ``invert_rows`` on its rows and sums."""
    return invert_rows(sigma.coeff, sigma.coefficient_sums())


def type_of(sigma: MassVector) -> TypePair:
    """Mod-4 type of an orbit element's verified closed form; ValueError off the orbit."""
    return TYPE_BY_FAMILY[invert_to_closed_form(sigma).ell]


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
    # The moves of ``_reflected_parameters``, inlined.
    word = []
    append = word.append
    while m1 or m2:
        if m1 > 0:
            m1 = 1 - m1
            append(1)
        elif m2 > 0:
            m2 = 1 - m2
            append(2)
        else:
            m1, m2 = -1 - m2, -1 - m1
            append(3)
    return word


def _derive_families() -> dict[int, tuple[tuple[tuple[int, ...], ...], ...]]:
    """Each family's table ``_F``, read off the orbit elements at six of its ids.

    Family ell of type t is built at t, t + (+-4, 0), t + (0, +-4) and
    t + (4, 4), each as the origin under the reversed ``reduced_word``.
    In quarter units, each entry's second and first differences along m1
    and m2 give (a, b, c, d), and the value at t gives e; the mixed
    difference through t + (4, 4) must vanish, as there is no m1*m2 term
    (module docstring, (3)).  Any other outcome raises ValueError.
    """
    table = {}
    for ell, (t1, t2) in TYPE_BY_FAMILY.items():
        mid, left, right, down, up, corner = (
            [4 * v for row in apply_word(ZERO, reduced_word(t1 + d1, t2 + d2)[::-1]).coeff
             for v in row]
            for d1, d2 in ((0, 0), (-4, 0), (4, 0), (0, -4), (0, 4), (4, 4)))
        entries = []
        for k in range(9):
            if corner[k] - right[k] - up[k] + mid[k]:
                raise ValueError(f"family {ell}, entry {divmod(k, 3)}: an m1*m2 term")
            fit = []
            for t, low, high in ((t1, left[k], right[k]), (t2, down[k], up[k])):
                a, r = divmod(high - 2 * mid[k] + low, 32)  # the second difference is 32*a
                b, s = divmod(high - low - 16 * a * t, 8)  # the first is 16*a*t + 8*b
                if r or s:
                    raise ValueError(f"family {ell}, entry {divmod(k, 3)}: "
                                     "not an integer quadratic in quarter units")
                fit += a, b
            a, b, c, d = fit
            entries.append((a, b, c, d, mid[k] - a * t1 * t1 - b * t1 - c * t2 * t2 - d * t2))
        table[ell] = (tuple(entries[:3]), tuple(entries[3:6]), tuple(entries[6:]))
    return table


# Entry encoding: coefficients of (m1^2, m1, m2^2, m2, 1), in units of 1/4:
# each integer is four times the family's rational coefficient.
_F = _derive_families()


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
    """Mod-4 type of the reflection of a vector of the given type: the type
    of ``transition``'s step from the id whose parameters are the type."""
    if tuple(tag) not in ADMISSIBLE_TYPES:
        raise ValueError(f"{tag} is not an admissible type")
    return TYPE_BY_FAMILY[transition((FAMILY_BY_TYPE[tuple(tag)], *tag), index).ell]


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
