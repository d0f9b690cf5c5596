"""The eight closed-form families covering the orbit, and their calculus.

Every B2(1) orbit element is F_ell(m1, m2) * mu for one of eight quadratic
matrix families and two free integers: m1 = (s1 - s3)/4 and
m2 = (s2 - s3)/4 from the row sums s, and ell from (m1, m2) mod 4, the
element's type; (ell, m1, m2) is its id.  ``_F`` holds the coefficients
as integers in quarter units, built at import from the orbit itself
(``_derive_families``), and is evaluated without rationals, by one
straight-line kernel per family generated from its integers
(``_family_entries``), and ``sinh`` reads its chain off the same kernels.

Proof.  Generator i moves (m1, m2) by the reflection in m1 = 1/2,
m2 = 1/2 or m1 + m2 = -1, the walls of the alcove A0 around (0, 0): to
(1 - m1, m2), (m1, 1 - m2) or (-1 - m2, -1 - m1), the moves that
``reduced_word`` makes.  They generate W_aff = W(B2) x| 4Z^2 (Humphreys,
Reflection Groups and Coxeter Groups, 4.2), and g sends (0, 0) to its id.
(1) sigma(g) = F(id(g)), by induction on word length: F_1(0, 0) is the
origin, and the step is the commuting square reflect(F(id), i) =
F(transition(id, i)), where ``transition`` is that move with the family
of the new pair's type.  tests/test_acceptance.py's
test_criterion_04_commuting_square proves it for every id by a degree
argument, whatever table ``_F`` holds, with ``transition`` and its
moves (``reflected_parameters``) kept as oracles in tests/conftest.py.
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
from functools import cache
from typing import Callable, NamedTuple

from .algebra import B2, ZERO, MassVector, _affine, _check_rank, _compile, _rows, apply_word

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


def closed_form_eval(cid: tuple[int, int, int]) -> MassVector:
    """Evaluate a family at its integer parameters, exactly.

    At an admissible id every entry is a nonnegative multiple of four, as
    it is an orbit element's (point (1) of the module docstring); the
    evaluation checks it anyway, so a corrupted ``_F`` raises ValueError
    instead of returning a wrong vector.  A family index outside 1..8 or
    parameters off its type raise ValueError first.
    """
    ell, m1, m2 = cid
    if ell not in TYPE_BY_FAMILY:
        raise ValueError(f"inadmissible family index {ell}; expected 1..8")
    tag = TYPE_BY_FAMILY[ell]
    if (m1 % 4, m2 % 4) != tag:
        raise ValueError(
            f"inadmissible ({ell},{m1},{m2}): parameters are not congruent to {tag} mod 4")
    return MassVector(_rows(_family_entries(ell, m1, m2)))


def _family_entries(ell: int, m1: int, m2: int) -> tuple[int, ...]:
    """Family ``ell`` at (m1, m2), flat and row-major, checked to lie in 4N entry by entry.

    The work is done by the kernel of the table ``_F[ell]`` holds now
    (``_family_kernel``), cached on the family and the table's integers:
    a different table swapped into ``_F`` gets its own kernel, and an
    equal copy shares the kernel of the table it equals.  Hashing the table for that key
    costs about 0.28 us a call: 0.76 to 1.05 us, best of 5 runs of 200,000
    calls on Python 3.11.7 and 2 vCPU, against about 10 us for a whole
    in-process ``check`` request.  An entry is a nonnegative
    multiple of four exactly when its quarter-unit value is a nonnegative
    multiple of 16; any other value raises ValueError, naming the first
    failing entry in row-major order, and a non-integer one as such.
    """
    return _family_kernel(ell)(m1, m2)


def _family_kernel(ell: int) -> Callable[[int, int], tuple[int, ...]]:
    """The kernel of the table that ``_F[ell]`` holds now, under ``_family_entries``' rule."""
    return _kernel(ell, _F[ell])


# A kernel's source.  Each entry is a quarter-unit value e_k, built on the
# entry's quadratic part p_n, one per distinct (m1^2, m2^2) pair of
# coefficients; the OR of the nine values has a low bit among its last
# four, or is negative, exactly when one of them does (Python ints are
# two's complement of unbounded width), which is the one test of 4N.
_KERNEL = """def kernel(m1, m2):
    sq1 = m1 * m1
    sq2 = m2 * m2
%(parts)s%(entries)s    bits = %(bits)s
    if bits & 15 or bits < 0:
        _reject(%(ell)d, m1, m2, (%(quarters)s,))
    return (%(values)s,)
"""


@cache
def _kernel(ell: int, table: tuple) -> Callable[[int, int], tuple[int, ...]]:
    """``_kernel_source(ell, table)``, compiled.

    ``kernel(m1, m2)`` returns the nine entries, flat, or hands their
    quarter values to ``_reject``.
    """
    return _compile(_kernel_source(ell, table), "<closed form %d>" % ell, _reject=_reject)


def _kernel_source(ell: int, table: tuple) -> str:
    """Straight-line integer source for family ``ell``'s ``table``, written from its integers."""
    parts: dict[tuple[int, int], str] = {}
    entries = []
    for a, b, c, d, e in (entry for row in table for entry in row):
        terms = [("m1", b), ("m2", d)]
        if a or c:
            terms.insert(0, (parts.setdefault((a, c), "p%d" % len(parts)), 1))
        entries.append(_affine(e, terms))
    quarters = ["e%d" % k for k in range(len(entries))]
    return _KERNEL % {
        "parts": "".join("    %s = %s\n" % (name, _affine(0, [("sq1", a), ("sq2", c)]))
                         for (a, c), name in parts.items()),
        "entries": "".join("    %s = %s\n" % pair for pair in zip(quarters, entries)),
        "bits": " | ".join(quarters), "ell": ell, "quarters": ", ".join(quarters),
        "values": ", ".join(name + " >> 2" for name in quarters)}


def _reject(ell: int, m1: int, m2: int, quarters: tuple[int, ...]) -> None:
    """Raise the ValueError for the first quarter value that is not a nonnegative multiple of 16."""
    for quarter in quarters:
        if quarter < 0 or quarter % 16:
            if quarter % 4:
                raise ValueError(f"non-integer entry {Fraction(quarter, 4)} "
                                 f"at ({ell},{m1},{m2})")
            raise ValueError(f"entry {quarter // 4} not in 4N at ({ell},{m1},{m2})")


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


def invert_rows(coeff: tuple[int, ...], sums: tuple[int, ...]) -> ClosedFormId:
    """The unique (family, m1, m2) of the coefficient rows ``coeff``, flat and
    row-major, with row sums ``sums``.

    The parameters are read off the sums, then the candidate family is
    evaluated and compared with ``coeff`` exactly; a mismatch means the
    rows are not an orbit element and raises ValueError.  ``sums`` must
    be ``coeff``'s own row sums (the orbit walk carries both).
    """
    tag, m1, m2 = parameters_from_sums(sums)
    ell = FAMILY_BY_TYPE[tag]
    if _family_entries(ell, m1, m2) != coeff:
        raise ValueError(f"vector is not representable by family {ell} at ({m1},{m2})")
    return ClosedFormId(ell, m1, m2)


def invert_to_closed_form(sigma: MassVector) -> ClosedFormId:
    """The unique (family, m1, m2) of a lattice member: ``invert_rows`` on its rows and sums."""
    if len(sigma.coeff) != 3:
        _check_rank(sigma, B2)
    return invert_rows(sum(sigma.coeff, ()), sigma.coefficient_sums())


def type_of(sigma: MassVector) -> TypePair:
    """Mod-4 type of an orbit element's verified closed form; ValueError off the orbit."""
    return TYPE_BY_FAMILY[invert_to_closed_form(sigma).ell]


def reduced_word(m1: int, m2: int) -> list[int]:
    """The greedy descent word of the ids at (m1, m2), in application order.

    Each step applies generator 1 if m1 > 0, else 2 if m2 > 0, else 3.  The
    families at unit weights are their row sums, m1*(m1 + 3) + m2*(m2 - 1),
    m1*(m1 - 1) + m2*(m2 + 3) and m1*(m1 - 1) + m2*(m2 - 1) (the oracle
    ``special_case_table`` in tests/conftest.py).  By them generator i
    changes only row i's sum, by
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
    # Generator i's move on (m1, m2), as in the module docstring.
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

