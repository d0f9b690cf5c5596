"""Breadth-first enumeration of the reflection orbit of the origin.

The orbit of (0,0,0) under the three affine reflections coincides with
the set of quadric solutions whose coefficients are nonnegative multiples
of four; this module enumerates it, building each element once from its
canonical parent, tests that lattice membership, and walks any member
back to the origin by the greedy descent on its closed-form id.  Its
BFS, ``OrbitWalk``, streams the orbit of any ``ReflectionSystem`` level
by level; the rank-one and rank-two orbits go through it too.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter
from typing import Iterator

from .algebra import (B2, Frozen, MassVector, ReflectionSystem, _check_rank, _reflected_coeff,
                      _word_map, quadric_form)
from .closedform import invert_to_closed_form, reduced_word


class OrbitElement(Frozen):
    """An orbit member with its BFS discovery depth and a witness word."""

    __slots__ = _fields = ("sigma", "level", "word")

    sigma: MassVector
    level: int
    word: tuple[int, ...]

    def __init__(self, sigma: MassVector, level: int, word: tuple[int, ...]) -> None:
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "word", word)


class MembershipCertificate(Frozen):
    """Per-condition diagnostics for lattice membership."""

    __slots__ = _fields = ("nonneg", "div4", "quadric_zero")

    nonneg: bool
    div4: bool
    quadric_zero: bool

    def __init__(self, nonneg: bool, div4: bool, quadric_zero: bool) -> None:
        object.__setattr__(self, "nonneg", nonneg)
        object.__setattr__(self, "div4", div4)
        object.__setattr__(self, "quadric_zero", quadric_zero)

    @property
    def member(self) -> bool:
        return self.nonneg and self.div4 and self.quadric_zero


class OrbitWalk:
    """Level-by-level BFS over the reflection orbit of the origin of ``system``.

    ``levels()`` is the walk's one loop: it yields each level whole, as a
    tuple of plain entries; iterating the walk yields the same elements
    one by one as ``OrbitElement``s.  Each level is sorted by coefficient
    matrix (row-major), which is unique on it.
    The level is the length of the element in the affine Weyl group, and
    the walk follows ascents only.  Each entry carries its row sums, its
    values at unit weights: generator i raises the length exactly when it
    raises row i's sum, to sum_j w_ij * sum_j + 4 (Bjorner-Brenti, ch. 8):
    proven for B2(1) by point (4) of the ``closedform`` docstring with the
    row-sum steps of ``closedform.reduced_word``, and checked edge by edge
    by the test suite for the other systems.  So a descent is skipped
    before its row is built, an ascent lands on the next level, and only
    the current and next levels are held.  A generator that leaves a row
    sum unchanged cannot be ordered this way and raises ValueError.

    Each element is built from its canonical parent, as in reverse search
    (Avis-Fukuda, Discrete Appl. Math. 65, 1996): the child r_i g of an
    element g is kept only when no generator j < i is a descent of it.
    The child differs from g in row i alone, so its total for j is g's
    total for j minus 2a_ji times row i's rise, compared with sum_j; no
    child is looked up.  Proof that the walk is exact.  (a) Every element
    h but the origin has a descent, a generator j with r_j h one level
    lower (the last letter of a shortest word), so a smallest one.
    (b) The walk keeps an ascent r_i g of g exactly when i is the
    smallest descent of r_i g, and i is one, as r_i r_i g = g.  So h,
    with smallest descent j, is built from the one parent r_j h with the
    one generator j, and by induction on the level every element is
    built exactly once, on every system.  (c) So the last letter of a word is the
    element's smallest descent: the word is the smallest-descent normal
    form (Bjorner-Brenti, ch. 3) read backwards.  For B2(1),
    ``closedform.reduced_word`` steps first by the smallest generator
    whose row sum falls, the smallest descent, then goes on from r_j h;
    by induction on its steps the word is
    ``",".join(map(str, reversed(closedform.reduced_word(m1, m2))))``.
    (d) A descent never raises an entry of its row (checked edge by edge
    by the test suite) and lowers the row's sum, so for j < k the parent
    r_j h sorts before r_k h: the canonical parent is the matrix-least
    one, and each word is the one a BFS expanding each level in matrix
    order, then generator order, finds first.
    A word is the text ``b2weyl orbit`` prints, the generator indices
    joined by commas, so a level-n word costs about 2n + 48 bytes (a
    tuple costs 8 per generator) and is not tracked by the garbage
    collector; memory grows as the level size times the word length.

    A child with a coefficient above ``max_coefficient`` is pruned and sets
    ``pruned``.  Pruning stays sound: by (d) the canonical parent of an
    element within the bound is within it, so the walk finds every
    element within the bound, at its level; and when an ascent from the
    walk leaves the bound, the first element over it on that child's
    canonical path is a canonical child of the walk, so ``pruned`` is set
    exactly as a walk that tries every ascent would set it.  Once the walk
    has been iterated (by either route), ``count`` is the number of
    elements and ``exhausted`` tells whether a level came out empty before
    ``max_level``; each new iteration starts them afresh, and ``count``
    counts each level as it is yielded.
    """

    def __init__(self, system: ReflectionSystem, max_level: int,
                 max_coefficient: int | None = None) -> None:
        if max_level < 0:
            raise ValueError("max_level must be >= 0")
        if max_coefficient is not None and max_coefficient < 0:
            raise ValueError("max_coefficient must be >= 0")
        self.system = system
        self.max_level = max_level
        self.max_coefficient = max_coefficient
        self.pruned = False
        self.exhausted = False
        self.count = 0

    @property
    def truncated(self) -> bool:
        return self.pruned or not self.exhausted

    def __iter__(self) -> Iterator[OrbitElement]:
        for level, entries in self.levels():
            for coeff, word, _ in entries:
                yield OrbitElement(MassVector(coeff), level,
                                   tuple(map(int, word.split(","))) if word else ())

    def levels(self) -> Iterator[tuple[int, tuple]]:
        """The walk one level at a time, as ``(level, entries)`` from level 0 on.

        ``entries`` is the level as a tuple of plain tuples ``(coeff, word,
        sums)``, sorted by coefficient matrix: ``coeff`` is the matrix,
        ``word`` its witness word as text, the generator indices joined by
        commas (``"1,3,2"``, and ``""`` at the origin), and ``sums`` its row
        sums; nothing is wrapped in a ``MassVector``.
        A level is yielded before it is expanded, so level 0 comes out
        before a single row of level 1 is built.
        """
        self.pruned, self.exhausted, self.count = False, False, 0
        system, bound, rank = self.system, self.max_coefficient, self.system.rank
        digits = [str(i + 1) for i in range(rank)]
        commas = ["," + digit for digit in digits]
        # Per generator i: its row map and the (j, 2a_ji) of the generators j < i.
        moves = [(i, pairs, [(j, system.doubled[j][i]) for j in range(i)])
                 for i, pairs in enumerate(system.row_maps)]
        current = ((((0,) * rank,) * rank, "", (0,) * rank),)
        for level in range(self.max_level + 1):
            self.count += len(current)
            yield level, current
            if level == self.max_level:
                return
            following: list[tuple[tuple, str, tuple[int, ...]]] = []
            steps = commas if level else digits  # the origin's word is empty
            for coeff, word, sums in current:
                totals = []
                for i, pairs, earlier in moves:
                    total = 4
                    for j, w in pairs:
                        total += w * sums[j]
                    totals.append(total)
                    if total <= sums[i]:
                        if total == sums[i]:
                            raise ValueError(
                                f"{system.name}: generator {i + 1} leaves row sum "
                                f"{total} unchanged at {coeff}; the walk cannot "
                                "order this edge")
                        continue  # a descent: the child is on the previous level
                    rise = total - sums[i]
                    for j, a in earlier:
                        if totals[j] - a * rise < sums[j]:
                            break  # j < i is a descent of the child: not its canonical parent
                    else:
                        child = _reflected_coeff(coeff, i, pairs)
                        if bound is not None and max(child[i]) > bound:  # the other rows passed
                            self.pruned = True
                            continue
                        following.append((child, word + steps[i],
                                          sums[:i] + (total,) + sums[i + 1:]))
            if not following:
                self.exhausted = True
                return
            current = tuple(sorted(following, key=itemgetter(0)))  # matrices are unique


def enumerate_orbit(max_level: int, max_coefficient: int | None = None) -> list[OrbitElement]:
    """The B2(1) orbit walk collected into a list, in canonical order, with witness words.

    Levels count word length, so the origin sits at level 0.  A child is
    pruned when some coefficient exceeds ``max_coefficient``; the
    ``pruned``/``exhausted``/``truncated`` flags live on ``OrbitWalk``.
    """
    return list(OrbitWalk(B2, max_level, max_coefficient))


# The certificate of every orbit element, shared: it is immutable.
_MEMBER = MembershipCertificate(True, True, True)


def is_member_gamma_N(sigma: MassVector) -> MembershipCertificate:
    """Lattice membership test with per-condition certificate.

    The three flags are: all coefficients nonnegative, all divisible by
    four, and identically vanishing quadric residual.  Every orbit member
    passes, and a matrix that passes the last two is an orbit member, so
    nonnegative: the certificate characterizes the orbit.  A vector the
    closed-form inversion accepts is an orbit element (points (1) and (2)
    of the ``closedform`` docstring), so all three flags hold; by this
    proof one it rejects is not, so when it is div4 it is off the quadric,
    and ``quadric_form`` runs only on the rejected vectors that are not.
    A vector whose rank is not 3 raises ValueError, whatever its entries.

    Proof.  Write C = 4c, with rows c1, c2, c3, and a = c1 - c3,
    b = c2 - c3.  Identically in mu the quadric reads
    sym(D c) = a a^T + b b^T, with D = diag(1, 1, 2).  Its diagonal fixes
    c3 = (a1^2 + b1^2 - a1, a2^2 + b2^2 - b2, (a3^2 + b3^2)/2).  Entry
    (1, 2) then reads x(x - 1) + y(y + 1) = 0, with x = a1 - a2 and
    y = b1 - b2; over the integers both terms are >= 0, so x is 0 or 1
    and y is 0 or -1.  Entry (1, 3) reads (u + 1)^2 + v^2 = 1, with
    u = a3 - 2a1 and v = b3 - 2b1: four (u, v).  Entry (2, 3) reads
    p^2 + (r + 1)^2 = 1, with p = u + 2x and r = v + 2y, and exactly 8 of
    the 16 cases (x, y, u, v) pass it.  In each, m1 = sum(a) = 4a1 - x + u
    and m2 = sum(b) = 4b1 - y + v (the row sums are four times c's), so a
    case has one residue pair mod 4, and the eight pairs are the eight
    admissible types.  So the type and id read off the row sums fix the
    case and (a1, b1), and with them c: each entry is a polynomial of
    degree <= 2 in a1 and in b1.  The family at that id is one too, and
    the tests find the two equal on a 3 x 3 grid of (a1, b1) in each case,
    so they are equal everywhere.  By points (1) and (2) of the
    ``closedform`` docstring that closed form is an orbit element.
    Nonnegativity is never used.
    """
    try:
        invert_to_closed_form(sigma)
        return _MEMBER
    except ValueError:
        pass
    _check_rank(sigma, B2)
    entries = [v for row in sigma.coeff for v in row]
    div4 = all(v % 4 == 0 for v in entries)
    return MembershipCertificate(all(v >= 0 for v in entries), div4,
                                 not div4 and not any(quadric_form(sigma)))


def descend_to_origin(sigma: MassVector) -> list[int]:
    """Greedy reduced word taking a lattice member back to the origin.

    The vector's closed-form id is recovered exactly
    (``invert_to_closed_form``), and the word, in application order, is
    ``closedform.reduced_word(m1, m2)``.  By points (1) and (2) of the
    ``closedform`` docstring the orbit is exactly the set of admissible
    closed forms, so the inversion alone decides membership: a vector
    outside the orbit raises its ValueError, and the word of one inside
    reaches the origin.
    """
    _, m1, m2 = invert_to_closed_form(sigma)
    return reduced_word(m1, m2)


# Each relation is a pair of words (in application order) whose actions
# must agree on every vector; the identity is the empty word.
_RELATIONS: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...] = (
    ("involution_1", (1, 1), ()),
    ("involution_2", (2, 2), ()),
    ("involution_3", (3, 3), ()),
    ("commute_12", (1, 2), (2, 1)),
    ("braid_13", (3, 1, 3, 1), (1, 3, 1, 3)),
    ("braid_23", (3, 2, 3, 2), (2, 3, 2, 3)),
    ("order4_13", (3, 1, 3, 1, 3, 1, 3, 1), ()),
    ("order4_23", (3, 2, 3, 2, 3, 2, 3, 2), ()),
)


@cache
def check_relations() -> tuple[str, ...]:
    """The names of the presentation relations that fail, in relation order: () for B2(1).

    The relations are the three involutions, the commuting pair, both
    braids and both order-four products.  Each word acts on a coefficient
    matrix C as an affine map C -> P*C + T, so two words act alike on
    every mass vector exactly when their maps (``_word_map``) are equal.
    The verdict is kept for the life of the process.
    """
    return tuple(name for name, left, right in _RELATIONS
                 if _word_map(left) != _word_map(right))
