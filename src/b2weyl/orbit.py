"""Breadth-first enumeration of the reflection orbit of the origin.

The orbit of (0,0,0) under the three affine reflections coincides with
the set of quadric solutions whose coefficients are nonnegative multiples
of four; this module enumerates it with exact deduplication, tests that
lattice membership, and walks any member back to the origin by the
greedy descent on its closed-form id.  Its BFS, ``OrbitWalk``,
streams the orbit of any ``ReflectionSystem`` level by level; the rank-one
and rank-two orbits go through it too.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter
from typing import Iterator

from .algebra import (B2, Frozen, MassVector, ReflectionSystem, _reflected_coeff, _word_map,
                      quadric_form)
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

    def __bool__(self) -> bool:
        return self.member


class OrbitWalk:
    """Level-by-level BFS over the reflection orbit of the origin of ``system``.

    ``levels()`` is the walk's one loop: it yields each level whole, as a
    tuple of plain entries; iterating the walk yields the same elements
    one by one as ``OrbitElement``s.  Each level is sorted by coefficient
    matrix (row-major), which is unique on it, and expanded in that order
    (then by generator index), so every element keeps its canonical
    first-discoverer word.  For B2(1) that word is the element's
    ``closedform.reduced_word(m1, m2)`` reversed: a rule the test suite
    checks on every element through depth 64, not one proven here.
    The level is the length of the element in the affine Weyl group, and
    the walk follows ascents only.  Each entry carries its row sums, its
    values at unit weights: generator i raises the length exactly when it
    raises row i's sum, to sum_j w_ij * sum_j + 4 (Bjorner-Brenti, ch. 8;
    the test suite checks it edge by edge for every system in the
    package).  So a descent is skipped before its row is built, an ascent
    lands on the next level, and only the current and next levels are
    held.  A generator that leaves a row sum unchanged cannot be ordered
    this way and raises ValueError.

    The next level is keyed by the child's row sums, computed for the
    ascent test anyway, so a child already found is dropped before its
    row is built: each element's matrix is built once.  The key is exact
    because equal row sums mean the same element.  For B2(1) the
    closed-form id is read off the sums alone (``closedform.invert_rows``,
    which checks every CSV row against the family's matrix); the ``SINH``
    orbit is the chain ``sinh_closed_form(m)``, whose row sums 2m(m + 1)
    and 2m(m - 1), ordered by the parity of m, give m back
    (``sinh_invert``); and each finite rank-two orbit is checked
    exhaustively by the test suite, as are the B2(1) walk at depth 128 and
    the ``SINH`` walk.  Words are ``bytes``, one byte per generator, so a
    level-n word costs about n + 33 bytes (a tuple costs 8 per generator)
    and is not tracked by the garbage collector; memory grows as the
    level size times the word length.

    A child with a coefficient above ``max_coefficient`` is pruned and sets
    ``pruned``; a descent never raises an entry of its row, so the bound
    cuts off no element that a shorter path would reach.  Once the walk
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
                yield OrbitElement(MassVector(coeff), level, tuple(word))

    def levels(self) -> Iterator[tuple[int, tuple]]:
        """The walk one level at a time, as ``(level, entries)`` from level 0 on.

        ``entries`` is the level as a tuple of plain tuples ``(coeff, word,
        sums)``, sorted by coefficient matrix: ``coeff`` is the matrix,
        ``word`` its witness word as ``bytes`` (generator i is the byte i)
        and ``sums`` its row sums; nothing is wrapped in a ``MassVector``.
        A level is yielded before it is expanded, so level 0 comes out
        before a single row of level 1 is built.
        """
        self.pruned, self.exhausted, self.count = False, False, 0
        system, bound, rank = self.system, self.max_coefficient, self.system.rank
        generators = [bytes((i + 1,)) for i in range(rank)]
        current = ((((0,) * rank,) * rank, b"", (0,) * rank),)
        for level in range(self.max_level + 1):
            self.count += len(current)
            yield level, current
            if level == self.max_level:
                return
            # row sums -> (coefficient matrix, word, row sums)
            following: dict[tuple[int, ...], tuple[tuple, bytes, tuple[int, ...]]] = {}
            for coeff, word, sums in current:
                for i, pairs in enumerate(system.row_maps):
                    total = 4
                    for j, w in pairs:
                        total += w * sums[j]
                    if total <= sums[i]:
                        if total == sums[i]:
                            raise ValueError(
                                f"{system.name}: generator {i + 1} leaves row sum "
                                f"{total} unchanged at {coeff}; the walk cannot "
                                "order this edge")
                        continue  # a descent: the child is on the previous level
                    child_sums = sums[:i] + (total,) + sums[i + 1:]
                    if child_sums in following:
                        continue
                    child = _reflected_coeff(coeff, i, pairs)
                    if bound is not None and max(child[i]) > bound:  # the other rows passed
                        self.pruned = True
                        continue
                    following[child_sums] = (child, word + generators[i], child_sums)
            if not following:
                self.exhausted = True
                return
            current = tuple(sorted(following.values(), key=itemgetter(0)))  # matrices are unique


def enumerate_orbit(max_level: int, max_coefficient: int | None = None) -> list[OrbitElement]:
    """The B2(1) orbit walk collected into a list, in canonical order, with witness words.

    Levels count word length, so the origin sits at level 0.  A child is
    pruned when some coefficient exceeds ``max_coefficient``; the
    ``pruned``/``exhausted``/``truncated`` flags live on ``OrbitWalk``.
    """
    return list(OrbitWalk(B2, max_level, max_coefficient))


def is_member_gamma_N(sigma: MassVector) -> MembershipCertificate:
    """Lattice membership test with per-condition certificate.

    The three flags are: all coefficients nonnegative, all divisible by
    four, and identically vanishing quadric residual.  Every orbit member
    passes.  That every passing vector lies in the orbit is checked by the
    tests (the depth-64 walk, closed-form ids far beyond it, an exhaustive
    small box) but not proven (ROADMAP item 3); ``descend_to_origin`` does
    not rest on it.
    """
    entries = [v for row in sigma.coeff for v in row]
    nonneg = all(v >= 0 for v in entries)
    div4 = all(v % 4 == 0 for v in entries)
    quadric_zero = not any(quadric_form(sigma))
    return MembershipCertificate(nonneg, div4, quadric_zero)


def descend_to_origin(sigma: MassVector) -> list[int]:
    """Greedy reduced word taking a lattice member back to the origin.

    After the certificate, the vector's closed-form id is recovered
    exactly (``invert_to_closed_form``); the word, in application order,
    is ``closedform.reduced_word(m1, m2)``, which reaches the origin
    (points (1) and (2) of the ``closedform`` docstring).  A certified
    vector that is not a closed form raises the inversion's ValueError;
    none is known (ROADMAP item 3).
    """
    cert = is_member_gamma_N(sigma)
    if not cert:
        raise ValueError(f"not a lattice member: certificate {cert}")
    _, m1, m2 = invert_to_closed_form(sigma)
    return reduced_word(m1, m2)


class RelationFailure(Frozen):
    """A named relation of the presentation that does not hold."""

    __slots__ = _fields = ("relation",)

    relation: str

    def __init__(self, relation: str) -> None:
        object.__setattr__(self, "relation", relation)


class RelationReport(Frozen):
    """The outcome of ``check_relations``: its trial count, seed and failures."""

    __slots__ = _fields = ("trials", "seed", "failures")

    trials: int
    seed: int
    failures: tuple[RelationFailure, ...]

    def __init__(self, trials: int, seed: int, failures: tuple[RelationFailure, ...]) -> None:
        self._assign(trials=trials, seed=seed, failures=failures)

    @property
    def passed(self) -> bool:
        return not self.failures


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
def _relation_holds(left: tuple[int, ...], right: tuple[int, ...]) -> bool:
    """Whether the words ``left`` and ``right`` act alike on every mass vector.

    Each word acts on a coefficient matrix C as an affine map C -> P*C + T,
    so the two agree everywhere exactly when their maps (``_word_map``)
    are equal.  The verdict is kept for the life of the process.
    """
    return _word_map(left) == _word_map(right)


def check_relations(trials: int, rng_seed: int = 0,
                    low: int = -100, high: int = 100) -> RelationReport:
    """Decide the involutions, the commuting pair, both braids and both order-four products.

    Each relation is decided exactly, once per process, by comparing the
    affine maps of its words (``_relation_holds``); a failing one is
    reported, not raised, by name and in relation order.  No vector is
    drawn: ``trials`` >= 1 and ``rng_seed`` are echoed, ``low`` <= ``high``
    only checked.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if low > high:
        raise ValueError(f"empty range: low {low} exceeds high {high}")
    failures = tuple(RelationFailure(name) for name, left, right in _RELATIONS
                     if not _relation_holds(left, right))
    return RelationReport(trials, rng_seed, failures)
