"""Orbit enumeration, lattice membership, descent, and the presentation check."""

import copy
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from functools import cache
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b2weyl import algebra, cli, orbit
from b2weyl.algebra import (B2, CARTAN_MATRIX, SYMMETRIZER, MassVector, ReflectionSystem,
                            Weights, ZERO, _word_map, apply_word, quadric_form, reflect)
from b2weyl.closedform import (ADMISSIBLE_TYPES, FAMILY_BY_TYPE, TYPE_BY_FAMILY, closed_form_eval,
                               invert_to_closed_form)
from b2weyl.orbit import (
    _RELATIONS,
    OrbitElement,
    OrbitWalk,
    check_relations,
    descend_to_origin,
    enumerate_orbit,
    is_member_gamma_N,
)
from b2weyl.sinh import SINH
from b2weyl.weyl2 import APPENDIX_UV, PAIR_12, PAIR_13, PAIR_23, SUBSYSTEMS
from conftest import admissible_parameters, as_rows, mv, wall_count


# The reflection tree through depth two, plus the unique depth-three
# element the tree singles out.
LEVEL_1 = {
    mv([[4, 0, 0], [0, 0, 0], [0, 0, 0]]),
    mv([[0, 0, 0], [0, 4, 0], [0, 0, 0]]),
    mv([[0, 0, 0], [0, 0, 0], [0, 0, 4]]),
}
LEVEL_2 = {
    mv([[4, 0, 0], [0, 4, 0], [0, 0, 0]]),
    mv([[4, 0, 0], [0, 0, 0], [4, 0, 4]]),
    mv([[0, 0, 0], [0, 4, 0], [0, 4, 4]]),
    mv([[4, 0, 8], [0, 0, 0], [0, 0, 4]]),
    mv([[0, 0, 0], [0, 4, 8], [0, 0, 4]]),
}
DEEP_TREE_ELEMENT = mv([[4, 0, 0], [0, 4, 0], [4, 4, 4]])


def orbit_by_sigma(max_level, max_coefficient=None):
    return {el.sigma: el for el in enumerate_orbit(max_level, max_coefficient)}


class TestEnumerate:
    def test_level_zero(self):
        assert enumerate_orbit(0) == [OrbitElement(ZERO, 0, ())]

    def test_level_one(self):
        assert orbit_by_sigma(1).keys() == {ZERO} | LEVEL_1

    def test_tree_through_level_two_is_exact(self):
        found = orbit_by_sigma(2)
        assert found.keys() == {ZERO} | LEVEL_1 | LEVEL_2
        assert all(found[v].level == 1 for v in LEVEL_1)
        assert all(found[v].level == 2 for v in LEVEL_2)

    def test_deep_tree_element_found_at_level_three(self):
        el = orbit_by_sigma(3).get(DEEP_TREE_ELEMENT)
        assert el is not None and el.level == 3

    def test_origin_not_duplicated(self):
        # Backtracking edges fold into the origin record instead of
        # producing duplicates.
        elements = enumerate_orbit(3)
        assert [el.level for el in elements if el.sigma == ZERO] == [0]
        assert len({el.sigma for el in elements}) == len(elements)

    def test_witness_words_reproduce_elements(self):
        for el in enumerate_orbit(4):
            assert apply_word(ZERO, el.word) == el.sigma
            assert len(el.word) == el.level

    def test_levels_stable_under_larger_bounds(self):
        large = orbit_by_sigma(5)
        for el in enumerate_orbit(3):
            assert large[el.sigma].level == el.level

    def test_every_element_is_a_lattice_member(self):
        for el in enumerate_orbit(5):
            assert is_member_gamma_N(el.sigma).member

    def test_coefficient_bound_prunes_and_records(self):
        walk = OrbitWalk(B2, 4, max_coefficient=8)
        elements = list(walk)
        assert walk.pruned
        assert walk.truncated
        assert all(v <= 8 for el in elements for v in el.sigma.coeff)
        assert elements == enumerate_orbit(4, max_coefficient=8)

    def test_unbounded_small_run_reports_unexhausted(self):
        walk = OrbitWalk(B2, 2)
        list(walk)
        assert not walk.exhausted
        assert walk.truncated

    def test_canonical_iteration_order_is_deterministic(self):
        a = [el.sigma for el in enumerate_orbit(4)]
        b = [el.sigma for el in enumerate_orbit(4)]
        assert a == b
        levels = [el.level for el in enumerate_orbit(4)]
        assert levels == sorted(levels)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            enumerate_orbit(-1)
        with pytest.raises(ValueError):
            enumerate_orbit(2, max_coefficient=-3)

    def test_walk_can_be_iterated_again(self):
        # The bound 4 prunes, the last of the 8 elements sits on level 3,
        # and level 4 comes out empty.
        walk = OrbitWalk(B2, 4, max_coefficient=4)
        first = list(walk)
        flags = (walk.pruned, walk.exhausted, walk.count)
        assert flags == (True, True, 8) and len(first) == 8
        assert list(walk) == first
        assert (walk.pruned, walk.exhausted, walk.count) == flags
        # A new iteration starts its totals afresh: after the origin only.
        next(iter(walk))
        assert (walk.pruned, walk.exhausted, walk.count) == (False, False, 1)
        assert list(walk) == first
        assert (walk.pruned, walk.exhausted, walk.count) == flags


class TestMembership:
    def test_tree_element_is_member(self):
        cert = is_member_gamma_N(mv([[4, 0, 0], [0, 0, 0], [0, 0, 0]]))
        assert cert.member

    def test_quadric_violation_detected(self):
        cert = is_member_gamma_N(mv([[4, 0, 0], [0, 0, 0], [0, 0, 4]]))
        assert not cert.member
        assert cert.nonneg and cert.div4 and not cert.quadric_zero

    def test_divisibility_violation_detected(self):
        cert = is_member_gamma_N(mv([[2, 0, 0], [0, 0, 0], [0, 0, 0]]))
        assert not cert.member
        assert not cert.div4

    def test_negative_coefficient_detected(self):
        cert = is_member_gamma_N(mv([[-4, 0, 0], [0, 0, 0], [0, 0, 0]]))
        assert not cert.nonneg

    @pytest.mark.parametrize("rows", [[[4, 0], [0, 0]], [[2, 0], [0, 0]]],
                             ids=["div4", "not-div4"])
    def test_a_vector_of_another_rank_raises(self, rows):
        # The inversion rejects it, and the certificate is not read off its
        # entries: the flags are B2(1)'s, whatever the entries are.
        with pytest.raises(ValueError, match="^a rank-2 vector does not fit B2"):
            is_member_gamma_N(mv(rows))


class TestDescend:
    def test_origin_needs_no_steps(self):
        assert descend_to_origin(ZERO) == []

    def test_two_step_descent(self):
        sigma = mv([[4, 0, 0], [0, 0, 0], [4, 0, 4]])
        word = descend_to_origin(sigma)
        assert word == [3, 1]
        assert apply_word(sigma, word) == ZERO

    def test_braid_element_descends_in_four_steps(self):
        sigma = mv([[8, 0, 8], [0, 0, 0], [4, 0, 8]])
        word = descend_to_origin(sigma)
        assert len(word) == 4
        assert apply_word(sigma, word) == ZERO

    def test_reverse_word_reconstructs_element(self):
        # Generators are involutions, so the reversed descent word lifts
        # the origin back to the element.
        sigma = DEEP_TREE_ELEMENT
        word = descend_to_origin(sigma)
        assert apply_word(ZERO, list(reversed(word))) == sigma

    def test_descent_length_at_least_bfs_level(self):
        for el in enumerate_orbit(5):
            word = descend_to_origin(el.sigma)
            assert len(word) >= el.level
            assert apply_word(el.sigma, word) == ZERO

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_descent_word_is_reduced(self, seed):
        # The BFS level is the length of a shortest word, so a descent of
        # exactly that many steps is a reduced word.  The word is the one
        # the probe-stepping oracle picks at a seeded random positive
        # rational probe.
        rng = random.Random(seed)
        probe = Weights(tuple(Fraction(rng.randint(1, 60), rng.randint(1, 60)) for _ in range(3)))
        walk = list(OrbitWalk(B2, 24))
        assert len(walk) == 801
        for el in walk:
            word = descend_to_origin(el.sigma)
            assert word == coefficient_descent(el.sigma, probe)
            assert len(word) == el.level

    def test_non_member_is_rejected(self):
        with pytest.raises(ValueError, match="residue pair \\(0, 3\\) is outside the eight"):
            descend_to_origin(mv([[4, 0, 0], [0, 0, 0], [0, 0, 4]]))

    def test_custom_probe(self):
        # The probe-free word is the one the oracle picks at (2, 3, 7).
        sigma = mv([[4, 0, 0], [0, 0, 0], [4, 0, 4]])
        word = descend_to_origin(sigma)
        assert word == coefficient_descent(sigma, Weights.numeric(2, 3, 7))
        assert apply_word(sigma, word) == ZERO


def coefficient_descent(sigma, probe):
    """Reference descent: the greedy loop stepping the coefficient matrix
    alongside the probe values and stopping when the matrix is the origin.

    Generator i sends the scaled value v_i to 4*M_i + sum_j w_ij * v_j and
    changes no other, so the measure sum_j d_j v_j falls exactly when v_i
    does."""
    m, _ = probe.scaled
    values = list(algebra.scaled_values(sigma, probe)[0])
    word, coeff = [], sigma.coeff
    while coeff != ZERO.coeff:
        for i, pairs in enumerate(B2.row_maps):
            value = 4 * m[i] + sum(w * values[j] for j, w in pairs)
            if value < values[i]:
                break
        else:
            raise ValueError("no reflection decreases the mass measure")
        values[i] = value
        coeff = algebra._reflected_coeff(coeff, i, pairs)
        word.append(i + 1)
    return word


DESCENT_PROBES = [Weights.numeric(1, 1, 1), Weights.numeric(2, 3, 7),
                  Weights.numeric(Fraction(5, 3), Fraction(1, 7), Fraction(9, 4))]


def test_descent_on_the_row_sums_matches_the_coefficient_oracle():
    # Descent on the closed-form id (once stepping the row sums), with no
    # probe, must pick the oracle's word for every element at every probe; the
    # word is reduced, so its length is the element's level.
    walk = list(OrbitWalk(B2, 64))
    assert len(walk) == 5548
    for el in walk:
        word = descend_to_origin(el.sigma)
        assert [coefficient_descent(el.sigma, probe) for probe in DESCENT_PROBES] == [word] * len(DESCENT_PROBES)
        assert len(word) == el.level
        assert apply_word(el.sigma, word) == ZERO


def assert_descends_like_the_oracle(sigma):
    word = descend_to_origin(sigma)
    for probe in DESCENT_PROBES:
        assert word == coefficient_descent(sigma, probe)
    assert apply_word(sigma, word) == ZERO


def test_descent_reaches_the_origin_from_closed_form_ids_beyond_the_walk():
    # Inputs not drawn from the walk: closed-form ids with |m_i| >= 101,
    # all past depth 64, where the descent has no BFS behind it.
    depth_64 = {el.sigma for el in OrbitWalk(B2, 64)}
    rng = random.Random(64)
    for ell, (t1, t2) in sorted(TYPE_BY_FAMILY.items()):
        for _ in range(3):
            m1, m2 = (rng.choice((-1, 1)) * 4 * rng.randint(26, 60) + t for t in (t1, t2))
            sigma = closed_form_eval((ell, m1, m2))
            assert sigma not in depth_64 and is_member_gamma_N(sigma).member
            assert_descends_like_the_oracle(sigma)


@pytest.mark.parametrize("cid", [(1, 10000, -10000), (4, 10001, 10001), (7, -9997, 9998)])
def test_deep_descent_reaches_the_origin_in_the_wall_count(cid):
    # About 15,000 steps each, far past any walk: the word's length is the
    # number of walls between the id and (0, 0), and the word, applied to
    # the coefficient matrix, lands on the origin.
    sigma = closed_form_eval(cid)
    word = descend_to_origin(sigma)
    assert len(word) == wall_count(cid[1], cid[2])
    assert apply_word(sigma, word) == ZERO


def test_descent_reaches_the_origin_from_every_certified_matrix_in_a_box():
    # Inputs found by the certificate alone, with no orbit membership
    # assumed: every coefficient matrix with entries in {0, 4, 8}.
    box = (MassVector(e) for e in itertools.product((0, 4, 8), repeat=9))
    certified = [sigma for sigma in box if is_member_gamma_N(sigma).member]
    assert len(certified) == 28
    for sigma in certified:
        assert_descends_like_the_oracle(sigma)


def certificate_search(bound):
    """Every certified matrix C = 4c with |a_i|, |b_i| <= ``bound``, by its equations.

    Rows c1 = a + c3 and c2 = b + c3 with a, b in Z^3: the quadric,
    identically in mu, reads sym(D c) = a a^T + b b^T with D = diag(1, 1, 2).
    Its diagonal fixes c3 = (a1^2 + b1^2 - a1, a2^2 + b2^2 - b2,
    (a3^2 + b3^2)/2), an integer only when a3 = b3 (mod 2); its three
    off-diagonal entries are the equations tested.  Entry (1, 2) involves
    a1, b1, a2, b2 alone, so it is tested before a3, b3 are drawn.
    """
    r = range(-bound, bound + 1)
    found = []
    for a1, b1, a2, b2 in itertools.product(r, repeat=4):
        c31, c32 = a1 * a1 + b1 * b1 - a1, a2 * a2 + b2 * b2 - b2
        if a2 + c32 + b1 + c31 != 2 * (a1 * a2 + b1 * b2):
            continue
        for a3 in r:
            for b3 in range(-bound + (a3 + bound) % 2, bound + 1, 2):
                c33 = (a3 * a3 + b3 * b3) // 2
                if (a3 + c33 + 2 * c31 == 2 * (a1 * a3 + b1 * b3)
                        and b3 + c33 + 2 * c32 == 2 * (a2 * a3 + b2 * b3)):
                    c = ((a1 + c31, a2 + c32, a3 + c33), (b1 + c31, b2 + c32, b3 + c33),
                         (c31, c32, c33))
                    if min(map(min, c)) >= 0:
                        found.append((tuple(4 * v for row in c for v in row),
                                      a1 + a2 + a3, b1 + b2 + b3))
    return found


def test_every_certified_matrix_in_the_bound_10_box_is_a_closed_form():
    # ROADMAP item 3's reduction, searched exhaustively at |a_i|, |b_i| <= 10:
    # each nonnegative solution passes the certificate and inverts to the
    # id (ell, sum(a), sum(b)), so its |m_i| <= 30.  The last check
    # cross-checks the reduction: the closed forms of the ids with
    # |m_i| <= 30 whose a, b lie in the box, all certified, are exactly the
    # matrices found.
    found = certificate_search(10)
    assert len(found) == len({coeff for coeff, _, _ in found}) == 884
    for coeff, m1, m2 in found:
        sigma = MassVector(coeff)
        assert is_member_gamma_N(sigma).member
        assert invert_to_closed_form(sigma)[1:] == (m1, m2)

    def in_box(coeff):
        *rows, top = as_rows(coeff)
        return all(abs(v - t) <= 40 for row in rows for v, t in zip(row, top))

    closed_forms = {closed_form_eval((ell, m1, m2)).coeff
                    for ell in TYPE_BY_FAMILY for m1, m2 in admissible_parameters(ell, 30)}
    assert {coeff for coeff, _, _ in found} == set(filter(in_box, closed_forms))


# The (u, v) with (u + 1)^2 + v^2 = 1: entry (1, 3) of the quadric.
CERTIFICATE_UV = ((0, 0), (-2, 0), (-1, 1), (-1, -1))


def certificate_cases():
    """The cases (x, y, u, v) of the ``is_member_gamma_N`` proof that entry (2, 3) keeps.

    Entry (1, 2) of the quadric leaves x in {0, 1} and y in {0, -1},
    entry (1, 3) leaves the four ``CERTIFICATE_UV``, and entry (2, 3)
    keeps a case when p^2 + (r + 1)^2 = 1, with p = u + 2x and r = v + 2y.
    """
    return [(x, y, u, v) for x, y, (u, v) in itertools.product((0, 1), (0, -1), CERTIFICATE_UV)
            if (u + 2 * x) ** 2 + (v + 2 * y + 1) ** 2 == 1]


def test_the_certificate_cases_are_the_eight_types():
    # The two circle equations have no integer solutions but the ones
    # enumerated (a solution lies within distance 1 of the centre), and of
    # the 16 cases exactly 8 pass entry (2, 3).  A case's id is
    # (m1, m2) = (4a1 - x + u, 4b1 - y + v), so its residue pair mod 4 is
    # ((u - x) % 4, (v - y) % 4): one admissible type per case, each once.
    r = range(-3, 4)
    assert {(x, y) for x in r for y in r
            if x * (x - 1) + y * (y + 1) == 0} == {(0, 0), (0, -1), (1, 0), (1, -1)}
    assert {(u, v) for u in r for v in r if (u + 1) ** 2 + v ** 2 == 1} == set(CERTIFICATE_UV)
    cases = certificate_cases()
    assert len(cases) == 8
    assert {((u - x) % 4, (v - y) % 4) for x, y, u, v in cases} == ADMISSIBLE_TYPES


@pytest.mark.parametrize("case", certificate_cases(), ids=lambda case: "x{}y{}u{}v{}".format(*case))
def test_each_certificate_case_is_its_closed_form(case):
    # In each case c is built from (a1, b1) alone: a = (a1, a1 - x, u + 2a1),
    # b = (b1, b1 - y, v + 2b1) and c3 from the quadric's diagonal.  Every
    # entry, and every entry of the family at the id, is a polynomial of
    # degree <= 2 in a1 and in b1, so agreeing on a 3 x 3 grid they agree
    # for every (a1, b1), as in test_criterion_04_commuting_square.
    x, y, u, v = case
    for a1, b1 in itertools.product(range(-1, 2), repeat=2):
        a = (a1, a1 - x, u + 2 * a1)
        b = (b1, b1 - y, v + 2 * b1)
        c33, odd = divmod(a[2] ** 2 + b[2] ** 2, 2)
        assert not odd
        c3 = (a[0] ** 2 + b[0] ** 2 - a[0], a[1] ** 2 + b[1] ** 2 - b[1], c33)
        sigma = MassVector(tuple(4 * (d + t) for row in (a, b, (0, 0, 0))
                                 for d, t in zip(row, c3)))
        assert not any(quadric_form(sigma)) and is_member_gamma_N(sigma).member
        m1, m2 = 4 * a1 - x + u, 4 * b1 - y + v
        assert closed_form_eval((FAMILY_BY_TYPE[(m1 % 4, m2 % 4)], m1, m2)) == sigma


WORDS = st.lists(st.sampled_from((1, 2, 3)), max_size=8).map(tuple)


@st.composite
def word_pairs(draw):
    """Two words of length <= 8: unrelated, or equal in the group by an inserted s_i s_i."""
    left = draw(WORDS)
    if draw(st.booleans()):
        return left, draw(WORDS)
    left = left[:6]
    k = draw(st.integers(0, len(left)))
    i = draw(st.sampled_from((1, 2, 3)))
    return left, left[:k] + (i, i) + left[k:]


class TestRelations:
    def test_commuting_pair_restores_tree_element(self):
        sigma = mv([[4, 0, 0], [0, 0, 0], [0, 0, 0]])
        assert apply_word(sigma, [1, 2, 1, 2]) == sigma

    def test_every_relation_holds_exactly(self):
        assert check_relations() == ()

    def test_order_three_braid_does_not_hold(self):
        # m13 = 4, so the order-three braid relation is false.
        assert _word_map((1, 3, 1)) != _word_map((3, 1, 3))

    @settings(deadline=None, max_examples=200)
    @given(word_pairs(), st.integers(0, 2**32 - 1))
    def test_exact_verdict_matches_random_vectors(self, pair, seed):
        # A nonzero affine difference vanishes on a random vector in
        # [-100, 100]^9 with probability at most 1/201, so 20 vectors
        # agree with the exact verdict except with negligible probability.
        left, right = pair
        rng = random.Random(seed)

        def random_mass_vector():
            return mv([[rng.randint(-100, 100) for _ in range(3)] for _ in range(3)])

        sampled = all(apply_word(sigma, left) == apply_word(sigma, right)
                      for sigma in (random_mass_vector() for _ in range(20)))
        assert (_word_map(left) == _word_map(right)) == sampled

    def test_verdict_matches_the_affine_basis_oracle(self):
        # Every pair of words of length <= 4, against the decision the
        # word maps replaced: two affine maps of Z^9 agree everywhere
        # exactly when they agree on the affine basis {0, e_1, ..., e_9}.
        @cache
        def basis_images(word):
            points = [tuple(int(j == k) for j in range(9)) for k in range(-1, 9)]
            return tuple(apply_word(MassVector(p), word) for p in points)

        words = [w for n in range(5) for w in itertools.product((1, 2, 3), repeat=n)]
        verdicts = Counter()
        for left, right in itertools.combinations_with_replacement(words, 2):
            verdict = basis_images(left) == basis_images(right)
            assert (_word_map(left) == _word_map(right)) == verdict, (left, right)
            verdicts[verdict] += 1
        assert verdicts[True] > len(words) and verdicts[False]

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_broken_row_map_fails_each_relation_by_name(self, monkeypatch, capsys, seed):
        # Generator 3 gets w_33 + 1: every relation that uses it must fail,
        # reported once by name, in relation order, and the relations
        # command reports the same failures whatever its seed.
        original = algebra._reflected_coeff

        def broken(coeff, i, pairs):
            if i == 2:
                pairs = tuple((j, w + (j == 2)) for j, w in pairs)
            return original(coeff, i, pairs)

        monkeypatch.setattr(algebra, "_reflected_coeff", broken)
        check_relations.cache_clear()
        monkeypatch.delenv("B2WEYL_CONFIG", raising=False)
        try:
            failures = check_relations()
            code = cli.main(["relations", "--trials", "5", "--seed", str(seed)])
        finally:
            check_relations.cache_clear()
        uses_3 = tuple(name for name, left, right in _RELATIONS if 3 in left + right)
        assert failures == uses_3
        assert code == 1
        assert json.loads(capsys.readouterr().out) == {
            "trials": 5, "seed": seed, "failures": [{"relation": n} for n in uses_3],
            "passed": False}


def poincare_series(factors, exponents, depth):
    """Coefficients through t^depth of prod_f (1 + ... + t^(f-1)) / prod_e (1 - t^e).

    With the degrees of a finite Weyl group as ``factors`` and no exponents
    this is its Poincare polynomial; adding the exponents gives Bott's
    series for the affine group.
    """
    series = [1] + [0] * depth
    for f in factors:
        series = [sum(series[n - k] for k in range(f) if n >= k) for n in range(depth + 1)]
    for e in exponents:
        for n in range(e, depth + 1):
            series[n] += series[n - e]
    return series


def affine_system(name, k, symmetrizer):
    """The reflection system of the affine Cartan matrix ``k``: coupling matrix K/2."""
    return ReflectionSystem(name, tuple(tuple(Fraction(v, 2) for v in row) for row in k),
                            symmetrizer)


# Three affine Toda systems besides B2(1), as test data only: the walk runs
# on any symmetrizable affine Cartan matrix, and Bott's series is an oracle
# for it.
A2_AFFINE = affine_system("A2(1)", ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)), (1, 1, 1))
G2_AFFINE = affine_system("G2(1)", ((2, -1, 0), (-3, 2, -1), (0, -1, 2)), (3, 1, 1))
A3_AFFINE = affine_system("A3(1)", ((2, -1, 0, -1), (-1, 2, -1, 0), (0, -1, 2, -1),
                                    (-1, 0, -1, 2)), (1, 1, 1, 1))

# (system, BFS depth, degrees of the finite group, exponents if affine);
# B2(1) also at depth 128, the benchmark's JSON depth, where an element
# built twice or never would show in its level's count.
POINCARE_CASES = [
    pytest.param(B2, 40, (2, 4), (1, 3), id=B2.name),
    pytest.param(B2, 128, (2, 4), (1, 3), id=f"{B2.name}-128"),
    pytest.param(SINH, 40, (2,), (1,), id=SINH.name),
    pytest.param(PAIR_12, 8, (2, 2), (), id=PAIR_12.name),
    pytest.param(PAIR_13, 8, (2, 4), (), id=PAIR_13.name),
    pytest.param(PAIR_23, 8, (2, 4), (), id=PAIR_23.name),
    pytest.param(APPENDIX_UV, 8, (2, 4), (), id=APPENDIX_UV.name),
    pytest.param(A2_AFFINE, 40, (2, 3), (1, 2), id=A2_AFFINE.name),
    pytest.param(G2_AFFINE, 40, (2, 6), (1, 5), id=G2_AFFINE.name),
    pytest.param(A3_AFFINE, 24, (2, 3, 4), (1, 2, 3), id=A3_AFFINE.name),
]


@pytest.mark.parametrize("system", [A2_AFFINE, G2_AFFINE, A3_AFFINE], ids=attrgetter("name"))
def test_the_other_affine_orbits_lie_on_their_quadric(system):
    # Their grams carry halves, so quadric_form sums Fractions here.
    assert any(isinstance(g, Fraction) for row in system.gram for g in row)
    for el in OrbitWalk(system, 10):
        assert all(v >= 0 and v % 4 == 0 for v in el.sigma.coeff)
        assert not any(quadric_form(el.sigma, system))


def test_poincare_series_reproduces_the_known_counts():
    assert poincare_series((2, 4), (1, 3), 11) == [1, 3, 5, 8, 11, 13, 16, 19, 21, 24, 27, 29]
    assert poincare_series((2,), (1,), 4) == [1, 2, 2, 2, 2]
    assert poincare_series((2, 2), (), 4) == [1, 2, 1, 0, 0]
    assert poincare_series((2, 4), (), 6) == [1, 2, 2, 2, 1, 0, 0]


@pytest.mark.parametrize("system,depth,degrees,exponents", POINCARE_CASES)
def test_bfs_level_counts_follow_the_poincare_series(system, depth, degrees, exponents):
    walk = OrbitWalk(system, depth)
    counts = Counter({level: len(entries) for level, entries in walk.levels()})
    assert [counts[n] for n in range(depth + 1)] == poincare_series(degrees, exponents, depth)
    assert walk.count == sum(counts.values())
    assert not walk.pruned
    assert walk.exhausted == (not exponents)


def test_wall_counts_of_the_ids_follow_bott_series():
    # Test (iii) on ids, with no BFS: every admissible pair is one id, and
    # its wall count is its length.  Among any four consecutive integers
    # one lies in each class mod 4, so _crossed(end, c) >= (|end| - 4)/4.
    # With M = max|m_i|, the walls of the larger coordinate give at least
    # (2M - 4)/4, and the m1 + m2 and m1 - m2 walls together at least
    # (|m1 + m2| + |m1 - m2| - 8)/4 = (2M - 8)/4: the wall count is at least
    # M - 3.  So every id of length <= 200 has max|m_i| <= 203 and lies in
    # the box |m_i| <= 400, and the counts through 200 are complete.
    depth, bound = 200, 400
    counts = Counter()
    for m1 in range(-bound, bound + 1):
        for m2 in range(-bound, bound + 1):
            if (m1 % 4, m2 % 4) in ADMISSIBLE_TYPES:
                walls = wall_count(m1, m2)
                assert walls >= max(abs(m1), abs(m2)) - 3
                counts[walls] += 1
    assert [counts[n] for n in range(depth + 1)] == poincare_series((2, 4), (1, 3), depth)


@cache
def reference_bfs(system: ReflectionSystem, max_level: int, max_coefficient: int | None = None):
    """The full-memory BFS the walk replaced, kept as its oracle.

    Every element found is kept with (level, parent, generator); each
    level expands the previous one in canonical order (coefficient matrix,
    then generator).  Returns the (level, sigma, word) triples in canonical
    order (level, then coefficient matrix) as a tuple, whether a child was pruned,
    and whether the last level found nothing new.  Each case is built
    once per session and shared by the tests that read it.
    """
    origin = MassVector((0,) * system.rank ** 2)
    found = {origin: (0, None, 0)}
    frontier = [origin]
    pruned = False
    for level in range(1, max_level + 1):
        next_frontier = []
        for sigma in sorted(frontier, key=attrgetter("coeff")):
            for index in range(1, system.rank + 1):
                child = reflect(sigma, index, system)
                if child in found:
                    continue
                if max_coefficient is not None and any(
                        v > max_coefficient for v in child.coeff):
                    pruned = True
                    continue
                found[child] = (level, sigma, index)
                next_frontier.append(child)
        frontier = next_frontier
    words = {}
    for sigma, (level, parent, index) in found.items():
        words[sigma] = words[parent] + (index,) if level else ()
    triples = sorted(((level, sigma, words[sigma]) for sigma, (level, _, _) in found.items()),
                     key=lambda t: (t[0], t[1].coeff))
    return tuple(triples), pruned, not frontier


def checked_levels(walk: OrbitWalk):
    """``walk.levels()``, streamed, failing at the first level whose size is not the reference's.

    A walk that builds an element more than once grows about threefold per
    level, so a test that collected it whole would hang instead of failing;
    the tests that read a whole walk stream it through here first.
    """
    triples, _, _ = reference_bfs(walk.system, walk.max_level, walk.max_coefficient)
    sizes = Counter(level for level, _, _ in triples)
    for level, entries in walk.levels():
        if len(entries) != sizes[level]:
            pytest.fail(f"{walk.system.name}: level {level} has {len(entries)} elements, "
                        f"the reference BFS {sizes[level]}")
        yield level, entries


# (system, depth, coefficient bound): B2 deep and unbounded, every finite
# system until it closes, the three other affine systems unbounded and
# pruned, B2 pruned at three bounds (each prunes, and the orbit closes by
# level 10), a pruned B2 walk cut before it closes, the bound 0 that
# prunes every level-1 child, and the bound 4 that closes the orbit at
# level 3.
ORACLE_CASES = (
    [(B2, 60, None), (SINH, 40, None)]
    + [(sub, 16, None) for sub in SUBSYSTEMS.values()]
    + [(A2_AFFINE, 16, None), (G2_AFFINE, 16, None), (A3_AFFINE, 10, None)]
    + [(A2_AFFINE, 16, 24), (G2_AFFINE, 16, 40), (A3_AFFINE, 10, 16)]
    + [(B2, 40, bound) for bound in (8, 16, 40)]
    + [(B2, 8, 40), (B2, 5, 0), (B2, 30, 4)]
)


def test_oracle_cases_cover_every_flag_pair():
    # Without all four (pruned, exhausted) pairs the flag comparison below
    # could hold vacuously.
    flags = {reference_bfs(*case)[1:] for case in ORACLE_CASES}
    assert flags == {(False, False), (False, True), (True, True), (True, False)}


@pytest.mark.parametrize("system,depth,bound", ORACLE_CASES,
                         ids=[f"{c[0].name}-{c[1]}-{c[2]}" for c in ORACLE_CASES])
def test_walk_matches_the_full_memory_bfs(system, depth, bound):
    walk = OrbitWalk(system, depth, bound)
    for _ in checked_levels(walk):
        pass
    got = tuple((el.level, el.sigma, el.word) for el in walk)
    want, pruned, exhausted = reference_bfs(system, depth, bound)
    assert got == want
    assert (walk.pruned, walk.exhausted, walk.count) == (pruned, exhausted, len(want))


def test_walk_streams_before_the_orbit_is_built():
    walk = iter(OrbitWalk(B2, 10**6))
    first = next(walk)
    assert (first.sigma, first.level, first.word) == (ZERO, 0, ())
    assert [next(walk).level for _ in range(3)] == [1, 1, 1]


UNBOUNDED_CASES = [case for case in ORACLE_CASES if case[2] is None]


@pytest.mark.parametrize("system,depth,bound", UNBOUNDED_CASES,
                         ids=[f"{c[0].name}-{c[1]}" for c in UNBOUNDED_CASES])
def test_row_sum_rule_decides_every_edge(system, depth, bound):
    # The walk follows a generator exactly when it raises that row's sum,
    # computed from the row sums alone as sum_j w_ij * sum_j + 4; that must
    # be exactly when the child's reference level is one higher.  A child
    # the reference lacks lies one level past its depth.  No edge leaves a
    # sum unchanged, so the walk's tie guard never fires here.
    triples, _, _ = reference_bfs(system, depth)
    levels = {sigma: level for level, sigma, _ in triples}
    for level, sigma, _ in triples:
        sums = sigma.coefficient_sums()
        for i in range(system.rank):
            child = reflect(sigma, i + 1, system)
            new = sum(w * sums[j] for j, w in system.row_maps[i]) + 4
            assert new == child.coefficient_sums()[i]
            assert new != sums[i]
            assert (new > sums[i]) == (levels.get(child, depth + 1) == level + 1)


# (system, depth, descent edges): the deepest walks whose descents are
# checked.  A finite rank-two orbit has as many descent edges as elements.
DESCENT_CASES = ([(B2, 128, 32769), (SINH, 200, 400)]
                 + [(sub, 16, sub.expected_size) for sub in SUBSYSTEMS.values()])


@pytest.mark.parametrize("system,depth,edges", DESCENT_CASES,
                         ids=[f"{c[0].name}-{c[1]}" for c in DESCENT_CASES])
def test_a_descent_never_raises_an_entry_of_its_row(system, depth, edges):
    # So every element within a coefficient bound descends to the origin
    # through elements within the bound, along as many edges as its level:
    # the bound strands no element a descent would reach, and the walk,
    # which skips descents, finds every element the pruned full-memory BFS
    # finds, at the same level.
    triples, _, _ = reference_bfs(system, depth)
    levels = {sigma: level for level, sigma, _ in triples}
    seen = 0
    for level, sigma, _ in triples:
        for i in range(system.rank):
            child = reflect(sigma, i + 1, system)
            if levels.get(child) == level - 1:
                seen += 1
                assert all(c <= p for c, p in zip(as_rows(child.coeff)[i],
                                                  as_rows(sigma.coeff)[i]))
    assert seen == edges


# (system, depth): the walks whose row sums are checked against the
# coefficient-keyed reference; each finite orbit is walked until it closes.
SUMS_KEY_CASES = ([(B2, 128), (SINH, 200)]
                  + [(sub, 16) for sub in SUBSYSTEMS.values()])


@pytest.mark.parametrize("system,depth", SUMS_KEY_CASES,
                         ids=[f"{c[0].name}-{c[1]}" for c in SUMS_KEY_CASES])
def test_row_sums_tell_the_orbit_elements_apart(system, depth):
    # A property of the orbits, which the walk no longer relies on: it
    # builds each element from its canonical parent and looks nothing up.
    # The reference BFS keys on the matrices: over everything it finds, the
    # sums are pairwise distinct.  For a finite orbit the reference closes,
    # so the check is exhaustive.
    triples, _, exhausted = reference_bfs(system, depth)
    sums = {sigma.coefficient_sums() for _, sigma, _ in triples}
    assert len(sums) == len(triples)
    assert exhausted == (system in SUBSYSTEMS.values())


@pytest.mark.parametrize("system,depth,bound", UNBOUNDED_CASES,
                         ids=[f"{c[0].name}-{c[1]}" for c in UNBOUNDED_CASES])
def test_walk_word_ends_in_the_smallest_descent(system, depth, bound):
    # The canonical-parent rule, read off the oracle: the last letter of
    # every walk word is the element's smallest descent, the smallest j
    # whose reflection sits one level lower in the reference BFS.  That
    # parent is the matrix-least of the element's descent parents, which
    # ties the rule to the reference's first-discoverer order (a descent
    # never raises an entry of its row, so it sorts first).
    triples, _, _ = reference_bfs(system, depth)
    levels = {sigma: level for level, sigma, _ in triples}
    seen = 0
    walk = OrbitWalk(system, depth)
    for _ in checked_levels(walk):
        pass
    for el in walk:
        if not el.level:
            continue
        parents = {j: reflect(el.sigma, j, system) for j in range(1, system.rank + 1)}
        descents = [j for j, parent in parents.items() if levels.get(parent) == el.level - 1]
        assert el.word[-1] == min(descents)
        assert min((parents[j] for j in descents), key=attrgetter("coeff")) == parents[el.word[-1]]
        seen += 1
    assert seen == len(triples) - 1


def recorded_steps(monkeypatch):
    """Record the walk's generated step: each call's output entries, in order, in a list.

    The walk fetches its step through ``orbit._expander``; the patched one
    wraps the step it returns, so the list sees every child the walk builds.
    """
    outputs = []
    expander = orbit._expander

    def recording(row_maps, doubled):
        step = expander(row_maps, doubled)

        def recorded(*args):
            following, pruned = step(*args)
            outputs.append(following)
            return following, pruned
        return recorded

    monkeypatch.setattr(orbit, "_expander", recording)
    return outputs


@pytest.mark.parametrize("system,depth", [(B2, 64), (SINH, 40), (PAIR_13, 16)],
                         ids=["B2(1)-64", "sinh-40", "pair_13-16"])
def test_each_element_is_reflected_once(monkeypatch, system, depth):
    # A child is built only from its canonical parent, the one reached by
    # its smallest descent, so by construction an unpruned walk builds each
    # element but the origin exactly once, whether it stops at its depth or
    # closes first: the step's children are count - 1 distinct matrices.
    outputs = recorded_steps(monkeypatch)
    walk = OrbitWalk(system, depth)
    for _ in checked_levels(walk):
        pass
    assert not walk.pruned
    children = [coeff for following in outputs for coeff, _, _ in following]
    assert len(children) == len(set(children)) == walk.count - 1


def test_pruned_walk_matches_the_full_memory_bfs_at_every_bound():
    for bound in range(0, 129, 4):
        walk = OrbitWalk(B2, 12, bound)
        for _ in checked_levels(walk):
            pass
        got = tuple((el.level, el.sigma, el.word) for el in walk)
        want, pruned, exhausted = reference_bfs(B2, 12, bound)
        assert got == want, bound
        assert (walk.pruned, walk.exhausted, walk.count) == (pruned, exhausted, len(want)), bound


def test_walk_carries_each_elements_row_sums():
    # The sums live in the level entries only; an element is its vector,
    # level and word.  The entry's matrix is flat, row-major.
    for _, entries in OrbitWalk(B2, 24, 64).levels():
        for coeff, _, sums in entries:
            assert sums == MassVector(coeff).coefficient_sums()
    assert OrbitElement._fields == ("sigma", "level", "word")


# (depth, bound, count, pruned, exhausted): the deep unbounded walk, then
# three pruned ones (oracle cases above): cut before the orbit closes,
# closing by level 10, and closing at level 3.
ENTRY_CASES = [(64, None, 5548, False, False), (8, 40, 93, True, False),
               (40, 8, 28, True, True), (30, 4, 8, True, True)]


@pytest.mark.parametrize("depth,bound,count,pruned,exhausted", ENTRY_CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in ENTRY_CASES])
def test_levels_and_iteration_agree_element_for_element(monkeypatch, depth, bound, count,
                                                        pruned, exhausted):
    walk = OrbitWalk(B2, depth, bound)
    levels = list(walk.levels())
    after_levels = (walk.count, walk.pruned, walk.exhausted, walk.truncated)
    elements = list(walk)
    after_elements = (walk.count, walk.pruned, walk.exhausted, walk.truncated)
    # Levels come in order from 0, each a tuple sorted by matrix; an
    # exhausted walk stops before its empty level.
    assert [level for level, _ in levels] == list(range(len(levels)))
    assert len(levels) == depth + 1 or exhausted
    entries = []
    for level, level_entries in levels:
        assert type(level_entries) is tuple and level_entries
        matrices = [coeff for coeff, _, _ in level_entries]
        assert matrices == sorted(matrices) and len(set(matrices)) == len(matrices)
        # The flat row-major order is the order of the matrices' rows.
        assert sorted(map(as_rows, matrices)) == list(map(as_rows, matrices))
        entries += [(coeff, level, word, sums) for coeff, word, sums in level_entries]
    assert len(entries) == len(elements) == count
    for (coeff, level, word, sums), el in zip(entries, elements):
        assert type(coeff) is tuple and len(coeff) == 9 and all(type(v) is int for v in coeff)
        assert type(word) is str and word == ",".join(map(str, el.word))
        assert (MassVector(coeff), level) == (el.sigma, el.level)
        assert sums == el.sigma.coefficient_sums()
    assert after_levels == after_elements == (count, pruned, exhausted, pruned or not exhausted)
    # A new run through levels() starts the totals afresh, as iteration
    # does, and counts the origin's level as it is yielded.
    assert next(walk.levels()) == (0, (((0,) * 9, "", (0, 0, 0)),))
    assert (walk.count, walk.pruned, walk.exhausted) == (1, False, False)
    # Each level is yielded before it is expanded: level 0 of a walk a
    # billion levels deep comes at once, before the step runs; the next
    # level is the step's first call.
    outputs = recorded_steps(monkeypatch)
    deep = OrbitWalk(B2, 10**9).levels()
    assert next(deep) == (0, (((0,) * 9, "", (0, 0, 0)),))
    assert outputs == []
    assert len(next(deep)[1]) == 3 and len(outputs) == 1


def test_walk_words_are_the_reversed_descent_words():
    # The walk's word is the greedy descent word, which steps by the
    # smallest generator that lowers the length, read backwards: the
    # OrbitWalk docstring proves it, by induction on reduced_word's steps.
    # Checked here on every element through depth 64.
    walk = OrbitWalk(B2, 64)
    for _, entries in checked_levels(walk):
        for coeff, word, _ in entries:
            descent = descend_to_origin(MassVector(coeff))
            assert word == ",".join(map(str, reversed(descent)))
    assert walk.count == 5548


@pytest.mark.parametrize("system,depth", [(A2_AFFINE, 16), (G2_AFFINE, 16), (A3_AFFINE, 10)],
                         ids=["A2(1)", "G2(1)", "A3(1)"])
def test_iterated_words_rejoin_to_the_level_text(system, depth):
    # Iteration splits each level entry's word text back into a tuple of
    # generator indices; on systems of rank three and four, joining that
    # tuple with commas gives the text again, element for element.
    walk = OrbitWalk(system, depth)
    texts = [word for _, entries in walk.levels() for _, word, _ in entries]
    words = [el.word for el in walk]
    assert len(texts) == len(words) == walk.count
    assert texts[0] == "" and words[0] == ()
    for text, word in zip(texts, words):
        assert type(word) is tuple and all(type(i) is int for i in word)
        assert ",".join(map(str, word)) == text


def test_a_tied_row_sum_raises():
    # A copy of B2 whose generator 1 has an empty row map sends row 1 to
    # (4, 0, 0) from anywhere: applied again at level 1 it leaves the row
    # sum 4 unchanged, and the walk must refuse to order that edge.  The
    # copy is patched, never B2 itself.
    # The error shows the flat matrix as rows, as vectors and walk entries
    # carried it before they were flat; the text is pinned whole.
    tied = copy.copy(B2)
    object.__setattr__(tied, "row_maps", ((),) + B2.row_maps[1:])
    with pytest.raises(ValueError) as raised:
        list(OrbitWalk(tied, 3))
    assert str(raised.value) == ("B2(1): generator 1 leaves row sum 4 unchanged at "
                                 "((4, 0, 0), (0, 0, 0), (0, 0, 0)); "
                                 "the walk cannot order this edge")
    assert B2.row_maps[0] == ((0, -1), (2, 2))
    assert len(list(OrbitWalk(B2, 3))) == 1 + 3 + 5 + 8


def test_the_step_takes_no_text_from_the_system_name():
    # The step is generated from the row maps and 2A alone; the name comes
    # in at call time.  A name that would break Python source walks as
    # B2(1) does and names itself in its tie error.
    name = 'B2"(1)\n# \'{}'
    odd = ReflectionSystem(name, CARTAN_MATRIX, SYMMETRIZER)
    assert list(OrbitWalk(odd, 24).levels()) == list(OrbitWalk(B2, 24).levels())
    tied = copy.copy(odd)
    object.__setattr__(tied, "row_maps", ((),) + odd.row_maps[1:])
    with pytest.raises(ValueError) as raised:
        list(OrbitWalk(tied, 3))
    assert str(raised.value).startswith(name + ": generator 1 leaves row sum 4 unchanged")



@st.composite
def reflections(draw):
    system = draw(st.sampled_from([B2, SINH, *SUBSYSTEMS.values()]))
    rows = st.lists(st.integers(min_value=-200, max_value=200),
                    min_size=system.rank, max_size=system.rank)
    sigma = mv([draw(rows) for _ in range(system.rank)])
    return system, sigma, draw(st.integers(min_value=1, max_value=system.rank))


@given(reflections())
@settings(deadline=None)
def test_reflect_changes_only_the_reflected_row(case):
    # The walk bounds only the new row and updates only that row's sum:
    # both rest on this fact, for every system.
    system, sigma, index = case
    image, before = as_rows(reflect(sigma, index, system).coeff), as_rows(sigma.coeff)
    i = index - 1
    assert image[:i] + image[i + 1:] == before[:i] + before[i + 1:]
