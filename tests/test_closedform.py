"""Closed-form families: anchors, transitions, typing, and the unit-weight table."""

import hashlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b2weyl import algebra, closedform
from b2weyl.algebra import (B2, MassVector, Weights, ZERO, apply_word, eval_at, quadric_form,
                            reflect)
from b2weyl.closedform import (
    ADMISSIBLE_TYPES,
    ClosedFormId,
    FAMILY_BY_TYPE,
    TYPE_BY_FAMILY,
    closed_form_eval,
    invert_rows,
    invert_to_closed_form,
    parameters_from_sums,
    reduced_word,
    type_of,
)
from b2weyl.orbit import OrbitWalk, descend_to_origin
from b2weyl.sinh import SINH, sinh_invert
from cli_contract import child_env
from conftest import (admissible_parameters, as_rows, family_rows, mv, reflected_parameters,
                      special_case_table, transition, type_transition, wall_count)


# The ten anchor assignments pinning each family to a tree element.
ANCHORS = [
    (ZERO, (1, 0, 0)),
    (mv([[4, 0, 0], [0, 0, 0], [0, 0, 0]]), (3, 1, 0)),
    (mv([[0, 0, 0], [0, 4, 0], [0, 0, 0]]), (2, 0, 1)),
    (mv([[0, 0, 0], [0, 0, 0], [0, 0, 4]]), (8, -1, -1)),
    (mv([[4, 0, 0], [0, 4, 0], [0, 0, 0]]), (4, 1, 1)),
    (mv([[4, 0, 0], [0, 0, 0], [4, 0, 4]]), (7, -1, -2)),
    (mv([[0, 0, 0], [0, 4, 0], [0, 4, 4]]), (6, -2, -1)),
    (mv([[4, 0, 8], [0, 0, 0], [0, 0, 4]]), (6, 2, -1)),
    (mv([[0, 0, 0], [0, 4, 8], [0, 0, 4]]), (7, -1, 2)),
    (mv([[4, 0, 0], [0, 4, 0], [4, 4, 4]]), (5, -2, -2)),
]

# Mod-4 types of the same ten elements.
TYPE_TABLE = [
    (ZERO, (0, 0)),
    (mv([[4, 0, 0], [0, 0, 0], [0, 0, 0]]), (1, 0)),
    (mv([[0, 0, 0], [0, 4, 0], [0, 0, 0]]), (0, 1)),
    (mv([[0, 0, 0], [0, 0, 0], [0, 0, 4]]), (3, 3)),
    (mv([[4, 0, 0], [0, 4, 0], [0, 0, 0]]), (1, 1)),
    (mv([[4, 0, 0], [0, 0, 0], [4, 0, 4]]), (3, 2)),
    (mv([[0, 0, 0], [0, 4, 0], [0, 4, 4]]), (2, 3)),
    (mv([[4, 0, 8], [0, 0, 0], [0, 0, 4]]), (2, 3)),
    (mv([[0, 0, 0], [0, 4, 8], [0, 0, 4]]), (3, 2)),
    (mv([[4, 0, 0], [0, 4, 0], [4, 4, 4]]), (2, 2)),
]


class TestClosedFormEval:
    @pytest.mark.parametrize("sigma,cid", ANCHORS)
    def test_anchor_evaluation(self, sigma, cid):
        assert closed_form_eval(cid) == sigma

    def test_residue_mismatch_rejected(self):
        with pytest.raises(ValueError, match="inadmissible"):
            closed_form_eval((1, 1, 0))
        with pytest.raises(ValueError, match="inadmissible"):
            closed_form_eval((5, 2, 3))

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="inadmissible"):
            closed_form_eval((9, 0, 0))

    @pytest.mark.parametrize("ell", [0, 9])
    def test_admissible_parameters_rejects_an_unknown_family(self, ell):
        # The same message as closed_form_eval's, not a KeyError.
        message = rf"^inadmissible family index {ell}; expected 1\.\.8$"
        with pytest.raises(ValueError, match=message):
            admissible_parameters(ell, 3)
        with pytest.raises(ValueError, match=message):
            closed_form_eval((ell, 0, 0))

    def test_entries_nonnegative_multiples_of_four(self):
        for ell in range(1, 9):
            for m1, m2 in admissible_parameters(ell, 10):
                sigma = closed_form_eval((ell, m1, m2))
                for v in sigma.coeff:
                    assert v >= 0 and v % 4 == 0

    def test_families_lie_on_quadric(self):
        for ell in range(1, 9):
            for m1, m2 in admissible_parameters(ell, 8):
                assert not any(quadric_form(closed_form_eval((ell, m1, m2))))


class TestTypeOf:
    @pytest.mark.parametrize("sigma,tag", TYPE_TABLE)
    def test_type_table(self, sigma, tag):
        assert type_of(sigma) == tag

    def test_types_cover_all_eight(self):
        assert {tag for _, tag in TYPE_TABLE} == ADMISSIBLE_TYPES

    def test_type_requires_multiples_of_four(self):
        with pytest.raises(ValueError, match="multiples of 4"):
            type_of(mv([[2, 0, 0], [0, 0, 0], [0, 0, 0]]))

    def test_inadmissible_residue_pair_rejected(self):
        # Coefficient sums (4, 8, 0) give residues (1, 2), outside the
        # eight admissible classes.
        with pytest.raises(ValueError, match="admissible"):
            type_of(mv([[4, 0, 0], [0, 8, 0], [0, 0, 0]]))

    def test_family_types_are_coherent(self):
        for ell in range(1, 9):
            for m1, m2 in admissible_parameters(ell, 6):
                assert type_of(closed_form_eval((ell, m1, m2))) == TYPE_BY_FAMILY[ell]


class TestParametersFromSums:
    def test_reads_every_family(self):
        for ell in range(1, 9):
            for m1, m2 in admissible_parameters(ell, 6):
                sums = closed_form_eval((ell, m1, m2)).coefficient_sums()
                assert parameters_from_sums(sums) == (TYPE_BY_FAMILY[ell], m1, m2)

    # Sums (2, 0, 0) are not multiples of 4; sums (4, 8, 0) give residues
    # (1, 2), outside the eight admissible classes.  The reader rejects them
    # with the very messages ``type_of`` gives for a diagonal matrix with
    # those sums.
    @pytest.mark.parametrize("sums,message", [
        ((2, 0, 0), "coefficient sums are not multiples of 4; not a lattice member"),
        ((4, 8, 0), "residue pair (1, 2) is outside the eight admissible types; "
                    "not an orbit-type vector"),
    ])
    def test_rejections_match_type_of(self, sums, message):
        with pytest.raises(ValueError) as read:
            parameters_from_sums(sums)
        diagonal = mv([[sums[0], 0, 0], [0, sums[1], 0], [0, 0, sums[2]]])
        with pytest.raises(ValueError) as typed:
            type_of(diagonal)
        assert str(read.value) == str(typed.value) == message


@st.composite
def closed_form_ids(draw, bound=200):
    """A family and parameters with its residues, both |m_i| <= bound (bound % 4 == 0)."""
    ell = draw(st.integers(1, 8))
    t1, t2 = TYPE_BY_FAMILY[ell]
    m1 = draw(st.sampled_from(range(-bound + t1, bound + 1, 4)))
    m2 = draw(st.sampled_from(range(-bound + t2, bound + 1, 4)))
    return ClosedFormId(ell, m1, m2)


class TestInvert:
    @pytest.mark.parametrize("sigma,cid", ANCHORS)
    def test_anchor_inversion(self, sigma, cid):
        assert invert_to_closed_form(sigma) == ClosedFormId(*cid)

    def test_round_trip_over_parameter_box(self):
        for ell in range(1, 9):
            for m1, m2 in admissible_parameters(ell, 10):
                cid = ClosedFormId(ell, m1, m2)
                assert invert_to_closed_form(closed_form_eval(cid)) == cid

    @given(closed_form_ids())
    @settings(deadline=None, max_examples=300)
    def test_round_trip_property_to_200(self, cid):
        assert invert_to_closed_form(closed_form_eval(cid)) == cid

    def test_non_representable_vector_rejected(self):
        # Right residues and divisibility, but not an orbit element.
        bad = mv([[4, 0, 0], [4, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError):
            invert_to_closed_form(bad)

    @pytest.mark.parametrize("invert,system,rank", [
        pytest.param(invert, system, rank, id=f"{invert.__name__}-rank-{rank}")
        for invert, system, ranks in ((invert_to_closed_form, B2, (1, 2)), (type_of, B2, (1, 2)),
                                      (descend_to_origin, B2, (1, 2)), (sinh_invert, SINH, (1, 3)))
        for rank in ranks])
    def test_a_vector_of_another_rank_raises_the_rank_message(self, invert, system, rank):
        # The message of algebra._check_rank, as reflect and quadric_form
        # raise it, not an unpacking error.
        message = f"a rank-{rank} vector does not fit {system.name}, of rank {system.rank}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            invert(MassVector((0,) * rank ** 2))

    def test_every_enumerated_orbit_element_is_representable(self):
        # The BFS route and the closed-form route cover the same set.
        from b2weyl.orbit import enumerate_orbit

        for el in enumerate_orbit(40):
            cid = invert_to_closed_form(el.sigma)
            assert closed_form_eval(cid) == el.sigma


class TestInvertRows:
    """``invert_rows`` on the walk's flat entries against ``invert_to_closed_form``."""

    def test_agrees_with_invert_to_closed_form_on_the_depth_64_walk(self):
        walk = OrbitWalk(B2, 64)
        for _, entries in walk.levels():
            for coeff, _, sums in entries:
                cid = invert_rows(coeff, sums)
                assert type(cid) is ClosedFormId
                assert cid == invert_to_closed_form(MassVector(coeff))
        assert walk.count == 5548

    def test_near_misses_raise_the_same_message(self):
        # Adding 4 to one entry keeps every entry in 4N and moves one row
        # sum by 4.  The result may be another orbit element (the origin
        # bumped at (1, 1) is generator 1's image); either way both routes
        # reach the same id or reject in the same words.
        rejections = set()
        for _, entries in OrbitWalk(B2, 24).levels():
            for coeff, _, sums in entries:
                for k in range(9):
                    i = k // 3
                    bumped = coeff[:k] + (coeff[k] + 4,) + coeff[k + 1:]
                    moved = sums[:i] + (sums[i] + 4,) + sums[i + 1:]
                    got = _outcome(invert_rows, bumped, moved)
                    assert got == _outcome(invert_to_closed_form, MassVector(bumped))
                    if isinstance(got, str):
                        rejections.add(got.split()[0])
        # Both kinds of rejection occur: an inadmissible residue pair read
        # off the sums, and an admissible id whose family does not match.
        assert rejections == {"residue", "vector"}


def _outcome(invert, *args):
    """The id ``invert`` returns, or the message of the ValueError it raises."""
    try:
        return invert(*args)
    except ValueError as exc:
        return str(exc)


class TestKernels:
    """The generated kernel of each family against the generic loop, ``conftest.family_rows``."""

    def test_every_family_matches_the_generic_loop_over_the_box(self):
        # Every (m1, m2) with |m_i| <= 24, admissible or not: off its type
        # a family has non-integer and negative entries, so the kernel's
        # one 4N test and its reporter's entry order are checked too.
        kinds = set()
        for ell in TYPE_BY_FAMILY:
            for m1 in range(-24, 25):
                for m2 in range(-24, 25):
                    want = _outcome(family_rows, closedform._F[ell], ell, m1, m2)
                    got = _outcome(closedform._kernel(ell), m1, m2)
                    assert got == (want if isinstance(want, str) else sum(want, ()))
                    kinds.add(want.split()[0] if isinstance(want, str) else "value")
        assert kinds == {"value", "non-integer", "entry"}

    def test_each_family_has_one_kernel_keyed_on_its_index(self, swap_family):
        # ``_F`` is fixed after import, so the kernel is cached on the family
        # index alone: fetching it again returns the same function, and a
        # table swapped in reaches a kernel only once the cache is cleared,
        # as swap_family does.
        assert closedform._kernel(3) is closedform._kernel(3)
        assert closedform._kernel(3) is not closedform._kernel(4)
        assert closed_form_eval((3, 1, 0)).coeff == (4, 0, 0, 0, 0, 0, 0, 0, 0)
        table = closedform._F[3]
        last = table[2][:2] + (table[2][2][:4] + (table[2][2][4] + 64,),)
        swap_family(3, table[:2] + (last,))
        assert closed_form_eval((3, 1, 0)).coeff == (4, 0, 0, 0, 0, 0, 0, 0, 16)
        swap_family(3, table)
        assert closed_form_eval((3, 1, 0)).coeff == (4, 0, 0, 0, 0, 0, 0, 0, 0)


class TestTransition:
    def test_family_one_under_generator_one(self):
        assert transition((1, 0, 0), 1) == ClosedFormId(3, 1, 0)

    def test_family_one_under_generator_three(self):
        assert transition((1, 0, 0), 3) == ClosedFormId(8, -1, -1)

    def test_family_five_under_generator_three(self):
        cid = transition((5, -2, -2), 3)
        assert cid == ClosedFormId(4, 1, 1)
        assert reflect(closed_form_eval((5, -2, -2)), 3) == closed_form_eval(cid)

    def test_commuting_square_small_box(self):
        for ell in range(1, 9):
            for m1, m2 in admissible_parameters(ell, 8):
                sigma = closed_form_eval((ell, m1, m2))
                for gen in (1, 2, 3):
                    assert reflect(sigma, gen) == closed_form_eval(
                        transition((ell, m1, m2), gen))

    @given(closed_form_ids(), st.sampled_from([1, 2, 3]))
    @settings(deadline=None, max_examples=300)
    def test_commutes_with_reflect_to_200(self, cid, gen):
        assert reflect(closed_form_eval(cid), gen) == closed_form_eval(transition(cid, gen))

    def test_transition_is_involutive(self):
        for ell in range(1, 9):
            t1, t2 = TYPE_BY_FAMILY[ell]
            cid = ClosedFormId(ell, t1 + 4, t2 - 8)
            for gen in (1, 2, 3):
                assert transition(transition(cid, gen), gen) == cid


class TestTypeTransition:
    def test_from_origin_type(self):
        assert type_transition((0, 0), 1) == (1, 0)
        assert type_transition((0, 0), 2) == (0, 1)
        assert type_transition((0, 0), 3) == (3, 3)

    def test_from_type_two_two(self):
        assert type_transition((2, 2), 3) == (1, 1)

    def test_admissible_types_are_closed(self):
        for tag in ADMISSIBLE_TYPES:
            for gen in (1, 2, 3):
                assert type_transition(tag, gen) in ADMISSIBLE_TYPES

    def test_matches_family_ledger(self):
        for ell, tag in TYPE_BY_FAMILY.items():
            for gen in (1, 2, 3):
                moved = type_transition(tag, gen)
                assert FAMILY_BY_TYPE[moved] == transition(
                    (ell, tag[0], tag[1]), gen).ell

    def test_commutes_with_reflection(self):
        for ell in range(1, 9):
            for m1, m2 in admissible_parameters(ell, 4):
                sigma = closed_form_eval((ell, m1, m2))
                for gen in (1, 2, 3):
                    assert type_of(reflect(sigma, gen)) == type_transition(
                        type_of(sigma), gen)

    def test_inadmissible_tag_rejected(self):
        # The tag is checked before the generator.
        for index in (1, 4):
            with pytest.raises(ValueError, match=r"^\(0, 2\) is not an admissible type$"):
                type_transition((0, 2), index)

    def test_bad_generator_rejected(self):
        # ``transition`` checks the generator, with its own message.
        with pytest.raises(ValueError, match=r"^generator index must be 1\.\.3, got 4$"):
            type_transition((0, 0), 4)


class TestSpecialCaseTable:
    def test_zero_pair(self):
        assert special_case_table(0, 0) == (0, 0, 0)

    def test_basic_pairs(self):
        assert special_case_table(1, 0) == (4, 0, 0)
        assert special_case_table(1, 1) == (4, 4, 0)

    def test_residue_condition(self):
        with pytest.raises(ValueError, match="inadmissible"):
            special_case_table(0, 2)
        with pytest.raises(ValueError, match="inadmissible"):
            special_case_table(3, 1)

    def test_matches_closed_form_at_unit_weights(self):
        unit = Weights.numeric(1, 1, 1)
        for m1 in range(-10, 11):
            for m2 in range(-10, 11):
                if (m1 % 4, m2 % 4) not in ADMISSIBLE_TYPES:
                    continue
                ell = FAMILY_BY_TYPE[(m1 % 4, m2 % 4)]
                sigma = closed_form_eval((ell, m1, m2))
                assert special_case_table(m1, m2) == eval_at(sigma, unit)


class TestReducedWord:
    def test_examples(self):
        assert reduced_word(0, 0) == []
        assert reduced_word(1, 0) == [1]
        assert reduced_word(-1, -2) == [3, 1]
        assert reduced_word(-5, 7) == [2, 3, 1, 2, 3, 1, 2, 3, 1]

    @pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (0, 2), (3, 1), (2, 0), (-401, 0)])
    def test_an_inadmissible_pair_raises(self, pair):
        # Generator 3 maps (-1, 0) to itself, so an unguarded loop would
        # never end there.
        assert reflected_parameters(-1, 0, 3) == (-1, 0)
        with pytest.raises(ValueError, match=r"inadmissible pair \(%d,%d\)" % pair):
            reduced_word(*pair)

    def test_the_rule_on_a_box(self):
        # special_case_table is the row-sum formula, read independently of
        # the rule.  On every admissible pair with |m_i| <= 400, generator i
        # changes row i's sum alone and never leaves it unchanged; it lowers
        # it exactly when the rule allows generator i, and exactly when it
        # crosses one wall back towards (0, 0) (otherwise it crosses one
        # wall away); and (0, 0) is the only pair where no generator lowers
        # a sum.  The box is closed under the rule's step (the smallest
        # falling generator), and s1 + s2 + s3 >= 0 falls at each one, so by
        # induction the greedy word's length is the wall count on the box.
        stops = []
        for m1 in range(-400, 401):
            for m2 in range(-400, 401):
                if (m1 % 4, m2 % 4) not in ADMISSIBLE_TYPES:
                    continue
                sums, walls = special_case_table(m1, m2), wall_count(m1, m2)
                falls = []
                for i in range(3):
                    p1, p2 = reflected_parameters(m1, m2, i + 1)
                    after = special_case_table(p1, p2)
                    assert after[i] != sums[i]
                    assert after[:i] + after[i + 1:] == sums[:i] + sums[i + 1:]
                    falls.append(after[i] < sums[i])
                    assert wall_count(p1, p2) == walls + (-1 if falls[i] else 1)
                assert falls == [m1 >= 1, m2 >= 1, m1 + m2 <= -2]
                if True not in falls:
                    stops.append((m1, m2))
        assert stops == [(0, 0)]

    def test_word_length_is_the_wall_count(self):
        # Directly on a smaller box, where every step is also the smallest
        # falling generator of special_case_table.
        for ell in TYPE_BY_FAMILY:
            for m1, m2 in admissible_parameters(ell, 40):
                word = reduced_word(m1, m2)
                assert len(word) == wall_count(m1, m2)
                for index in word:
                    sums = special_case_table(m1, m2)
                    falling = [i for i in (1, 2, 3)
                               if special_case_table(*reflected_parameters(m1, m2, i))[i - 1]
                               < sums[i - 1]]
                    assert index == falling[0]
                    m1, m2 = reflected_parameters(m1, m2, index)
                assert (m1, m2) == (0, 0)

    def test_wall_count_is_the_walk_level(self):
        walk = OrbitWalk(B2, 64)
        for el in walk:
            _, m1, m2 = invert_to_closed_form(el.sigma)
            assert wall_count(m1, m2) == len(reduced_word(m1, m2)) == el.level
        assert walk.count == 5548


# Corrupts the constant of each of the nine family-1 entries in turn by 2,
# 4 and -16 quarters, so that it evaluates to 1/2, 1 and -4 at (1, 0, 0);
# every corruption must raise, also under -O, so no entry escapes the
# kernel's 4N test.  Clearing the kernel cache after each swap compiles the
# swapped-in table.
CORRUPTED_TABLE_SCRIPT = """
import sys
from b2weyl import closedform
print("optimize", sys.flags.optimize)
original = closedform._F[1]
for k in range(9):
    for bump in (2, 4, -16):
        rows = [list(row) for row in original]
        rows[k // 3][k % 3] = rows[k // 3][k % 3][:4] + (rows[k // 3][k % 3][4] + bump,)
        closedform._F[1] = tuple(map(tuple, rows))
        closedform._kernel.cache_clear()
        try:
            sigma = closedform.closed_form_eval((1, 0, 0))
        except ValueError as exc:
            print("raised", exc)
        else:
            print("returned", sigma)
"""


def test_transcription_guard_survives_optimize_flag():
    proc = subprocess.run([sys.executable, "-O", "-c", CORRUPTED_TABLE_SCRIPT],
                          capture_output=True, text=True, env=child_env(), check=False)
    # The generic loop on the same corrupted tables names each text.
    want = []
    for k in range(9):
        for bump in (2, 4, -16):
            rows = [list(row) for row in closedform._F[1]]
            rows[k // 3][k % 3] = rows[k // 3][k % 3][:4] + (rows[k // 3][k % 3][4] + bump,)
            want.append("raised " + _outcome(family_rows, tuple(map(tuple, rows)), 1, 0, 0))
    assert set(want) == {"raised non-integer entry 1/2 at (1,0,0)",
                         "raised entry 1 not in 4N at (1,0,0)",
                         "raised entry -4 not in 4N at (1,0,0)"}
    assert proc.stdout.split("\n") == ["optimize 1", *want, ""], proc.stderr


# sha256 of repr(_F) for the family table as it was written out by hand
# before it was derived; all 360 integers must come out the same.
DERIVED_TABLE_SHA256 = "80ee795b8d43be7cfa74b562be11c15eed40f6f9df5cc3ff479553c599f8f521"


class TestDerivedTable:
    def test_derived_table_matches_the_written_out_table(self):
        assert hashlib.sha256(repr(closedform._F).encode()).hexdigest() == DERIVED_TABLE_SHA256
        assert closedform._derive_families() == closedform._F

    def test_broken_row_map_makes_the_derivation_raise(self, monkeypatch):
        # Generator 3 gets w_33 + 1, as in the relations test: the
        # derivation must raise a real exception, so also under -O (the
        # whole suite runs under -O in CI).
        original = algebra._reflected_coeff

        def broken(coeff, i, pairs):
            if i == 2:
                pairs = tuple((j, w + (j == 2)) for j, w in pairs)
            return original(coeff, i, pairs)

        monkeypatch.setattr(algebra, "_reflected_coeff", broken)
        with pytest.raises(ValueError, match="family 1"):
            closedform._derive_families()


# Each generator's action on the (m1, m2) plane as (linear part, shift):
# the reflections in m1 = 1/2, m2 = 1/2 and m1 + m2 = -1.
ID_PLANE_GENERATORS = {
    1: (((-1, 0), (0, 1)), (1, 0)),
    2: (((1, 0), (0, -1)), (0, 1)),
    3: (((0, -1), (-1, 0)), (-1, -1)),
}
IDENTITY_2 = ((1, 0), (0, 1))


def test_the_families_are_the_cosets_of_the_translations():
    # Point (3) of the closedform docstring.  Each element's map of the
    # plane, composed along its word (the reversed reduced_word), sends
    # (0, 0) to its id.  Each family has one linear part, the eight are
    # the signed permutations, W(B2), and family 1's is the identity, so
    # family 1 is exactly the translations.
    parts = {}
    for ell in TYPE_BY_FAMILY:
        for m1, m2 in admissible_parameters(ell, 24):
            part, shift = IDENTITY_2, (0, 0)
            for index in reduced_word(m1, m2)[::-1]:
                g, c = ID_PLANE_GENERATORS[index]
                part = tuple(tuple(sum(g[r][k] * part[k][j] for k in range(2)) for j in range(2))
                             for r in range(2))
                shift = tuple(sum(g[r][k] * shift[k] for k in range(2)) + c[r] for r in range(2))
            assert shift == (m1, m2)
            parts.setdefault(ell, set()).add(part)
    assert all(len(found) == 1 for found in parts.values())
    signed = {((s, 0), (0, t)) for s in (1, -1) for t in (1, -1)}
    signed |= {((0, s), (t, 0)) for s in (1, -1) for t in (1, -1)}
    assert {part for found in parts.values() for part in found} == signed
    assert parts[1] == {IDENTITY_2}


def test_the_unit_translations_act_unipotently():
    # Point (3) of the closedform docstring: t_(4,0) and t_(0,4) send C to
    # (I + N_i) C + s_i, where N_i C has twice row i minus row 3 of C in
    # every row, and N1 s2 = N2 s1 = 0.  The map is affine, so agreeing
    # at 0 and at the identity, whose rows span, fixes it; a third matrix
    # checks that.
    matrices = (((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((3, -1, 4), (1, -5, 9), (2, 6, -5)))
    shifts = []
    for i, (m1, m2) in enumerate(((4, 0), (0, 4))):
        word = reduced_word(m1, m2)[::-1]
        s = as_rows(apply_word(ZERO, word).coeff)
        for c in matrices:
            spread = [2 * (a - b) for a, b in zip(c[i], c[2])]
            expected = tuple(tuple(v + d + t for v, d, t in zip(row, spread, shift))
                             for row, shift in zip(c, s))
            assert as_rows(apply_word(mv(c), word).coeff) == expected
        shifts.append(s)
    s1, s2 = shifts
    assert s2[0] == s2[2] and s1[1] == s1[2]
