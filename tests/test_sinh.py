"""Rank-one reduction: chain closed form, orbit, quadric, unit-weight values."""

from fractions import Fraction

import pytest

from b2weyl import sinh
from b2weyl.algebra import B2, MassVector, eval_at, quadric_form, reflect
from b2weyl.closedform import _F, FAMILY_BY_TYPE, closed_form_eval
from b2weyl.orbit import OrbitWalk
from b2weyl.sinh import SINH, sinh_closed_form, sinh_invert, sinh_orbit
from conftest import (REF_CARTAN_SINH, SAMPLE_WEIGHTS, as_rows, chain_rows, mv,
                      reflect_reference)

F = Fraction

ZERO2 = MassVector((0, 0, 0, 0))


class TestReflect:
    def test_reflections_of_origin(self):
        assert reflect(ZERO2, 1, SINH) == mv([[4, 0], [0, 0]])
        assert reflect(ZERO2, 2, SINH) == mv([[0, 0], [0, 4]])

    def test_second_step_matches_even_branch(self):
        first = mv([[4, 0], [0, 0]])
        assert reflect(first, 2, SINH) == mv([[4, 0], [8, 4]])
        assert reflect(first, 2, SINH) == sinh_closed_form(2)

    def test_involution(self):
        sigma = mv([[16, 8], [8, 4]])
        for i in (1, 2):
            assert reflect(reflect(sigma, i, SINH), i, SINH) == sigma

    def test_bad_index(self):
        with pytest.raises(ValueError):
            reflect(ZERO2, 3, SINH)

    def test_agrees_with_numeric_reference(self):
        sigma = sinh_closed_form(3)
        for mu3 in SAMPLE_WEIGHTS:
            mu = mu3[:2]
            for i in (1, 2):
                got = eval_at(reflect(sigma, i, SINH), mu)
                want = reflect_reference(eval_at(sigma, mu), i, mu, REF_CARTAN_SINH)
                assert got == want


class TestClosedForm:
    def test_zero_parameter(self):
        assert sinh_closed_form(0) == ZERO2

    def test_unit_parameters(self):
        assert sinh_closed_form(1) == mv([[4, 0], [0, 0]])
        assert sinh_closed_form(-1) == mv([[0, 0], [0, 4]])

    def test_entries_nonnegative_multiples_of_four(self):
        for m in range(-50, 51):
            sigma = sinh_closed_form(m)
            for v in sigma.coeff:
                assert v >= 0 and v % 4 == 0

    def test_quadric_holds_identically(self):
        for m in range(-50, 51):
            assert not any(quadric_form(sinh_closed_form(m), SINH))

    def test_invert_round_trip(self):
        for m in range(-50, 51):
            assert sinh_invert(sinh_closed_form(m)) == m

    def test_invert_rejects_off_chain_vector(self):
        with pytest.raises(ValueError):
            sinh_invert(mv([[4, 0], [0, 4]]))

    @pytest.mark.parametrize("rows,detail", [
        ([[1, 0], [0, 0]], "not a multiple of 4"),
        # Sum difference 12 names the one candidate m = 3, but these are
        # the rows of m = -3 swapped, so they match neither sign.
        ([[8, 16], [4, 8]], "not on the parametrized chain"),
    ])
    def test_invert_names_why_a_vector_is_off_the_chain(self, rows, detail):
        with pytest.raises(ValueError, match=detail):
            sinh_invert(mv(rows))


class TestOrbit:
    def test_level_one(self):
        assert list(sinh_orbit(1)) == [(0, (0, 0, 0, 0)), (-1, (0, 0, 0, 4)), (1, (4, 0, 0, 0))]

    def test_every_element_is_on_the_quadric(self):
        # sinh_orbit does not check this itself: the chain stays on the quadric.
        orbit = [MassVector(coeff) for _, coeff in sinh_orbit(20)]
        assert len(orbit) == 41
        assert not any(any(quadric_form(sigma, SINH)) for sigma in orbit)

    def test_orbit_equals_chain(self):
        level = 20
        orbit = set(sinh_orbit(level))
        chain = {(m, sinh_closed_form(m).coeff) for m in range(-level, level + 1)}
        assert orbit == chain

    def test_each_element_comes_with_its_own_parameter(self):
        # The walk hands out m with each matrix, and the CLI prints it as
        # is, so every pair is checked against the oracle chain_rows and
        # against sinh_invert; m is a plain int and the matrix a flat
        # 4-tuple of ints.
        for m, coeff in sinh_orbit(300):
            assert type(m) is int and type(coeff) is tuple
            assert all(type(v) is int for v in coeff)
            assert mv(chain_rows(m)).coeff == coeff
            assert sinh_invert(MassVector(coeff)) == m

    def test_levels_come_out_in_sorted_order(self):
        # sinh_orbit reads the chain and sorts nothing: the shared walk's
        # level n holds m = n and m = -n, and the levels, concatenated, are
        # already sorted (the proof is in its docstring).  The walk carries
        # each matrix flat, row-major.
        walk = []
        for n, entries in OrbitWalk(SINH, 200).levels():
            level = [coeff for coeff, _, _ in entries]
            assert sorted(sinh_invert(MassVector(coeff)) for coeff in level) == sorted({n, -n})
            walk += level
        matrices = [coeff for _, coeff in sinh_orbit(200)]
        assert matrices == walk == sorted(matrices) and len(matrices) == 401

    def test_negative_level_is_refused(self):
        with pytest.raises(ValueError, match="max_level must be >= 0"):
            sinh_orbit(-1)

    def test_alternating_reflections_walk_the_chain(self):
        # From the origin, 1 then 2 then 1 ... visits m = 1, 2, 3, ...;
        # starting with 2 visits m = -1, -2, -3, ...
        sigma, expected = ZERO2, 0
        for step in range(1, 12):
            sigma = reflect(sigma, 1 if step % 2 else 2, SINH)
            expected += 1
            assert sigma == sinh_closed_form(expected)
        sigma, expected = ZERO2, 0
        for step in range(1, 12):
            sigma = reflect(sigma, 2 if step % 2 else 1, SINH)
            expected -= 1
            assert sigma == sinh_closed_form(expected)

    def test_parity_alternates_along_the_chain(self):
        # The commuting square of the sinh_orbit docstring: entries are
        # quadratic in m on each parity class, so three m per class prove it
        # for all m, for each generator.
        for m in range(-10, 11):
            sigma = sinh_closed_form(m)
            up = m + 1 if m % 2 == 0 else m - 1
            assert reflect(sigma, 1, SINH) == sinh_closed_form(up)
            assert reflect(sigma, 2, SINH) == sinh_closed_form(2 * m - up)


def fold(rows):
    """Identify B2(1)'s first two components: rows ((r11+r12, r13), (r31+r32, r33))."""
    return tuple((row[0] + row[1], row[2]) for row in (rows[0], rows[2]))


class TestDiagonalOfB2:
    # sinh is B2(1) on the diagonal m1 = m2: the chain is read off the
    # B2(1) family kernels on folded tables, and this checks it against the
    # hand-written chain and against the B2(1) element folded here.
    def test_folded_coupling_is_sinh(self):
        assert fold(B2.cartan) == SINH.cartan

    def test_folded_closed_form_is_the_chain(self):
        # Both sides are quadratic in d on each residue class mod 4 (the
        # sinh docstring), so three d per class prove the identity.
        for m in range(-500, 501):
            d = m if m % 2 else -m
            full = closed_form_eval((FAMILY_BY_TYPE[(d % 4, d % 4)], d, d))
            assert sinh_closed_form(m) == mv(chain_rows(m)) == mv(fold(as_rows(full.coeff)))

    def test_the_folded_tables_depend_on_the_parity_alone(self):
        # The fold of a family table, written out here: rows 1 and 3, each
        # with its first two entries added, each entry (a, b, c, d, e) of
        # (m1^2, m1, m2^2, m2, 1) as (a + c, b + d, 0, 0, e) on m1 = m2.
        def folded(r):
            first, _, third = _F[FAMILY_BY_TYPE[(r, r)]]
            rows = ((tuple(map(sum, zip(first[0], first[1]))), first[2]),
                    (tuple(map(sum, zip(third[0], third[1]))), third[2]))
            return tuple(tuple((a + c, b + d, 0, 0, e) for a, b, c, d, e in row) for row in rows)

        # Types (r, r) and (r + 2, r + 2) fold alike, so sinh keeps one table
        # per parity of d, and one kernel each.
        assert folded(0) == folded(2) == sinh._CHAIN[0]
        assert folded(1) == folded(3) == sinh._CHAIN[1]
        assert folded(0) != folded(1) and len(sinh._CHAIN) == 2


class TestUnitWeights:
    def test_pair_family(self):
        for m in range(-30, 31):
            values = eval_at(sinh_closed_form(m), (1, 1))
            if m % 2:
                assert values == (2 * m * (m + 1), 2 * m * (m - 1))
            else:
                assert values == (2 * m * (m - 1), 2 * m * (m + 1))

    def test_rational_weights(self):
        values = eval_at(sinh_closed_form(2), (F(3, 2), F(1, 2)))
        assert values == (6, 14)
