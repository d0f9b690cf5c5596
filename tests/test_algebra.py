"""Reflection algebra: exactness, the defining examples, group relations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b2weyl import algebra, cascade, cli
from b2weyl.algebra import (
    B2,
    MassVector,
    ReflectionSystem,
    Weights,
    ZERO,
    _word_map,
    apply_word,
    eval_at,
    pohozaev_residual,
    quadric_form,
    ratio_text,
    ratio_texts,
    reflect,
)
from b2weyl.closedform import closed_form_eval
from b2weyl.orbit import enumerate_orbit
from b2weyl.sinh import SINH, sinh_closed_form
from conftest import (SAMPLE_WEIGHTS, as_rows, assert_word_matches_reference, mv,
                      quadric_reference)

F = Fraction


entries = st.integers(min_value=-60, max_value=60)
random_vectors = st.builds(
    lambda flat: MassVector(tuple(flat)),
    st.lists(entries, min_size=9, max_size=9),
)


class TestWeights:
    def test_numeric_requires_positive(self):
        with pytest.raises(ValueError):
            Weights.numeric(1, 0, 1)
        with pytest.raises(ValueError):
            Weights.numeric(1, -2, 1)


class TestReflectionSystem:
    def test_doubled_and_gram_are_derived(self):
        assert B2.doubled == ((2, 0, -2), (0, 2, -2), (-1, -1, 2))
        assert B2.gram == ((1, 0, -1), (0, 1, -1), (-1, -1, 2))
        assert all(type(v) is int for row in B2.doubled + B2.gram for v in row)

    def test_row_maps_are_derived(self):
        # Row i of I - 2A without its zeros: generator 3 sums rows 1 and 2
        # and negates row 3.
        assert B2.row_maps == (((0, -1), (2, 2)), ((1, -1), (2, 2)), ((0, 1), (1, 1), (2, -1)))
        assert all(type(w) is int for pairs in B2.row_maps for _, w in pairs)

    def test_rejects_non_integral_doubled_matrix(self):
        with pytest.raises(ValueError, match="integral"):
            ReflectionSystem("thirds", ((F(1), F(1, 3)), (F(0), F(1))), (1, 1))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            ReflectionSystem("ragged", ((F(1), F(0)), (F(0),)), (1, 1))
        with pytest.raises(ValueError):
            ReflectionSystem("short", ((F(1), F(0)), (F(0), F(1))), (1,))


# Every producer of a MassVector in src/, each with the rank of what it yields.
PRODUCERS = {
    "reflect": (3, lambda: [reflect(ZERO, i) for i in (1, 2, 3)]),
    "reflect-sinh": (2, lambda: [reflect(MassVector((0,) * 4), i, SINH) for i in (1, 2)]),
    "apply_word": (3, lambda: [apply_word(ZERO, [1, 3, 2, 3, 1])]),
    "closed_form_eval": (3, lambda: [closed_form_eval((7, -1, 2)), closed_form_eval((1, 0, 0))]),
    "sinh_closed_form": (2, lambda: [sinh_closed_form(m) for m in range(-3, 4)]),
    "enumerate_orbit": (3, lambda: [el.sigma for el in enumerate_orbit(3)]),
    "cascade.step": (3, lambda: [cascade.step(cascade.CascadeState(), move).gamma
                                 for move in cascade.parse_scenario("collapse 3\nmerge 4 0 0\n")]),
    "cli._parse_matrix": (3, lambda: [cli._parse_matrix("4,0,8;0,0,0;0,0,4")]),
}


class TestMassVectorShape:
    def test_rejects_bad_shapes(self):
        # The one shape check: the flat length must be a square.
        for coeff in ((4, 0, 0), (4, 0), (0,) * 8, (0,) * 10, (0,) * 15):
            with pytest.raises(ValueError,
                               match=f"needs a square number of entries, got {len(coeff)}$"):
                MassVector(coeff)
        assert [len(MassVector((0,) * (n * n)).coeff) for n in range(5)] == [0, 1, 4, 9, 16]

    def test_a_vector_is_its_coefficient_matrix(self):
        # A mass vector is a linear form in mu: there is no constant part
        # to pass, positionally or by name.
        assert MassVector._fields == ("coeff",)
        with pytest.raises(TypeError):
            MassVector((4, 0, 0, 0), (0, 0))  # type: ignore[call-arg]
        with pytest.raises(TypeError):
            MassVector((4, 0, 0, 0), offset=(0, 0))  # type: ignore[call-arg]

    @pytest.mark.parametrize("name", PRODUCERS)
    def test_every_producer_yields_a_flat_int_tuple(self, name):
        rank, produce = PRODUCERS[name]
        vectors = produce()
        assert vectors
        for sigma in vectors:
            assert type(sigma) is MassVector
            assert type(sigma.coeff) is tuple and len(sigma.coeff) == rank * rank
            assert all(type(v) is int for v in sigma.coeff)


class TestReflect:
    def test_origin_images(self):
        assert reflect(ZERO, 1) == mv([[4, 0, 0], [0, 0, 0], [0, 0, 0]])
        assert reflect(ZERO, 2) == mv([[0, 0, 0], [0, 4, 0], [0, 0, 0]])
        assert reflect(ZERO, 3) == mv([[0, 0, 0], [0, 0, 0], [0, 0, 4]])

    def test_second_level_tree_element(self):
        third = mv([[0, 0, 0], [0, 0, 0], [0, 0, 4]])
        assert reflect(third, 1) == mv([[4, 0, 8], [0, 0, 0], [0, 0, 4]])

    def test_bad_generator_index(self):
        with pytest.raises(ValueError):
            reflect(ZERO, 4)

    @pytest.mark.parametrize("system,index", [(B2, 0), (B2, 4), (SINH, 0), (SINH, 3)])
    def test_index_out_of_range_raises(self, system, index):
        origin = MassVector((0,) * system.rank ** 2)
        with pytest.raises(ValueError, match="generator index"):
            reflect(origin, index, system)

    @pytest.mark.parametrize("system,rank", [(B2, 2), (B2, 4), (SINH, 3), (SINH, 1)])
    def test_wrong_rank_vector_raises(self, system, rank):
        with pytest.raises(ValueError, match="does not fit"):
            reflect(MassVector((4,) * rank ** 2), 1, system)

    @given(random_vectors, st.sampled_from([1, 2, 3]))
    @settings(deadline=None)
    def test_involution(self, sigma, i):
        assert reflect(reflect(sigma, i), i) == sigma

    @given(random_vectors)
    @settings(deadline=None)
    def test_generators_1_and_2_commute(self, sigma):
        assert apply_word(sigma, [1, 2]) == apply_word(sigma, [2, 1])

    @given(random_vectors, st.sampled_from([1, 2]))
    @settings(deadline=None)
    def test_braid_with_third_generator(self, sigma, i):
        assert apply_word(sigma, [3, i, 3, i]) == apply_word(sigma, [i, 3, i, 3])
        assert apply_word(sigma, [3, i] * 4) == sigma

    @given(random_vectors, st.sampled_from([1, 2, 3]))
    @settings(deadline=None)
    def test_quadric_is_invariant(self, sigma, i):
        assert quadric_form(reflect(sigma, i)) == quadric_form(sigma)

    @given(random_vectors, st.sampled_from([1, 2, 3]))
    @settings(deadline=None)
    def test_entries_stay_integral(self, sigma, i):
        image = reflect(sigma, i)
        assert all(isinstance(v, int) for v in image.coeff)


class TestWordMap:
    def test_examples(self):
        # Generator 1 rewrites row 1 as -row_1 + 2*row_3 + 4e_1; the braid
        # word 1,3,1,3 moves rows 1 and 3; s_1 s_1 fixes every row.
        assert _word_map((1,)) == ((0, ((0, -1), (2, 2)), (4, 0, 0)),)
        assert [r for r, _, _ in _word_map((1, 3, 1, 3))] == [0, 2]
        assert _word_map((1, 1)) == _word_map(()) == ()

    @pytest.mark.parametrize("action,entry", [
        # A pure shift: P_1 = e_1, T_1 = 4e_1.
        (lambda row_1: tuple(v + 4 * (k == 0) for k, v in enumerate(row_1)),
         (0, ((0, 1),), (4, 0, 0))),
        # A pure linear part: P_1 = 2e_1, T_1 = 0.
        (lambda row_1: tuple(2 * v for v in row_1), (0, ((0, 2),), (0, 0, 0))),
    ], ids=["shift-only", "linear-only"])
    def test_a_row_moved_by_either_part_alone_is_listed(self, monkeypatch, action, entry):
        # On the real generators T_r = 0 exactly when P_r = e_r, so only a
        # substituted generator tells "P_r = e_r and T_r = 0" apart from
        # either half of it: the encoding must list the row in both cases.
        def substituted(coeff, i, pairs):
            return action(coeff[:3]) + coeff[3:]

        monkeypatch.setattr(algebra, "_reflected_coeff", substituted)
        assert _word_map((1,)) == (entry,)


class TestApplyWord:
    def test_empty_word_is_identity(self):
        sigma = mv([[4, 0, 8], [0, 0, 0], [0, 0, 4]])
        assert apply_word(sigma, []) == sigma

    def test_three_step_word(self):
        result = apply_word(ZERO, [2, 1, 3])
        expected = mv([[4, 0, 0], [0, 4, 0], [4, 4, 4]])
        assert result == expected
        assert_word_matches_reference(ZERO, [2, 1, 3], result)

    def test_four_step_braid_word(self):
        result = apply_word(ZERO, [1, 3, 1, 3])
        expected = mv([[8, 0, 8], [0, 0, 0], [4, 0, 8]])
        assert result == expected
        assert_word_matches_reference(ZERO, [1, 3, 1, 3], result)
        assert eval_at(result, Weights.numeric(1, 1, 1)) == (16, 0, 12)

    @given(random_vectors, st.lists(st.sampled_from([1, 2, 3]), max_size=6))
    @settings(deadline=None)
    def test_agrees_with_numeric_reference(self, sigma, word):
        assert_word_matches_reference(sigma, word, apply_word(sigma, word))


class TestPohozaevResidual:
    def test_zero_vector(self):
        assert not any(quadric_form(ZERO))

    def test_single_reflection_lies_on_quadric(self):
        assert not any(quadric_form(mv([[4, 0, 0], [0, 0, 0], [0, 0, 0]])))

    def test_off_quadric_vector(self):
        sigma = mv([[4, 0, 0], [0, 0, 0], [0, 0, 4]])
        # Monomials mu1^2, mu1mu2, mu1mu3, mu2^2, mu2mu3, mu3^2.
        assert quadric_form(sigma) == [0, 0, -32, 0, 0, 0]
        for mu in SAMPLE_WEIGHTS:
            w = Weights.numeric(*mu)
            assert pohozaev_residual(sigma, w) == quadric_reference(eval_at(sigma, w), mu)

    def test_numeric_mode_returns_rational(self):
        sigma = mv([[4, 0, 0], [0, 0, 0], [0, 0, 4]])
        value = pohozaev_residual(sigma, Weights.numeric(1, 1, 1))
        assert value == F(-32)

    @given(random_vectors)
    @settings(deadline=None)
    def test_matches_numeric_reference_everywhere(self, sigma):
        form = quadric_form(sigma)
        for mu in SAMPLE_WEIGHTS[:3]:
            w = Weights.numeric(*mu)
            expected = quadric_reference(eval_at(sigma, w), mu)
            monomials = [mu[j] * mu[k] for j in range(3) for k in range(j, 3)]
            assert len(form) == len(monomials)
            assert sum(c * m for c, m in zip(form, monomials)) == expected
            assert pohozaev_residual(sigma, w) == expected


class TestEvalAt:
    def test_unit_weights(self):
        assert eval_at(mv([[4, 0, 0], [0, 0, 0], [0, 0, 0]]),
                       Weights.numeric(1, 1, 1)) == (4, 0, 0)

    def test_braid_element_at_unit_weights(self):
        sigma = mv([[8, 0, 8], [0, 0, 0], [4, 0, 8]])
        assert eval_at(sigma, Weights.numeric(1, 1, 1)) == (16, 0, 12)

    def test_rational_weights(self):
        sigma = mv([[4, 0, 0], [0, 4, 0], [0, 0, 0]])
        assert eval_at(sigma, Weights.numeric(F(3, 2), F(1, 2), 1)) == (6, 2, 0)

    def test_rank_two_at_nonpositive_weights(self):
        sigma = mv([[4, 0], [8, -4]])
        assert eval_at(sigma, (F(-2, 3), 0)) == (F(-8, 3), F(-16, 3))
        assert eval_at(sigma, (0, F(-5, 2))) == (0, 10)

    def test_weight_count_must_match_rank(self):
        with pytest.raises(ValueError, match="weight values"):
            eval_at(mv([[4, 0], [0, 0]]), Weights.numeric(1, 1, 1))
        with pytest.raises(ValueError, match="weight values"):
            eval_at(ZERO, (1, 1))


class TestRatioTexts:
    """The one rational formatter against ``str(Fraction)``."""

    def test_examples(self):
        assert ratio_texts([0, -6, 6, -6, 5], 4) == ["0", "-3/2", "3/2", "-3/2", "5/4"]
        assert (ratio_text(-6, 4), ratio_text(8, 4), ratio_text(0, 7)) == ("-3/2", "2", "0")
        assert ratio_texts([0, -6, 5], 1) == ["0", "-6", "5"]

    @given(st.lists(st.integers(-10**12, 10**12), max_size=4), st.integers(1, 10**6))
    @settings(deadline=None, max_examples=500)
    def test_matches_fraction_str(self, values, q):
        assert ratio_texts(values, q) == [str(Fraction(v, q)) for v in values]
        assert [ratio_text(v, q) for v in values] == [str(Fraction(v, q)) for v in values]


class TestCanonicalOrder:
    def test_coefficient_matrices_order_row_major(self):
        # The canonical order is the matrices' own: the flat row-major
        # tuples sort as their rows do.
        a = mv([[0, 0, 0], [9, 9, 9], [9, 9, 9]])
        b = mv([[0, 0, 4], [0, 0, 0], [0, 0, 0]])
        assert a.coeff == (0, 0, 0, 9, 9, 9, 9, 9, 9)
        assert a.coeff < b.coeff
        assert as_rows(a.coeff) < as_rows(b.coeff)

    def test_equality_is_structural(self):
        assert mv([[4, 0, 0], [0, 0, 0], [0, 0, 0]]) == mv([[4, 0, 0], [0, 0, 0], [0, 0, 0]])
        # Equal row sums (and equal values at unit weights), different matrices.
        assert mv([[4, 0, 0], [0, 0, 0], [0, 0, 0]]) != mv([[0, 4, 0], [0, 0, 0], [0, 0, 0]])
        # The same entry in another row.
        assert mv([[4, 0, 0], [0, 0, 0], [0, 0, 0]]) != mv([[0, 0, 0], [4, 0, 0], [0, 0, 0]])
