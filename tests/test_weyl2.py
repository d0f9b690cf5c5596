"""Finite rank-two orbits and the singular-source quantization tables."""

from fractions import Fraction

import pytest

from b2weyl.algebra import MassVector, Weights, ZERO, apply_word, eval_at, quadric_form, reflect
from b2weyl.orbit import OrbitWalk
from b2weyl.weyl2 import (
    APPENDIX_UV,
    PAIR_12,
    PAIR_13,
    PAIR_23,
    SUBSYSTEMS,
    Subsystem,
    appendix_table,
    finite_orbit,
)
from conftest import (APPENDIX_C_COEFFS, REF_CARTAN_3, REF_SUBSYSTEMS, REF_SYMMETRIZER_3,
                      as_rows, longest_element)

F = Fraction


class TestOrbitSizes:
    def test_decoupled_pair_has_four_elements(self):
        assert len(finite_orbit(PAIR_12)) == 4

    @pytest.mark.parametrize("sub", [PAIR_13, PAIR_23, APPENDIX_UV])
    def test_coupled_pairs_have_eight_elements(self, sub):
        assert len(finite_orbit(sub)) == 8

    def test_registry_names(self):
        assert set(SUBSYSTEMS) == {"pair_12", "pair_13", "pair_23", "appendix_uv"}

    @pytest.mark.parametrize("name", sorted(SUBSYSTEMS))
    def test_levels_come_out_in_sorted_order(self, name):
        # finite_orbit sorts nothing: on each whole orbit the walk's levels,
        # concatenated, are already in sorted order, flat as the walk
        # carries them and as rows alike.
        walk = OrbitWalk(SUBSYSTEMS[name], 16)
        flat = [coeff for _, entries in walk.levels() for coeff, _, _ in entries]
        matrices = [as_rows(coeff) for coeff in flat]
        assert walk.exhausted and flat == sorted(flat) and matrices == sorted(matrices)
        assert tuple(flat) == finite_orbit(SUBSYSTEMS[name])

    @pytest.mark.parametrize("name", sorted(SUBSYSTEMS))
    def test_each_orbit_is_walked_once_and_kept(self, name):
        # The orbit is fixed by its subsystem: a tuple of flat 2x2 matrices,
        # the same object on every call, an equal subsystem's too.
        sub = SUBSYSTEMS[name]
        orbit = finite_orbit(sub)
        assert type(orbit) is tuple and orbit
        assert all(type(coeff) is tuple and len(coeff) == 4 for coeff in orbit)
        assert finite_orbit(sub) is orbit
        assert finite_orbit(Subsystem(*(getattr(sub, f) for f in sub._fields))) is orbit

    def test_a_cache_hit_hashes_no_fraction(self, monkeypatch):
        # The cache is keyed on the subsystem, whose coupling matrix holds
        # Fractions; each system hashes its fields once, when it is built,
        # so repeated hits, an equal subsystem's included, hash none.
        twins = [Subsystem(*(getattr(sub, f) for f in sub._fields))
                 for sub in SUBSYSTEMS.values()]
        for sub in (*SUBSYSTEMS.values(), *twins):
            finite_orbit(sub)
        calls = []
        original = Fraction.__hash__

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Fraction, "__hash__", counted)
        assert hash(F(1, 2)) == original(F(1, 2)) and len(calls) == 1
        calls.clear()
        for _ in range(100):
            for sub in (*SUBSYSTEMS.values(), *twins):
                assert finite_orbit(sub) is finite_orbit(SUBSYSTEMS[sub.name])
        assert calls == []

    def test_appendix_orbit_matches_the_transcribed_table(self):
        # APPENDIX_C_COEFFS is typed in from the paper's appendix, apart
        # from the walk; the computed orbit must be exactly that table.
        assert sorted(map(as_rows, finite_orbit(APPENDIX_UV))) == sorted(APPENDIX_C_COEFFS)


# The ordered B2(1) node pair each subsystem restricts to.
NODES = {"pair_12": (1, 2), "pair_13": (1, 3), "pair_23": (2, 3), "appendix_uv": (3, 1)}


class TestParabolicSubsystems:
    @pytest.mark.parametrize("name", sorted(NODES))
    def test_restriction_is_the_papers_coupling(self, name):
        cartan, symmetrizer, size = REF_SUBSYSTEMS[name]
        idx = [node - 1 for node in NODES[name]]
        assert tuple(tuple(REF_CARTAN_3[i][j] for j in idx) for i in idx) == cartan
        assert tuple(REF_SYMMETRIZER_3[i] for i in idx) == symmetrizer
        typed = Subsystem(name, cartan, symmetrizer, size)
        assert SUBSYSTEMS[name] == typed and repr(SUBSYSTEMS[name]) == repr(typed)

    @pytest.mark.parametrize("name", sorted(NODES))
    def test_orbit_is_the_parabolic_orbit_of_b2(self, name):
        # The origin's orbit under B2(1)'s generators i and j alone, read on
        # rows and columns (i, j), row-major, is the subsystem's orbit.
        i, j = NODES[name]
        seen = frontier = {ZERO}
        while frontier:
            frontier = {reflect(sigma, k) for sigma in frontier for k in (i, j)} - seen
            seen = seen | frontier
        restricted = {tuple(sigma.coeff[3 * r + c - 4] for r in (i, j) for c in (i, j))
                      for sigma in seen}
        assert restricted == set(finite_orbit(SUBSYSTEMS[name]))


class TestPair12:
    def test_orbit_is_the_klein_rectangle(self):
        expected = {(0, 0, 0, 0), (4, 0, 0, 0), (0, 0, 0, 4), (4, 0, 0, 4)}
        assert set(finite_orbit(PAIR_12)) == expected


class TestPair13:
    def test_longest_element(self):
        assert longest_element(PAIR_13) == (8, 8, 4, 8)

    def test_longest_element_matches_embedded_braid_word(self):
        # Embedding the pair back into three components with the idle
        # component zero reproduces the full-system braid element, whose
        # unit-weight value is (16, 0, 12).
        braid = apply_word(ZERO, [1, 3, 1, 3])
        top = longest_element(PAIR_13)
        unit = eval_at(MassVector(top), (1, 1))
        full = eval_at(braid, Weights.numeric(1, 1, 1))
        assert (unit[0], F(0), unit[1]) == full == (16, 0, 12)

    def test_pair_23_mirrors_pair_13(self):
        assert finite_orbit(PAIR_23) == finite_orbit(PAIR_13)


class TestQuadric:
    @pytest.mark.parametrize("name", sorted(SUBSYSTEMS))
    def test_orbit_elements_lie_on_the_restricted_quadric(self, name):
        sub = SUBSYSTEMS[name]
        for coeff in finite_orbit(sub):
            assert not any(quadric_form(MassVector(coeff), sub))


class TestAppendixOrbit:
    def test_contains_single_reflection_images(self):
        orbit = set(finite_orbit(APPENDIX_UV))
        assert (4, 0, 0, 0) in orbit
        assert (4, 0, 8, 4) in orbit

    def test_longest_element(self):
        # Part (a) reads it as the orbit's last element.
        assert longest_element(APPENDIX_UV) == finite_orbit(APPENDIX_UV)[-1] == (8, 4, 8, 8)


class TestAppendixTable:
    def test_part_a_zero_strengths(self):
        assert appendix_table("a", 0, 0) == (12, 16)

    def test_part_a_general(self):
        assert appendix_table("a", F(1, 2), F(1, 3)) == (
            8 * F(1, 2) + 4 * F(1, 3) + 12, 8 * F(1, 2) + 8 * F(1, 3) + 16)

    def test_part_c_collapses_at_zero(self):
        assert appendix_table("c", 0, 0) == {(0, 0)}

    def test_part_c_equals_substituted_orbit(self):
        for a1, a2 in [(F(1, 2), F(1, 3)), (2, 5), (F(-1, 2), F(7, 4)), (1, 0)]:
            orbit_values = {eval_at(MassVector(c), (a1, a2)) for c in finite_orbit(APPENDIX_UV)}
            assert orbit_values == appendix_table("c", a1, a2)

    def test_part_a_is_longest_element_at_shifted_weights(self):
        for a1, a2 in [(0, 0), (F(1, 2), F(2, 3)), (3, 1)]:
            top = eval_at(MassVector(longest_element(APPENDIX_UV)), (1 + F(a1), 1 + F(a2)))
            assert top == appendix_table("a", a1, a2)

    def test_part_b_certificate(self):
        cert = appendix_table("b", 2, 3)
        assert cert.ok and cert.all_nonnegative and cert.all_multiples_of_four
        assert (0, 0) in cert.tuples
        assert (8 * 2 + 4 * 3, 8 * 2 + 8 * 3) in cert.tuples

    def test_part_b_requires_naturals(self):
        with pytest.raises(ValueError, match="natural"):
            appendix_table("b", F(1, 2), 0)
        with pytest.raises(ValueError, match="natural"):
            appendix_table("b", -1 + F(1, 2), 1)

    def test_strength_domain(self):
        with pytest.raises(ValueError, match="exceed -1"):
            appendix_table("a", -1, 0)
        with pytest.raises(ValueError, match="exceed -1"):
            appendix_table("c", 0, F(-3, 2))

    def test_unknown_part(self):
        with pytest.raises(ValueError, match="unknown part"):
            appendix_table("d", 0, 0)
