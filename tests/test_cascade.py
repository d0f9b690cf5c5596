"""Cascade simulator: moves, the gain bound, decomposition, scenario replay."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b2weyl.algebra import (MassVector, Weights, ZERO, _word_map, apply_word, eval_at,
                            scaled_values)
from b2weyl.cascade import (
    _COLLAPSE_WORDS,
    _apply_row_map,
    COLLAPSE_VARIANTS,
    CascadeState,
    Collapse,
    InvalidSatellite,
    NonPhysicalMove,
    SatelliteMerge,
    parse_scenario,
    replay,
    step,
)
from b2weyl.orbit import descend_to_origin, enumerate_orbit, is_member_gamma_N
from conftest import mv, reference_replay

F = Fraction


class TestMoves:
    def test_collapse_subset_validation(self):
        with pytest.raises(ValueError):
            Collapse(())
        with pytest.raises(ValueError):
            Collapse((1, 2, 3))
        with pytest.raises(ValueError):
            Collapse((4,))

    def test_pair_with_third_needs_variant(self):
        with pytest.raises(ValueError, match="variant"):
            Collapse((1, 3))
        with pytest.raises(ValueError, match="variant"):
            Collapse((2, 3), "bogus")

    def test_singletons_take_no_variant(self):
        with pytest.raises(ValueError, match="variant"):
            Collapse((1,), "i3")

    def test_variant_words(self):
        assert Collapse((1, 3), "e").word() == ()
        assert Collapse((1, 3), "i3").word() == (3, 1)
        assert Collapse((2, 3), "3i").word() == (2, 3)
        assert Collapse((1, 3), "i3i3").word() == (3, 1, 3, 1)
        assert Collapse((1, 2)).word() == (1, 2)
        assert Collapse((3,)).word() == (3,)


class TestStep:
    def test_single_collapse_from_origin(self):
        state = step(CascadeState(), Collapse((1,)))
        assert state.gamma == mv([[4, 0, 0], [0, 0, 0], [0, 0, 0]])
        assert state.lattice == (0, 0, 0)

    def test_satellite_merge_is_pure_lattice_shift(self):
        state = step(CascadeState(), SatelliteMerge((4, 4, 0)))
        assert state.gamma == ZERO
        assert state.lattice == (1, 1, 0)
        assert state.total() == (4, 4, 0)

    def test_braid_collapse_from_origin(self):
        state = step(CascadeState(), Collapse((1, 3), "i3i3"))
        assert state.gamma == mv([[8, 0, 8], [0, 0, 0], [4, 0, 8]])
        assert state.total() == (16, 0, 12)

    def test_identity_variant_is_a_legal_noop(self):
        state = step(CascadeState(), Collapse((1, 3), "e"))
        assert state.gamma == ZERO

    def test_invalid_satellite_rejected(self):
        with pytest.raises(InvalidSatellite):
            step(CascadeState(), SatelliteMerge((4, 2, 0)))
        with pytest.raises(InvalidSatellite):
            step(CascadeState(), SatelliteMerge((-4, 0, 0)))

    def test_reversing_collapse_is_non_physical(self):
        state = step(CascadeState(), Collapse((1,)))
        with pytest.raises(NonPhysicalMove, match="non-physical"):
            step(state, Collapse((1,)))

    def test_zero_gain_swap_is_non_physical(self):
        # From (4mu1, 0, 0) the pair collapse {1,2} lands on (0, 4mu2, 0):
        # the orbit part changes but the total mass stalls, below the
        # physical lower bound.
        state = step(CascadeState(), Collapse((1,)))
        with pytest.raises(NonPhysicalMove):
            step(state, Collapse((1, 2)))

    def test_gain_bound_at_probe(self):
        state = CascadeState(probe=Weights.numeric(F(3, 2), F(1, 2), 1))
        state = step(state, Collapse((2,)))
        # gain was 4*mu2 = 2 at the probe, exactly the minimal bound
        assert state.total() == (0, 2, 0)


class TestRowMaps:
    """Each collapse's precomposed row map against its word run letter by letter.

    The maps act on any coefficient matrix, so the oracle runs on the
    depth-6 walk and on random matrices with entries in 4N alike, under
    the unit probe and two rational ones.
    """

    PROBES = [Weights.numeric(1, 1, 1), Weights.numeric("1/3", "5/2", "7/4"),
              Weights.numeric(7, "1/9", "2/3")]

    @staticmethod
    def matrices():
        rng = random.Random(16)
        yield from (el.sigma for el in enumerate_orbit(6))
        for _ in range(60):
            yield mv([[4 * rng.randint(0, 12) for _ in range(3)] for _ in range(3)])

    def test_every_admissible_collapse_matches_its_word(self):
        moves = [Collapse(subset, variant) for subset, variant in _COLLAPSE_WORDS]
        assert len(moves) == 20
        for gamma in self.matrices():
            for probe in self.PROBES:
                values, m = scaled_values(gamma, probe)[0], probe.scaled[0]
                for move in moves:
                    want = apply_word(gamma, move.word())
                    rows, got = _apply_row_map(move.row_map, gamma.coeff, values, m)
                    assert rows == want.coeff, move
                    assert got == scaled_values(want, probe)[0], move

    @given(st.lists(st.sampled_from((1, 2, 3)), max_size=10).map(tuple),
           st.lists(st.integers(-100, 100), min_size=9, max_size=9),
           st.lists(st.fractions(F(1, 12), 60, max_denominator=12), min_size=3, max_size=3))
    @settings(deadline=None, max_examples=300)
    def test_any_words_map_matches_the_word(self, word, flat, mu):
        # Beyond the twenty collapse words: any word, any integer matrix,
        # any positive rational probe.
        gamma = MassVector((tuple(flat[0:3]), tuple(flat[3:6]), tuple(flat[6:9])))
        probe = Weights(tuple(mu))
        values, m = scaled_values(gamma, probe)[0], probe.scaled[0]
        want = apply_word(gamma, word)
        assert (_apply_row_map(_word_map(word), gamma.coeff, values, m)
                == (want.coeff, scaled_values(want, probe)[0]))


class TestDecompose:
    """A state's orbit part and lattice are its fields; descent certifies the former."""

    def test_origin_state(self):
        state = CascadeState()
        assert state.gamma == ZERO
        assert state.lattice == (0, 0, 0)
        assert descend_to_origin(state.gamma) == []

    def test_collapse_then_merge(self):
        state = step(CascadeState(), Collapse((1,)))
        state = step(state, SatelliteMerge((0, 0, 8)))
        assert state.gamma == mv([[4, 0, 0], [0, 0, 0], [0, 0, 0]])
        assert state.lattice == (0, 0, 2)
        assert apply_word(state.gamma, descend_to_origin(state.gamma)) == ZERO

    def test_two_collapses(self):
        state = step(CascadeState(), Collapse((3,)))
        state = step(state, Collapse((1,)))
        assert state.gamma == mv([[4, 0, 8], [0, 0, 0], [0, 0, 4]])
        assert state.lattice == (0, 0, 0)

    def test_non_member_orbit_part_is_rejected(self):
        # Only the closed-form inversion inside descend_to_origin guards the orbit part.
        state = CascadeState(mv([[4, 0, 0], [0, 0, 0], [0, 0, 4]]), (1, 0, 0))
        with pytest.raises(ValueError, match="residue pair \\(0, 3\\) is outside the eight"):
            descend_to_origin(state.gamma)


def random_move(rng: random.Random):
    if rng.random() < 0.4:
        return SatelliteMerge(tuple(4 * rng.randint(0, 3) for _ in range(3)))
    subset = rng.choice([(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)])
    if len(subset) == 2 and 3 in subset:
        return Collapse(subset, rng.choice(sorted(COLLAPSE_VARIANTS)))
    return Collapse(subset)


class TestRandomSequences:
    def test_invariants_hold_along_legal_sequences(self):
        rng = random.Random(99)
        for _ in range(40):
            state = CascadeState()
            accepted = 0
            attempts = 0
            while accepted < 8 and attempts < 200:
                attempts += 1
                move = random_move(rng)
                before = sum(state.total())
                try:
                    nxt = step(state, move)
                except NonPhysicalMove:
                    continue
                accepted += 1
                # decomposition invariant: total = gamma + 4n at the probe
                gamma_vals = eval_at(nxt.gamma, nxt.probe)
                assert nxt.total() == tuple(
                    g + 4 * n for g, n in zip(gamma_vals, nxt.lattice))
                # orbit part stays a certified member
                assert is_member_gamma_N(nxt.gamma).member
                # accepted collapses that move the orbit part gain >= 4
                if isinstance(move, Collapse) and nxt.gamma != state.gamma:
                    assert sum(nxt.total()) - before >= 4
                state = nxt


class TestScenario:
    def test_parse_and_replay(self):
        text = """
        # grow then absorb
        collapse 3
        collapse 1
        merge 4 0 8
        collapse 13 i3
        """
        moves = parse_scenario(text)
        assert [m.text for m in moves] == [
            "collapse 3", "collapse 1", "merge 4 0 8", "collapse 13 i3"]
        after = replay(moves)
        assert len(after) == 4
        assert after[1][0] == ((4, 0, 8), (0, 0, 0), (0, 0, 4))
        assert after[2][1] == (1, 0, 2)
        totals = [sum(CascadeState(mv(coeff), lattice).total()) for coeff, lattice, _ in after]
        assert totals == sorted(totals)

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_scenario("merge 4 4")
        with pytest.raises(ValueError, match="unknown move"):
            parse_scenario("explode 1 2 3")
        with pytest.raises(ValueError, match="variant"):
            parse_scenario("collapse 13")

    def test_repeated_lines_yield_equal_moves(self):
        moves = parse_scenario("collapse 13 i3\n"
                               "  collapse 13 i3   # again\n"
                               "collapse\t13   i3\n"
                               "merge 4 0 8\n"
                               "collapse 13 i3#\n"
                               "merge 4  0 8 # shift\n")
        assert moves == [Collapse((1, 3), "i3")] * 3 + [SatelliteMerge((4, 0, 8)),
                                                        Collapse((1, 3), "i3"),
                                                        SatelliteMerge((4, 0, 8))]
        assert [m.text for m in moves] == ["collapse 13 i3"] * 3 + [
            "merge 4 0 8", "collapse 13 i3", "merge 4 0 8"]

    def test_every_collapse_line_parses_to_one_shared_move(self):
        """Each admissible collapse, its subset digits in either order, parses
        to a move equal to its own Collapse, and to the same object in every
        scenario: the twenty moves are built once."""
        seen = {}
        for subset, variant in _COLLAPSE_WORDS:
            for digits in {"".join(map(str, subset)), "".join(map(str, subset[::-1]))}:
                line = f"collapse {digits}" + ("" if variant is None else f" {variant}")
                (move,) = parse_scenario(line)
                assert move == Collapse(subset, variant)
                assert parse_scenario(f"merge 4 0 0\n{line}\ncollapse 1\n")[1] is move
                assert seen.setdefault((subset, variant), move) is move
        assert len(seen) == 20

    def test_a_repeated_bad_merge_fails_at_its_first_step(self):
        moves = parse_scenario("collapse 1\nmerge 4 2 0\nmerge 4 2 0\n")
        assert moves[1] is moves[2]
        state = step(CascadeState(), moves[0])
        message = "invalid satellite (4, 2, 0): entries must be nonnegative multiples of 4"
        for move in moves[1:]:
            with pytest.raises(InvalidSatellite) as raised:
                step(state, move)
            assert str(raised.value) == message
        with pytest.raises(InvalidSatellite, match="invalid satellite"):
            replay(moves)

    def test_a_bad_line_after_valid_ones_reports_its_own_number(self):
        text = "collapse 1\nmerge 4 0 0\ncollapse 1\n# note\n\ncollapse 13\n"
        with pytest.raises(ValueError, match="^scenario line 6: .*variant"):
            parse_scenario(text)

    def test_a_repeated_bad_line_reports_its_first_occurrence(self):
        with pytest.raises(ValueError, match="^scenario line 2: merge takes"):
            parse_scenario("collapse 1\nmerge 4 4\ncollapse 2\nmerge 4 4\n")

    def test_of_two_different_bad_lines_the_earlier_names_its_number(self):
        with pytest.raises(ValueError, match="^scenario line 2: unknown move"):
            parse_scenario("collapse 1\nexplode 1\ncollapse 2\nmerge 4 4\n")
        with pytest.raises(ValueError, match="^scenario line 2: merge takes"):
            parse_scenario("collapse 1\nmerge 4 4\ncollapse 2\nexplode 1\n")

    def test_blank_and_comment_lines_count_in_the_numbering(self):
        text = "\n# header\n   \ncollapse 1  # first\n#\n\ncollapse 12 e\nexplode\n"
        with pytest.raises(ValueError, match="^scenario line 7: .*does not take a variant"):
            parse_scenario(text)
        with pytest.raises(ValueError, match="^scenario line 5: unknown move"):
            parse_scenario("# a\n\n#b\n\t\nexplode 1\n\n# c\nmerge 4 4\n")

    def test_crlf_text_parses_as_its_lf_text(self):
        lf = "# grow\ncollapse 3\n\ncollapse 13 i3  # pair\nmerge 4 0 8\ncollapse 3\n"
        crlf = lf.replace("\n", "\r\n")
        assert parse_scenario(crlf) == parse_scenario(lf) == [
            Collapse((3,)), Collapse((1, 3), "i3"), SatelliteMerge((4, 0, 8)), Collapse((3,))]
        with pytest.raises(ValueError, match="^scenario line 3: merge takes"):
            parse_scenario("collapse 1\r\n\r\nmerge 4 4\r\n")

    def test_replay_rejects_non_physical_scenario(self):
        moves = parse_scenario("collapse 1\ncollapse 1")
        with pytest.raises(NonPhysicalMove):
            replay(moves)


class TestReplayOracle:
    """``replay`` and ``step``, tuple by tuple, against ``reference_replay``.

    The scenarios mix merges, no-op moves (``collapse 13 e``, ``merge 0 0
    0``) and collapses, at three non-unit probes; a third of them end in a
    rejected move, a non-physical collapse or an invalid merge.
    """

    PROBES = ["1/3,5/2,7/4", "7,1/9,2/3", "2,3,5"]
    NO_OPS = [Collapse((1, 3), "e"), SatelliteMerge((0, 0, 0))]

    def scenario(self, rng, probe, length):
        """``length`` legal moves by the reference, then maybe one it rejects."""
        moves = []
        while len(moves) < length:
            move = rng.choice(self.NO_OPS) if rng.random() < 0.2 else random_move(rng)
            if reference_replay(moves + [move], probe)[1] is None:
                moves.append(move)
        if rng.random() < 1 / 3:
            losing = [move for move in (Collapse(subset, variant)
                                        for subset, variant in _COLLAPSE_WORDS)
                      if reference_replay(moves + [move], probe)[1] is not None]
            moves.append(rng.choice(losing + [SatelliteMerge((4, 2, 0))]))
        return moves

    @pytest.mark.parametrize("mu", PROBES)
    def test_replay_matches_the_reference(self, mu):
        rng, probe = random.Random(34), Weights.numeric(*mu.split(","))
        rejected = no_ops = 0
        for _ in range(60):
            moves = self.scenario(rng, probe, rng.randint(1, 25))
            want, error = reference_replay(moves, probe)
            no_ops += sum(move in self.NO_OPS for move in moves)
            if error is None:
                assert replay(moves, probe) == want
                continue
            rejected += 1
            assert len(want) == len(moves) - 1
            assert replay(moves[:-1], probe) == want
            with pytest.raises((NonPhysicalMove, InvalidSatellite)) as raised:
                replay(moves, probe)
            assert str(raised.value) == error
        assert rejected and no_ops

    @pytest.mark.parametrize("mu", PROBES)
    def test_step_from_a_hand_built_state(self, mu):
        probe, lattice = Weights.numeric(*mu.split(",")), (1, 0, 2)
        moves = ([Collapse(subset, variant) for subset, variant in _COLLAPSE_WORDS]
                 + [SatelliteMerge((0, 0, 0)), SatelliteMerge((4, 8, 0)),
                    SatelliteMerge((4, 2, 0))])
        outcomes = set()
        for el in enumerate_orbit(3):
            state = CascadeState(el.sigma, lattice, probe)
            for move in moves:
                want, error = reference_replay([move], probe, el.sigma, lattice)
                outcomes.add(error is None)
                if error is not None:
                    with pytest.raises((NonPhysicalMove, InvalidSatellite)) as raised:
                        step(state, move)
                    assert str(raised.value) == error
                    continue
                (coeff, new_lattice, values), = want
                nxt = step(state, move)
                assert nxt == CascadeState(mv(coeff), new_lattice, probe)
                assert nxt.values == values
        assert outcomes == {True, False}
