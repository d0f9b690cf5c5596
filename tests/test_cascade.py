"""Cascade simulator: moves, the gain bound, decomposition, scenario replay."""

import io
import random
import subprocess
import sys
import tokenize
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b2weyl import cascade, closedform, orbit, sinh
from b2weyl.algebra import (B2, MassVector, Weights, ZERO, _rows, _word_map, apply_word, eval_at,
                            scaled_values)
from b2weyl.cascade import (
    _COLLAPSE_WORDS,
    _COLLAPSES,
    _collapse_kernel,
    _kernel_source,
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
from b2weyl.orbit import _step_source, descend_to_origin, enumerate_orbit, is_member_gamma_N
from b2weyl.sinh import SINH
from b2weyl.weyl2 import SUBSYSTEMS
from cli_contract import child_env
from conftest import mv, reference_replay, total
from test_orbit import A2_AFFINE, A3_AFFINE, G2_AFFINE

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

    def test_merge_shift_and_text_follow_their_definition(self):
        # Masses of lengths 0 to 4, every length-3 mass with entries -9..9,
        # and 31-digit entries: the shift is mass/4 exactly on 4N x 4N x 4N,
        # and the text spells each entry as str does.
        masses = [(), (4,), (8, -4), (4, 0, 8, 12), (-4, -8, 4, 0)]
        masses += [(a, b, c) for a in range(-9, 10) for b in range(-9, 10) for c in range(-9, 10)]
        masses += [(4 * 10**30, 8, 0), (-(4 * 10**30), 8, 0), (4 * 10**30 + 2, 0, 0)]
        for mass in masses:
            move = SatelliteMerge(mass)
            valid = len(mass) == 3 and all(v >= 0 and v % 4 == 0 for v in mass)
            assert move.shift == (tuple(v // 4 for v in mass) if valid else None), mass
            assert move.text == "merge " + " ".join(map(str, mass)), mass

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
        assert total(state) == (4, 4, 0)

    def test_braid_collapse_from_origin(self):
        state = step(CascadeState(), Collapse((1, 3), "i3i3"))
        assert state.gamma == mv([[8, 0, 8], [0, 0, 0], [4, 0, 8]])
        assert total(state) == (16, 0, 12)

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
        assert total(state) == (0, 2, 0)


class TestRowMaps:
    """Each collapse's kernel against its word run letter by letter.

    The kernels act on any coefficient matrix, so the oracle runs on the
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

    @staticmethod
    def run_kernel(row_map, gamma, probe):
        """The kernel of ``row_map`` on ``gamma``, with its rows back as a matrix."""
        values, m = scaled_values(gamma, probe)[0], probe.scaled[0]
        rows, moved, gain = _collapse_kernel(row_map)(sum(gamma.coeff, ()), values, *m)
        assert gain == sum(moved) - sum(values)
        return _rows(rows), moved

    def test_every_admissible_collapse_matches_its_word(self):
        moves = [Collapse(subset, variant) for subset, variant in _COLLAPSE_WORDS]
        assert len(moves) == 20
        for gamma in self.matrices():
            for probe in self.PROBES:
                for move in moves:
                    want = apply_word(gamma, move.word())
                    rows, got = self.run_kernel(move.row_map, gamma, probe)
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
        want = apply_word(gamma, word)
        assert (self.run_kernel(_word_map(word), gamma, probe)
                == (want.coeff, scaled_values(want, probe)[0]))

    def test_equal_maps_share_one_kernel(self):
        # The twenty collapses have fifteen distinct maps: both identity
        # variants, each "i" variant and its singleton, and both "3"
        # variants and collapse 3 act alike.
        kernels = {key: _collapse_kernel(move.row_map) for key, move in _COLLAPSES.items()}
        assert len(set(map(id, kernels.values()))) == len({m.row_map for m in _COLLAPSES.values()})
        assert len(set(map(id, kernels.values()))) == 15
        assert kernels[(1, 3), "e"] is kernels[(2, 3), "e"]
        assert kernels[(1, 3), "i"] is kernels[(1,), None]
        assert kernels[(1, 3), "3"] is kernels[(2, 3), "3"] is kernels[(3,), None]
        assert kernels[(1,), None] is not kernels[(2,), None]
        # Maps built apart share too: 1 and 2 commute, and the braid holds.
        assert _collapse_kernel(_word_map((2, 1))) is kernels[(1, 2), None]
        assert _collapse_kernel(_word_map((1, 3, 1, 3))) is kernels[(1, 3), "i3i3"]
        assert _collapse_kernel(_word_map((1, 3, 1))) is not kernels[(1, 3), "i3i3"]

    def test_kernel_source_holds_only_integers(self):
        # Every generated source: the collapse kernels, the walk step of
        # every system the tests hold, the eight family kernels and the four
        # chain kernels of sinh's folded tables.  Each holds integer
        # literals and a fixed set of names, and no string.
        collapse = {"def", "return", "kernel", "coeff", "values", "m1", "m2", "m3",
                    *(f"{prefix}{k}" for prefix in "gn" for k in range(9)),
                    *(f"{prefix}{k}" for prefix in "vw" for k in range(3))}
        for move in _COLLAPSES.values():
            source = _kernel_source(move.row_map)
            assert move.text not in source
            _assert_only_integers(source, collapse, move)
        for system in (B2, SINH, *SUBSYSTEMS.values(), A2_AFFINE, G2_AFFINE, A3_AFFINE):
            rank = range(system.rank)
            step = {"def", "kernel", "entries", "steps", "bound", "name", "following", "pruned",
                    "append", "for", "in", "coeff", "word", "sums", "if", "and", "or", "not",
                    "is", "None", "False", "True", "else", "elif", "raise", "_tie", "return",
                    *(f"{prefix}{k}" for prefix in ("step", "s", "d", "r") for k in rank),
                    *(f"g{j}_{k}" for j in rank for k in rank)}
            source = _step_source(system.row_maps, system.doubled)
            assert system.name not in source
            _assert_only_integers(source, step, system.name)
        family = {"def", "kernel", "m1", "m2", "sq1", "sq2", "bits", "if", "or", "_reject",
                  "return", *(f"{prefix}{k}" for prefix in "pe" for k in range(9))}
        for ell, table in closedform._F.items():
            _assert_only_integers(closedform._kernel_source(ell, table), family, ell)
        for r, table in enumerate(sinh._CHAIN):
            _assert_only_integers(closedform._kernel_source(r, table), family, ("chain", r))

    def test_importing_the_cli_compiles_no_collapse_kernel(self):
        # Kernels are compiled on first use, so set-up pays for none, nor
        # for a walk step or a family kernel.  A sinh request then compiles
        # the four chain kernels, one per folded table (asking for them
        # again compiles none), and a replay one per distinct map
        # (collapse 13 i is collapse 1's).  All three getters keep their
        # kernels in one functools.cache each.
        script = ("import contextlib, io\n"
                  "import b2weyl.cli\n"
                  "from b2weyl import cascade, closedform, orbit, sinh\n"
                  "getters = (orbit._expander, closedform._kernel, cascade._collapse_kernel)\n"
                  "print(*(getter.cache_info().currsize for getter in getters))\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    b2weyl.cli.main(['sinh', '--max-level', '2'])\n"
                  "print(*(getter.cache_info().currsize for getter in getters))\n"
                  "for r, table in enumerate(sinh._CHAIN):\n"
                  "    closedform._kernel(r, table)\n"
                  "print(*(getter.cache_info().currsize for getter in getters))\n"
                  "cascade.replay(cascade.parse_scenario('collapse 1\\ncollapse 3\\n'"
                  "'collapse 13 i\\ncollapse 13 e\\n'))\n"
                  "print(*(getter.cache_info().currsize for getter in getters))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=child_env(), check=False)
        assert (proc.returncode, proc.stdout) == (0, "0 0 0\n0 4 0\n0 4 0\n0 4 3\n"), proc.stderr

    def test_every_kernel_sees_only_the_names_its_writer_passes(self):
        # algebra._compile gives each kernel a fixed namespace: the names
        # its writer passes, __builtins__ and the kernel itself, nothing
        # of the module that wrote it.
        def assert_globals(kernel, *names):
            assert kernel.__name__ == "kernel"
            assert set(kernel.__globals__) == {"__builtins__", "kernel", *names}

        for system in (B2, SINH, *SUBSYSTEMS.values(), A2_AFFINE, G2_AFFINE, A3_AFFINE):
            assert_globals(orbit._expander(system.row_maps, system.doubled), "_tie")
        for ell in closedform._F:
            assert_globals(closedform._family_kernel(ell), "_reject")
        for r, table in enumerate(sinh._CHAIN):
            assert_globals(closedform._kernel(r, table), "_reject")
        assert len(_COLLAPSES) == 20
        for move in _COLLAPSES.values():
            assert_globals(_collapse_kernel(move.row_map))


def _assert_only_integers(source, names, case):
    """``source`` tokenizes into no string, only digit literals and only ``names``."""
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        assert token.type != tokenize.STRING, (case, token)
        if token.type == tokenize.NUMBER:
            assert token.string.isdigit(), (case, token)
        if token.type == tokenize.NAME:
            assert token.string in names, (case, token)


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
                before = sum(total(state))
                try:
                    nxt = step(state, move)
                except NonPhysicalMove:
                    continue
                accepted += 1
                # decomposition invariant: total = gamma + 4n at the probe
                gamma_vals = eval_at(nxt.gamma, nxt.probe)
                assert total(nxt) == tuple(
                    g + 4 * n for g, n in zip(gamma_vals, nxt.lattice))
                # orbit part stays a certified member
                assert is_member_gamma_N(nxt.gamma).member
                # accepted collapses that move the orbit part gain >= 4
                if isinstance(move, Collapse) and nxt.gamma != state.gamma:
                    assert sum(total(nxt)) - before >= 4
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
        assert after[1][0] == (4, 0, 8, 0, 0, 0, 0, 0, 4)
        assert after[2][1] == (1, 0, 2)
        totals = [sum(total(CascadeState(mv(_rows(coeff)), lattice)))
                  for coeff, lattice, _ in after]
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

    def test_collapse_lines_are_looked_up_before_they_are_parsed(self, monkeypatch):
        # A line spelled as a shared move's text never reaches the parser;
        # any other spelling of it does, and parses to the same shared move.
        lines = [move.text for move in _COLLAPSES.values()]
        others = ["collapse 31 i", " collapse 1", "collapse  12", "collapse 23\t3i3 # c"]
        want = [_COLLAPSES[(1, 3), "i"], _COLLAPSES[(1,), None], _COLLAPSES[(1, 2), None],
                _COLLAPSES[(2, 3), "3i3"]]
        parsed, parse_move = [], cascade._parse_move
        monkeypatch.setattr(cascade, "_parse_move",
                            lambda tokens: parsed.append(tokens) or parse_move(tokens))
        moves = parse_scenario("\n".join(lines + others))
        assert len(moves) == 24
        assert all(a is b for a, b in zip(moves, list(_COLLAPSES.values()) + want))
        assert parsed == [line.split("#")[0].split() for line in others]

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
                assert nxt == CascadeState(mv(_rows(coeff)), new_lattice, probe)
                assert nxt.values == values
        assert outcomes == {True, False}
