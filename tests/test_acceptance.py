"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every expected value is exact; stated runtime budgets are asserted.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from b2weyl import cli
from b2weyl.algebra import (
    MassVector,
    Weights,
    ZERO,
    apply_word,
    eval_at,
    quadric_form,
    reflect,
)
from b2weyl.cascade import (
    COLLAPSE_VARIANTS,
    CascadeState,
    Collapse,
    NonPhysicalMove,
    SatelliteMerge,
    step,
)
from b2weyl.closedform import (
    ADMISSIBLE_TYPES,
    ClosedFormId,
    FAMILY_BY_TYPE,
    admissible_parameters,
    closed_form_eval,
    invert_to_closed_form,
    special_case_table,
    transition,
    type_of,
)
from b2weyl.orbit import check_relations, descend_to_origin, enumerate_orbit, is_member_gamma_N
from b2weyl.sinh import SINH, sinh_closed_form, sinh_orbit
from b2weyl.weyl2 import APPENDIX_UV, appendix_table, finite_orbit, longest_element
from cli_contract import child_env
from conftest import APPENDIX_C_COEFFS, descend_reference, mv

F = Fraction


def passline(n, elapsed, text):
    print(f"ACCEPTANCE {n}: PASS ({elapsed:.2f}s) {text}")


TREE = {
    mv([[4, 0, 0], [0, 0, 0], [0, 0, 0]]): 1,
    mv([[0, 0, 0], [0, 4, 0], [0, 0, 0]]): 1,
    mv([[0, 0, 0], [0, 0, 0], [0, 0, 4]]): 1,
    mv([[4, 0, 0], [0, 4, 0], [0, 0, 0]]): 2,
    mv([[4, 0, 0], [0, 0, 0], [4, 0, 4]]): 2,
    mv([[0, 0, 0], [0, 4, 0], [0, 4, 4]]): 2,
    mv([[4, 0, 8], [0, 0, 0], [0, 0, 4]]): 2,
    mv([[0, 0, 0], [0, 4, 8], [0, 0, 4]]): 2,
    mv([[4, 0, 0], [0, 4, 0], [4, 4, 4]]): 3,
}


def test_criterion_01_tree_reproduction(capsys):
    t0 = time.monotonic()
    code = cli.main(["orbit", "--max-level", "3"])
    out = capsys.readouterr().out
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    records = [r for r in records if "meta" not in r]
    found = {
        MassVector(tuple(tuple(v for v in row) for row in r["coeff"])): r["level"]
        for r in records
    }
    # no duplicate coefficient matrices survive (cancelled branches fold)
    assert len(found) == len(records)
    # the origin and the nine listed nonzero elements sit at the stated depths
    assert found[ZERO] == 0
    for sigma, level in TREE.items():
        assert found[sigma] == level, f"{sigma} at {found.get(sigma)}, wanted {level}"
    # through depth two the stream is exactly the tree: origin + 8 elements
    through_two = {s for s, lv in found.items() if lv <= 2}
    assert through_two == {ZERO} | {s for s, lv in TREE.items() if lv <= 2}
    assert len(through_two) == 9
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    with capsys.disabled():
        passline(1, elapsed, "depth-3 orbit reproduces the reflection tree exactly")


def test_criterion_02_type_table(capsys):
    t0 = time.monotonic()
    table = [
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
    for sigma, tag in table:
        assert type_of(sigma) == tag
    assert {tag for _, tag in table} == ADMISSIBLE_TYPES
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        passline(2, elapsed, "mod-4 types of the ten tree elements match verbatim")


def test_criterion_03_closed_form_anchors(capsys):
    t0 = time.monotonic()
    anchors = [
        (ZERO, ClosedFormId(1, 0, 0)),
        (mv([[4, 0, 0], [0, 0, 0], [0, 0, 0]]), ClosedFormId(3, 1, 0)),
        (mv([[0, 0, 0], [0, 4, 0], [0, 0, 0]]), ClosedFormId(2, 0, 1)),
        (mv([[0, 0, 0], [0, 0, 0], [0, 0, 4]]), ClosedFormId(8, -1, -1)),
        (mv([[4, 0, 0], [0, 4, 0], [0, 0, 0]]), ClosedFormId(4, 1, 1)),
        (mv([[4, 0, 0], [0, 0, 0], [4, 0, 4]]), ClosedFormId(7, -1, -2)),
        (mv([[0, 0, 0], [0, 4, 0], [0, 4, 4]]), ClosedFormId(6, -2, -1)),
        (mv([[4, 0, 8], [0, 0, 0], [0, 0, 4]]), ClosedFormId(6, 2, -1)),
        (mv([[0, 0, 0], [0, 4, 8], [0, 0, 4]]), ClosedFormId(7, -1, 2)),
        (mv([[4, 0, 0], [0, 4, 0], [4, 4, 4]]), ClosedFormId(5, -2, -2)),
    ]
    for sigma, cid in anchors:
        assert closed_form_eval(cid) == sigma
        assert invert_to_closed_form(sigma) == cid
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        passline(3, elapsed, "ten closed-form anchor assignments round-trip exactly")


def test_criterion_04_commuting_square(capsys):
    """reflect(closed_form_eval(id), gen) == closed_form_eval(transition(id, gen)).

    The box |m_i| <= 20 proves this for every admissible id.  Fix a family
    and a generator, and write m_j = 4*k_j + t_j with the residues t_j of
    the family's type.  The family entries are quadratic in (m1, m2) and a
    reflection is affine in the entries, so the left side is a polynomial
    of degree <= 2 in each k_j.  ``transition`` moves (m1, m2) affinely and
    lands in one family for the whole residue class, so the right side is
    one too.  The box holds at least 3 consecutive k_j for each residue
    class (10 or 11 of them), and a polynomial of degree <= 2 in each of
    two variables that vanishes on a 3 x 3 grid vanishes identically.
    With closed_form_eval((1, 0, 0)) the origin, this square carries every
    step of descend_to_origin back to the origin.
    """
    t0 = time.monotonic()
    assert closed_form_eval((1, 0, 0)) == ZERO
    cases = 0
    for ell in range(1, 9):
        for m1, m2 in admissible_parameters(ell, 20):
            sigma = closed_form_eval((ell, m1, m2))
            for gen in (1, 2, 3):
                assert reflect(sigma, gen) == closed_form_eval(
                    transition((ell, m1, m2), gen))
                cases += 1
    elapsed = time.monotonic() - t0
    residue_count = {t: sum(1 for m in range(-20, 21) if m % 4 == t) for t in range(4)}
    expected_pairs = sum(residue_count[t1] * residue_count[t2]
                         for t1, t2 in ADMISSIBLE_TYPES)
    assert cases == expected_pairs * 3
    assert elapsed < 5.0
    with capsys.disabled():
        passline(4, elapsed, f"commuting square holds in all {cases} cases")


def test_criterion_05_orbit_invariants_depth_eight(capsys):
    t0 = time.monotonic()
    store = enumerate_orbit(8, max_coefficient=4000)
    count = 0
    for el in store:
        assert not any(quadric_form(el.sigma))
        for row in el.sigma.coeff:
            for v in row:
                assert v >= 0 and v % 4 == 0
        word = descend_to_origin(el.sigma)
        assert apply_word(el.sigma, word) == ZERO
        count += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    with capsys.disabled():
        passline(5, elapsed, f"all {count} depth-8 orbit elements verify and descend")


def test_criterion_06_group_presentation(capsys):
    check_relations.cache_clear()  # time the decision, not a verdict kept from another test
    t0 = time.monotonic()
    assert check_relations() == ()
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    with capsys.disabled():
        passline(6, elapsed, "eight presentation relations hold exactly")


def test_criterion_06_relations_time_is_bounded_in_trials(capsys):
    t0 = time.monotonic()
    code = cli.main(["relations", "--trials", "1000000", "--seed", "1"])
    elapsed = time.monotonic() - t0
    assert code == 0
    assert capsys.readouterr().out == '{"trials":1000000,"seed":1,"failures":[],"passed":true}\n'
    assert elapsed < 1.0


def test_criterion_07_unit_weight_specialization(capsys):
    t0 = time.monotonic()
    unit = Weights.numeric(1, 1, 1)
    cases = 0
    for m1 in range(-20, 21):
        for m2 in range(-20, 21):
            tag = (m1 % 4, m2 % 4)
            if tag not in ADMISSIBLE_TYPES:
                continue
            sigma = closed_form_eval((FAMILY_BY_TYPE[tag], m1, m2))
            assert special_case_table(m1, m2) == eval_at(sigma, unit)
            cases += 1
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        passline(7, elapsed, f"unit-weight table agrees with closed forms in {cases} cases")


def test_criterion_08_sinh_reduction(capsys):
    t0 = time.monotonic()
    level = 100
    orbit = list(sinh_orbit(level))
    chain = {sinh_closed_form(m) for m in range(-level, level + 1)}
    assert set(orbit) == chain
    assert len(orbit) == 2 * level + 1
    for sigma in orbit:
        assert not any(quadric_form(sigma, SINH))
    for m in range(-level, level + 1):
        values = eval_at(sinh_closed_form(m), (1, 1))
        family = {(2 * m * (m + 1), 2 * m * (m - 1)),
                  (2 * m * (m - 1), 2 * m * (m + 1))}
        assert values in family
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    with capsys.disabled():
        passline(8, elapsed, "depth-100 rank-one orbit equals the integer chain exactly")


def test_criterion_09_appendix_tables(capsys):
    t0 = time.monotonic()
    orbit = finite_orbit(APPENDIX_UV)
    assert sorted(orbit) == sorted(APPENDIX_C_COEFFS)
    top = longest_element(APPENDIX_UV)
    rng = random.Random(90210)

    def strength():
        while True:
            a = F(rng.randint(-9, 60), rng.randint(1, 12))
            if a > -1:
                return a

    for _ in range(100):
        a1, a2 = strength(), strength()
        substituted = {eval_at(MassVector(c), (a1, a2)) for c in orbit}
        assert substituted == appendix_table("c", a1, a2)
        part_a = appendix_table("a", a1, a2)
        assert eval_at(MassVector(top), (1 + a1, 1 + a2)) == part_a
        assert part_a == (8 * a1 + 4 * a2 + 12, 8 * a1 + 8 * a2 + 16)
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        passline(9, elapsed, "rank-two orbit reproduces both quantization tables")


def _random_move(rng):
    if rng.random() < 0.35:
        return SatelliteMerge(tuple(4 * rng.randint(0, 3) for _ in range(3)))
    subset = rng.choice([(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)])
    if len(subset) == 2 and 3 in subset:
        return Collapse(subset, rng.choice(sorted(COLLAPSE_VARIANTS)))
    return Collapse(subset)


def test_criterion_10_cascade_soundness(capsys):
    t0 = time.monotonic()
    rng = random.Random(424242)
    probe = Weights.numeric(1, 1, 1)
    sequences = 0
    accepted_total = 0
    rejected_total = 0
    while sequences < 500:
        sequences += 1
        state = CascadeState(probe=probe)
        target = rng.randint(0, 12)
        accepted = 0
        attempts = 0
        while accepted < target and attempts < 120:
            attempts += 1
            move = _random_move(rng)
            # independent gain computation to judge the move before stepping
            if isinstance(move, Collapse):
                candidate = apply_word(state.gamma, move.word())
                gain = (sum(eval_at(candidate, probe), F(0))
                        - sum(eval_at(state.gamma, probe), F(0)))
                changes = candidate != state.gamma
            else:
                gain = F(sum(move.mass))
                changes = False
            if changes and gain <= 0:
                # energy-decreasing (or stalling) collapse: must be rejected
                try:
                    step(state, move)
                except NonPhysicalMove as exc:
                    assert "non-physical move" in str(exc)
                    rejected_total += 1
                    continue
                raise AssertionError(f"move {move.text} should be rejected")
            state = step(state, move)
            accepted += 1
            accepted_total += 1
            # membership of the orbit part
            assert is_member_gamma_N(state.gamma).member
            # decomposition: total equals gamma + 4n at the probe
            gamma_vals = eval_at(state.gamma, probe)
            assert state.total() == tuple(
                g + 4 * n for g, n in zip(gamma_vals, state.lattice))
            # gain bound for orbit-changing collapses
            if changes:
                assert gain >= 4
        # descent certificate once per finished sequence, the word the
        # reference picks at the probe
        word = descend_to_origin(state.gamma)
        assert word == descend_reference(state.gamma.coeff, probe.values)
        assert apply_word(state.gamma, word) == ZERO
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    assert rejected_total > 0  # the generator does exercise the rejection path
    with capsys.disabled():
        passline(10, elapsed, f"500 sequences sound ({accepted_total} moves accepted, "
                              f"{rejected_total} non-physical rejected)")


# The child runs the CLI on its argv, writing stdout to /dev/null, then
# prints its exit code and its own peak resident set (VmHWM, kB) on stderr.
_PEAK_RSS_CHILD = """\
import os, sys
from b2weyl import cli
sys.stdout = open(os.devnull, "w")
code = cli.main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as status:
    hwm = next(line for line in status if line.startswith("VmHWM:"))
print(code, hwm.split()[1], file=sys.stderr)
"""


def _peak_rss_mb(*argv):
    """Run ``b2weyl *argv`` in a child; assert it exits 0 and return its peak RSS in MB."""
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_CHILD, *argv], capture_output=True,
                          text=True, env=child_env(), check=False)
    code, hwm_kb = proc.stderr.split()
    assert (proc.returncode, code) == (0, "0")
    return int(hwm_kb) / 1024


def test_memory_bounded_on_a_deep_orbit(capsys):
    """The orbit streams with three levels held, so memory grows as L^2:
    depth 200 stays under 32 MB (the whole store once needed over 100 MB)."""
    t0 = time.monotonic()
    peak_mb = _peak_rss_mb("orbit", "--max-level", "200")
    assert peak_mb < 32.0
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        print(f"ACCEPTANCE memory: PASS ({elapsed:.2f}s) "
              f"depth-200 orbit streamed at {peak_mb:.1f} MB peak RSS")


def test_memory_bounded_on_a_long_sinh_chain(capsys):
    """The rank-one chain streams one element at a time: its 200,001 elements
    stay under 24 MB (the whole list once needed over 60 MB)."""
    t0 = time.monotonic()
    peak_mb = _peak_rss_mb("sinh", "--max-level", "100000")
    assert peak_mb < 24.0
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        print(f"ACCEPTANCE memory: PASS ({elapsed:.2f}s) "
              f"level-100000 sinh chain streamed at {peak_mb:.1f} MB peak RSS")


def test_memory_bounded_on_a_long_cascade(capsys, tmp_path):
    """The records of a 200,000-move scenario are written one at a time once
    the replay has passed, so the run stays under 110 MB (holding every
    record and their joined copy once peaked near 170 MB)."""
    scenario = tmp_path / "long.txt"
    scenario.write_text("".join(f"collapse {(1, 3, 2)[k % 3]}\nmerge {4 * (k % 7)} "
                                f"{4 * (k % 11)} {4 * (k % 13) + 4}\n" for k in range(100_000)))
    t0 = time.monotonic()
    peak_mb = _peak_rss_mb("cascade", str(scenario))
    assert peak_mb < 110.0
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        print(f"ACCEPTANCE memory: PASS ({elapsed:.2f}s) "
              f"200,000-move cascade streamed at {peak_mb:.1f} MB peak RSS")
