"""Command-line surface: records, exit codes, determinism."""

import argparse
import contextlib
import csv
import io
import json
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b2weyl import algebra, cli, closedform, orbit
from b2weyl.algebra import (B2, MassVector, Weights, ZERO, apply_word, eval_at, quadric_form,
                            ratio_texts, scaled_values)
from b2weyl.cascade import CascadeState, Collapse, NonPhysicalMove, SatelliteMerge, step
from b2weyl.cli import main
from b2weyl.closedform import (TYPE_BY_FAMILY, admissible_parameters, closed_form_eval,
                               invert_to_closed_form, parameters_from_sums, type_of)
from b2weyl.orbit import MembershipCertificate, OrbitWalk, enumerate_orbit, is_member_gamma_N
from b2weyl.sinh import sinh_closed_form, sinh_orbit
from b2weyl.weyl2 import SUBSYSTEMS, finite_orbit
from cli_contract import CONTRACT, SRC, child_env, fill, observe
from conftest import APPENDIX_C_COEFFS, mv, reference_replay
from test_cascade import random_move


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


class TestOrbitCommand:
    def test_level_one_record_stream(self, capsys):
        code, out = run(capsys, "orbit", "--max-level", "1")
        assert code == 0
        records = json_lines(out)
        meta = records.pop()["meta"]
        assert meta["count"] == 4
        assert [r["level"] for r in records] == [0, 1, 1, 1]
        assert records[0]["coeff"] == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
        assert records[0]["type"] == [0, 0]

    def test_level_zero_single_record(self, capsys):
        code, out = run(capsys, "orbit", "--max-level", "0")
        assert code == 0
        records = json_lines(out)
        assert len(records) == 2  # origin + metadata
        assert records[0]["word"] == []

    def test_numeric_mu_adds_values(self, capsys):
        code, out = run(capsys, "orbit", "--max-level", "1", "--mu", "1,1,1")
        records = json_lines(out)
        assert records[1]["sigma"] == ["0", "0", "4"]

    def test_csv_contains_evaluated_deep_element(self, capsys):
        code, out = run(capsys, "orbit", "--max-level", "3", "--mu", "1,1,1",
                        "--output", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("level,word,c11")
        assert any(line.endswith("4,4,12") for line in lines[1:])

    def test_output_is_reproducible(self, capsys):
        _, first = run(capsys, "orbit", "--max-level", "4", "--output", "csv")
        _, second = run(capsys, "orbit", "--max-level", "4", "--output", "csv")
        assert first == second

    def test_every_record_passes_check(self, capsys):
        _, out = run(capsys, "orbit", "--max-level", "3")
        records = json_lines(out)[:-1]
        for rec in records:
            literal = ";".join(",".join(str(v) for v in row) for row in rec["coeff"])
            code, _ = run(capsys, "check", literal)
            assert code == 0

    def test_bad_mu_is_usage_error(self, capsys):
        code, out = run(capsys, "orbit", "--max-level", "1", "--mu", "1,1")
        assert code == 2
        assert json_lines(out)[0]["error"] == "usage"


# Moves the constant of family 3's entry (3, 3) by 16 quarter units, so
# that entry grows by 4 and stays in 4N: the transcription guards pass and
# only the exact comparison of each CSV row with its family's rows can
# notice.  Family 3 first appears at level 1, at (1, 0).  The manner of the
# corruption follows test_closedform.CORRUPTED_TABLE_SCRIPT.
CORRUPTED_ORBIT_SCRIPT = """
import sys
from b2weyl import cli, closedform
print("optimize", sys.flags.optimize)
table = closedform._F[3]
row = table[2][:2] + (table[2][2][:4] + (table[2][2][4] + 16,),)
closedform._F[3] = table[:2] + (row,)
sys.exit(cli.main(["orbit", "--max-level", "3", "--output", "csv"]))
"""


def test_every_csv_row_is_verified_under_optimize_flag(capsys):
    proc = subprocess.run([sys.executable, "-O", "-c", CORRUPTED_ORBIT_SCRIPT],
                          capture_output=True, text=True, env=child_env(), check=False)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "optimize 1"
    assert json.loads(lines[-1]) == {"error": "verification",
                                     "detail": "vector is not representable by family 3 at (1,0)"}
    # The header and the rows before the failing one are the clean run's.
    code, clean = run(capsys, "orbit", "--max-level", "3", "--output", "csv")
    assert code == 0
    written = lines[1:-1]
    assert written == clean.splitlines()[:len(written)]
    assert len(written) == 4  # the header, the origin and two level-1 rows


class TestWordText:
    """``_word_text`` on bytes, list and tuple words, and the CSV's dotted form of it."""

    @pytest.mark.parametrize("word,comma,dot", [
        ((), "", ""),
        ((2,), "2", "2"),
        ((3, 1), "3,1", "3.1"),
        ((1, 2, 3) * 40 + (1,), ",".join("123" * 40 + "1"), ".".join("123" * 40 + "1")),
    ])
    @pytest.mark.parametrize("kind", [bytes, list, tuple])
    def test_digits_joined_by_the_separator(self, word, comma, dot, kind):
        assert cli._word_text(kind(word)) == comma
        assert cli._word_text(kind(word)).replace(",", ".") == dot

    def test_empty_and_single_generator_records(self, capsys):
        # The origin's word is empty: "[]" in JSON, an empty CSV field.
        _, out = run(capsys, "orbit", "--max-level", "1")
        words = [line.split('"word":')[1].split("]")[0] + "]" for line in out.splitlines()[:4]]
        assert words == ["[]", "[3]", "[2]", "[1]"]
        _, out = run(capsys, "orbit", "--max-level", "1", "--output", "csv")
        assert [row.split(",")[:3] for row in out.splitlines()[1:5]] == [
            ["0", "", "0"], ["1", "3", "0"], ["1", "2", "0"], ["1", "1", "4"]]


class TestOrbitFormatterOracle:
    """The orbit records, line by line, against the generic encoders.

    The reference is built from the checked engine pieces (``type_of``,
    ``invert_to_closed_form``, ``str`` of the ``Fraction`` values) and
    encoded by ``json.dumps`` and ``csv.writer``, so the fixed templates of
    ``cmd_orbit`` are held to what those encoders print for every element
    of the depth-40 orbit, with and without sigma columns.  ``closedform``
    writes the same JSON record with a ``closed_form`` tail, and is held to
    it on every admissible id with small parameters.
    """

    DEPTH = 40

    @staticmethod
    def reference_sigma(sigma, mu):
        if mu == "formal":
            return []
        return [str(v) for v in eval_at(sigma, Weights.numeric(*mu.split(",")))]

    @pytest.mark.parametrize("mu", ["formal", "3/2,1/3,5/4", "7,1/9,2/3"])
    def test_json_lines(self, capsys, mu):
        want = []
        for el in OrbitWalk(B2, self.DEPTH):
            rec = {"coeff": [list(row) for row in el.sigma.coeff], "level": el.level,
                   "word": list(el.word), "type": list(type_of(el.sigma))}
            if mu != "formal":
                rec["sigma"] = self.reference_sigma(el.sigma, mu)
            want.append(json.dumps(rec, separators=(",", ":")))
        code, out = run(capsys, "orbit", "--max-level", str(self.DEPTH), "--mu", mu)
        assert code == 0
        assert out.splitlines()[:-1] == want

    @pytest.mark.parametrize("mu", ["formal", "3/2,1/3,5/4", "7,1/9,2/3"])
    def test_csv_lines(self, capsys, mu):
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        sigma_columns = [] if mu == "formal" else ["sigma1", "sigma2", "sigma3"]
        writer.writerow(cli.CSV_COLUMNS + sigma_columns)
        for el in OrbitWalk(B2, self.DEPTH):
            cid = invert_to_closed_form(el.sigma)
            writer.writerow([el.level, ".".join(map(str, el.word)),
                             *(v for row in el.sigma.coeff for v in row),
                             *TYPE_BY_FAMILY[cid.ell], cid.ell, cid.m1, cid.m2,
                             *self.reference_sigma(el.sigma, mu)])
        code, out = run(capsys, "orbit", "--max-level", str(self.DEPTH), "--mu", mu,
                        "--output", "csv")
        assert code == 0
        assert out.splitlines()[:-1] == buffer.getvalue().splitlines()

    @pytest.mark.parametrize("mu", ["formal", "3/2,1/3,5/4"])
    def test_closedform_lines(self, capsys, mu):
        """Every admissible id with |m_i| <= 8 prints the orbit record plus its id.

        The expected level and word are the walk's, which reaches every such
        id by depth 12."""
        walk = {el.sigma: el for el in OrbitWalk(B2, 12)}
        for ell in TYPE_BY_FAMILY:
            for m1, m2 in admissible_parameters(ell, 8):
                sigma = closed_form_eval((ell, m1, m2))
                el = walk[sigma]
                rec = {"coeff": [list(row) for row in sigma.coeff], "level": el.level,
                       "word": list(el.word), "type": list(type_of(sigma))}
                if mu != "formal":
                    rec["sigma"] = self.reference_sigma(sigma, mu)
                rec["closed_form"] = [ell, m1, m2]
                code, out = run(capsys, "closedform", str(ell), str(m1), str(m2), "--mu", mu)
                assert code == 0
                assert out == json.dumps(rec, separators=(",", ":")) + "\n"


# Positive weights: integers, and fractions whose denominators vary from
# draw to draw (some of them reduce to integers).
POSITIVE_WEIGHTS = st.one_of(st.integers(1, 40).map(Fraction),
                             st.builds(Fraction, st.integers(1, 400), st.integers(1, 60)))


@given(depth=st.integers(0, 10),
       mu=st.tuples(POSITIVE_WEIGHTS, POSITIVE_WEIGHTS, POSITIVE_WEIGHTS))
@settings(deadline=None, max_examples=60)
def test_csv_sigma_columns_match_the_evaluator(depth, mu):
    # The CSV sigma columns are flat dot products with the scaled weights;
    # they must print what the generic evaluator gives for every row.
    weights = Weights(mu)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["orbit", "--max-level", str(depth), "--output", "csv",
                     "--mu", ",".join(map(str, mu))])
    assert code == 0
    rows = [line.split(",") for line in out.getvalue().splitlines()[1:-1]]
    assert len(rows) == len(list(OrbitWalk(B2, depth)))
    for fields in rows:
        coeff = tuple(tuple(int(v) for v in fields[k:k + 3]) for k in (2, 5, 8))
        assert fields[-3:] == ratio_texts(*scaled_values(MassVector(coeff), weights))


class TestCheckCommand:
    def test_malformed_matrix(self, capsys):
        code, out = run(capsys, "check", "4,0;0,0,0;0,0,0")
        assert code == 2

    def test_record_and_exit_code_are_the_certificates(self, capsys):
        # is_member_gamma_N reads the certificate off the closed-form
        # inversion and runs the quadric only on rejected vectors that are
        # not div4; on every element through depth 32 and each single-entry
        # perturbation by -4, -1, 1 or 4 it must equal the three flags as
        # defined, and check must print them with the matching exit code.
        # The perturbations give near-misses, negative entries and
        # non-multiples of four.
        seen = set()
        for el in OrbitWalk(B2, 32):
            flat = [v for row in el.sigma.coeff for v in row]
            for k, delta in [(0, 0)] + [(k, d) for k in range(9) for d in (-4, -1, 1, 4)]:
                entries = [v + delta * (j == k) for j, v in enumerate(flat)]
                rows = tuple(tuple(entries[r:r + 3]) for r in (0, 3, 6))
                sigma = MassVector(rows)
                nonneg = all(v >= 0 for v in entries)
                div4 = all(v % 4 == 0 for v in entries)
                quadric_zero = not any(quadric_form(sigma))
                member = nonneg and div4 and quadric_zero
                assert is_member_gamma_N(sigma) == MembershipCertificate(
                    nonneg, div4, quadric_zero), rows
                flags = {"member": member, "nonneg": nonneg, "div4": div4,
                         "quadric_zero": quadric_zero}
                text = ";".join(",".join(map(str, row)) for row in rows)
                want = json.dumps(flags, separators=(",", ":")) + "\n"
                argv = ("check", "--", text) if text[0] == "-" else ("check", text)
                assert run(capsys, *argv) == (0 if member else 1, want), text
                seen.add(tuple(flags.values()))
        # Members, near-misses, negative entries and non-multiples of four.
        assert seen >= {(True, True, True, True), (False, True, True, False),
                        (False, False, True, False), (False, True, False, False)}

    def test_a_div4_non_member_runs_no_quadric(self, capsys, monkeypatch):
        # The certificate proof decides a rejected div4 vector's quadric flag,
        # so quadric_form runs only on the vectors that are not div4.
        def refuse(*args):
            raise AssertionError("quadric_form ran")

        monkeypatch.setattr(algebra, "quadric_form", refuse)
        monkeypatch.setattr(orbit, "quadric_form", refuse)
        near_miss = next(row for row in CONTRACT if row[0] == "check-near-miss")
        assert run(capsys, *near_miss[1]) == tuple(near_miss[3:])
        assert is_member_gamma_N(cli._parse_matrix(near_miss[1][-1])) == MembershipCertificate(
            True, True, False)
        with pytest.raises(AssertionError, match="quadric_form ran"):
            main(["check", "2,0,0;0,0,0;0,0,0"])
        with pytest.raises(AssertionError, match="quadric_form ran"):
            is_member_gamma_N(mv([[2, 0, 0], [0, 0, 0], [0, 0, 0]]))


class TestReadRational:
    """``cli._read_rational`` reads a rational as ``Fraction(text.strip())`` does:
    the same ``(p, q)``, or the same ``bad rational`` usage detail."""

    @staticmethod
    def expected(text):
        try:
            value = Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            return f"bad rational {text!r}: {exc}"
        return value.numerator, value.denominator

    @staticmethod
    def read(text):
        try:
            return cli._read_rational(text)
        except cli.UsageError as exc:
            return str(exc)

    @pytest.mark.parametrize("text", [
        "3", "-3", "+3", "0", "-0", "+0", "007", "3/2", "-3/2", "+3/2", "2/4", "-6/4",
        "0/5", "-0/5", " 3/4 ", "\t5\n",
        "+-1", "-+1", "--1", "++1", "3 /4", "3/ 4", "3/+4", "3/-4", "1/0", "0/0",
        "1.5", "-.5", "1e3", "2E-1", "1_000", "1/1_0", "\u0661\u0662", "\u00b2", "3/\u00b2",
        "", " ", "/", "1/", "/2", "1//2", "1/2/3", "x", "0x10", "inf", "nan",
    ])
    def test_corpus(self, text):
        assert self.read(text) == self.expected(text)

    @pytest.mark.parametrize("text", ["1" * 5000, "1/" + "1" * 5000],
                             ids=["long-integer", "long-denominator"])
    def test_digit_strings_over_the_int_limit(self, text):
        # int refuses them where sys.int_max_str_digits is set; Fraction's text is the detail.
        assert self.read(text) == self.expected(text)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.text(alphabet="0123456789+-/ ._eE\u0661\u00b2", max_size=8),
                     st.from_regex(r"\A\s?[+-]?[0-9]{1,4}(/[0-9]{1,4})?\s?\Z"),
                     st.text(max_size=6)))
    def test_any_text(self, text):
        assert self.read(text) == self.expected(text)


class TestDescendCommand:
    def test_descend_and_check_reject_the_same_inputs(self, capsys):
        # Descent decides membership by the inversion, check by the
        # certificate: both exit 1 on exactly the same inputs, over every
        # depth-8 element and each of its nine +4 near-misses.
        rejected = 0
        for el in OrbitWalk(B2, 8):
            flat = [v for row in el.sigma.coeff for v in row]
            for k in range(-1, 9):
                entries = [v + 4 * (j == k) for j, v in enumerate(flat)]
                text = ";".join(",".join(map(str, entries[r:r + 3])) for r in (0, 3, 6))
                (check, _), (descend, _) = run(capsys, "check", text), run(capsys, "descend", text)
                assert check == descend and check in (0, 1), text
                rejected += check
        assert rejected > 0

    def test_mu_is_checked_without_fractions_or_weights(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("built a value only to validate --mu")

        monkeypatch.setattr(cli, "Fraction", refuse)
        monkeypatch.setattr(cli, "Weights", refuse)
        assert run(capsys, "descend", "4,0,0;0,0,0;4,0,4", "--mu", "3/2,1/2,1") == (
            0, '{"word":[3,1]}\n')

    def test_word_does_not_depend_on_mu(self, capsys):
        # --mu is validated, but descent picks no generator by it.
        for el in OrbitWalk(B2, 8):
            text = ";".join(",".join(map(str, row)) for row in el.sigma.coeff)
            outs = [run(capsys, "descend", text, "--mu", mu)
                    for mu in ("1,1,1", "2,3,7", "5/3,1/7,9/4")]
            assert outs == [outs[0]] * 3
            code, out = outs[0]
            assert code == 0 and len(json_lines(out)[0]["word"]) == el.level


class TestTypeCommand:
    def test_type_of_every_element_through_depth_5(self, capsys):
        for el in enumerate_orbit(5):
            literal = ";".join(",".join(map(str, row)) for row in el.sigma.coeff)
            code, out = run(capsys, "type", literal)
            assert (code, json_lines(out)) == (0, [{"type": list(type_of(el.sigma))}])

    @pytest.mark.parametrize("literal,sums_type,detail", [
        ("0,0,0;0,0,0;0,0,-4", (1, 1), "family 4 at (1,1)"),
        ("8,0,4;0,0,0;4,0,0", (2, 3), "family 6 at (2,-1)"),
    ])
    def test_a_vector_outside_the_orbit_has_no_type(self, capsys, literal, sums_type, detail):
        # Its row sums read as an admissible type, but the family's matrix
        # at those parameters is not the vector: type_of raises, and type
        # prints its detail as a verification failure.
        rows = tuple(tuple(int(v) for v in row.split(",")) for row in literal.split(";"))
        sigma = MassVector(rows)
        assert parameters_from_sums(sigma.coefficient_sums())[0] == sums_type
        message = f"vector is not representable by {detail}"
        with pytest.raises(ValueError) as typed:
            type_of(sigma)
        assert str(typed.value) == message
        code, out = run(capsys, "type", literal)
        assert code == 1
        assert json_lines(out) == [{"error": "verification", "detail": message}]


class TestClosedFormCommand:
    @pytest.mark.parametrize("mu", [[], ["--mu", "formal"]], ids=["default-mu", "formal-mu"])
    def test_no_weights_means_no_sigma(self, capsys, monkeypatch, mu):
        monkeypatch.delenv("B2WEYL_CONFIG", raising=False)
        code, out = run(capsys, "closedform", "3", "1", "0", *mu)
        assert code == 0
        rec = json_lines(out)[0]
        assert rec["closed_form"] == [3, 1, 0]
        assert "sigma" not in rec

    def test_inadmissible_parameters(self, capsys):
        code, out = run(capsys, "closedform", "3", "2", "0")
        assert code == 1
        assert json_lines(out)[0]["error"] == "verification"

    @pytest.mark.parametrize("m1, m2", [(-1, 0), (0, -1)])
    def test_a_pair_with_no_falling_generator_is_rejected(self, capsys, m1, m2):
        # These pairs would stall a descent; the id check rejects them first.
        code, out = run(capsys, "closedform", "1", str(m1), str(m2))
        assert code == 1
        assert json_lines(out) == [{"error": "verification", "detail": f"inadmissible "
                                    f"(1,{m1},{m2}): parameters are not congruent to (0, 0) mod 4"}]


def _oracle_line(obj) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _oracle_pair(text):
    return tuple(Fraction(part) for part in text.split(","))


def sinh_oracle(closed_form, max_level, mu):
    """The stdout of ``b2weyl sinh`` built as the CLI once built it.

    Each record is a dict with its sigma from ``eval_at`` Fractions, put
    through the JSON encoder; the chain parameter is found by trying both
    signs of the coefficient-sum difference over 4, compared as vectors.
    """
    weights = None if mu is None else _oracle_pair(mu)

    def record(vec):
        n1, n2 = vec.coefficient_sums()
        (m,) = [m for m in {(n1 - n2) // 4, (n2 - n1) // 4} if sinh_closed_form(m) == vec]
        out = {"coeff": [list(row) for row in vec.coeff], "m": m, "level": abs(m)}
        if weights is not None:
            out["sigma"] = [str(v) for v in eval_at(vec, weights)]
        return _oracle_line(out)

    vectors = [sinh_closed_form(closed_form)] if max_level is None else sinh_orbit(max_level)
    return "".join(map(record, vectors))


def weyl2_oracle(subsystem, weights, part, alpha):
    """The stdout of ``b2weyl weyl2`` built as the CLI once built it, from dicts and Fractions."""
    if subsystem is not None:
        values = None if weights is None else _oracle_pair(weights)
        lines = []
        for coeff in finite_orbit(SUBSYSTEMS[subsystem]):
            rec = {"coeff": [list(row) for row in coeff]}
            if values is not None:
                rec["values"] = [str(v) for v in eval_at(MassVector(coeff), values)]
            lines.append(_oracle_line(rec))
        return "".join(lines)
    a1, a2 = _oracle_pair(alpha)
    if part == "a":
        u, v = 8 * a1 + 4 * a2 + 12, 8 * a1 + 8 * a2 + 16
        return _oracle_line({"part": "a", "tuple": [str(u), str(v)]})
    tuples = sorted({eval_at(MassVector(coeff), (a1, a2)) for coeff in APPENDIX_C_COEFFS})
    if part == "c":
        return _oracle_line({"part": "c", "tuples": [[str(u), str(v)] for u, v in tuples]})
    nonneg = all(u >= 0 and v >= 0 for u, v in tuples)
    div4 = all(u % 4 == 0 and v % 4 == 0 for u, v in tuples)
    return _oracle_line({"part": "b", "tuples": [[int(u), int(v)] for u, v in tuples],
                         "all_nonnegative": nonneg, "all_multiples_of_four": div4,
                         "ok": nonneg and div4})


def _oracle_cases():
    """Seeded sinh and weyl2 requests as (argv, expected stdout builder arguments)."""
    rng = random.Random(33)

    def ratio(low):  # zero and negative values included
        return str(Fraction(rng.randint(low, 9), rng.randint(1, 6)))

    def pair(low=-9):
        return f"{ratio(low)},{ratio(low)}"

    def strengths():  # above -1: negative, fractional and integral values
        return f"{Fraction(rng.randint(-3, 40), 4)},{Fraction(rng.randint(-3, 40), 4)}"

    cases = [(["sinh", "--max-level", "0"], ("sinh", None, 0, None)),
             (["sinh", "--max-level", "0", "--mu", "0,-3/2"], ("sinh", None, 0, "0,-3/2")),
             (["weyl2", "--part", "c", "--alpha", "0,0"], ("weyl2", None, None, "c", "0,0")),
             (["weyl2", "--part", "c", "--alpha", "2,5"], ("weyl2", None, None, "c", "2,5")),
             (["weyl2", "--part", "b", "--alpha", "0,0"], ("weyl2", None, None, "b", "0,0"))]
    for _ in range(12):
        m, level, mu = rng.randint(-40, 40), rng.randint(0, 8), pair()
        cases.append((["sinh", f"--closed-form={m}", f"--mu={mu}"], ("sinh", m, None, mu)))
        cases.append((["sinh", "--closed-form", str(m)], ("sinh", m, None, None)))
        cases.append((["sinh", "--max-level", str(level), f"--mu={mu}"],
                      ("sinh", None, level, mu)))
        name, weights = rng.choice(sorted(SUBSYSTEMS)), pair()
        cases.append((["weyl2", "--subsystem", name, f"--weights={weights}"],
                      ("weyl2", name, weights, None, None)))
        cases.append((["weyl2", "--subsystem", name], ("weyl2", name, None, None, None)))
        for part in "ac":
            alpha = strengths()
            cases.append((["weyl2", "--part", part, f"--alpha={alpha}"],
                          ("weyl2", None, None, part, alpha)))
        alpha = f"{rng.randint(0, 12)},{rng.randint(0, 12)}"
        cases.append((["weyl2", "--part", "b", "--alpha", alpha],
                      ("weyl2", None, None, "b", alpha)))
    return cases


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("argv,spec", ORACLE_CASES, ids=[" ".join(c[0]) for c in ORACLE_CASES])
def test_sinh_and_weyl2_records_match_the_dict_oracle(capsys, argv, spec):
    oracle = sinh_oracle if spec[0] == "sinh" else weyl2_oracle
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.splitlines(keepends=True) == oracle(*spec[1:]).splitlines(keepends=True)


def test_weighted_records_build_no_fraction(capsys, monkeypatch):
    # Each request reads its weights once, as (M, q) over one denominator,
    # and renders every value from them: with Fraction refused, the weighted
    # orbit, closedform, sinh and weyl2 requests print the same records.
    requests = [("orbit", "--max-level", "3", "--mu", "3/2,1/2,1"),
                ("orbit", "--max-level", "3", "--output", "csv", "--mu", "2/3,5/4,7"),
                ("closedform", "8", "-5", "7", "--mu", "2/3,5/4,7/2"),
                ("sinh", "--max-level", "3", "--mu", "1/2,-3"),
                ("weyl2", "--subsystem", "pair_13", "--weights", "1/2,3/4")]
    expected = [run(capsys, *argv) for argv in requests]
    assert {code for code, _ in expected} == {0}

    def refuse(*args):
        raise AssertionError("built a Fraction")

    for module in (cli, algebra, closedform):
        monkeypatch.setattr(module, "Fraction", refuse)
    assert [run(capsys, *argv) for argv in requests] == expected


class TestSinhCommand:
    def test_orbit_stream(self, capsys):
        code, out = run(capsys, "sinh", "--max-level", "3")
        records = json_lines(out)
        assert len(records) == 7
        assert sorted(r["m"] for r in records) == [-3, -2, -1, 0, 1, 2, 3]

    def test_needs_a_mode(self, capsys):
        code, out = run(capsys, "sinh")
        assert code == 2


class TestWeyl2Command:
    def test_subsystem_orbit(self, capsys):
        code, out = run(capsys, "weyl2", "--subsystem", "appendix_uv")
        assert code == 0
        assert len(json_lines(out)) == 8


class TestCascadeCommand:
    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, out = run(capsys, "cascade", str(tmp_path / "absent.txt"))
        assert code == 2


class TestCascadeFormatterOracle:
    """Cascade records, line by line, against ``json.dumps`` of ``reference_replay``.

    The scenario is drawn move by move, each kept when the reference accepts
    it; each record is built from the reference's ``(coeff, lattice,
    values)``, its total ``str`` of ``values/q + 4n``.  So the replay and the
    fixed template of ``cmd_cascade`` are both held to it, on seeded random
    legal scenarios: with no-op moves, whose records reuse the previous
    totals, and long ones whose lines repeat.
    """

    SCENARIOS = 100
    PROBES = ["1/3,5/2,7/4", "7,1/9,2/3", "2,3,5"]

    @staticmethod
    def legal_scenario(rng, probe, length, draw=random_move):
        """``length`` moves the reference accepts, as scenario lines, and their records."""
        gamma, lattice, q = ZERO, (0, 0, 0), probe.scaled[1]
        lines, want = [], []
        while len(lines) < length:
            move = draw(rng)
            after, error = reference_replay([move], probe, gamma, lattice)
            if error is not None:
                continue
            (coeff, lattice, values), = after
            gamma = mv(coeff)
            lines.append(move.text)
            rec = {"move": move.text, "gamma_coeff": [list(row) for row in coeff],
                   "lattice": list(lattice),
                   "total": [str(Fraction(v, q) + 4 * n) for v, n in zip(values, lattice)]}
            want.append(json.dumps(rec, separators=(",", ":")))
        return lines, want

    @pytest.mark.parametrize("mu", PROBES)
    def test_random_legal_scenarios(self, capsys, tmp_path, mu):
        rng = random.Random(2024)
        probe = Weights.numeric(*mu.split(","))
        path = tmp_path / "scenario.txt"
        for _ in range(self.SCENARIOS):
            lines, want = self.legal_scenario(rng, probe, rng.randint(1, 30))
            path.write_text("\n".join(lines) + "\n")
            code, out = run(capsys, "cascade", str(path), "--mu", mu)
            assert code == 0
            assert out.splitlines() == want

    @pytest.mark.parametrize("mu", PROBES)
    def test_no_op_moves_keep_their_totals(self, capsys, tmp_path, mu):
        no_ops = [Collapse((1, 3), "e"), Collapse((2, 3), "e"), SatelliteMerge((0, 0, 0))]

        def draw(rng):
            return rng.choice(no_ops) if rng.random() < 0.4 else random_move(rng)

        rng = random.Random(16)
        probe = Weights.numeric(*mu.split(","))
        path = tmp_path / "scenario.txt"
        for _ in range(20):
            lines, want = self.legal_scenario(rng, probe, rng.randint(1, 30), draw)
            path.write_text("\n".join(lines) + "\n")
            code, out = run(capsys, "cascade", str(path), "--mu", mu)
            assert code == 0
            assert out.splitlines() == want

    @pytest.mark.parametrize("mu", PROBES)
    def test_a_long_scenario_of_repeated_lines(self, capsys, tmp_path, mu):
        lines, want = self.legal_scenario(random.Random(300), Weights.numeric(*mu.split(",")), 300)
        assert len(set(lines)) < len(lines) // 3
        path = tmp_path / "scenario.txt"
        path.write_text("\n".join(lines) + "\n")
        code, out = run(capsys, "cascade", str(path), "--mu", mu)
        assert code == 0
        assert out.splitlines() == want

    @pytest.mark.parametrize("mu", PROBES)
    def test_hand_built_state_derives_its_values(self, mu):
        probe, lattice = Weights.numeric(*mu.split(",")), (1, 0, 2)
        for el in enumerate_orbit(4):
            state = CascadeState(el.sigma, lattice, probe)
            before = eval_at(el.sigma, probe)
            want = tuple(v + 4 * n for v, n in zip(before, lattice))
            assert state.total() == want
            # A step from it agrees with the Fraction reference too.
            after = eval_at(apply_word(el.sigma, (1,)), probe)
            try:
                nxt = step(state, Collapse((1,)))
            except NonPhysicalMove:
                assert sum(after) - sum(before) < 4 * min(probe.values)
            else:
                assert nxt.total() == tuple(v + 4 * n for v, n in zip(after, lattice))


class TestUsageErrors:
    """Out-of-range arguments are usage errors (exit 2), not verification failures."""

    def assert_usage(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        records = json_lines(captured.out)
        assert code == 2 and captured.err == ""
        assert len(records) == 1 and records[0]["error"] == "usage"
        return records[0]["detail"]

    def test_negative_orbit_level(self, capsys):
        self.assert_usage(capsys, "orbit", "--max-level", "-1")

    def test_negative_orbit_coefficient_bound(self, capsys):
        self.assert_usage(capsys, "orbit", "--max-level", "2", "--max-coefficient", "-1")

    def test_relations_takes_no_range(self, capsys):
        detail = self.assert_usage(capsys, "relations", "--low", "5", "--high", "1")
        assert detail == "unrecognized arguments: --low 5 --high 1"

    def test_relations_without_trials(self, capsys):
        self.assert_usage(capsys, "relations", "--trials", "0")

    def test_closedform_family_out_of_range(self, capsys):
        self.assert_usage(capsys, "closedform", "9", "0", "0")

    def test_negative_sinh_level(self, capsys):
        self.assert_usage(capsys, "sinh", "--max-level", "-1")

    def test_formal_descent_probe(self, capsys):
        detail = self.assert_usage(capsys, "descend", "4,0,0;0,0,0;0,0,0", "--mu", "formal")
        assert detail == "descent probe must be numeric"

    @pytest.mark.parametrize("mu,detail", [
        ("0,1,1", "weights must be positive, got 0"),
        ("1,x,1", "bad rational 'x': "),
    ], ids=["zero", "not-a-rational"])
    def test_bad_descent_probe(self, capsys, mu, detail):
        # The rest of a bad rational's detail is the Fraction parser's own text.
        assert self.assert_usage(capsys, "descend", "4,0,0;0,0,0;4,0,4", "--mu", mu).startswith(detail)

    def test_formal_cascade_probe(self, capsys, tmp_path):
        scenario = tmp_path / "moves.txt"
        scenario.write_text("collapse 1\n")
        detail = self.assert_usage(capsys, "cascade", str(scenario), "--mu", "formal")
        assert detail == "cascade probe must be numeric"

    # Bad strengths are bad arguments; appendix_table's ValueError text is the detail.
    @pytest.mark.parametrize("part,alpha,detail", [
        ("a", "-1,0", "singular strengths must exceed -1"),
        ("c", "-3/2,0", "singular strengths must exceed -1"),
        ("b", "1/2,0", "part (b) needs natural strengths (integers >= 0)"),
    ], ids=["a-at-minus-one", "c-below-minus-one", "b-not-natural"])
    def test_weyl2_bad_strengths(self, capsys, part, alpha, detail):
        assert self.assert_usage(capsys, "weyl2", "--part", part, f"--alpha={alpha}") == detail

    # A scenario line that does not parse is a bad argument, as an unreadable
    # file is; the parser's text, with its line number, is the detail.
    @pytest.mark.parametrize("line,detail", [
        ("explode 1 2 3", "scenario line 1: unknown move kind 'explode'"),
        ("merge 4 4", "scenario line 1: merge takes exactly three masses"),
        ("collapse 13", "scenario line 1: collapse on (1, 3) needs a variant from "
                        "['3', '3i', '3i3', 'e', 'i', 'i3', 'i3i', 'i3i3'], got None"),
    ], ids=["unknown-kind", "short-merge", "pair-without-variant"])
    def test_unparsable_scenario_line(self, capsys, tmp_path, line, detail):
        scenario = tmp_path / "moves.txt"
        scenario.write_text(line + "\n")
        assert self.assert_usage(capsys, "cascade", str(scenario)) == detail

    def test_undecodable_scenario_file(self, capsys, tmp_path):
        scenario = tmp_path / "moves.txt"
        scenario.write_bytes(b"\xff\xfe")
        detail = self.assert_usage(capsys, "cascade", str(scenario))
        assert detail.startswith("cannot read scenario file: ")

    # Errors argparse finds itself are usage records too, not stderr text.
    @pytest.mark.parametrize("argv,detail", [
        (["orbit"], "the following arguments are required: --max-level"),
        (["orbit", "--max-level", "1", "--output", "xml"],
         "argument --output: invalid choice: 'xml'"),
        (["relations", "--trials", "ten"], "argument --trials: invalid int value: 'ten'"),
        (["weyl2", "--subsystem", "pair"], "argument --subsystem: invalid choice: 'pair'"),
        (["orbits"], "argument command: invalid choice: 'orbits'"),
        ([], "the following arguments are required: command"),
    ], ids=["missing-max-level", "bad-output-choice", "non-integer-trials",
            "bad-subsystem-choice", "unknown-subcommand", "empty-argv"])
    def test_argparse_error(self, capsys, monkeypatch, argv, detail):
        monkeypatch.delenv("B2WEYL_CONFIG", raising=False)
        assert self.assert_usage(capsys, *argv).startswith(detail)

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["orbit", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: b2weyl orbit")


M0 = "0,0,0;0,0,0;0,0,0"
M1 = "4,0,0;0,0,0;0,0,0"

# Argvs for the parity of main's parse with the full parser: every
# subcommand, valid or not, with the argparse spellings that could tell
# the direct path from argparse.
PARSE_CORPUS = [
    # valid input, one request per subcommand
    ["orbit", "--max-level", "3"],
    ["check", M0],
    ["descend", M1, "--mu", "1,2,3"],
    ["type", M1],
    ["closedform", "1", "0", "0", "--mu", "1,1,1"],
    ["relations", "--trials", "5", "--seed", "3"],
    ["sinh", "--closed-form", "2", "--mu", "1,2"],
    ["weyl2", "--subsystem", "pair_12", "--weights", "1,1"],
    ["cascade", "moves.txt", "--mu", "1,2,3"],
    # --opt=value and abbreviated options
    ["orbit", "--max-level=3", "--output=csv"],
    ["orbit", "--max-l", "3", "--max-c", "8"],
    ["orbit", "--max", "3"],
    ["relations", "--tri=5", "--lo", "-5", "--hi", "5"],  # no --low/--high: one usage error
    ["sinh", "--closed", "2"],
    ["weyl2", "--part=a", "--al", "1,0"],
    ["descend", M1, "--m=1,1,1"],
    # negative positionals
    ["closedform", "1", "-4", "0"],
    ["closedform", "-1", "0", "-3"],
    # -- before and after positionals
    ["check", "--", M0],
    ["check", M0, "--"],
    ["closedform", "1", "--", "-4", "0"],
    ["closedform", "--", "1", "-4", "0", "--mu", "1,1,1"],
    ["cascade", "--mu", "1,1,1", "--", "moves.txt"],
    ["orbit", "--", "--max-level", "3"],
    ["--", "check", M0],
    # repeated options, unknown options and extra positionals
    ["orbit", "--max-level", "1", "--max-level", "2"],
    ["descend", M1, "--mu", "1,1,1", "--mu", "2,2,2"],
    ["check", M0, "--verbose"],
    ["orbit", "--max-level", "1", "--bogus", "x"],
    ["check", M0, M1],
    ["closedform", "1", "2", "3", "4"],
    ["weyl2", "--part", "d"],
    ["closedform", "one", "0", "0"],
    # option values that are empty, missing or look like options
    ["descend", M1, "--mu="],
    ["descend", M1, "--mu"],
    ["descend", M1, "--mu", "-1,1,1"],
    ["cascade", "moves.txt", "--mu", "--"],
    # missing required arguments
    ["orbit"],
    ["check"],
    ["descend", "--mu", "1,1,1"],
    ["type"],
    ["closedform", "1", "2"],
    ["cascade"],
    # no subcommand name first: the full parser runs on both paths
    [],
    ["orbits"],
    ["orb", "--max-level", "1"],
    ["--max-level", "1", "orbit"],
]


def _parse_outcome(parse, argv):
    """The namespace's attributes in order, or the usage error's text."""
    try:
        return list(vars(parse(argv)).items())
    except cli.UsageError as exc:
        return f"usage: {exc}"


def _main_parse(config):
    """main's parse under ``config``: the direct parser, else argparse."""
    parser, table = cli._parser_for(config)

    def parse(argv):
        args = cli._parse_canonical(table, argv)
        return parser.parse_args(argv) if args is None else args
    return parse


# A config that sets every default the table reads, next to the empty one.
FULL_CONFIG = {"max_level": 2, "max_coefficient": 9, "mu": "1,2,3", "output": "csv",
               "trials": 7, "seed": 5}

# Value texts a canonical argv may carry: int spellings int() accepts or
# rejects (negative ones by argparse's negative-number rule), weights,
# matrix literals and names, and choices that are not choices.
INT_TEXTS = st.one_of(st.integers(-60, 60).map(str),
                      st.sampled_from(["+5", "1_0", "-0", "007", " 3 ", "one", "-.5", "2.0"]))
TEXTS = st.sampled_from(["1,1,1", "formal", "1,2", "3/2,1/2,1", M0, M1, "moves.txt", "x",
                         "-4", "-.5", ""])


def _value_texts(kind, choices):
    if choices is not None:
        return st.sampled_from([*choices, "xml", "d", "CSV", "pair"])
    return INT_TEXTS if kind is int else TEXTS


@st.composite
def canonical_argvs(draw):
    """A subcommand's name, then its positionals and any of its options, in any order."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    _, _, positionals, options = cli._COMMANDS[name]
    chunks = [[draw(_value_texts(kind, None))] for _, kind in positionals]
    for flag, kind, choices, *_ in options:
        if draw(st.booleans()):
            value = draw(_value_texts(kind, choices).filter(bool))
            chunks.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    return [name] + [token for chunk in draw(st.permutations(chunks)) for token in chunk]


class TestDispatchedParse:
    """main() parses canonical argv straight from the subcommand table and
    all other argv with argparse; the result is the full parser's,
    namespace or error text alike."""

    def test_all_nine_subcommands_are_in_the_corpus(self):
        commands = set(cli._COMMANDS)
        assert len(commands) == 9 and commands <= {argv[0] for argv in PARSE_CORPUS if argv}

    @pytest.mark.parametrize("argv", PARSE_CORPUS, ids=lambda argv: " ".join(argv) or "(empty)")
    def test_same_namespace_or_error_as_the_full_parser(self, argv):
        expected = _parse_outcome(cli.build_parser({}).parse_args, argv)
        assert _parse_outcome(_main_parse({}), argv) == expected

    @settings(max_examples=400, deadline=None)
    @given(argv=canonical_argvs(), config=st.sampled_from([{}, FULL_CONFIG]))
    def test_canonical_argv_is_parsed_directly_as_argparse_would(self, argv, config):
        parse = cli.build_parser(config).parse_args
        expected = _parse_outcome(parse, argv)
        assert _parse_outcome(_main_parse(config), argv) == expected
        # A canonical argv argparse accepts never falls back to it.
        direct = cli._parse_canonical(cli._parser_for(config)[1], argv)
        assert (direct is None) == isinstance(expected, str)

    @pytest.mark.parametrize("argv", [
        ["check", M0], ["closedform", "5", "42", "-46"], ["closedform", "1", "0", "0", "--mu=1,1,1"],
        ["descend", M1, "--mu", "1,2,3"], ["orbit", "--max-level", "1", "--output=csv"],
        ["relations", "--seed", "-3", "--trials", "2"],
    ], ids=["check", "closedform-negative", "closedform-mu-equals", "descend",
            "orbit-output-equals", "relations-negative-seed"])
    def test_a_canonical_request_calls_no_parse_args(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("B2WEYL_CONFIG", raising=False)

        def fail(*args, **kwargs):
            pytest.fail("argparse parsed a canonical request")
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", fail)
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", fail)
        assert run(capsys, *argv)[0] == 0

    def test_subcommand_help_is_the_same(self, capsys):
        outs = []
        for parse in (cli.build_parser({}).parse_args, main):
            with pytest.raises(SystemExit) as exc:
                parse(["check", "--help"])
            assert exc.value.code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0].startswith("usage: b2weyl check") and outs[1] == outs[0]


class TestConfigFile:
    def test_defaults_come_from_env_config(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_level": 1}))
        monkeypatch.setenv("B2WEYL_CONFIG", str(config))
        code, out = run(capsys, "orbit")
        assert code == 0
        assert json_lines(out)[-1]["meta"]["max_level"] == 1

    def test_a_byte_order_mark_is_read_past(self, capsys, tmp_path, monkeypatch):
        """A config saved with a UTF-8 byte-order mark reads as the same bytes without it."""
        config = tmp_path / "config.json"
        config.write_bytes(b"\xef\xbb\xbf" + json.dumps({"max_level": 1}).encode())
        monkeypatch.setenv("B2WEYL_CONFIG", str(config))
        code, out = run(capsys, "orbit")
        assert code == 0
        assert json_lines(out)[-1]["meta"]["max_level"] == 1

    @pytest.mark.parametrize("text", ["[1,2]", '"orbit"', "null"])
    def test_top_level_not_an_object(self, capsys, tmp_path, monkeypatch, text):
        self.assert_bad_config(capsys, tmp_path, monkeypatch, text)

    @pytest.mark.parametrize("config", [{"max_level": 1.5}, {"max_coefficient": "8"},
                                        {"trials": True}, {"seed": None}])
    def test_count_not_an_int(self, capsys, tmp_path, monkeypatch, config):
        self.assert_bad_config(capsys, tmp_path, monkeypatch, json.dumps(config))

    @pytest.mark.parametrize("config", [{"mu": [1, 1, 1]}, {"output": 0}])
    def test_text_not_a_string(self, capsys, tmp_path, monkeypatch, config):
        self.assert_bad_config(capsys, tmp_path, monkeypatch, json.dumps(config))

    @pytest.mark.parametrize("output", ["xml", "CSV", ""])
    def test_output_not_json_or_csv(self, capsys, tmp_path, monkeypatch, output):
        # argparse checks choices only on the command line, so the file's
        # value is checked when it is loaded.
        self.assert_bad_config(capsys, tmp_path, monkeypatch, json.dumps({"output": output}))

    def assert_bad_config(self, capsys, tmp_path, monkeypatch, text):
        config = tmp_path / "config.json"
        config.write_text(text)
        monkeypatch.setenv("B2WEYL_CONFIG", str(config))
        code, out = run(capsys, "orbit", "--max-level", "1")
        records = json_lines(out)
        assert code == 2
        assert len(records) == 1 and records[0]["error"] == "usage"


class TestParserCache:
    """main() reuses its parser while the defaults stay the same."""

    def test_defaults_follow_the_file_and_the_variable(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        monkeypatch.setenv("B2WEYL_CONFIG", str(config))
        for level in (1, 2):
            config.write_text(json.dumps({"max_level": level}))
            code, out = run(capsys, "orbit")
            assert code == 0
            assert json_lines(out)[-1]["meta"]["max_level"] == level
        monkeypatch.delenv("B2WEYL_CONFIG")
        code, out = run(capsys, "orbit")  # --max-level is required again
        assert code == 2
        assert json_lines(out)[0]["error"] == "usage"

    def test_parser_is_built_once_per_config(self, capsys, tmp_path, monkeypatch):
        built = []
        real_build = cli.build_parser

        def counting_build(config):
            built.append(config)
            return real_build(config)

        monkeypatch.setattr(cli, "build_parser", counting_build)
        monkeypatch.setattr(cli, "_parser_slot", None)
        config = tmp_path / "config.json"
        monkeypatch.setenv("B2WEYL_CONFIG", str(config))
        for defaults in ({"max_level": 0}, {"max_level": 0, "seed": 5}):
            config.write_text(json.dumps(defaults))
            for _ in range(3):
                assert run(capsys, "orbit")[0] == 0
        assert built == [{"max_level": 0}, {"max_level": 0, "seed": 5}]


def test_golden_cases_back_to_back_in_one_interpreter(capsys, tmp_path, monkeypatch):
    """The contract rows through one interpreter, in order and then reversed,
    so that nothing one call leaves behind can change a later call's bytes."""
    monkeypatch.delenv("B2WEYL_CONFIG", raising=False)
    for row in CONTRACT + CONTRACT[::-1]:
        try:
            code = main(fill(row[1], row[2], tmp_path))
        except SystemExit as exc:  # --help exits through argparse
            code = exc.code
        got = observe(row, code, capsys.readouterr().out.encode())
        assert (row[0], *got) == (row[0], *row[3:])


def test_start_up_loads_no_dataclasses_or_inspect():
    """Every shell invocation pays the import and the first build_parser.
    The value types are plain slotted classes, so neither step loads
    dataclasses or the inspect, ast and dis modules it pulls in."""
    script = ("import sys\n"
              "from b2weyl import cli\n"
              "cli.build_parser({})\n"
              "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env=child_env(PYTHONPATH=str(SRC)), check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "b2weyl", "orbit", "--max-level", "0"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout.splitlines()[0])["level"] == 0


def test_orbit_streams_and_ends_when_the_reader_leaves(tmp_path):
    """The origin record arrives before the depth-400 orbit is built, and a
    reader that closes the pipe after one line ends the run with exit 0."""
    stderr = tmp_path / "stderr.txt"
    with open(stderr, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "b2weyl", "orbit", "--max-level", "400"],
            stdout=subprocess.PIPE, stderr=err, env=child_env())
    # One 10 s budget for the first line and the exit together; a child
    # still running when it ends is killed, which fails the exit-code check.
    started = time.monotonic()
    deadline = threading.Timer(10.0, proc.kill)
    deadline.start()
    try:
        first = proc.stdout.readline()
        first_s = time.monotonic() - started
        proc.stdout.close()
        code = proc.wait()
    finally:
        deadline.cancel()
        proc.kill()
        proc.wait()
    assert json.loads(first) == {"coeff": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                                 "level": 0, "word": [], "type": [0, 0]}
    # Building the whole depth-400 orbit before the first record took
    # about 9 s on a 2-vCPU host; streaming needs little more than start-up.
    assert first_s < 5.0
    assert code == 0
    assert stderr.read_text() == ""
