"""Command-line surface: records, exit codes, determinism."""

import hashlib
import json
import subprocess
import sys

import pytest

from b2weyl import cli
from b2weyl.cli import main
from conftest import child_env
from test_golden import CASES


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


class TestCheckCommand:
    def test_member(self, capsys):
        code, out = run(capsys, "check", "4,0,0;0,0,0;0,0,0")
        assert code == 0
        assert json_lines(out)[0] == {"member": True, "nonneg": True,
                                      "div4": True, "quadric_zero": True}

    def test_non_member_exits_nonzero(self, capsys):
        code, out = run(capsys, "check", "4,0,0;0,0,0;0,0,4")
        assert code == 1
        assert json_lines(out)[0]["quadric_zero"] is False

    def test_malformed_matrix(self, capsys):
        code, out = run(capsys, "check", "4,0;0,0,0;0,0,0")
        assert code == 2


class TestDescendCommand:
    def test_two_step_word(self, capsys):
        code, out = run(capsys, "descend", "4,0,0;0,0,0;4,0,4")
        assert code == 0
        assert json_lines(out)[0] == {"word": [3, 1]}

    def test_non_member_fails_verification(self, capsys):
        code, out = run(capsys, "descend", "4,0,0;0,0,0;0,0,4")
        assert code == 1
        assert json_lines(out)[0]["error"] == "verification"


class TestTypeCommand:
    def test_type_of_tree_element(self, capsys):
        code, out = run(capsys, "type", "4,0,0;0,0,0;4,0,4")
        assert code == 0
        assert json_lines(out)[0] == {"type": [3, 2]}


class TestClosedFormCommand:
    def test_anchor_record(self, capsys):
        code, out = run(capsys, "closedform", "3", "1", "0")
        assert code == 0
        rec = json_lines(out)[0]
        assert rec["coeff"] == [[4, 0, 0], [0, 0, 0], [0, 0, 0]]
        assert rec["closed_form"] == [3, 1, 0]
        assert rec["type"] == [1, 0]

    def test_inadmissible_parameters(self, capsys):
        code, out = run(capsys, "closedform", "3", "2", "0")
        assert code == 1
        assert json_lines(out)[0]["error"] == "verification"


class TestRelationsCommand:
    def test_small_run_passes(self, capsys):
        code, out = run(capsys, "relations", "--trials", "20", "--seed", "3")
        assert code == 0
        rec = json_lines(out)[0]
        assert rec["passed"] is True and rec["failures"] == []


class TestSinhCommand:
    def test_closed_form_record(self, capsys):
        code, out = run(capsys, "sinh", "--closed-form", "2", "--mu", "1,1")
        assert code == 0
        rec = json_lines(out)[0]
        assert rec == {"coeff": [[4, 0], [8, 4]], "m": 2, "level": 2,
                       "sigma": ["4", "12"]}

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

    def test_part_a(self, capsys):
        code, out = run(capsys, "weyl2", "--part", "a", "--alpha", "1/2,1/3")
        assert code == 0
        rec = json_lines(out)[0]
        assert rec == {"part": "a", "tuple": ["52/3", "68/3"]}

    def test_part_b(self, capsys):
        code, out = run(capsys, "weyl2", "--part", "b", "--alpha", "2,3")
        assert code == 0
        assert json_lines(out)[0]["ok"] is True


class TestCascadeCommand:
    def test_replay_trace(self, capsys, tmp_path):
        scenario = tmp_path / "moves.txt"
        scenario.write_text("collapse 1\nmerge 0 0 8\n")
        code, out = run(capsys, "cascade", str(scenario))
        assert code == 0
        records = json_lines(out)
        assert records[0]["gamma_coeff"] == [[4, 0, 0], [0, 0, 0], [0, 0, 0]]
        assert records[1]["lattice"] == [0, 0, 2]
        assert records[1]["total"] == ["4", "0", "8"]

    def test_non_physical_scenario_fails(self, capsys, tmp_path):
        scenario = tmp_path / "moves.txt"
        scenario.write_text("collapse 1\ncollapse 1\n")
        code, out = run(capsys, "cascade", str(scenario))
        assert code == 1
        assert json_lines(out)[0]["error"] == "rejected-move"

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, out = run(capsys, "cascade", str(tmp_path / "absent.txt"))
        assert code == 2


class TestUsageErrors:
    """Out-of-range arguments are usage errors (exit 2), not verification failures."""

    def assert_usage(self, capsys, *argv):
        code, out = run(capsys, *argv)
        records = json_lines(out)
        assert code == 2
        assert len(records) == 1 and records[0]["error"] == "usage"

    def test_negative_orbit_level(self, capsys):
        self.assert_usage(capsys, "orbit", "--max-level", "-1")

    def test_negative_orbit_coefficient_bound(self, capsys):
        self.assert_usage(capsys, "orbit", "--max-level", "2", "--max-coefficient", "-1")

    def test_relations_empty_range(self, capsys):
        self.assert_usage(capsys, "relations", "--low", "5", "--high", "1")

    def test_relations_without_trials(self, capsys):
        self.assert_usage(capsys, "relations", "--trials", "0")

    def test_closedform_family_out_of_range(self, capsys):
        self.assert_usage(capsys, "closedform", "9", "0", "0")

    def test_negative_sinh_level(self, capsys):
        self.assert_usage(capsys, "sinh", "--max-level", "-1")


class TestConfigFile:
    def test_defaults_come_from_env_config(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_level": 1}))
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
        with pytest.raises(SystemExit) as exc:
            main(["orbit"])  # --max-level is required again
        assert exc.value.code == 2

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
    """The golden cases through one interpreter, in order and then reversed,
    so that nothing one call leaves behind can change a later call's bytes."""
    monkeypatch.delenv("B2WEYL_CONFIG", raising=False)
    scenario_path = tmp_path / "scenario.txt"
    for case_id, argv, scenario, code, digest in CASES + CASES[::-1]:
        if scenario is not None:
            scenario_path.write_text(scenario)
            argv = [a.replace("{scenario}", str(scenario_path)) for a in argv]
        got_code, out = run(capsys, *argv)
        got_digest = hashlib.sha256(out.encode()).hexdigest()
        assert (case_id, got_code, got_digest) == (case_id, code, digest)


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "b2weyl", "orbit", "--max-level", "0"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout.splitlines()[0])["level"] == 0
