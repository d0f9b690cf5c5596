"""Golden byte-identity of the command line.

Each row of the CLI contract (``cli_contract.CONTRACT``) runs
``python -m b2weyl`` in a fresh interpreter under two hash seeds, under
``-O`` and under ``-S``, and its exit code and stdout are compared with
the row's.  Any change to a printed byte -- a reordered record, a
differently normalised rational, a reworded error -- fails here, so a
change that claims identical output has to keep these rows.
"""

import pytest

from b2weyl import cli
from cli_contract import CONTRACT, main, observe, run_row

HASH_SEEDS = ("0", "4242")

ROWS = pytest.mark.parametrize("row", CONTRACT, ids=[row[0] for row in CONTRACT])


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
@ROWS
def test_stdout_is_byte_identical(row, hash_seed, tmp_path):
    assert observe(row, *run_row(row, tmp_path, PYTHONHASHSEED=hash_seed)) == row[3:]


@ROWS
def test_stdout_is_byte_identical_under_optimize(row, tmp_path):
    """-O strips asserts; every invariant is an exception, so the bytes stay."""
    assert observe(row, *run_row(row, tmp_path, "-O", PYTHONHASHSEED="0")) == row[3:]


@ROWS
def test_stdout_is_byte_identical_without_site_packages(row, tmp_path):
    """-S hides site-packages: the runtime is pure stdlib."""
    assert observe(row, *run_row(row, tmp_path, "-S", PYTHONHASHSEED="0")) == row[3:]


def test_every_subcommand_and_error_exit_has_a_row():
    """A new subcommand cannot ship without a row that runs it to exit 0."""
    assert len({row[0] for row in CONTRACT}) == len(CONTRACT)
    assert set(cli._COMMANDS) <= {argv[0] for _, argv, _, code, _ in CONTRACT if code == 0}
    assert {1, 2} <= {code for _, _, _, code, _ in CONTRACT}


def _tag(expected):
    """"sha256:" or "prefix:" for a tagged expected value, "" for an exact stdout."""
    return expected[:7] if expected.startswith(("sha256:", "prefix:")) else ""


@pytest.mark.parametrize("tag", ["", "sha256:", "prefix:"], ids=["exact", "sha256", "prefix"])
def test_the_runner_names_a_row_whose_stdout_is_altered(tag, capsys):
    """The script's runner, on the table with one expected stdout altered."""
    rows = list(CONTRACT)
    i = next(i for i, row in enumerate(rows) if row[4] is not None and _tag(row[4]) == tag)
    row_id, argv, scenario, code, expected = rows[i]
    rows[i] = (row_id, argv, scenario, code, tag + "#" + expected[len(tag):])
    assert main(rows) == 1
    assert capsys.readouterr().out.startswith(f"{row_id}: expected ")


def test_the_runner_names_a_row_whose_exit_code_is_altered(capsys):
    row_id, argv, scenario, code, expected = CONTRACT[0]
    assert main(CONTRACT[:1]) == 0
    capsys.readouterr()
    assert main([(row_id, argv, scenario, code + 1, expected), *CONTRACT[1:]]) == 1
    assert capsys.readouterr().out.startswith(f"{row_id}: expected ")
