"""Source hygiene of the package: one compiler of generated code, one matrix layout.

Each module of ``src/b2weyl`` is tokenized, so comments and strings never
count: only names the code runs.
"""

import ast
import io
import tokenize
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "b2weyl").glob("*.py"))
OPENING, CLOSING = {"(", "[", "{"}, {")", "]", "}"}


def code_tokens(text):
    """The name, operator and literal tokens of the source ``text``."""
    keep = {tokenize.NAME, tokenize.OP, tokenize.NUMBER, tokenize.STRING}
    return [tok for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type in keep]


def enclosing_function(text, line):
    """The name of the innermost function of ``text`` whose body holds ``line``, or None."""
    spans = [(node.lineno, node.end_lineno, node.name) for node in ast.walk(ast.parse(text))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    inside = [span for span in spans if span[0] <= line <= span[1]]
    return max(inside)[2] if inside else None


def bare_names(tokens, names):
    """The tokens naming one of ``names`` other than as an attribute (``re.compile``)."""
    return [tok for k, tok in enumerate(tokens)
            if tok.type == tokenize.NAME and tok.string in names
            and (k == 0 or tokens[k - 1].string != ".")]


def empty_tuple_sums(tokens):
    """The line of each ``sum(..., ())`` call: a flatten of rows into one tuple."""
    lines = []
    for tok in bare_names(tokens, {"sum"}):
        start = tokens.index(tok) + 1
        if start == len(tokens) or tokens[start].string != "(":
            continue
        depth = 0
        for end in range(start, len(tokens)):
            depth += (tokens[end].string in OPENING) - (tokens[end].string in CLOSING)
            if not depth:
                break
        if [t.string for t in tokens[end - 3:end]] == [",", "(", ")"]:
            lines.append(tok.start[0])
    return lines


def test_the_scanners_see_what_they_look_for():
    # Attribute calls, keyword starts and strings do not count.
    tokens = code_tokens("import re\nx = sum(rows, ())\ny = sum([()], start=0)\n"
                         "z = re.compile('a')\nw = 'exec(compile(s))'\n"
                         "exec(compile('1', 'f', 'exec'))\nv = sum((a, b), ())\n")
    assert empty_tuple_sums(tokens) == [2, 7]
    assert [tok.start[0] for tok in bare_names(tokens, {"exec", "compile"})] == [6, 6]


def test_only_algebra_compile_runs_exec_and_compile():
    # Every generated kernel is compiled in one place: the walk step, the
    # family and chain kernels and the collapse kernels all go through
    # algebra._compile, which holds the package's one exec and one builtin
    # compile (cli's regular expression is re.compile, an attribute).
    found = []
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        for tok in bare_names(code_tokens(text), {"exec", "compile"}):
            found.append((path.name, enclosing_function(text, tok.start[0]), tok.string))
    assert sorted(found) == [("algebra.py", "_compile", "compile"),
                             ("algebra.py", "_compile", "exec")]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_reshape_between_matrix_layouts_is_left(path):
    # MassVector.coeff, the walk, the kernels and the cascade all hold a
    # matrix flat and row-major, so nothing converts to rows and back: no
    # _rows helper, by any name of it, and no flatten by sum(..., ()).
    tokens = code_tokens(path.read_text(encoding="utf-8"))
    assert [tok.string for tok in tokens if tok.string == "_rows"] == []
    assert empty_tuple_sums(tokens) == []
