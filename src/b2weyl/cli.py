"""Command-line surface: deterministic, machine-readable, exact.

Rationals are serialized as "p/q" strings, never floats.  Exit codes:
0 success, 1 verification-negative, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import algebra, cascade, closedform, orbit, sinh, weyl2
from .algebra import MassVector, Weights

CONFIG_ENV = "B2WEYL_CONFIG"
# The one compact JSON encoder; json.dumps would build one per record.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors are UsageErrors, printed as records by main."""

    commands: dict[str, argparse.ArgumentParser]  # the top-level parser's name -> subparser

    def error(self, message: str):
        raise UsageError(message)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}: {exc}") from exc


def _parse_mu(text: str) -> Weights | None:
    """The weights, or None for "formal": records then carry no sigma."""
    if text.strip() == "formal":
        return None
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"--mu needs 'formal' or three comma-separated rationals, got {text!r}")
    try:
        return Weights(tuple(map(_parse_rational, parts)))  # type: ignore[arg-type]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_pair(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected two comma-separated rationals, got {text!r}")
    return (_parse_rational(parts[0]), _parse_rational(parts[1]))


def _parse_matrix(text: str) -> MassVector:
    rows = text.split(";")
    if len(rows) != 3:
        raise UsageError(f"matrix literal needs three ';'-separated rows, got {text!r}")
    parsed = []
    for row in rows:
        entries = row.split(",")
        if len(entries) != 3:
            raise UsageError(f"each row needs three entries, got {row!r}")
        try:
            parsed.append(tuple(map(int, entries)))
        except ValueError as exc:
            raise UsageError(f"bad integer in {row!r}") from exc
    return MassVector(tuple(parsed))  # type: ignore[arg-type]


def _emit(obj) -> None:
    sys.stdout.write(_ENCODER.encode(obj) + "\n")


def _error(code: str, detail: str) -> None:
    _emit({"error": code, "detail": detail})


OUTPUT_FORMATS = ("json", "csv")
CSV_COLUMNS = ["level", "word", "c11", "c12", "c13", "c21", "c22", "c23",
               "c31", "c32", "c33", "type_m1", "type_m2", "ell", "m1", "m2"]

# An orbit record has a fixed shape, so it is one %-template: JSON keys in
# the order coeff, level, word, type[, sigma] with compact separators; a
# closedform record adds its id last.  CSV fields are integers, a dotted
# word or p/q strings, so none is quoted.
_JSON_RECORD = ('{"coeff":[[%d,%d,%d],[%d,%d,%d],[%d,%d,%d]],"level":%d,"word":[%s],'
                '"type":[%d,%d]')
_DIGITS = bytes.maketrans(b"\x01\x02\x03", b"123")


# A cascade record: the move, then the state after it.  Move texts are
# built from integers and the fixed variant names, so none needs escaping.
_CASCADE_RECORD = ('{"move":"%s","gamma_coeff":[[%d,%d,%d],[%d,%d,%d],[%d,%d,%d]],'
                   '"lattice":[%d,%d,%d],"total":["%s","%s","%s"]}\n')


def _word_text(word) -> str:
    """A B2(1) word (a sequence of generators 1..3) as its digits joined by commas."""
    # Replacing the empty string puts a comma around every digit; the slice
    # drops the outer two.
    return bytes(word).translate(_DIGITS).decode("ascii").replace("", ",")[1:-1]


def _sigma_texts(coeff, weights) -> list[str]:
    """``str(Fraction)`` of each component at the weights, without the Fractions.

    ``coeff`` is a coefficient matrix the engine built, and ``weights``
    is anything ``algebra.scaled_values`` takes.
    """
    return algebra.ratio_texts(*algebra.scaled_values(MassVector._unchecked(coeff), weights))


def _b2_sigma_texts(coeff, weights: Weights) -> list[str]:
    """``_sigma_texts`` of a B2(1) matrix: three flat dot products with ``weights.scaled``."""
    (a, b, c), (d, e, f), (g, h, k) = coeff
    (m1, m2, m3), q = weights.scaled
    return algebra.ratio_texts((a * m1 + b * m2 + c * m3, d * m1 + e * m2 + f * m3,
                                g * m1 + h * m2 + k * m3), q)


def _json_template(weights: Weights | None, tail: str = "") -> str:
    """``_JSON_RECORD``, the sigma slots when there are weights, then ``tail``."""
    sigma = "" if weights is None else ',"sigma":["%s","%s","%s"]'
    return _JSON_RECORD + sigma + tail + "}\n"


def _json_fields(coeff, level: int, word: str, tag, weights: Weights | None) -> tuple:
    """The values for ``_JSON_RECORD`` (``word`` comma-joined), then any sigma texts."""
    row1, row2, row3 = coeff
    fields = (*row1, *row2, *row3, level, word, *tag)
    if weights is not None:
        fields += tuple(_b2_sigma_texts(coeff, weights))
    return fields


def cmd_orbit(args) -> int:
    weights = _parse_mu(args.mu)
    if args.max_level < 0:
        raise UsageError(f"--max-level must be >= 0, got {args.max_level}")
    if args.max_coefficient is not None and args.max_coefficient < 0:
        raise UsageError(f"--max-coefficient must be >= 0, got {args.max_coefficient}")
    if args.output not in OUTPUT_FORMATS:
        raise UsageError(f"--output must be json or csv, got {args.output!r}")
    # The walk yields one level at a time (``OrbitWalk.levels``).  Each
    # level's records are rendered in one pass and written with one write;
    # the totals come last.  The walk carries each word as its JSON text,
    # which a CSV row dots.  A JSON record is typed from the row sums the
    # walk carries; a CSV row takes its closed-form id from them too and is
    # checked exactly against the family's evaluated rows.  The write sits
    # in a ``finally``, so when a row fails its check, the rows of its
    # level that passed are still written, ahead of the error record.
    walk = orbit.OrbitWalk(algebra.B2, args.max_level, args.max_coefficient)
    write = sys.stdout.write
    if args.output == "json":
        template = _json_template(weights)

        def record(coeff, level, word, sums):
            tag = closedform.parameters_from_sums(sums)[0]
            return template % _json_fields(coeff, level, word, tag, weights)
    else:
        columns = list(CSV_COLUMNS)
        if weights is not None:
            columns += ["sigma1", "sigma2", "sigma3"]
        template = ",".join(["%s"] * len(columns)) + "\n"
        write(",".join(columns) + "\n")

        def record(coeff, level, word, sums):
            cid = closedform.invert_rows(coeff, sums)
            row1, row2, row3 = coeff
            fields = (level, word.replace(",", "."), *row1, *row2, *row3,
                      *closedform.TYPE_BY_FAMILY[cid.ell], *cid)
            if weights is not None:
                fields += tuple(_b2_sigma_texts(coeff, weights))
            return template % fields
    for level, entries in walk.levels():
        lines = []
        try:
            for coeff, word, sums in entries:
                lines.append(record(coeff, level, word, sums))
        finally:
            write("".join(lines))
    if args.output == "json":
        _emit({"meta": {"count": walk.count, "truncated": walk.truncated,
                        "max_level": args.max_level,
                        "max_coefficient": args.max_coefficient}})
    else:
        write(f"# truncated={str(walk.truncated).lower()} count={walk.count}\n")
    return 0


def cmd_check(args) -> int:
    sigma = _parse_matrix(args.sigma)
    cert = orbit.is_member_gamma_N(sigma)
    _emit({"member": cert.member, "nonneg": cert.nonneg, "div4": cert.div4,
           "quadric_zero": cert.quadric_zero})
    return 0 if cert.member else 1


def cmd_descend(args) -> int:
    sigma = _parse_matrix(args.sigma)
    # --mu is validated, but the descent word does not depend on it.
    if _parse_mu(args.mu) is None:
        raise UsageError("descent probe must be numeric")
    _emit({"word": orbit.descend_to_origin(sigma)})
    return 0


def cmd_type(args) -> int:
    # The type of the verified closed form, so a vector outside the orbit fails.
    cid = closedform.invert_to_closed_form(_parse_matrix(args.sigma))
    _emit({"type": list(closedform.TYPE_BY_FAMILY[cid.ell])})
    return 0


def cmd_closedform(args) -> int:
    weights = _parse_mu(args.mu)
    if args.ell not in closedform.TYPE_BY_FAMILY:
        raise UsageError(f"family index must be 1..8, got {args.ell}")
    cid = closedform.ClosedFormId(args.ell, args.m1, args.m2)
    sigma = closedform.closed_form_eval(cid)  # validates the id first
    word = closedform.reduced_word(args.m1, args.m2)[::-1]  # reduced: its length is the level
    template = _json_template(weights, ',"closed_form":[%d,%d,%d]')
    fields = _json_fields(sigma.coeff, len(word), _word_text(word),
                          closedform.TYPE_BY_FAMILY[cid.ell], weights)
    sys.stdout.write(template % (*fields, *cid))
    return 0


def cmd_relations(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    failures = orbit.check_relations()
    _emit({
        "trials": args.trials,
        "seed": args.seed,
        "failures": [{"relation": name} for name in failures],
        "passed": not failures,
    })
    return 1 if failures else 0


def cmd_sinh(args) -> int:
    mu = _parse_pair(args.mu) if args.mu else None

    def rec(vec: MassVector) -> dict:
        m = sinh.sinh_invert(vec)
        out = {"coeff": [list(row) for row in vec.coeff], "m": m, "level": abs(m)}
        if mu is not None:
            out["sigma"] = _sigma_texts(vec.coeff, mu)
        return out

    if args.closed_form is not None:
        _emit(rec(sinh.sinh_closed_form(args.closed_form)))
        return 0
    if args.max_level is None:
        raise UsageError("sinh needs --max-level or --closed-form")
    if args.max_level < 0:
        raise UsageError(f"--max-level must be >= 0, got {args.max_level}")
    for vec in sinh.sinh_orbit(args.max_level):
        _emit(rec(vec))
    return 0


def cmd_weyl2(args) -> int:
    if args.part is not None:
        if args.alpha is None:
            raise UsageError("--part needs --alpha a1,a2")
        a1, a2 = _parse_pair(args.alpha)
        try:
            result = weyl2.appendix_table(args.part, a1, a2)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        if args.part == "a":
            _emit({"part": "a", "tuple": [str(result[0]), str(result[1])]})
        elif args.part == "c":
            tuples = sorted(result)
            _emit({"part": "c", "tuples": [[str(u), str(v)] for u, v in tuples]})
        else:
            _emit({"part": "b", "tuples": [list(t) for t in result.tuples],
                   "all_nonnegative": result.all_nonnegative,
                   "all_multiples_of_four": result.all_multiples_of_four,
                   "ok": result.ok})
        return 0
    if args.subsystem is None:
        raise UsageError("weyl2 needs --subsystem or --part")
    sub = weyl2.SUBSYSTEMS.get(args.subsystem)
    if sub is None:
        raise UsageError(f"unknown subsystem {args.subsystem!r}")
    values = _parse_pair(args.weights) if args.weights else None
    for coeff in weyl2.finite_orbit(sub):
        rec = {"coeff": [list(row) for row in coeff]}
        if values is not None:
            rec["values"] = _sigma_texts(coeff, values)
        _emit(rec)
    return 0


def cmd_cascade(args) -> int:
    probe = _parse_mu(args.mu)
    if probe is None:
        raise UsageError("cascade probe must be numeric")
    try:
        text = Path(args.scenario).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read scenario file: {exc}") from exc
    try:
        moves = cascade.parse_scenario(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # Nothing is written until the whole replay has passed, so a rejected
    # scenario prints its error record alone.  The parser shares one move
    # among repeated lines, so each move's text is built once; the total
    # texts are rebuilt only when the scaled totals changed.
    q = probe.scaled[1]
    lines, move_texts, totals, texts = [], {}, None, None
    for move, state in zip(moves, cascade.replay(moves, probe)):
        text = move_texts.get(id(move))
        if text is None:
            text = move_texts[id(move)] = move.describe()
        scaled = state.scaled_totals()
        if scaled != totals:
            totals, texts = scaled, algebra.ratio_texts(scaled, q)
        row1, row2, row3 = state.gamma.coeff
        lines.append(_CASCADE_RECORD % (text, *row1, *row2, *row3, *state.lattice, *texts))
    sys.stdout.write("".join(lines))
    return 0


_CONFIG_TYPES = {"max_level": int, "max_coefficient": int, "trials": int, "seed": int,
                 "mu": str, "output": str}


def _load_config() -> dict:
    """The defaults file named by B2WEYL_CONFIG, read afresh on every call."""
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        config = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise UsageError(f"bad config file {path!r}: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError(f"bad config file {path!r}: top level must be an object")
    for key, kind in _CONFIG_TYPES.items():
        value = config.get(key, kind())
        # An exact type test: JSON true is a bool, which isinstance counts as an int.
        if type(value) is not kind:
            raise UsageError(f"bad config file {path!r}: {key!r} must be "
                             f"{kind.__name__}, got {value!r}")
    if config.get("output", "json") not in OUTPUT_FORMATS:
        raise UsageError(f"bad config file {path!r}: 'output' must be json or csv, "
                         f"got {config['output']!r}")
    return config


def build_parser(config: dict) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="b2weyl",
        description="Exact affine Weyl orbit engine for quantized blow-up masses.")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # filled by add_parser below

    mu_default = config.get("mu", "formal")
    probe_default = mu_default if mu_default != "formal" else "1,1,1"

    p = sub.add_parser("orbit", help="enumerate the reflection orbit of the origin")
    p.add_argument("--max-level", type=int, default=config.get("max_level"),
                   required=config.get("max_level") is None)
    p.add_argument("--max-coefficient", type=int, default=config.get("max_coefficient"))
    p.add_argument("--mu", default=mu_default)
    p.add_argument("--output", choices=OUTPUT_FORMATS, default=config.get("output", "json"))
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("check", help="lattice membership with certificate")
    p.add_argument("sigma")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("descend", help="greedy descent word to the origin")
    p.add_argument("sigma")
    p.add_argument("--mu", default=probe_default)
    p.set_defaults(func=cmd_descend)

    p = sub.add_parser("type", help="mod-4 type of a lattice member")
    p.add_argument("sigma")
    p.set_defaults(func=cmd_type)

    p = sub.add_parser("closedform", help="evaluate a closed-form family")
    p.add_argument("ell", type=int)
    p.add_argument("m1", type=int)
    p.add_argument("m2", type=int)
    p.add_argument("--mu", default=mu_default)
    p.set_defaults(func=cmd_closedform)

    p = sub.add_parser("relations", help="exact group-presentation check")
    p.add_argument("--trials", type=int, default=config.get("trials", 100))
    p.add_argument("--seed", type=int, default=config.get("seed", 0))
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("sinh", help="rank-one reduction: orbit and closed form")
    p.add_argument("--max-level", type=int, default=None)
    p.add_argument("--closed-form", type=int, default=None)
    p.add_argument("--mu", default=None, help="two comma-separated rationals")
    p.set_defaults(func=cmd_sinh)

    p = sub.add_parser("weyl2", help="finite rank-two orbits and singular-source tables")
    p.add_argument("--subsystem", choices=sorted(weyl2.SUBSYSTEMS), default=None)
    p.add_argument("--weights", default=None, help="two comma-separated rationals")
    p.add_argument("--part", choices=("a", "b", "c"), default=None)
    p.add_argument("--alpha", default=None, help="two comma-separated rationals")
    p.set_defaults(func=cmd_weyl2)

    p = sub.add_parser("cascade", help="replay a mass-combination scenario file")
    p.add_argument("scenario")
    p.add_argument("--mu", default=probe_default)
    p.set_defaults(func=cmd_cascade)

    return parser


# One slot: the parser for the most recent defaults, keyed by a copy of
# the config dict itself.  The parser reads only the validated keys, whose
# values are exact ints and strs, so equal dicts give the same parser.
# parse_args builds a fresh Namespace per call and no default is mutable,
# so reusing the parser carries no state over.
_parser_slot: tuple[dict, argparse.ArgumentParser] | None = None


def _parser_for(config: dict) -> argparse.ArgumentParser:
    global _parser_slot
    if _parser_slot is None or _parser_slot[0] != config:
        _parser_slot = (dict(config), build_parser(config))
    return _parser_slot[1]


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """``parser.parse_args(argv)``, with the top-level pass skipped where it adds nothing.

    When ``argv`` starts with a subcommand's name, the top-level parser
    would only hand the rest to that subcommand's parser unchanged, so
    the subparser parses it alone.  Any other argv (empty, an option such
    as --help first, or an unknown or abbreviated name) goes through the
    full parser, which writes the help or the usage error itself.
    """
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args = sub.parse_args(argv[1:])
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    """Run one request (``sys.argv[1:]`` by default) and return its exit code.

    A request names its subcommand first and is parsed by that
    subcommand's parser alone, with the same output and errors as the
    full parser.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(_parser_for(_load_config()), argv)
        return args.func(args)
    except UsageError as exc:
        _error("usage", str(exc))
        return 2
    except (cascade.NonPhysicalMove, cascade.InvalidSatellite) as exc:
        _error("rejected-move", str(exc))
        return 1
    except ValueError as exc:
        _error("verification", str(exc))
        return 1


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)
