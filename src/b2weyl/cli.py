"""Command-line surface: deterministic, machine-readable, exact.

Rationals are serialized as "p/q" strings, never floats.  Exit codes:
0 success, 1 verification-negative, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import algebra, cascade, closedform, orbit, sinh, weyl2
from .algebra import MassVector, Weights

CONFIG_ENV = "B2WEYL_CONFIG"
# The one compact JSON encoder, for error records and the orbit meta record;
# every other record is a %-template.  json.dumps would build one per record.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors are UsageErrors, printed as records by main."""

    def error(self, message: str):
        raise UsageError(message)


def _read_rational(text: str) -> tuple[int, int]:
    """``(p, q)`` of ``Fraction(text.strip())``: in lowest terms, with q > 0.

    A plain ASCII spelling, ``[+-]digits`` or ``[+-]digits/digits`` with a
    nonzero denominator, is read with ``int`` and ``math.gcd``.  Every
    other spelling goes to ``Fraction``, so what is accepted and every
    error text stay its own.
    """
    plain = text.strip()
    num, slash, den = plain.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if plain.isascii() and digits.isdigit() and (den.isdigit() or not slash):
        try:  # int refuses digit strings over its length limit; Fraction words that error
            p, q = int(num), int(den) if slash else 1
        except ValueError:
            q = 0
        if q:
            g = math.gcd(p, q)
            return p // g, q // g
    try:
        value = Fraction(plain)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}: {exc}") from exc
    return value.numerator, value.denominator


def _read_mu(text: str) -> tuple[tuple[int, ...], int] | None:
    """The three weights of ``--mu``, each positive, as ``(M, q)``; None for "formal".

    M/q are the weights over their one denominator (``algebra._scale``).
    """
    if text.strip() == "formal":
        return None
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"--mu needs 'formal' or three comma-separated rationals, got {text!r}")
    pairs = [_read_rational(part) for part in parts]
    for p, q in pairs:
        if p <= 0:
            raise UsageError(f"weights must be positive, got {p if q == 1 else f'{p}/{q}'}")
    return algebra._scale(pairs)


def _read_pair(text: str) -> tuple[tuple[int, ...], int]:
    """Two comma-separated rationals as ``(M, q)``, as ``_read_mu`` reads three."""
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected two comma-separated rationals, got {text!r}")
    return algebra._scale([_read_rational(part) for part in parts])


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
_JSON_BOOL = ("false", "true")


# A cascade record: the move, then the state after it.  Move texts are
# built from integers and the fixed variant names, so none needs escaping.
_CASCADE_RECORD = ('{"move":"%s","gamma_coeff":[[%d,%d,%d],[%d,%d,%d],[%d,%d,%d]],'
                   '"lattice":[%d,%d,%d],"total":["%s","%s","%s"]}\n')


def _word_text(word) -> str:
    """A B2(1) word (a sequence of generators 1..3) as its digits joined by commas."""
    # Replacing the empty string puts a comma around every digit; the slice
    # drops the outer two.
    return bytes(word).translate(_DIGITS).decode("ascii").replace("", ",")[1:-1]


def _b2_sigma_texts(coeff, scaled) -> list[str]:
    """``str`` of each component of a B2(1) matrix at the weights ``scaled`` = (M, q).

    Three flat dot products with M, over the one denominator q, with no Fractions.
    """
    (a, b, c), (d, e, f), (g, h, k) = coeff
    (m1, m2, m3), q = scaled
    return algebra.ratio_texts((a * m1 + b * m2 + c * m3, d * m1 + e * m2 + f * m3,
                                g * m1 + h * m2 + k * m3), q)


def _json_template(scaled, tail: str = "") -> str:
    """``_JSON_RECORD``, the sigma slots when there are weights, then ``tail``."""
    sigma = "" if scaled is None else ',"sigma":["%s","%s","%s"]'
    return _JSON_RECORD + sigma + tail + "}\n"


def _json_fields(coeff, level: int, word: str, tag, scaled) -> tuple:
    """The values for ``_JSON_RECORD`` (``word`` comma-joined), then any sigma texts."""
    row1, row2, row3 = coeff
    fields = (*row1, *row2, *row3, level, word, *tag)
    if scaled is not None:
        fields += tuple(_b2_sigma_texts(coeff, scaled))
    return fields


def cmd_orbit(args) -> int:
    scaled = _read_mu(args.mu)
    if args.max_level < 0:
        raise UsageError(f"--max-level must be >= 0, got {args.max_level}")
    if args.max_coefficient is not None and args.max_coefficient < 0:
        raise UsageError(f"--max-coefficient must be >= 0, got {args.max_coefficient}")
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
        template = _json_template(scaled)

        def record(coeff, level, word, sums):
            tag = closedform.parameters_from_sums(sums)[0]
            return template % _json_fields(coeff, level, word, tag, scaled)
    else:
        columns = list(CSV_COLUMNS)
        if scaled is not None:
            columns += ["sigma1", "sigma2", "sigma3"]
        template = ",".join(["%s"] * len(columns)) + "\n"
        write(",".join(columns) + "\n")

        def record(coeff, level, word, sums):
            cid = closedform.invert_rows(coeff, sums)
            row1, row2, row3 = coeff
            fields = (level, word.replace(",", "."), *row1, *row2, *row3,
                      *closedform.TYPE_BY_FAMILY[cid.ell], *cid)
            if scaled is not None:
                fields += tuple(_b2_sigma_texts(coeff, scaled))
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
    cert = orbit.is_member_gamma_N(_parse_matrix(args.sigma))
    sys.stdout.write('{"member":%s,"nonneg":%s,"div4":%s,"quadric_zero":%s}\n' % (
        _JSON_BOOL[cert.member], _JSON_BOOL[cert.nonneg], _JSON_BOOL[cert.div4],
        _JSON_BOOL[cert.quadric_zero]))
    return 0 if cert.member else 1


def cmd_descend(args) -> int:
    sigma = _parse_matrix(args.sigma)
    # --mu is validated, but the descent word does not depend on it.
    if _read_mu(args.mu) is None:
        raise UsageError("descent probe must be numeric")
    sys.stdout.write('{"word":[%s]}\n' % _word_text(orbit.descend_to_origin(sigma)))
    return 0


def cmd_type(args) -> int:
    sys.stdout.write('{"type":[%d,%d]}\n' % closedform.type_of(_parse_matrix(args.sigma)))
    return 0


def cmd_closedform(args) -> int:
    scaled = _read_mu(args.mu)
    if args.ell not in closedform.TYPE_BY_FAMILY:
        raise UsageError(f"family index must be 1..8, got {args.ell}")
    cid = closedform.ClosedFormId(args.ell, args.m1, args.m2)
    sigma = closedform.closed_form_eval(cid)  # validates the id first
    word = closedform.reduced_word(args.m1, args.m2)[::-1]  # reduced: its length is the level
    template = _json_template(scaled, ',"closed_form":[%d,%d,%d]')
    fields = _json_fields(sigma.coeff, len(word), _word_text(word),
                          closedform.TYPE_BY_FAMILY[cid.ell], scaled)
    sys.stdout.write(template % (*fields, *cid))
    return 0


def cmd_relations(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    failures = orbit.check_relations()
    # Relation names are fixed identifiers, so none needs escaping.
    sys.stdout.write('{"trials":%d,"seed":%d,"failures":[%s],"passed":%s}\n' % (
        args.trials, args.seed, ",".join('{"relation":"%s"}' % name for name in failures),
        _JSON_BOOL[not failures]))
    return 1 if failures else 0


def _rank_two_texts(coeff, scaled) -> list[str]:
    """``str`` of each component of a 2x2 matrix at the weights ``scaled`` = ((w1, w2), q).

    Two flat dot products over the one denominator q, with no Fractions.
    """
    (a, b), (c, d) = coeff
    (w1, w2), q = scaled
    return algebra.ratio_texts((a * w1 + b * w2, c * w1 + d * w2), q)


def cmd_sinh(args) -> int:
    # The weights are scaled once per request; each record is one template.
    scaled = _read_pair(args.mu) if args.mu else None
    template = ('{"coeff":[[%d,%d],[%d,%d]],"m":%d,"level":%d'
                + ("" if scaled is None else ',"sigma":["%s","%s"]') + "}\n")

    def record(vec: MassVector) -> str:
        m = sinh.sinh_invert(vec)
        row1, row2 = vec.coeff
        fields = (*row1, *row2, m, abs(m))
        if scaled is not None:
            fields += tuple(_rank_two_texts(vec.coeff, scaled))
        return template % fields

    if args.closed_form is not None:
        sys.stdout.write(record(sinh.sinh_closed_form(args.closed_form)))
        return 0
    if args.max_level is None:
        raise UsageError("sinh needs --max-level or --closed-form")
    if args.max_level < 0:
        raise UsageError(f"--max-level must be >= 0, got {args.max_level}")
    for vec in sinh.sinh_orbit(args.max_level):
        sys.stdout.write(record(vec))
    return 0


def cmd_weyl2(args) -> int:
    if args.part is not None:
        if args.alpha is None:
            raise UsageError("--part needs --alpha a1,a2")
        alpha, d = _read_pair(args.alpha)
        a1, a2 = (Fraction(n, d) for n in alpha)
        try:
            if args.part == "c":
                pairs, q = weyl2.appendix_pairs(a1, a2)
            else:
                result = weyl2.appendix_table(args.part, a1, a2)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        if args.part == "a":
            sys.stdout.write('{"part":"a","tuple":["%s","%s"]}\n' % result)
        elif args.part == "c":
            tuples = ",".join('["%s","%s"]' % tuple(algebra.ratio_texts(pair, q))
                              for pair in pairs)
            sys.stdout.write('{"part":"c","tuples":[%s]}\n' % tuples)
        else:
            sys.stdout.write(
                '{"part":"b","tuples":[%s],"all_nonnegative":%s,"all_multiples_of_four":%s,'
                '"ok":%s}\n' % (",".join("[%d,%d]" % t for t in result.tuples),
                                 _JSON_BOOL[result.all_nonnegative],
                                 _JSON_BOOL[result.all_multiples_of_four],
                                 _JSON_BOOL[result.ok]))
        return 0
    if args.subsystem is None:
        raise UsageError("weyl2 needs --subsystem or --part")
    sub = weyl2.SUBSYSTEMS[args.subsystem]
    scaled = _read_pair(args.weights) if args.weights else None
    template = ('{"coeff":[[%d,%d],[%d,%d]]'
                + ("" if scaled is None else ',"values":["%s","%s"]') + "}\n")
    for coeff in weyl2.finite_orbit(sub):
        row1, row2 = coeff
        fields = (*row1, *row2)
        if scaled is not None:
            fields += tuple(_rank_two_texts(coeff, scaled))
        sys.stdout.write(template % fields)
    return 0


def cmd_cascade(args) -> int:
    weights = _read_mu(args.mu)
    if weights is None:
        raise UsageError("cascade probe must be numeric")
    mu, q = weights
    probe = Weights(tuple(Fraction(m, q) for m in mu))
    try:
        text = Path(args.scenario).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read scenario file: {exc}") from exc
    try:
        moves = cascade.parse_scenario(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # Nothing is written until the whole replay has passed, so a rejected
    # scenario prints its error record alone; then each record is written as
    # soon as it is formatted.  Each move carries its text, and a total's
    # text is rebuilt only when that component's scaled total q*(gamma + 4n)
    # changed.
    q4, ratio, write = 4 * q, algebra.ratio_text, sys.stdout.write
    a = b = c = None  # the scaled totals whose texts ta, tb and tc hold
    for move, (coeff, (x, y, z), (u, v, w)) in zip(moves, cascade.replay(moves, probe)):
        if (t := u + q4 * x) != a:
            a, ta = t, ratio(t, q)
        if (t := v + q4 * y) != b:
            b, tb = t, ratio(t, q)
        if (t := w + q4 * z) != c:
            c, tc = t, ratio(t, q)
        row1, row2, row3 = coeff
        write(_CASCADE_RECORD % (move.text, *row1, *row2, *row3, x, y, z, ta, tb, tc))
    return 0


_CONFIG_TYPES = {"max_level": int, "max_coefficient": int, "trials": int, "seed": int,
                 "mu": str, "output": str}


def _load_config() -> dict:
    """The defaults file named by B2WEYL_CONFIG, read afresh on every call."""
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8-sig"))
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


# The nine subcommands, the one description of the command line that
# build_parser and the direct parser both read.  Each is its help, its
# handler, its positionals as (dest, type) and its options as (flag,
# type, choices, default key, required when the default is None, help).
# A default key names an entry of _defaults(config).
_COMMANDS = {
    "orbit": ("enumerate the reflection orbit of the origin", cmd_orbit, (), (
        ("--max-level", int, None, "max_level", True, None),
        ("--max-coefficient", int, None, "max_coefficient", False, None),
        ("--mu", str, None, "mu", False, None),
        ("--output", str, OUTPUT_FORMATS, "output", False, None))),
    "check": ("lattice membership with certificate", cmd_check, (("sigma", str),), ()),
    "descend": ("greedy descent word to the origin", cmd_descend, (("sigma", str),), (
        ("--mu", str, None, "probe", False, None),)),
    "type": ("mod-4 type of a lattice member", cmd_type, (("sigma", str),), ()),
    "closedform": ("evaluate a closed-form family", cmd_closedform,
                   (("ell", int), ("m1", int), ("m2", int)), (
        ("--mu", str, None, "mu", False, None),)),
    "relations": ("exact group-presentation check", cmd_relations, (), (
        ("--trials", int, None, "trials", False, None),
        ("--seed", int, None, "seed", False, None))),
    "sinh": ("rank-one reduction: orbit and closed form", cmd_sinh, (), (
        ("--max-level", int, None, None, False, None),
        ("--closed-form", int, None, None, False, None),
        ("--mu", str, None, None, False, "two comma-separated rationals"))),
    "weyl2": ("finite rank-two orbits and singular-source tables", cmd_weyl2, (), (
        ("--subsystem", str, tuple(sorted(weyl2.SUBSYSTEMS)), None, False, None),
        ("--weights", str, None, None, False, "two comma-separated rationals"),
        ("--part", str, ("a", "b", "c"), None, False, None),
        ("--alpha", str, None, None, False, "two comma-separated rationals"))),
    "cascade": ("replay a mass-combination scenario file", cmd_cascade, (("scenario", str),), (
        ("--mu", str, None, "probe", False, None),)),
}


def _defaults(config: dict) -> dict:
    """The value of each default key of ``_COMMANDS`` under ``config``; None has none."""
    mu = config.get("mu", "formal")
    return {None: None, "max_level": config.get("max_level"),
            "max_coefficient": config.get("max_coefficient"), "mu": mu,
            "probe": mu if mu != "formal" else "1,1,1",  # descend and cascade need numbers
            "output": config.get("output", "json"), "trials": config.get("trials", 100),
            "seed": config.get("seed", 0)}


def build_parser(config: dict) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="b2weyl",
        description="Exact affine Weyl orbit engine for quantized blow-up masses.")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = _defaults(config)
    for name, (summary, func, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for dest, kind in positionals:
            p.add_argument(dest, type=kind)
        for flag, kind, choices, key, needed, hint in options:
            p.add_argument(flag, type=kind, choices=choices, default=defaults[key],
                           required=needed and defaults[key] is None, help=hint)
        p.set_defaults(func=func)
    return parser


def _canonical_table(config: dict) -> dict:
    """Per subcommand, what the direct parser needs under ``config``.

    That is its positionals as (dest, type, None), its options by flag
    as (dest, type, choices), the dests that must be given, and the
    namespace ``parse_args`` starts from: the command, every dest with
    its default in the parser's order, then the handler.
    """
    defaults = _defaults(config)
    table = {}
    for name, (_, func, positionals, options) in _COMMANDS.items():
        start = {"command": name}
        start.update((dest, None) for dest, _ in positionals)
        flags, required = {}, [dest for dest, _ in positionals]
        for flag, kind, choices, key, needed, _ in options:
            dest = flag[2:].replace("-", "_")
            start[dest] = defaults[key]
            flags[flag] = (dest, kind, choices)
            if needed and defaults[key] is None:
                required.append(dest)
        start["func"] = func
        table[name] = (tuple((dest, kind, None) for dest, kind in positionals),
                       flags, required, start)
    return table


# argparse's rule for a token that starts with "-" but is a value: it
# looks like a negative number, and no option of the parser does.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _parse_canonical(table: dict, argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``parse_args(argv)`` gives, for canonical ``argv``; else None.

    Canonical is the subcommand's name first, then exactly its
    positionals and each option at most once by its full name, as
    ``--opt value`` or ``--opt=value``, with no ``--``.  A token that
    starts with "-" is a value only by argparse's negative-number rule.
    Each value goes through its type and choices.  Anything else, a
    value that fails them included, gives None, and argparse parses it,
    writing every help text and usage error itself.
    """
    command = table.get(argv[0]) if argv else None
    if command is None:
        return None
    positionals, flags, required, start = command
    positionals, tokens, values = iter(positionals), iter(argv[1:]), {}
    for token in tokens:
        if token[:1] != "-" or _NEGATIVE_NUMBER.match(token):
            spec, value = next(positionals, None), token
        else:
            flag, eq, value = token.partition("=")
            spec = flags.get(flag)
            if not eq:
                value = next(tokens, None)
                if value is None or value[:1] == "-" and not _NEGATIVE_NUMBER.match(value):
                    return None
            elif not value:
                return None
        if spec is None or spec[0] in values:
            return None
        dest, kind, choices = spec
        try:
            value = kind(value)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    for dest in required:
        if dest not in values:
            return None
    namespace = argparse.Namespace()
    vars(namespace).update(start, **values)
    return namespace


# One slot: the parser and the direct parser's table for the most recent
# defaults, keyed by a copy of the config dict itself.  Both read only the
# validated keys, whose values are exact ints and strs, so equal dicts
# give the same parser.  Each parse builds a fresh Namespace and no
# default is mutable, so reusing them carries no state over.
_parser_slot: tuple[dict, argparse.ArgumentParser, dict] | None = None


def _parser_for(config: dict) -> tuple[argparse.ArgumentParser, dict]:
    global _parser_slot
    if _parser_slot is None or _parser_slot[0] != config:
        _parser_slot = (dict(config), build_parser(config), _canonical_table(config))
    return _parser_slot[1:]


def main(argv: list[str] | None = None) -> int:
    """Run one request (``sys.argv[1:]`` by default) and return its exit code.

    Canonical argv (``_parse_canonical``) is parsed directly from the
    subcommand table.  All other argv, every help text and every usage
    error go through the argparse parser, with the same namespace,
    output and errors on both paths.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        parser, table = _parser_for(_load_config())
        args = _parse_canonical(table, argv)
        if args is None:
            args = parser.parse_args(argv)
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
