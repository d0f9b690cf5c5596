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


def _formal(text: str) -> bool:
    """Whether a ``--mu`` text or the config's ``mu`` spells "formal"."""
    return text.strip() == "formal"


def _read_mu(text: str) -> tuple[tuple[int, ...], int] | None:
    """The three weights of ``--mu``, each positive, as ``(M, q)``; None for "formal".

    M/q are the weights over their one denominator (``algebra._scale``).
    """
    if _formal(text):
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
    parsed: list[int] = []
    for row in rows:
        entries = row.split(",")
        if len(entries) != 3:
            raise UsageError(f"each row needs three entries, got {row!r}")
        try:
            parsed += map(int, entries)
        except ValueError as exc:
            raise UsageError(f"bad integer in {row!r}") from exc
    return MassVector(tuple(parsed))


def _emit(obj) -> None:
    sys.stdout.write(_ENCODER.encode(obj) + "\n")


def _error(code: str, detail: str) -> None:
    _emit({"error": code, "detail": detail})


OUTPUT_FORMATS = ("json", "csv")
CSV_COLUMNS = ["level", "word", "c11", "c12", "c13", "c21", "c22", "c23",
               "c31", "c32", "c33", "type_m1", "type_m2", "ell", "m1", "m2"]

# An orbit record has a fixed shape, so it is one %-template per level,
# with the level written in once: JSON keys in the order coeff, level,
# word, type[, sigma] with compact separators; a closedform record adds its
# id last.  CSV fields are integers, a dotted word or p/q strings, so none
# is quoted.
_JSON_COEFF = '{"coeff":[[%d,%d,%d],[%d,%d,%d],[%d,%d,%d]],"level":'
_CSV_ROW = ",%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s,%d,%d"
_JSON_SIGMA, _CSV_SIGMA = ',"sigma":["%s","%s","%s"]', ",%s,%s,%s"

# The admissible residue pairs (m1 & 3, m2 & 3), each at slot
# (m1 & 3) << 2 | m2 & 3 of a 16-slot table: its family, its JSON type
# text and its CSV type and family columns.  The other eight slots hold
# None.
_FAMILIES = [closedform.FAMILY_BY_TYPE.get((k >> 2, k & 3)) for k in range(16)]
_JSON_TYPES = [ell and '"type":[%d,%d]' % (k >> 2, k & 3) for k, ell in enumerate(_FAMILIES)]
_CSV_TYPES = [ell and "%d,%d,%d" % (k >> 2, k & 3, ell) for k, ell in enumerate(_FAMILIES)]
_DIGITS = bytes.maketrans(b"\x01\x02\x03", b"123")
_JSON_BOOL = ("false", "true")


# A cascade record: the move, then the state after it.  Move texts are
# built from integers and the fixed variant names, so none needs escaping.
_CASCADE_RECORD = '{"move":"%s","gamma_coeff":%s,"lattice":%s,"total":["%s","%s","%s"]}\n'
_GAMMA_COEFF = "[[%d,%d,%d],[%d,%d,%d],[%d,%d,%d]]"
_LATTICE = "[%d,%d,%d]"


def _word_text(word) -> str:
    """A B2(1) word (a sequence of generators 1..3) as its digits joined by commas."""
    # Replacing the empty string puts a comma around every digit; the slice
    # drops the outer two.
    return bytes(word).translate(_DIGITS).decode("ascii").replace("", ",")[1:-1]


def _sigma_texts(coeff, scaled) -> tuple[str, str, str]:
    """``str`` of each component of a B2(1) matrix, flat and row-major, at the
    weights ``scaled`` = (M, q), as ``algebra.ratio_text`` writes it.

    Three flat dot products with M, each reduced by its gcd with the one
    denominator q, with no Fractions.
    """
    a, b, c, d, e, f, g, h, k = coeff
    (m1, m2, m3), q = scaled
    x, y, z = a * m1 + b * m2 + c * m3, d * m1 + e * m2 + f * m3, g * m1 + h * m2 + k * m3
    gx, gy, gz = math.gcd(x, q), math.gcd(y, q), math.gcd(z, q)
    return (str(x // gx) if gx == q else "%d/%d" % (x // gx, q // gx),
            str(y // gy) if gy == q else "%d/%d" % (y // gy, q // gy),
            str(z // gz) if gz == q else "%d/%d" % (z // gz, q // gz))


def _json_template(level: int, scaled, tail: str = "") -> str:
    """A JSON record at ``level``: the flat matrix, the word text and the type
    text go in, then the sigma texts when there are weights, then ``tail``."""
    return (_JSON_COEFF + str(level) + ',"word":[%s],%s'
            + ("" if scaled is None else _JSON_SIGMA) + tail + "}\n")


def _json_level(lines: list, level: int, entries, scaled) -> None:
    """Append the JSON record of each of a level's walk entries to ``lines``.

    The type's slot is read off the row sums s: (m1 & 3) << 2 is
    (s1 - s3) & 12, as m1 = (s1 - s3) >> 2.  A row sum outside 4Z or an
    inadmissible pair goes to ``closedform.parameters_from_sums``, whose
    checks are these two, so it raises its own error.
    """
    template, append = _json_template(level, scaled), lines.append
    for coeff, word, sums in entries:
        s1, s2, s3 = sums
        tag = _JSON_TYPES[(s1 - s3) & 12 | (s2 - s3) >> 2 & 3]
        if tag is None or (s1 | s2 | s3) & 3:
            closedform.parameters_from_sums(sums)
        if scaled is None:
            append(template % (*coeff, word, tag))
        else:
            append(template % (*coeff, word, tag, *_sigma_texts(coeff, scaled)))


def _csv_level(lines: list, level: int, entries, scaled) -> None:
    """Append the CSV row of each of a level's walk entries to ``lines``.

    Each row's id is read off its row sums, and its matrix is compared
    exactly with its family kernel's nine entries (``closedform._kernel``,
    fetched once per level by family index).  A row sum outside 4Z, an
    inadmissible pair or a mismatch goes to ``closedform.invert_rows``,
    whose checks are these three, so it raises its own error.
    """
    template = str(level) + _CSV_ROW + ("" if scaled is None else _CSV_SIGMA) + "\n"
    append = lines.append
    kernels = [ell and closedform._kernel(ell) for ell in _FAMILIES]
    for coeff, word, sums in entries:
        s1, s2, s3 = sums
        m1, m2 = (s1 - s3) >> 2, (s2 - s3) >> 2
        slot = (m1 & 3) << 2 | m2 & 3
        kernel = kernels[slot]
        if kernel is None or (s1 | s2 | s3) & 3 or kernel(m1, m2) != coeff:
            closedform.invert_rows(coeff, sums)
        if scaled is None:
            append(template % (word.replace(",", "."), *coeff, _CSV_TYPES[slot], m1, m2))
        else:
            append(template % (word.replace(",", "."), *coeff, _CSV_TYPES[slot], m1, m2,
                               *_sigma_texts(coeff, scaled)))


def cmd_orbit(args) -> int:
    scaled = _read_mu(args.mu)
    if args.max_level < 0:
        raise UsageError(f"--max-level must be >= 0, got {args.max_level}")
    if args.max_coefficient is not None and args.max_coefficient < 0:
        raise UsageError(f"--max-coefficient must be >= 0, got {args.max_coefficient}")
    # The walk yields one level at a time (``OrbitWalk.levels``), each
    # matrix flat and each word as its JSON text, which a CSV row dots.
    # One loop per format (``_json_level``, ``_csv_level``) formats a whole
    # level on integers alone: it reads the type, and for CSV the
    # closed-form id, off the row sums the walk carries, and checks each
    # CSV row exactly against its family kernel's entries.  Each level is
    # written with one write, and the totals come last.  The write sits in
    # a ``finally``, so when a row fails its check, the rows of its level
    # that passed are still written, ahead of the error record.
    walk = orbit.OrbitWalk(algebra.B2, args.max_level, args.max_coefficient)
    write = sys.stdout.write
    if args.output == "json":
        format_level = _json_level
    else:
        format_level = _csv_level
        columns = CSV_COLUMNS if scaled is None else CSV_COLUMNS + ["sigma1", "sigma2", "sigma3"]
        write(",".join(columns) + "\n")
    for level, entries in walk.levels():
        lines = []
        try:
            format_level(lines, level, entries, scaled)
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
    coeff = sigma.coeff
    fields = (*coeff, _word_text(word), _JSON_TYPES[args.m1 % 4 << 2 | args.m2 % 4])
    if scaled is not None:
        fields += _sigma_texts(coeff, scaled)
    template = _json_template(len(word), scaled, ',"closed_form":[%d,%d,%d]')
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
    """``str`` of each component of a flat 2x2 matrix at the weights ``scaled`` = ((w1, w2), q).

    Two flat dot products over the one denominator q, with no Fractions.
    """
    a, b, c, d = coeff
    (w1, w2), q = scaled
    return algebra.ratio_texts((a * w1 + b * w2, c * w1 + d * w2), q)


def cmd_sinh(args) -> int:
    # The weights are scaled once per request; each record is one template,
    # filled from the chain's (m, coeff) pairs.
    scaled = _read_pair(args.mu) if args.mu else None
    template = ('{"coeff":[[%d,%d],[%d,%d]],"m":%d,"level":%d'
                + ("" if scaled is None else ',"sigma":["%s","%s"]') + "}\n")

    if args.closed_form is not None:
        records = [(args.closed_form, sinh.sinh_closed_form(args.closed_form).coeff)]
    elif args.max_level is None:
        raise UsageError("sinh needs --max-level or --closed-form")
    elif args.max_level < 0:
        raise UsageError(f"--max-level must be >= 0, got {args.max_level}")
    else:
        records = sinh.sinh_orbit(args.max_level)
    for m, coeff in records:
        texts = () if scaled is None else _rank_two_texts(coeff, scaled)
        sys.stdout.write(template % (*coeff, m, abs(m), *texts))
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
        fields = coeff if scaled is None else (*coeff, *_rank_two_texts(coeff, scaled))
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
    # soon as it is formatted.  Each move carries its text; the orbit part's
    # and the lattice's texts are rebuilt only when the replay hands over a
    # new tuple, and a total's text only when that component's scaled total
    # q*(gamma + 4n) changed.
    q4, ratio, write = 4 * q, algebra.ratio_text, sys.stdout.write
    shown = held = None  # the matrix and lattice that gamma_text and lattice_text print
    a = b = c = None  # the scaled totals whose texts ta, tb and tc hold
    for move, (coeff, lattice, (u, v, w)) in zip(moves, cascade.replay(moves, probe)):
        if coeff is not shown:
            shown, gamma_text = coeff, _GAMMA_COEFF % coeff
        if lattice is not held:
            held, lattice_text = lattice, _LATTICE % lattice
            x, y, z = lattice
        if (t := u + q4 * x) != a:
            a, ta = t, ratio(t, q)
        if (t := v + q4 * y) != b:
            b, tb = t, ratio(t, q)
        if (t := w + q4 * z) != c:
            c, tc = t, ratio(t, q)
        write(_CASCADE_RECORD % (move.text, gamma_text, lattice_text, ta, tb, tc))
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
            "probe": "1,1,1" if _formal(mu) else mu,  # descend and cascade need numbers
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
