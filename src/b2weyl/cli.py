"""Command-line surface: deterministic, machine-readable, exact.

Rationals are serialized as "p/q" strings, never floats.  Exit codes:
0 success, 1 verification-negative, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import algebra, cascade, closedform, orbit, sinh, weyl2
from .algebra import FORMAL, MassVector, Weights

CONFIG_ENV = "B2WEYL_CONFIG"


class UsageError(ValueError):
    pass


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}: {exc}") from exc


def _parse_mu(text: str) -> Weights:
    if text.strip() == "formal":
        return FORMAL
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"--mu needs 'formal' or three comma-separated rationals, got {text!r}")
    try:
        return Weights.numeric(*(_parse_rational(p) for p in parts))
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
            parsed.append(tuple(int(e) for e in entries))
        except ValueError as exc:
            raise UsageError(f"bad integer in {row!r}") from exc
    return MassVector(tuple(parsed))  # type: ignore[arg-type]


def _emit(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _error(code: str, detail: str) -> None:
    _emit({"error": code, "detail": detail})


def _record(sigma: MassVector, level: int, word, weights: Weights) -> dict:
    rec = {
        "coeff": [list(row) for row in sigma.coeff],
        "level": level,
        "word": list(word),
        "type": list(closedform.type_of(sigma)),
    }
    if weights.is_numeric:
        rec["sigma"] = [str(v) for v in algebra.eval_at(sigma, weights)]
    return rec


CSV_COLUMNS = ["level", "word", "c11", "c12", "c13", "c21", "c22", "c23",
               "c31", "c32", "c33", "type_m1", "type_m2", "ell", "m1", "m2"]


def cmd_orbit(args) -> int:
    weights = _parse_mu(args.mu)
    if args.max_level < 0:
        raise UsageError(f"--max-level must be >= 0, got {args.max_level}")
    if args.max_coefficient is not None and args.max_coefficient < 0:
        raise UsageError(f"--max-coefficient must be >= 0, got {args.max_coefficient}")
    store = orbit.enumerate_orbit(args.max_level, args.max_coefficient)
    if args.output == "json":
        for el in store:
            _emit(_record(el.sigma, el.level, el.word, weights))
        _emit({"meta": {"count": len(store), "truncated": store.truncated,
                        "max_level": store.max_level,
                        "max_coefficient": store.max_coefficient}})
    else:
        columns = list(CSV_COLUMNS)
        if weights.is_numeric:
            columns += ["sigma1", "sigma2", "sigma3"]
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        for el in store:
            cid = closedform.invert_to_closed_form(el.sigma)
            type_m1, type_m2 = closedform.TYPE_BY_FAMILY[cid.ell]
            row = [el.level, ".".join(str(g) for g in el.word)]
            row += [v for r in el.sigma.coeff for v in r]
            row += [type_m1, type_m2, cid.ell, cid.m1, cid.m2]
            if weights.is_numeric:
                row += [str(v) for v in algebra.eval_at(el.sigma, weights)]
            writer.writerow(row)
        print(f"# truncated={str(store.truncated).lower()} count={len(store)}")
    return 0


def cmd_check(args) -> int:
    sigma = _parse_matrix(args.sigma)
    cert = orbit.is_member_gamma_N(sigma)
    _emit({"member": cert.member, "nonneg": cert.nonneg, "div4": cert.div4,
           "quadric_zero": cert.quadric_zero})
    return 0 if cert.member else 1


def cmd_descend(args) -> int:
    sigma = _parse_matrix(args.sigma)
    probe = _parse_mu(args.mu)
    word = orbit.descend_to_origin(sigma, probe)
    _emit({"word": word})
    return 0


def cmd_type(args) -> int:
    sigma = _parse_matrix(args.sigma)
    _emit({"type": list(closedform.type_of(sigma))})
    return 0


def cmd_closedform(args) -> int:
    weights = _parse_mu(args.mu)
    if args.ell not in closedform.TYPE_BY_FAMILY:
        raise UsageError(f"family index must be 1..8, got {args.ell}")
    cid = closedform.ClosedFormId(args.ell, args.m1, args.m2)
    sigma = closedform.closed_form_eval(cid)
    # Greedy descent, reversed, witnesses reachability; it need not be a
    # shortest word.
    word = tuple(reversed(orbit.descend_to_origin(sigma)))
    rec = _record(sigma, len(word), word, weights)
    rec["closed_form"] = [cid.ell, cid.m1, cid.m2]
    _emit(rec)
    return 0


def cmd_relations(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    if args.low > args.high:
        raise UsageError(f"--low {args.low} exceeds --high {args.high}")
    report = orbit.check_relations(args.trials, args.seed, args.low, args.high)
    _emit({
        "trials": report.trials,
        "seed": report.seed,
        "failures": [{"relation": f.relation,
                      "coeff": [list(r) for r in f.sigma.coeff],
                      "offset": list(f.sigma.offset)} for f in report.failures],
        "passed": report.passed,
    })
    return 0 if report.passed else 1


def cmd_sinh(args) -> int:
    mu = _parse_pair(args.mu) if args.mu else None

    def rec(vec: MassVector) -> dict:
        m = sinh.sinh_invert(vec)
        out = {"coeff": [list(row) for row in vec.coeff], "m": m, "level": abs(m)}
        if mu is not None:
            out["sigma"] = [str(v) for v in algebra.eval_at(vec, mu)]
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
        result = weyl2.appendix_table(args.part, a1, a2)
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
            rec["values"] = [str(v) for v in algebra.eval_at(MassVector(coeff), values)]
        _emit(rec)
    return 0


def cmd_cascade(args) -> int:
    probe = _parse_mu(args.mu)
    if not probe.is_numeric:
        raise UsageError("cascade probe must be numeric")
    try:
        text = Path(args.scenario).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read scenario file: {exc}") from exc
    moves = cascade.parse_scenario(text)
    for record in cascade.replay(moves, probe):
        _emit(record)
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
    return config


def build_parser(config: dict) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="b2weyl",
        description="Exact affine Weyl orbit engine for quantized blow-up masses.")
    sub = parser.add_subparsers(dest="command", required=True)

    mu_default = config.get("mu", "formal")
    probe_default = mu_default if mu_default != "formal" else "1,1,1"

    p = sub.add_parser("orbit", help="enumerate the reflection orbit of the origin")
    p.add_argument("--max-level", type=int, default=config.get("max_level"),
                   required=config.get("max_level") is None)
    p.add_argument("--max-coefficient", type=int, default=config.get("max_coefficient"))
    p.add_argument("--mu", default=mu_default)
    p.add_argument("--output", choices=("json", "csv"), default=config.get("output", "json"))
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

    p = sub.add_parser("relations", help="randomized group-presentation check")
    p.add_argument("--trials", type=int, default=config.get("trials", 100))
    p.add_argument("--seed", type=int, default=config.get("seed", 0))
    p.add_argument("--low", type=int, default=-100)
    p.add_argument("--high", type=int, default=100)
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


# One slot: the parser for the most recent defaults, keyed by their
# canonical JSON.  parse_args builds a fresh Namespace per call and no
# default is mutable, so reusing the parser carries no state over.
_parser_slot: tuple[str, argparse.ArgumentParser] | None = None


def _parser_for(config: dict) -> argparse.ArgumentParser:
    global _parser_slot
    key = json.dumps(config, sort_keys=True)
    if _parser_slot is None or _parser_slot[0] != key:
        _parser_slot = (key, build_parser(config))
    return _parser_slot[1]


def main(argv: list[str] | None = None) -> int:
    try:
        config = _load_config()
        args = _parser_for(config).parse_args(argv)
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
