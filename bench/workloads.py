"""Seeded inputs and independent output checks for the three workloads.

A workload is a list of units; a unit is a list of CLI argv lists run back
to back (one orbit dump, one query, or one cascade scenario with its
certification).  Every call carries an expectation: a function of the
exit code and the captured stdout that returns a list of problems, empty
when the output is correct.  Expectations come from ``model`` only.
"""

from __future__ import annotations

import csv
import json
import random
from fractions import Fraction

import model

ORBIT_JSON_DEPTH = 128
ORBIT_CSV_DEPTH = 64
QUERY_BOUND = 48          # |m_i| bound of query-mix members
QUERY_MAX_STEPS = 110     # longest member walk
# Cascade scenarios come in blocks of ten, one of each length, in seeded
# order; one scenario per block ends in a non-physical collapse.
CASCADE_LENGTHS = tuple(range(20, 300, 31))

WORKLOADS = ("orbit-dump", "query-mix", "cascade-replay")

# Units a traced run replays, and the floor an untraced run reaches before
# it may stop: enough for p99 (query-mix) and p90 (cascade-replay) to have
# ten samples beyond them.
TRACE_UNITS = {"orbit-dump": 1, "query-mix": 1000, "cascade-replay": 100}
MIN_UNITS = {"orbit-dump": 2, "query-mix": 1000, "cascade-replay": 100}
# Units generated per measured second: about twice what the seed engine
# completes at full speed, so that an untraced run normally stops on time;
# a run that empties its pool stops early, having done at least MIN_UNITS.
UNITS_PER_SECOND = {"orbit-dump": 2, "query-mix": 450, "cascade-replay": 36}

ANY = object()


class Workload:
    """Generated units, their expectations, and the files they read."""

    def __init__(self):
        self.units: list[list[list[str]]] = []
        self.expect: list[list] = []
        self.ops: list[int] = []  # work items per unit (records are counted later)
        self.files: dict[str, str] = {}

    def add(self, calls, expectations, ops=1):
        self.units.append(calls)
        self.expect.append(expectations)
        self.ops.append(ops)


def pool_size(name: str, seconds: int, trace: bool) -> int:
    if trace:
        return TRACE_UNITS[name]
    return max(MIN_UNITS[name], UNITS_PER_SECOND[name] * seconds)


def generate(name: str, seed: int, count: int, file_dir: str) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    return {"orbit-dump": orbit_dump,
            "query-mix": query_mix,
            "cascade-replay": cascade_replay}[name](rng, count, file_dir)


# ---------------------------------------------------------------- matching

def _lines(text):
    try:
        return [json.loads(line) for line in text.splitlines()], None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON lines: {exc}"


def _same(got, want):
    if want is ANY:
        return True
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_same(got[k], v) for k, v in want.items()))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    return type(got) is type(want) and got == want


def exact(rc, objects):
    """Expect this exit code and exactly these JSON lines (ANY matches all).

    ``objects`` may be a function that builds the lines, so that costly
    expectations are only built for units a run reaches."""
    def check(got_rc, text):
        if got_rc != rc:
            return [f"exit code {got_rc}, expected {rc}"]
        got, err = _lines(text)
        if err:
            return [err]
        want = objects() if callable(objects) else objects
        if not _same(got, want):
            return [f"output {text[:200]!r} differs from expected {want!r:.200}"]
        return []
    return check


def _rows(coeff):
    return [list(row) for row in coeff]


# -------------------------------------------------------------- orbit-dump

def orbit_dump(rng, count, file_dir, json_depth=ORBIT_JSON_DEPTH,
               csv_depth=ORBIT_CSV_DEPTH):
    text, mu = model.random_probe(rng)
    json_argv = ["orbit", "--max-level", str(json_depth)]
    csv_argv = ["orbit", "--max-level", str(csv_depth), "--output", "csv", "--mu", text]
    wl = Workload()
    for _ in range(count):
        wl.add([json_argv, csv_argv],
               [orbit_json_check(json_depth), orbit_csv_check(csv_depth, mu)], ops=0)
    return wl


def _check_entries(entries, depth):
    """Checks shared by both orbit formats; entries are (level, word, coeff)."""
    problems = []
    counts = [0] * (depth + 1)
    seen = set()
    memo = {}
    previous = None
    for level, word, coeff in entries:
        key = (level, model.sort_key(coeff))
        if previous is not None and key <= previous:
            problems.append(f"record order broken at level {level} word {word}")
        previous = key
        if coeff in seen:
            problems.append(f"duplicate record {coeff}")
        seen.add(coeff)
        if not 0 <= level <= depth or level != len(word):
            problems.append(f"level {level} does not match word {word}")
            continue
        counts[level] += 1
        if any(v < 0 or v % 4 for row in coeff for v in row):
            problems.append(f"coefficient outside 4N in {coeff}")
        word = tuple(word)
        if any(g not in (1, 2, 3) for g in word):
            problems.append(f"bad generator in word {word}")
            continue
        parent = memo.get(word[:-1])
        if not word:
            vals = tuple((0, 0, 0) for _ in model.CHECK_PROBES)
        elif parent is not None:
            vals = tuple(model.reflect_values(v, word[-1], m)
                         for v, m in zip(parent, model.CHECK_PROBES))
        else:
            vals = []
            for m in model.CHECK_PROBES:
                v = (0, 0, 0)
                for g in word:
                    v = model.reflect_values(v, g, m)
                vals.append(v)
            vals = tuple(vals)
        memo[word] = vals
        if any(model.values(coeff, m) != v for m, v in zip(model.CHECK_PROBES, vals)):
            problems.append(f"word {word} does not reproduce {coeff}")
    bott = model.bott_counts(depth)
    if counts != bott:
        bad = next(k for k in range(depth + 1) if counts[k] != bott[k])
        problems.append(f"level {bad} has {counts[bad]} records, Bott's series gives {bott[bad]}")
    return problems


def _coeff(rows):
    return tuple(tuple(int(v) for v in row) for row in rows)


def orbit_json_check(depth):
    def check(rc, text):
        if rc != 0:
            return [f"exit code {rc}"]
        lines, err = _lines(text)
        if err:
            return [err]
        if not lines or set(lines[-1]) != {"meta"}:
            return ["missing trailing meta record"]
        meta, records = lines[-1]["meta"], lines[:-1]
        problems = []
        if meta != {"count": len(records), "truncated": True, "max_level": depth,
                    "max_coefficient": None}:
            problems.append(f"meta record {meta} is wrong")
        entries = []
        for rec in records:
            if set(rec) != {"coeff", "level", "word", "type"}:
                problems.append(f"record keys {sorted(rec)}")
                continue
            coeff = _coeff(rec["coeff"])
            if rec["type"] != list(model.type_of(coeff)):
                problems.append(f"type {rec['type']} of {coeff}")
            entries.append((rec["level"], rec["word"], coeff))
        return problems + _check_entries(entries, depth)
    return check


CSV_HEADER = ["level", "word", "c11", "c12", "c13", "c21", "c22", "c23",
              "c31", "c32", "c33", "type_m1", "type_m2", "ell", "m1", "m2",
              "sigma1", "sigma2", "sigma3"]


def orbit_csv_check(depth, mu):
    def check(rc, text):
        if rc != 0:
            return [f"exit code {rc}"]
        lines = text.splitlines()
        if len(lines) < 2 or lines[0].split(",") != CSV_HEADER:
            return ["missing CSV header"]
        problems = []
        rows = list(csv.reader(lines[1:-1]))
        if lines[-1] != f"# truncated=true count={len(rows)}":
            problems.append(f"trailer {lines[-1]!r}")
        entries = []
        for row in rows:
            try:
                level = int(row[0])
                word = [int(g) for g in row[1].split(".")] if row[1] else []
                flat = [int(v) for v in row[2:11]]
                tail = [int(v) for v in row[11:16]]
            except (ValueError, IndexError):
                problems.append(f"bad CSV row {row}")
                continue
            coeff = (tuple(flat[0:3]), tuple(flat[3:6]), tuple(flat[6:9]))
            if tail != list(model.type_of(coeff)) + list(model.closed_form_id(coeff)):
                problems.append(f"type/closed form columns {tail} of {coeff}")
            if row[16:] != model.sigma_strings(coeff, mu):
                problems.append(f"sigma columns {row[16:]} of {coeff}")
            entries.append((level, word, coeff))
        return problems + _check_entries(entries, depth)
    return check


def orbit_records(text):
    """Records in one orbit output (JSON or CSV), without header or trailer."""
    return max(text.count("\n") - (2 if text.startswith("level,") else 1), 0)


# --------------------------------------------------------------- query-mix

# Requests per block of twenty.  Every seed runs the same mix: blocks have
# this fixed composition and only their order and inputs are seeded.  The
# cheap requests (type, weyl2, half the sinh ones) fill about 28% of a
# block and the checks the next 40%, so the median request is a check
# well inside that cluster rather than at the edge of one.
QUERY_BLOCK = (("check", 5), ("near-miss", 3), ("descend", 3), ("type", 4),
               ("closedform", 2), ("relations", 1), ("sinh", 1), ("weyl2", 1))
MEMBER = {"member": True, "nonneg": True, "div4": True, "quadric_zero": True}


def _member(rng):
    return model.member_walk(rng, rng.randint(1, QUERY_MAX_STEPS), QUERY_BOUND)


def query_mix(rng, count, file_dir):
    block = [kind for kind, n in QUERY_BLOCK for _ in range(n)]
    wl = Workload()
    while len(wl.units) < count:
        rng.shuffle(block)
        for kind in block[:count - len(wl.units)]:
            argv, expectation = QUERY_MAKERS[kind](rng)
            wl.add([argv], [expectation])
    return wl


def _q_check(rng):
    coeff = _member(rng)
    return ["check", model.matrix_literal(coeff)], exact(0, [MEMBER])


def _q_near_miss(rng):
    # +4 on one entry keeps nonnegativity and divisibility by four; keep
    # the first perturbation the quadric rejects at some probe.
    while True:
        coeff = [list(row) for row in _member(rng)]
        coeff[rng.randrange(3)][rng.randrange(3)] += 4
        coeff = _coeff(coeff)
        if any(model.quadric(model.values(coeff, m), m) for m in model.CHECK_PROBES):
            break
    return (["check", model.matrix_literal(coeff)],
            exact(1, [{"member": False, "nonneg": True, "div4": True,
                       "quadric_zero": False}]))


def _q_descend(rng):
    coeff = _member(rng)
    while True:
        text, mu = model.random_probe(rng)
        word = model.greedy_descent(coeff, model.scaled(mu)[0])
        if word is not None:
            break
    return (["descend", model.matrix_literal(coeff), "--mu", text],
            exact(0, [{"word": word}]))


def _q_type(rng):
    coeff = _member(rng)
    return ["type", model.matrix_literal(coeff)], exact(0, [{"type": list(model.type_of(coeff))}])


def _q_closedform(rng):
    coeff = _member(rng)
    ell, m1, m2 = model.closed_form_id(coeff)
    word = model.greedy_descent(coeff, (1, 1, 1))[::-1]
    argv = ["closedform", str(ell), str(m1), str(m2)]
    rec = {"coeff": _rows(coeff), "level": len(word), "word": word,
           "type": list(model.type_of(coeff))}
    if rng.random() < 0.5:
        text, mu = model.random_probe(rng)
        argv += ["--mu", text]
        rec["sigma"] = model.sigma_strings(coeff, mu)
    rec["closed_form"] = [ell, m1, m2]
    return argv, exact(0, [rec])


def _q_relations(rng):
    trials, seed = rng.randint(15, 25), rng.randint(0, 10**6)
    return (["relations", "--trials", str(trials), "--seed", str(seed)],
            exact(0, [{"trials": trials, "seed": seed, "failures": [], "passed": True}]))


def _rational(rng, low, high, den):
    return Fraction(rng.randint(low, high), rng.randint(1, den))


def _q_sinh(rng):
    if rng.random() < 0.5:
        k = rng.randint(3, 8)
        elems = sorted(((model.sinh_element(m), m) for m in range(-k, k + 1)),
                       key=lambda e: model.sort_key(e[0]))
        return (["sinh", "--max-level", str(k)],
                exact(0, [{"coeff": _rows(c), "m": m, "level": abs(m)} for c, m in elems]))
    m = rng.randint(-40, 40)
    a, b = _rational(rng, 1, 9, 6), _rational(rng, 1, 9, 6)
    c = model.sinh_element(m)
    sigma = [str(c[i][0] * a + c[i][1] * b) for i in range(2)]
    return (["sinh", f"--closed-form={m}", "--mu", f"{a},{b}"],
            exact(0, [{"coeff": _rows(c), "m": m, "level": abs(m), "sigma": sigma}]))


def _pair(c, a, b):
    return (c[0][0] * a + c[0][1] * b, c[1][0] * a + c[1][1] * b)


def _q_weyl2(rng):
    roll = rng.random()
    if roll < 0.5:
        name = rng.choice(sorted(model.RANK_TWO))
        a, b = _rational(rng, 1, 9, 6), _rational(rng, 1, 9, 6)
        orbit = sorted(model.rank_two_orbit(model.RANK_TWO[name]), key=model.sort_key)
        return (["weyl2", "--subsystem", name, "--weights", f"{a},{b}"],
                exact(0, [{"coeff": _rows(c), "values": [str(v) for v in _pair(c, a, b)]}
                          for c in orbit]))
    uv = model.rank_two_orbit(model.RANK_TWO["appendix_uv"])
    if roll < 0.7:
        # Natural strengths: part (b) certifies the substituted tuples.
        a, b = rng.randint(0, 12), rng.randint(0, 12)
        tuples = sorted({_pair(c, a, b) for c in uv})
        return (["weyl2", "--part", "b", "--alpha", f"{a},{b}"],
                exact(0, [{"part": "b", "tuples": [list(t) for t in tuples],
                           "all_nonnegative": True, "all_multiples_of_four": True,
                           "ok": True}]))
    # Strengths above -1; part (a) is the deepest element at alpha + 1.
    a, b = Fraction(rng.randint(-3, 40), 4), Fraction(rng.randint(-3, 40), 4)
    if roll < 0.85:
        top = max(uv, key=uv.get)
        return (["weyl2", "--part", "a", f"--alpha={a},{b}"],
                exact(0, [{"part": "a", "tuple": [str(v) for v in _pair(top, a + 1, b + 1)]}]))
    tuples = sorted({_pair(c, a, b) for c in uv})
    return (["weyl2", "--part", "c", f"--alpha={a},{b}"],
            exact(0, [{"part": "c", "tuples": [[str(u), str(v)] for u, v in tuples]}]))


QUERY_MAKERS = {"check": _q_check, "near-miss": _q_near_miss, "descend": _q_descend,
                "type": _q_type, "closedform": _q_closedform, "relations": _q_relations,
                "sinh": _q_sinh, "weyl2": _q_weyl2}


# ----------------------------------------------------------- cascade-replay

# Pair-{i,3} collapse variants: the word written multiplicatively, so it is
# applied right to left; 'i' is the non-3 member of the pair.
VARIANTS = ("e", "i", "3", "i3", "3i", "i3i", "3i3", "i3i3")
COLLAPSES = ([((i,), None) for i in (1, 2, 3)] + [((1, 2), None)]
             + [((i, 3), v) for i in (1, 2) for v in VARIANTS])


def _collapse_word(subset, variant):
    if variant is None:
        return subset
    i = subset[0]
    letters = "" if variant == "e" else variant
    return tuple(i if ch == "i" else 3 for ch in reversed(letters))


def _collapse_text(subset, variant):
    label = "collapse " + "".join(str(v) for v in subset)
    return label if variant is None else f"{label} {variant}"


def cascade_replay(rng, count, file_dir):
    wl = Workload()
    while len(wl.units) < count:
        lengths = list(CASCADE_LENGTHS)
        rng.shuffle(lengths)
        rejected = rng.randrange(len(lengths))
        for k, length in enumerate(lengths[:count - len(wl.units)]):
            path = f"{file_dir}/scenario-{len(wl.units):05d}.txt"
            calls, expectations, moves = _scenario(rng, path, wl.files, length, k == rejected)
            wl.add(calls, expectations, ops=moves)
    return wl


def _scenario(rng, path, files, length, reject):
    """A scenario of ``length`` moves, all physical unless ``reject`` asks
    for the last one to be a non-physical collapse."""
    text, mu = model.random_probe(rng)
    m, q = model.scaled(mu)
    bound = 4 * min(m)  # gain bound 4*min(mu), scaled by q
    state = {"coeff": model.ZERO3, "lattice": (0, 0, 0)}
    lines, steps = [], []

    def gain(nxt):
        return sum(model.values(nxt, m)) - sum(model.values(state["coeff"], m))

    def physical_move():
        if rng.random() < 0.2:
            sat = [4 * rng.randint(0, 3) for _ in range(3)]
            sat[rng.randrange(3)] += 4
            state["lattice"] = tuple(n + v // 4 for n, v in zip(state["lattice"], sat))
            move = "merge " + " ".join(map(str, sat))
        else:
            while True:
                subset, variant = rng.choice(COLLAPSES)
                nxt = model.apply_word(state["coeff"], _collapse_word(subset, variant))
                if nxt == state["coeff"] or gain(nxt) >= bound:
                    break
            state["coeff"] = nxt
            move = _collapse_text(subset, variant)
        lines.append(move)
        steps.append((move, state["coeff"], state["lattice"]))

    def records():
        return [{"move": move, "gamma_coeff": _rows(coeff), "lattice": list(lattice),
                 "total": [str(Fraction(v, q) + 4 * n)
                           for v, n in zip(model.values(coeff, m), lattice)]}
                for move, coeff, lattice in steps]

    for _ in range(length - 1):
        physical_move()
    losing = []
    if reject:
        for subset, variant in COLLAPSES:
            nxt = model.apply_word(state["coeff"], _collapse_word(subset, variant))
            if nxt != state["coeff"] and gain(nxt) < bound:
                losing.append(_collapse_text(subset, variant))
    if losing:
        lines.append(rng.choice(losing))
        replay_expect = exact(1, [{"error": "rejected-move", "detail": ANY}])
    else:
        physical_move()
        replay_expect = exact(0, records)

    files[path] = "\n".join(lines) + "\n"
    # The orbit part certified below is the last physical state.
    coeff = state["coeff"]
    literal = model.matrix_literal(coeff)
    calls = [["cascade", path, "--mu", text], ["check", literal],
             ["descend", literal, "--mu", text]]
    expectations = [replay_expect, exact(0, [MEMBER]),
                    exact(0, lambda: [{"word": model.greedy_descent(coeff, m)}])]
    return calls, expectations, len(lines)
