"""Move-driven simulator of the bubbling mass-combination algebra.

A state is a pair (gamma_part, lattice_part): an orbit member plus an
integer lattice shift, so the simulated observable mass is always
gamma + 4n componentwise.  Far satellites merge as pure lattice shifts;
a local collapse applies a reflection word to the orbit part.  The
physical cascade only gains mass, so collapses that fail the gain bound
at the probe weights are rejected as non-physical.

Each move carries what replaying and printing it need, built once when
the move is built: a merge its ``shift`` and a collapse its precomposed
``row_map``, and both their record ``text``.  One loop, ``_run``, applies
moves: it reads those slots, carries the orbit part as one flat row-major
tuple of nine ints, the lattice and the probe values as plain integer
tuples, and builds no state object per move.  Each collapse is one call
of its map's kernel: straight-line source written from the map's
integers alone, compiled on first use by ``algebra._compile`` and cached
on the map under its one rule, so importing the module compiles none and
every equal map shares one (``_collapse_kernel``); it returns the new
entries, the new probe values and the integer gain.
``replay`` is that loop from the origin and returns one ``(coeff,
lattice, values)`` tuple per move, ``coeff`` flat as ``MassVector.coeff``
holds it; ``step`` is one move of it, whose matrix and lattice make a new
``CascadeState``.  ``parse_scenario`` parses each distinct raw line
once, and every collapse line to one of the twenty admissible collapses
built at import (``_COLLAPSES``).  The CLI writes nothing until
``replay`` has returned, then writes each record as it is formatted,
rebuilding the orbit part's and the lattice's texts only when the replay
hands over a new tuple, and a total's text only for a component whose
scaled total changed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Callable, Sequence, Union

from .algebra import (UNIT_WEIGHTS, ZERO, Frozen, MassVector, Weights, _affine, _compile,
                      _word_map, scaled_values)


class InvalidSatellite(ValueError):
    """Satellite mass outside 4N x 4N x 4N."""


class NonPhysicalMove(ValueError):
    """Collapse whose mass gain falls below the physical lower bound."""


# The eight admissible collapse words for a pair {i,3}, keyed by the word
# written multiplicatively (leftmost factor acts last); values are in
# application order with 'i' standing for the non-3 member of the pair.
COLLAPSE_VARIANTS: dict[str, tuple[str, ...]] = {
    "e": (),
    "i": ("i",),
    "3": ("3",),
    "i3": ("3", "i"),
    "3i": ("i", "3"),
    "i3i": ("i", "3", "i"),
    "3i3": ("3", "i", "3"),
    "i3i3": ("3", "i", "3", "i"),
}

# Every admissible (subset, variant) with its generator word in application
# order: singletons and {1,2} take no variant, a pair {i,3} any of the eight.
# The only source of admissibility: Collapse validates against it too.
_COLLAPSE_WORDS: dict[tuple[tuple[int, ...], str | None], tuple[int, ...]] = {
    ((1,), None): (1,), ((2,), None): (2,), ((3,), None): (3,), ((1, 2), None): (1, 2),
    **{((i, 3), variant): tuple(i if tok == "i" else 3 for tok in letters)
       for i in (1, 2) for variant, letters in COLLAPSE_VARIANTS.items()},
}
_VALID_SUBSETS = tuple(dict.fromkeys(subset for subset, _ in _COLLAPSE_WORDS))


class SatelliteMerge(Frozen):
    """Absorb far-satellite mass: a pure lattice shift by mass/4.

    ``shift`` is mass/4, worked out once per move, or None when the mass
    is not in 4N x 4N x 4N; ``text`` is the move as a scenario line.
    Construction never rejects the mass: ``_run`` does, raising
    InvalidSatellite, so a bad merge fails at its own step.
    """

    __slots__ = ("mass", "shift", "text")
    _fields = ("mass",)

    mass: tuple[int, int, int]
    shift: tuple[int, int, int] | None
    text: str

    def __init__(self, mass: tuple[int, int, int]) -> None:
        object.__setattr__(self, "mass", mass)
        if len(mass) != 3:
            object.__setattr__(self, "shift", None)
            object.__setattr__(self, "text", "merge " + " ".join(map(str, mass)))
            return
        a, b, c = mass
        # The OR of the three is negative, or has one of its last two bits
        # set, exactly when one of them is (ints are two's complement of
        # unbounded width): the one test of 4N x 4N x 4N.
        bits = a | b | c
        shift = None if bits & 3 or bits < 0 else (a >> 2, b >> 2, c >> 2)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "text", "merge %d %d %d" % mass)


class Collapse(Frozen):
    """Local blow-up of a subsystem: applies a reflection word.

    ``subset`` is the set of slow components.  Singletons and {1,2} have
    a single admissible word; a pair {i,3} takes one of the eight
    variants named in COLLAPSE_VARIANTS.  ``row_map`` is the word composed
    into one affine map on the rows (see ``algebra._word_map``) and
    ``text`` the move as a scenario line, both fixed at construction.
    """

    __slots__ = ("subset", "variant", "row_map", "text")
    _fields = ("subset", "variant")

    subset: tuple[int, ...]
    variant: str | None
    row_map: tuple
    text: str

    def __init__(self, subset: tuple[int, ...], variant: str | None = None) -> None:
        subset = tuple(sorted(subset))
        if subset not in _VALID_SUBSETS:
            raise ValueError(f"collapse subset must be a nonempty proper subset "
                             f"of {{1,2,3}}, got {subset}")
        if (subset, variant) not in _COLLAPSE_WORDS:
            if (subset, None) in _COLLAPSE_WORDS:
                raise ValueError(f"collapse on {subset} does not take a variant")
            raise ValueError(f"collapse on {subset} needs a variant from "
                             f"{sorted(COLLAPSE_VARIANTS)}, got {variant}")
        text = "collapse " + "".join(str(v) for v in subset)
        self._assign(subset=subset, variant=variant,
                     row_map=_word_map(_COLLAPSE_WORDS[subset, variant]),
                     text=text if variant is None else f"{text} {variant}")

    def word(self) -> tuple[int, ...]:
        """Generator word in application order."""
        return _COLLAPSE_WORDS[self.subset, self.variant]


Move = Union[SatelliteMerge, Collapse]

# The twenty admissible collapses, built once at import and keyed like
# ``_COLLAPSE_WORDS``, so each word's map is composed once: every collapse
# line a scenario can hold parses to one of these shared moves.
_COLLAPSES = {key: Collapse(*key) for key in _COLLAPSE_WORDS}
# The same twenty moves keyed by their scenario lines, as ``Collapse`` writes
# them: ``parse_scenario`` looks each raw line up here before it tokenizes it.
_COLLAPSE_LINES = {move.text: move for move in _COLLAPSES.values()}


class CascadeState(Frozen):
    """Immutable simulator state; step() returns a new one.

    ``values`` is the orbit part at the probe as integers: with
    ``(M, q) = probe.scaled``, gamma(mu) = values/q.  Every state derives
    them from ``gamma`` and ``probe``.  The observable mass is
    (values + 4*q*lattice)/q, which ``cli.cmd_cascade`` prints.
    """

    __slots__ = ("gamma", "lattice", "probe", "values")
    _fields = ("gamma", "lattice", "probe")

    gamma: MassVector
    lattice: tuple[int, int, int]
    probe: Weights
    values: tuple[int, ...]

    def __init__(self, gamma: MassVector = ZERO, lattice: tuple[int, int, int] = (0, 0, 0),
                 probe: Weights = UNIT_WEIGHTS) -> None:
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "probe", probe)
        object.__setattr__(self, "values", scaled_values(gamma, probe)[0])


def step(state: CascadeState, move: Move) -> CascadeState:
    """Apply one move, enforcing the physical gain bound: one move of ``_run``."""
    coeff, lattice, _ = _run(state, (move,))[0]
    return CascadeState(MassVector(coeff), lattice, state.probe)


def _run(state: CascadeState, moves: Sequence[Move]) -> list[tuple]:
    """The ``(coeff, lattice, values)`` after each move, starting from ``state``.

    ``coeff`` is the orbit part's matrix as one flat row-major tuple of nine
    ints, as ``MassVector.coeff`` holds it.  A satellite merge shifts the
    lattice by mass/4 and is always legal.  A collapse keeps the lattice
    fixed and replaces the orbit part; if it changes the orbit part, the
    total mass at the probe must grow by at least min_i 4*mu_i, the lower
    bound the cascade realizes -- anything less is rejected as
    non-physical.  The collapse's word acts as one precomposed affine map,
    its ``row_map``, on the coefficient rows and the probe values together,
    run by the map's kernel (``_collapse_kernel``), so the bound is checked
    in integers: q*gain against 4*min(M).  Each distinct move fetches its
    kernel once per call, looked up by the move's identity: a move is
    never hashed.
    """
    coeff, lattice, values = state.gamma.coeff, state.lattice, state.values
    m = state.probe.scaled[0]
    m1, m2, m3 = m
    bound = 4 * min(m)
    kernels: dict[int, Callable] = {}
    after = []
    append = after.append
    for move in moves:
        if isinstance(move, SatelliteMerge):
            if move.shift is None:
                raise InvalidSatellite(f"invalid satellite {move.mass}: entries must be "
                                       "nonnegative multiples of 4")
            (a, b, c), (x, y, z) = lattice, move.shift
            lattice = (a + x, b + y, c + z)
        else:
            kernel = kernels.get(id(move))
            if kernel is None:
                kernel = kernels[id(move)] = _collapse_kernel(move.row_map)
            entries, moved, gain = kernel(coeff, values, m1, m2, m3)
            if entries != coeff:
                if gain < bound:
                    raise NonPhysicalMove(
                        f"non-physical move {move.text}: total mass gain "
                        f"{Fraction(gain, state.probe.scaled[1])} falls below the bound "
                        f"{4 * min(state.probe.values)}")
                coeff, values = entries, moved
        append((coeff, lattice, values))
    return after


# A collapse kernel's source: the old entries g0..g8 and probe values v0..v2
# in; each moved row's entries and value out, then the gain, the sum of the
# moved values' rises.
_KERNEL = """def kernel(coeff, values, m1, m2, m3):
    g0, g1, g2, g3, g4, g5, g6, g7, g8 = coeff
    v0, v1, v2 = values
%(rows)s    return (%(entries)s), (%(values)s), %(gain)s
"""


def _kernel_source(row_map: tuple) -> str:
    """The straight-line source of ``row_map``'s kernel, written from its integers alone.

    New row r is sum_j P_rj * row_j + T_r, entry by entry, and its value
    at the weights M is sum_j P_rj * v_j + T_r . M (``algebra._word_map``).
    """
    entries, values = ["g%d" % k for k in range(9)], ["v0", "v1", "v2"]
    assigns = []
    for r, pairs, shift in row_map:
        for k, t in enumerate(shift):
            entries[3 * r + k] = "n%d" % (3 * r + k)
            assigns.append((entries[3 * r + k], _affine(t, [("g%d" % (3 * j + k), p)
                                                             for j, p in pairs])))
        values[r] = "w%d" % r
        assigns.append((values[r], _affine(0, [("m%d" % (k + 1), t) for k, t in enumerate(shift)]
                                           + [("v%d" % j, p) for j, p in pairs])))
    gain = _affine(0, sum([[("w%d" % r, 1), ("v%d" % r, -1)] for r, _, _ in row_map], []))
    return _KERNEL % {"rows": "".join("    %s = %s\n" % pair for pair in assigns),
                      "entries": ", ".join(entries), "values": ", ".join(values),
                      "gain": gain}


@cache
def _collapse_kernel(row_map: tuple) -> Callable[..., tuple]:
    """``row_map``'s kernel, compiled on first use and shared by every equal map.

    ``kernel(coeff, values, m1, m2, m3)`` takes the flat old entries, the
    old probe values and the scaled weights M, and returns the new flat
    entries, the new probe values and the integer gain q*(sum of the new
    totals - sum of the old ones).
    """
    return _compile(_kernel_source(row_map), "<collapse kernel>")


def parse_scenario(text: str) -> list[Move]:
    """Parse a line-oriented scenario: 'merge k1 k2 k3' / 'collapse J [variant]'.

    Blank lines and '#' comments are skipped.  Subsets are digit strings
    like 1, 12, 13; pair-{i,3} collapses need a variant token.  Moves are
    immutable, so each distinct raw line is parsed once, in order of first
    appearance, and its move shared by every repeat; the lines are then
    mapped to moves in one pass.  Repeats are the rule, not a special
    case: there are only twenty collapse lines (four fixed words and
    sixteen pair variants), so any scenario of more than twenty collapses
    repeats one.  A raw line that is one of them exactly as its ``text``
    reads is looked up in ``_COLLAPSE_LINES`` and never tokenized; every
    other line goes to ``_parse_move``.  A line that fails raises with the
    number of its first occurrence, which is the first failing line in the
    text.
    """
    lines = text.splitlines()
    parsed: dict[str, Move | None] = {}
    for raw in dict.fromkeys(lines):
        move = _COLLAPSE_LINES.get(raw)
        if move is None and (tokens := raw.split("#", 1)[0].split()):
            try:
                move = _parse_move(tokens)
            except ValueError as exc:
                raise ValueError(f"scenario line {lines.index(raw) + 1}: {exc}") from exc
        parsed[raw] = move
    # Moves are always true; blank and comment lines map to None and drop out.
    return list(filter(None, map(parsed.get, lines)))


def _parse_move(tokens: list[str]) -> Move:
    kind = tokens[0]
    if kind == "merge":
        if len(tokens) != 4:
            raise ValueError("merge takes exactly three masses")
        _, a, b, c = tokens
        return SatelliteMerge((int(a), int(b), int(c)))
    if kind == "collapse":
        if len(tokens) not in (2, 3):
            raise ValueError("collapse takes a subset and an optional variant")
        subset = tuple(sorted(int(ch) for ch in tokens[1]))
        variant = tokens[2] if len(tokens) == 3 else None
        # A key outside the table is not admissible: Collapse words its error.
        return _COLLAPSES.get((subset, variant)) or Collapse(subset, variant)
    raise ValueError(f"unknown move kind {kind!r}")


def replay(moves: Sequence[Move], probe: Weights | None = None) -> list[tuple]:
    """Run a scenario from the origin: ``(coeff, lattice, values)`` after each move.

    The tuple holds a ``CascadeState``'s matrix, flat and row-major, its
    lattice and its ``values``.
    """
    return _run(CascadeState(probe=probe if probe is not None else UNIT_WEIGHTS), moves)
