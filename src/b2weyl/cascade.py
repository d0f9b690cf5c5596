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
moves: it reads those slots, carries the orbit part's rows, the lattice
and the probe values as plain integer tuples and builds no state object
per move.  ``replay`` is that loop from the origin and returns one
``(coeff, lattice, values)`` tuple per move; ``step`` is one move of it,
whose rows and lattice make a new ``CascadeState``.  ``parse_scenario``
parses each distinct raw line once, and every collapse line to one of the
twenty admissible collapses built at import (``_COLLAPSES``).  The CLI
writes nothing until ``replay`` has returned, then writes each record as
it is formatted, rebuilding a total's text only for a component whose
scaled total changed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .algebra import UNIT_WEIGHTS, ZERO, Frozen, MassVector, Weights, _word_map, scaled_values


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
        valid = len(mass) == 3 and all(v >= 0 and v % 4 == 0 for v in mass)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "shift", tuple([v // 4 for v in mass]) if valid else None)
        object.__setattr__(self, "text", "merge " + " ".join(map(str, mass)))


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


class CascadeState(Frozen):
    """Immutable simulator state; step() returns a new one.

    ``values`` is the orbit part at the probe as integers: with
    ``(M, q) = probe.scaled``, gamma(mu) = values/q.  Every state derives
    them from ``gamma`` and ``probe``.
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

    def total(self) -> tuple[Fraction, Fraction, Fraction]:
        """Observable mass gamma + 4n, evaluated at the probe."""
        q = self.probe.scaled[1]
        return tuple(Fraction(v + 4 * q * n, q)  # type: ignore[return-value]
                     for v, n in zip(self.values, self.lattice))


def step(state: CascadeState, move: Move) -> CascadeState:
    """Apply one move, enforcing the physical gain bound: one move of ``_run``."""
    coeff, lattice, _ = _run(state, (move,))[0]
    return CascadeState(MassVector(coeff), lattice, state.probe)


def _run(state: CascadeState, moves: Sequence[Move]) -> list[tuple]:
    """The ``(coeff, lattice, values)`` after each move, starting from ``state``.

    A satellite merge shifts the lattice by mass/4 and is always legal.
    A collapse keeps the lattice fixed and replaces the orbit part; if it
    changes the orbit part, the total mass at the probe must grow by at
    least min_i 4*mu_i, the lower bound the cascade realizes -- anything
    less is rejected as non-physical.  The collapse's word acts as one
    precomposed affine map, its ``row_map``, on the coefficient rows and
    the probe values together, so the bound is checked in integers:
    q*gain against 4*min(M).
    """
    coeff, lattice, values = state.gamma.coeff, state.lattice, state.values
    m = state.probe.scaled[0]
    bound = 4 * min(m)
    after = []
    for move in moves:
        if isinstance(move, SatelliteMerge):
            if move.shift is None:
                raise InvalidSatellite(f"invalid satellite {move.mass}: entries must be "
                                       "nonnegative multiples of 4")
            (a, b, c), (x, y, z) = lattice, move.shift
            lattice = (a + x, b + y, c + z)
        else:
            rows, moved = _apply_row_map(move.row_map, coeff, values, m)
            if rows != coeff:
                gain = sum(moved) - sum(values)
                if gain < bound:
                    raise NonPhysicalMove(
                        f"non-physical move {move.text}: total mass gain "
                        f"{Fraction(gain, state.probe.scaled[1])} falls below the bound "
                        f"{4 * min(state.probe.values)}")
                coeff, values = rows, moved
        after.append((coeff, lattice, values))
    return after


def _apply_row_map(row_map: tuple, coeff: tuple, old: tuple, m: Sequence[int]) -> tuple:
    """The rows and probe values after ``row_map``, in one pass over the old ones."""
    rows, values = list(coeff), list(old)
    m1, m2, m3 = m
    for r, pairs, (a, b, c) in row_map:
        v = a * m1 + b * m2 + c * m3
        for j, p in pairs:
            x, y, z = coeff[j]
            a += p * x
            b += p * y
            c += p * z
            v += p * old[j]
        rows[r] = (a, b, c)
        values[r] = v
    return tuple(rows), tuple(values)


def parse_scenario(text: str) -> list[Move]:
    """Parse a line-oriented scenario: 'merge k1 k2 k3' / 'collapse J [variant]'.

    Blank lines and '#' comments are skipped.  Subsets are digit strings
    like 1, 12, 13; pair-{i,3} collapses need a variant token.  Moves are
    immutable, so each distinct raw line is parsed once, in order of first
    appearance, and its move shared by every repeat; the lines are then
    mapped to moves in one pass.  Repeats are the rule, not a special
    case: there are only twenty collapse lines (four fixed words and
    sixteen pair variants), so any scenario of more than twenty collapses
    repeats one.  A line that fails raises with the number of its first
    occurrence, which is the first failing line in the text.
    """
    lines = text.splitlines()
    parsed: dict[str, Move] = {}
    for raw in dict.fromkeys(lines):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            try:
                parsed[raw] = _parse_move(tokens)
            except ValueError as exc:
                raise ValueError(f"scenario line {lines.index(raw) + 1}: {exc}") from exc
    # Moves are always true; blank and comment lines map to None and drop out.
    return list(filter(None, map(parsed.get, lines)))


def _parse_move(tokens: list[str]) -> Move:
    kind = tokens[0]
    if kind == "merge":
        if len(tokens) != 4:
            raise ValueError("merge takes exactly three masses")
        return SatelliteMerge(tuple(map(int, tokens[1:])))  # type: ignore[arg-type]
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

    The tuple holds a ``CascadeState``'s rows, lattice and ``values``.
    """
    return _run(CascadeState(probe=probe if probe is not None else UNIT_WEIGHTS), moves)
