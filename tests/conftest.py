"""Shared reference oracles and helpers for the test suite.

The reference path works on plain numeric vectors with the rational
coupling matrix written out directly -- it never touches the symbolic
coefficient machinery, so agreement between the two is a genuine
cross-check, not a tautology.  The one exception is
``reference_replay``, whose docstring names the engine functions it
trusts.
"""

from fractions import Fraction

from b2weyl.algebra import ZERO, MassVector, Weights, apply_word, eval_at, scaled_values
from b2weyl.cascade import SatelliteMerge

F = Fraction


def mv(rows):
    """The mass vector with these coefficient rows, of any rank."""
    return MassVector(tuple(map(tuple, rows)))


# Independent transcription of the coupling matrix (do not import it).
REF_CARTAN_3 = (
    (F(1), F(0), F(-1)),
    (F(0), F(1), F(-1)),
    (F(-1, 2), F(-1, 2), F(1)),
)
REF_CARTAN_SINH = ((F(1), F(-1)), (F(-1), F(1)))
REF_SYMMETRIZER_3 = (1, 1, 2)

# The paper's four rank-two couplings, typed in: name -> (coupling
# matrix, symmetrizer, orbit size).  pair_23 repeats pair_13, since
# swapping components 1 and 2 leaves the coupling to the third unchanged.
REF_SUBSYSTEMS = {
    "pair_12": (((F(1), F(0)), (F(0), F(1))), (1, 1), 4),
    "pair_13": (((F(1), F(-1)), (F(-1, 2), F(1))), (1, 2), 8),
    "pair_23": (((F(1), F(-1)), (F(-1, 2), F(1))), (1, 2), 8),
    "appendix_uv": (((F(1), F(-1, 2)), (F(-1), F(1))), (2, 1), 8),
}

# The single-singular-source quantization table (part c), typed in from
# the paper's appendix: coefficients of (alpha1, alpha2) for (sigma_u,
# sigma_v).  The engine derives it from appendix_uv's orbit instead.
APPENDIX_C_COEFFS = (
    ((0, 0), (0, 0)),
    ((4, 0), (0, 0)),
    ((0, 0), (0, 4)),
    ((4, 0), (8, 4)),
    ((4, 4), (0, 4)),
    ((4, 4), (8, 8)),
    ((8, 4), (8, 4)),
    ((8, 4), (8, 8)),
)

# Enough varied rational weight samples to pin down any degree-two
# polynomial identity that the symbolic path claims.
SAMPLE_WEIGHTS = [
    (F(1), F(1), F(1)),
    (F(3, 2), F(1, 2), F(1)),
    (F(2), F(3), F(5)),
    (F(7, 3), F(1, 5), F(11, 2)),
    (F(1, 7), F(13, 4), F(2, 9)),
    (F(5), F(1, 2), F(8, 3)),
]


def reflect_reference(values, index, mu, cartan=REF_CARTAN_3):
    """Direct affine reflection on a numeric vector: the defining formula."""
    i = index - 1
    vals = list(values)
    vals[i] = 4 * mu[i] - 2 * sum(cartan[i][j] * vals[j] for j in range(len(vals))) + vals[i]
    return tuple(vals)


def apply_word_reference(values, word, mu, cartan=REF_CARTAN_3):
    for index in word:
        values = reflect_reference(values, index, mu, cartan)
    return values


def quadric_reference(values, mu):
    """Numeric residual of the invariant quadric, from its printed form."""
    s1, s2, s3 = values
    m1, m2, m3 = mu
    return (s1 - s3) ** 2 + (s2 - s3) ** 2 - 4 * (m1 * s1 + m2 * s2 + 2 * m3 * s3)


def assert_word_matches_reference(start: MassVector, word, result: MassVector):
    """The symbolic word action must agree with the numeric path everywhere."""
    for mu in SAMPLE_WEIGHTS:
        w = Weights.numeric(*mu)
        expected = apply_word_reference(eval_at(start, w), word, mu)
        assert eval_at(result, w) == expected, f"mismatch at mu={mu}"


def descend_reference(rows, mu, limit=10_000):
    """Greedy descent from its definition, on coefficient rows and Fractions.

    Each step takes the smallest generator whose reflection strictly lowers
    sum_i d_i * sigma_i(mu); returns None when none does (or after
    ``limit`` steps).  Descent is for members, which are linear in mu.
    """
    def measure(r):
        return sum(d * sum(c * m for c, m in zip(row, mu))
                   for d, row in zip(REF_SYMMETRIZER_3, r))

    def reflect_rows(r, index):
        i = index - 1
        out = [list(row) for row in r]
        out[i] = [(4 if k == i else 0) - 2 * sum(REF_CARTAN_3[i][j] * r[j][k] for j in range(3))
                  + r[i][k] for k in range(3)]
        return out

    rows = [list(row) for row in rows]
    word = []
    while any(v for row in rows for v in row):
        for index in (1, 2, 3):
            candidate = reflect_rows(rows, index)
            if measure(candidate) < measure(rows):
                break
        else:
            return None
        rows = candidate
        word.append(index)
        if len(word) > limit:
            return None
    return word


def _crossed(end, c):
    """How many v = c (mod 4) lie strictly between 0 and ``end``, neither of them one."""
    return abs((end - c) // 4 - (-c) // 4)


def wall_count(m1, m2):
    """Walls of the affine C2 arrangement between (0, 0) and (m1, m2).

    In doubled coordinates the walls are 2*m1 in 1+4Z, 2*m2 in 1+4Z,
    m1 + m2 in -1+4Z and m1 - m2 in 2+4Z.  Neither (0, 0) nor an
    admissible pair lies on a wall.  For an element of the orbit this is
    its length.
    """
    return _crossed(2 * m1, 1) + _crossed(2 * m2, 1) + _crossed(m1 + m2, -1) + _crossed(m1 - m2, 2)


def family_rows(table, ell, m1, m2):
    """A closed-form family table at (m1, m2) as integer rows, by the generic loop.

    The oracle of the generated kernels (``closedform._kernel``): it reads
    ``table``, a value of ``closedform._F``, entry by entry, and raises
    the ValueError of the first entry, in row-major order, whose
    quarter-unit value is not a nonnegative multiple of 16.
    """
    s1, s2 = m1 * m1, m2 * m2
    rows = []
    for table_row in table:
        row = []
        for a, b, c, d, e in table_row:
            quarter = a * s1 + b * m1 + c * s2 + d * m2 + e
            if quarter < 0 or quarter % 16:
                if quarter % 4:
                    raise ValueError(f"non-integer entry {Fraction(quarter, 4)} "
                                     f"at ({ell},{m1},{m2})")
                raise ValueError(f"entry {quarter // 4} not in 4N at ({ell},{m1},{m2})")
            row.append(quarter // 4)
        rows.append(tuple(row))
    return tuple(rows)


def reference_replay(moves, probe, gamma=ZERO, lattice=(0, 0, 0)):
    """``(coeff, lattice, values)`` after each move, the way ``cascade.replay`` reports it,
    ``coeff`` flat and row-major.

    Replays the moves one at a time on the cascade's definition, not on
    its precomposed row maps: a collapse moves the orbit part by
    ``apply_word`` of its word, the gain bound is judged on ``eval_at``
    Fractions, and ``values`` are ``scaled_values``; those three are the
    engine functions it trusts.  Returns the list and the message of the
    error that stopped it, or None.
    """
    bound = 4 * min(probe.values)
    after = []
    for move in moves:
        if isinstance(move, SatelliteMerge):
            if any(v < 0 or v % 4 for v in move.mass):
                return after, (f"invalid satellite {move.mass}: entries must be "
                               "nonnegative multiples of 4")
            lattice = tuple(n + v // 4 for n, v in zip(lattice, move.mass))
        else:
            nxt = apply_word(gamma, move.word())
            gain = sum(eval_at(nxt, probe)) - sum(eval_at(gamma, probe))
            if nxt != gamma and gain < bound:
                return after, (f"non-physical move {move.text}: total mass gain "
                               f"{gain} falls below the bound {bound}")
            gamma = nxt
        after.append((sum(gamma.coeff, ()), lattice, scaled_values(gamma, probe)[0]))
    return after, None
