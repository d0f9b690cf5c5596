"""Shared reference oracles and helpers for the test suite.

The reference path works on plain numeric vectors with the rational
coupling matrix written out directly -- it never touches the symbolic
coefficient machinery, so agreement between the two is a genuine
cross-check, not a tautology.  The exceptions are ``reference_replay``,
``longest_element`` and ``total``, whose docstrings name the engine parts
they trust.  The closed-form oracles (``reflected_parameters``,
``transition``, ``type_transition``, ``special_case_table``,
``admissible_parameters`` and the rank-one ``chain_rows``) work on plain
integers; the engine makes the same decisions once, in
``closedform.reduced_word`` and the family kernels.
"""

from fractions import Fraction

from b2weyl.algebra import ZERO, MassVector, Weights, _rows, apply_word, eval_at, scaled_values
from b2weyl.cascade import SatelliteMerge
from b2weyl.closedform import ADMISSIBLE_TYPES, FAMILY_BY_TYPE, TYPE_BY_FAMILY, ClosedFormId
from b2weyl.orbit import OrbitWalk

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


def chain_rows(m):
    """The rank-one chain's element m as rows, by its parity-split closed form.

    The oracle of ``sinh``'s folded family kernels: (m^2, (m-1)^2 - 1,
    (m+1)^2 - 1, m^2) row-major for m even and ((m+1)^2, m^2 - 1, m^2 - 1,
    (m-1)^2) for m odd.
    """
    if m % 2:
        return ((m + 1) ** 2, m * m - 1), (m * m - 1, (m - 1) ** 2)
    return (m * m, (m - 1) ** 2 - 1), ((m + 1) ** 2 - 1, m * m)


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


def total(state):
    """Observable mass gamma + 4n of a ``cascade.CascadeState``, evaluated at its probe.

    Read off the state's scaled ``values`` and its lattice, as
    ``cli.cmd_cascade`` prints it.
    """
    q = state.probe.scaled[1]
    return tuple(Fraction(v + 4 * q * n, q) for v, n in zip(state.values, state.lattice))


def longest_element(sub):
    """The unique orbit element of maximal reflection depth of a rank-two subsystem, as rows.

    The last level of the ``OrbitWalk`` over it, which must close by depth
    16 and hold one element.
    """
    walk = OrbitWalk(sub, 16)
    *_, (_, deepest) = walk.levels()
    if not walk.exhausted or len(deepest) != 1:
        raise RuntimeError(f"orbit of {sub.name} has no unique deepest element")
    return _rows(deepest[0][0])


def admissible_parameters(ell, bound):
    """All (m1, m2) of family ``ell``'s type with both |m_i| <= bound.

    ValueError, with ``closed_form_eval``'s message, unless ``ell`` is 1..8.
    """
    if ell not in TYPE_BY_FAMILY:
        raise ValueError(f"inadmissible family index {ell}; expected 1..8")
    t1, t2 = TYPE_BY_FAMILY[ell]
    ms1 = [m for m in range(-bound, bound + 1) if m % 4 == t1]
    ms2 = [m for m in range(-bound, bound + 1) if m % 4 == t2]
    return [(a, b) for a in ms1 for b in ms2]


def reflected_parameters(m1, m2, index):
    """(m1, m2) after generator ``index``: the reflection in m1 = 1/2, m2 = 1/2 or m1 + m2 = -1.

    Generator 1 sends them to (1-m1, m2), generator 2 to (m1, 1-m2) and
    generator 3 to (-1-m2, -1-m1).
    """
    if index == 1:
        return 1 - m1, m2
    if index == 2:
        return m1, 1 - m2
    return -1 - m2, -1 - m1


def transition(cid, index):
    """Closed-form id of the reflection of a closed-form element.

    The parameters move by ``reflected_parameters``; the family is the one
    of their type, as for every orbit element.
    """
    ell, m1, m2 = cid
    if TYPE_BY_FAMILY.get(ell) != (m1 % 4, m2 % 4):
        raise ValueError(f"inadmissible ({ell},{m1},{m2})")
    if index not in (1, 2, 3):
        raise ValueError(f"generator index must be 1..3, got {index}")
    p1, p2 = reflected_parameters(m1, m2, index)
    return ClosedFormId(FAMILY_BY_TYPE[(p1 % 4, p2 % 4)], p1, p2)


def type_transition(tag, index):
    """Mod-4 type of the reflection of a vector of the given type: the type
    of ``transition``'s step from the id whose parameters are the type."""
    if tuple(tag) not in ADMISSIBLE_TYPES:
        raise ValueError(f"{tag} is not an admissible type")
    return TYPE_BY_FAMILY[transition((FAMILY_BY_TYPE[tuple(tag)], *tag), index).ell]


def special_case_table(m1, m2):
    """Unit-weight masses: the closed forms collapse to one integer formula, the row sums.

    Defined when m1 and m2 are both congruent to 0 or 1 (mod 4), or both
    congruent to 2 or 3 (mod 4) -- exactly the admissible type classes.
    """
    if (m1 % 4, m2 % 4) not in ADMISSIBLE_TYPES:
        raise ValueError(f"inadmissible pair ({m1},{m2}): residues must lie jointly "
                         "in {0,1} or jointly in {2,3} mod 4")
    return (
        m1 * (m1 + 3) + m2 * (m2 - 1),
        m1 * (m1 - 1) + m2 * (m2 + 3),
        m1 * (m1 - 1) + m2 * (m2 - 1),
    )
