"""Independent reference model of the B2(1) mass lattice for the benchmark.

Input generation and every output check go through this module.  It never
imports b2weyl: the coupling matrix, the reflection formula, the quadric,
the greedy descent rule, the family/type table and the small rank-one and
rank-two systems are transcribed here from the paper's printed formulas,
so agreement with the engine is a cross-check rather than a tautology.

Numeric work is exact and integer: a rational probe mu = M / q is carried
as the integer vector M, and a mass value sigma as V = q * sigma.  Every
formula below is homogeneous of degree one in (V, M), so the scaling
never changes a comparison.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# Twice the coupling matrix ((1,0,-1),(0,1,-1),(-1/2,-1/2,1)).
DOUBLED = ((2, 0, -2), (0, 2, -2), (-1, -1, 2))
ZERO3 = ((0, 0, 0), (0, 0, 0), (0, 0, 0))

# Mod-4 type (m1 % 4, m2 % 4) -> closed-form family index.
FAMILY_BY_TYPE = {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4,
                  (2, 2): 5, (2, 3): 6, (3, 2): 7, (3, 3): 8}

# Rational probes (scaled to integers) whose three vectors are linearly
# independent, so a linear form in mu that agrees at all three is the same
# form.
CHECK_PROBES = ((1, 1, 1), (3, 1, 2), (24, 140, 189))

# Rank-two subsystems by CLI name: doubled coupling matrix.
RANK_TWO = {
    "pair_12": ((2, 0), (0, 2)),
    "pair_13": ((2, -2), (-1, 2)),
    "pair_23": ((2, -2), (-1, 2)),
    "appendix_uv": ((2, -1), (-2, 2)),
}
SINH_DOUBLED = ((2, -2), (-2, 2))


def reflect(coeff, index, doubled=DOUBLED):
    """Symbolic affine reflection of a coefficient matrix (rows = sigma_i).

    sigma_i -> 4*mu_i - sum_j (2a)_ij sigma_j + sigma_i; other rows fixed.
    """
    i = index - 1
    terms = [(d, row) for d, row in zip(doubled[i], coeff) if d]
    own = coeff[i]
    row = tuple((4 if k == i else 0) + own[k] - sum(d * r[k] for d, r in terms)
                for k in range(len(coeff)))
    return coeff[:i] + (row,) + coeff[i + 1:]


def apply_word(coeff, word, doubled=DOUBLED):
    for index in word:
        coeff = reflect(coeff, index, doubled)
    return coeff


def values(coeff, m):
    """Scaled numeric masses V = C . M."""
    return tuple(sum(c * x for c, x in zip(row, m)) for row in coeff)


def reflect_values(v, index, m):
    """The defining reflection on numeric (scaled) masses."""
    i = index - 1
    d = DOUBLED[i]
    out = list(v)
    out[i] = 4 * m[i] + v[i] - (d[0] * v[0] + d[1] * v[1] + d[2] * v[2])
    return tuple(out)


def quadric(v, m):
    """(s1-s3)^2 + (s2-s3)^2 - 4(mu1 s1 + mu2 s2 + 2 mu3 s3), scaled by q^2."""
    s1, s2, s3 = v
    return ((s1 - s3) ** 2 + (s2 - s3) ** 2
            - 4 * (m[0] * s1 + m[1] * s2 + 2 * m[2] * s3))


def measure(v):
    """The descent measure s1 + s2 + 2*s3."""
    return v[0] + v[1] + 2 * v[2]


def greedy_descent(coeff, m, limit=100_000):
    """Word in application order taking a member to the origin.

    Each step applies the smallest generator that strictly lowers
    s1 + s2 + 2*s3 at the probe.  It runs on the masses at the probe:
    along a member's descent every element is a member, with nonnegative
    coefficients, so its masses at a positive probe vanish only at the
    origin.  Returns None when no generator lowers the measure, i.e. the
    input is not an orbit member.
    """
    word = []
    v = values(coeff, m)
    while any(v):
        here = measure(v)
        for index in (1, 2, 3):
            nxt = reflect_values(v, index, m)
            if measure(nxt) < here:
                v = nxt
                word.append(index)
                break
        else:
            return None
        if len(word) > limit:
            return None
    return word


def params(coeff):
    """Closed-form parameters (m1, m2) read off the coefficient row sums."""
    s = [sum(row) for row in coeff]
    return (s[0] - s[2]) // 4, (s[1] - s[2]) // 4


def type_of(coeff):
    m1, m2 = params(coeff)
    return (m1 % 4, m2 % 4)


def closed_form_id(coeff):
    m1, m2 = params(coeff)
    return (FAMILY_BY_TYPE[(m1 % 4, m2 % 4)], m1, m2)


def sort_key(coeff):
    return tuple(v for row in coeff for v in row)


def bott_counts(depth):
    """Per-level orbit sizes from Bott's Poincare series of affine B2.

    (1+t)(1+t+t^2+t^3) / ((1-t)(1-t^3)), expanded through t^depth.
    """
    coeffs = [0] * (depth + 1)
    for k, c in enumerate((1, 2, 2, 2, 1)):
        if k <= depth:
            coeffs[k] = c
    for k in range(1, depth + 1):  # divide by (1 - t)
        coeffs[k] += coeffs[k - 1]
    for k in range(3, depth + 1):  # divide by (1 - t^3)
        coeffs[k] += coeffs[k - 3]
    return coeffs


def sigma_strings(coeff, mu):
    """Masses at a rational probe, formatted as the CLI prints rationals."""
    return [str(sum((Fraction(c) * x for c, x in zip(row, mu)), Fraction(0)))
            for row in coeff]


def random_probe(rng: random.Random):
    """A seeded positive rational probe: (text for --mu, Fractions)."""
    mu = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(3))
    return ",".join(str(x) for x in mu), mu


def scaled(mu):
    """Integer vector M and denominator q with mu = M / q."""
    q = math.lcm(*(x.denominator for x in mu))
    return tuple(int(x * q) for x in mu), q


def matrix_literal(coeff):
    return ";".join(",".join(str(v) for v in row) for row in coeff)


def member_walk(rng: random.Random, steps: int, bound: int):
    """Seeded measure-raising walk from the origin.

    Each step applies a random generator that raises s1 + s2 + 2*s3 at
    unit weights while both closed-form parameters stay within +-bound.
    The walk runs on the masses at unit weights, which are the coefficient
    row sums; the coefficient matrix is built once from the word.
    """
    ones = (1, 1, 1)
    v = (0, 0, 0)
    word = []
    for _ in range(steps):
        here = measure(v)
        options = []
        for index in (1, 2, 3):
            nxt = reflect_values(v, index, ones)
            m1, m2 = (nxt[0] - nxt[2]) // 4, (nxt[1] - nxt[2]) // 4
            if measure(nxt) > here and max(abs(m1), abs(m2)) <= bound:
                options.append((index, nxt))
        if not options:
            break
        index, v = rng.choice(options)
        word.append(index)
    return apply_word(ZERO3, word)


def rank_two_orbit(doubled):
    """Finite orbit of the origin, with BFS depth, for a rank-two system."""
    zero = ((0, 0), (0, 0))
    depth = {zero: 0}
    frontier = [zero]
    while frontier:
        nxt = []
        for c in frontier:
            for index in (1, 2):
                child = reflect(c, index, doubled)
                if child not in depth:
                    depth[child] = depth[c] + 1
                    nxt.append(child)
        frontier = nxt
    return depth


def sinh_element(m):
    """Rank-one chain element m: alternate 1,2,... (m > 0) or 2,1,... (m < 0)."""
    coeff = ((0, 0), (0, 0))
    first, second = (1, 2) if m > 0 else (2, 1)
    for k in range(abs(m)):
        coeff = reflect(coeff, first if k % 2 == 0 else second, SINH_DOUBLED)
    return coeff
