"""Exact affine-reflection algebra on symbolic mass vectors.

A mass vector stores each of its three components as a degree-one
polynomial in the weights (mu1, mu2, mu3): an integer coefficient matrix
plus an integer constant offset per component.  The three generators act
by affine reflection across the walls of the coupling matrix; composing
them walks the quantized-mass orbit.  Everything here is exact (ints and
Fractions) -- there is deliberately no floating-point path.

The hot paths stay in the integers.  Numeric weights are held as
mu = M/q, with q the lcm of the denominators and M an integer vector, so
a vector evaluates to the integer vector C*M + q*o over the single
denominator q.  The quadric residual is an integer quadratic form in
(mu, 1) read off the coefficients directly (``quadric_form``), so
membership never builds a polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

GENERATORS = (1, 2, 3)

# Coupling matrix of the three-component system.  Row 3 carries halves, so
# reflections run through the doubled matrix below and coefficient
# arithmetic never leaves the integers (the -2*a3j factors are +-1).
CARTAN_MATRIX = (
    (Fraction(1), Fraction(0), Fraction(-1)),
    (Fraction(0), Fraction(1), Fraction(-1)),
    (Fraction(-1, 2), Fraction(-1, 2), Fraction(1)),
)
DOUBLED_CARTAN = ((2, 0, -2), (0, 2, -2), (-1, -1, 2))

# Diagonal weighting that symmetrizes the coupling matrix.  It defines both
# the invariant quadric and the descent measure sigma1 + sigma2 + 2*sigma3.
SYMMETRIZER = (1, 1, 2)

Rational = Union[int, Fraction, str]


@dataclass(frozen=True)
class Weights:
    """The weight vector mu: formal indeterminates or exact positive rationals.

    ``values is None`` means formal mode (the three weights stay symbolic).
    The optional ``constrained`` flag asserts mu1 + mu2 + 2*mu3 = 4, the
    normalization forced by the zero-sum condition on the unknowns.

    Numeric weights also carry ``scaled = (M, q)``: q is the lcm of the
    denominators and M the integer vector with values == M/q.  It is a
    plain attribute, not a field, so equality, hashing and repr see only
    the values.
    """

    values: tuple[Fraction, Fraction, Fraction] | None = None
    constrained: bool = False

    def __post_init__(self) -> None:
        if self.values is None:
            if self.constrained:
                raise ValueError("the constraint flag needs numeric weights")
            object.__setattr__(self, "scaled", None)
            return
        if len(self.values) != 3:
            raise ValueError("exactly three weights required")
        for v in self.values:
            if not isinstance(v, Fraction):
                raise TypeError("numeric weights must be Fractions")
            if v <= 0:
                raise ValueError(f"weights must be positive, got {v}")
        if self.constrained:
            m1, m2, m3 = self.values
            if m1 + m2 + 2 * m3 != 4:
                raise ValueError("constrained weights must satisfy mu1+mu2+2*mu3 = 4")
        q = math.lcm(*(v.denominator for v in self.values))
        scaled = tuple(v.numerator * (q // v.denominator) for v in self.values)
        object.__setattr__(self, "scaled", (scaled, q))

    @classmethod
    def formal(cls) -> "Weights":
        return cls()

    @classmethod
    def numeric(cls, mu1: Rational, mu2: Rational, mu3: Rational,
                constrained: bool = False) -> "Weights":
        vals = (Fraction(mu1), Fraction(mu2), Fraction(mu3))
        return cls(vals, constrained)

    @property
    def is_numeric(self) -> bool:
        return self.values is not None


FORMAL = Weights.formal()
UNIT_WEIGHTS = Weights.numeric(1, 1, 1)


def _monomial_str(expo: tuple[int, ...]) -> str:
    parts = []
    for k, e in enumerate(expo):
        if e == 1:
            parts.append(f"mu{k + 1}")
        elif e > 1:
            parts.append(f"mu{k + 1}^{e}")
    return "*".join(parts)


@dataclass(frozen=True)
class MuPolynomial:
    """Sparse exact polynomial in the weight variables.

    Terms are stored as a sorted tuple of (exponent-tuple, Fraction) pairs
    with zero coefficients dropped, so structural equality is semantic
    equality.  Only the tiny arithmetic needed by the quadric checks is
    implemented; this is bookkeeping, not a symbolic engine.
    """

    rank: int
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    @classmethod
    def from_dict(cls, rank: int, mapping: Mapping[tuple[int, ...], Rational]) -> "MuPolynomial":
        cleaned = {}
        for expo, value in mapping.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != rank:
                raise ValueError("exponent tuple has wrong length")
            value = Fraction(value)
            if value:
                cleaned[expo] = cleaned.get(expo, Fraction(0)) + value
        items = tuple(sorted((e, c) for e, c in cleaned.items() if c))
        return cls(rank, items)

    @classmethod
    def constant(cls, rank: int, value: Rational) -> "MuPolynomial":
        return cls.from_dict(rank, {(0,) * rank: Fraction(value)})

    @classmethod
    def variable(cls, rank: int, index: int) -> "MuPolynomial":
        expo = tuple(1 if j == index - 1 else 0 for j in range(rank))
        return cls.from_dict(rank, {expo: 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def as_dict(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self.terms)

    def coefficient(self, expo: tuple[int, ...]) -> Fraction:
        return dict(self.terms).get(tuple(expo), Fraction(0))

    def evaluate(self, values: Sequence[Rational]) -> Fraction:
        vals = [Fraction(v) for v in values]
        if len(vals) != self.rank:
            raise ValueError("wrong number of weight values")
        total = Fraction(0)
        for expo, coef in self.terms:
            term = coef
            for v, e in zip(vals, expo):
                if e:
                    term *= v ** e
            total += term
        return total

    def _combine(self, other: "MuPolynomial", sign: int) -> "MuPolynomial":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        acc = dict(self.terms)
        for expo, coef in other.terms:
            acc[expo] = acc.get(expo, Fraction(0)) + sign * coef
        return MuPolynomial.from_dict(self.rank, acc)

    def __add__(self, other: "MuPolynomial") -> "MuPolynomial":
        return self._combine(other, 1)

    def __sub__(self, other: "MuPolynomial") -> "MuPolynomial":
        return self._combine(other, -1)

    def __neg__(self) -> "MuPolynomial":
        return self.scale(-1)

    def scale(self, factor: Rational) -> "MuPolynomial":
        f = Fraction(factor)
        return MuPolynomial.from_dict(self.rank, {e: c * f for e, c in self.terms})

    def __mul__(self, other: "Union[MuPolynomial, Rational]") -> "MuPolynomial":
        if isinstance(other, MuPolynomial):
            if self.rank != other.rank:
                raise ValueError("rank mismatch")
            acc: dict[tuple[int, ...], Fraction] = {}
            for e1, c1 in self.terms:
                for e2, c2 in other.terms:
                    expo = tuple(a + b for a, b in zip(e1, e2))
                    acc[expo] = acc.get(expo, Fraction(0)) + c1 * c2
            return MuPolynomial.from_dict(self.rank, acc)
        return self.scale(other)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for expo, coef in sorted(self.terms, reverse=True):
            mono = _monomial_str(expo)
            if not mono:
                chunks.append(str(coef))
            elif coef == 1:
                chunks.append(mono)
            elif coef == -1:
                chunks.append(f"-{mono}")
            else:
                chunks.append(f"{coef}*{mono}")
        out = " + ".join(chunks)
        return out.replace("+ -", "- ")


def linear_component(coeff_row: Sequence[int], offset: int, rank: int) -> MuPolynomial:
    """Degree-one polynomial sum_j coeff_row[j]*mu_j + offset."""
    mapping: dict[tuple[int, ...], Rational] = {(0,) * rank: offset}
    for j, c in enumerate(coeff_row):
        expo = tuple(1 if k == j else 0 for k in range(rank))
        mapping[expo] = c
    return MuPolynomial.from_dict(rank, mapping)


@dataclass(frozen=True)
class MassVector:
    """Symbolic mass vector: sigma_i = sum_j coeff[i][j]*mu_j + offset[i]."""

    coeff: tuple[tuple[int, int, int], tuple[int, int, int], tuple[int, int, int]]
    offset: tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self) -> None:
        if len(self.coeff) != 3 or any(len(row) != 3 for row in self.coeff):
            raise ValueError("coefficient matrix must be 3x3")
        if len(self.offset) != 3:
            raise ValueError("offset must have three entries")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]],
                  offset: Iterable[int] = (0, 0, 0)) -> "MassVector":
        coeff = tuple(tuple(int(v) for v in row) for row in rows)
        off = tuple(int(v) for v in offset)
        return cls(coeff, off)  # type: ignore[arg-type]

    @classmethod
    def zero(cls) -> "MassVector":
        return ZERO

    def sort_key(self) -> tuple[int, ...]:
        # Canonical order: offset first, then coefficients row-major.
        return self.offset + tuple(v for row in self.coeff for v in row)

    def coefficient_sums(self) -> tuple[int, int, int]:
        """Row sums of the coefficient matrix (the weight-blind masses)."""
        return tuple(sum(row) for row in self.coeff)  # type: ignore[return-value]

    @property
    def has_offset(self) -> bool:
        return any(self.offset)

    def components(self) -> tuple[MuPolynomial, MuPolynomial, MuPolynomial]:
        return tuple(linear_component(self.coeff[i], self.offset[i], 3)
                     for i in range(3))  # type: ignore[return-value]

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.components()) + ")"


ZERO = MassVector(((0, 0, 0), (0, 0, 0), (0, 0, 0)))


def reflect_rows(coeff: tuple[tuple[int, ...], ...], offset: tuple[int, ...],
                 index: int, doubled_cartan: tuple[tuple[int, ...], ...],
                 ) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """One affine reflection on a rank-r symbolic vector, pure integers.

    Component ``index`` (1-based) becomes 4*mu_i - sum_j (2a)_ij sigma_j
    + sigma_i; every other component is untouched.
    """
    rank = len(coeff)
    i = index - 1
    row = doubled_cartan[i]
    new_row = tuple(
        (4 if k == i else 0)
        - sum(row[j] * coeff[j][k] for j in range(rank))
        + coeff[i][k]
        for k in range(rank)
    )
    new_off = -sum(row[j] * offset[j] for j in range(rank)) + offset[i]
    coeff_out = tuple(new_row if r == i else coeff[r] for r in range(rank))
    offset_out = tuple(new_off if r == i else offset[r] for r in range(rank))
    return coeff_out, offset_out


def reflect(sigma: MassVector, index: int) -> MassVector:
    """Apply the generator with the given index (1, 2 or 3)."""
    if index not in GENERATORS:
        raise ValueError(f"generator index must be 1..3, got {index}")
    coeff, offset = reflect_rows(sigma.coeff, sigma.offset, index, DOUBLED_CARTAN)
    return MassVector(coeff, offset)  # type: ignore[arg-type]


def apply_word(sigma: MassVector, word: Sequence[int]) -> MassVector:
    """Apply a generator word in application order (word[0] acts first).

    Written multiplicatively the result is R_{w_n} ... R_{w_1} sigma.
    """
    for index in word:
        sigma = reflect(sigma, index)
    return sigma


def scaled_values(sigma: MassVector, weights: Weights) -> tuple[tuple[int, int, int], int]:
    """Integer vector v and denominator q with sigma(mu) = v/q exactly."""
    if not weights.is_numeric:
        raise ValueError("evaluation needs numeric weights")
    (m1, m2, m3), q = weights.scaled
    values = tuple(c1 * m1 + c2 * m2 + c3 * m3 + q * o
                   for (c1, c2, c3), o in zip(sigma.coeff, sigma.offset))
    return values, q  # type: ignore[return-value]


def eval_at(sigma: MassVector, weights: Weights) -> tuple[Fraction, Fraction, Fraction]:
    """Evaluate the three components at numeric weights."""
    values, q = scaled_values(sigma, weights)
    return tuple(Fraction(v, q) for v in values)  # type: ignore[return-value]


# G = D*A, the symmetric integer matrix of the invariant quadric.
GRAM = tuple(tuple(int(d * a) for a in row) for d, row in zip(SYMMETRIZER, CARTAN_MATRIX))


def quadric_form(coeff: Sequence[Sequence[int]], offset: Sequence[int],
                 gram: Sequence[Sequence[int | Fraction]],
                 symmetrizer: Sequence[int]) -> list[int | Fraction]:
    """Coefficients of the quadric residual at sigma = C*mu + o.

    The residual sigma^t G sigma - 4 * sum_i d_i mu_i sigma_i, with G = D*A
    symmetric, equals mu^t Q mu + l.mu + c where Q = C^t G C - 2(DC + (DC)^t),
    l = 2 C^t G o - 4 D o and c = o^t G o.  Coefficients are listed per
    monomial: mu_j*mu_k for j <= k row by row, then each mu_j, then 1
    (the order of ``_monomials``).  They are integers when G is.
    """
    idx = range(len(coeff))
    gc = [[sum(gram[i][t] * coeff[t][k] for t in idx) for k in idx] for i in idx]
    go = [sum(gram[i][t] * offset[t] for t in idx) for i in idx]
    form = []
    for j in idx:
        for k in idx[j:]:
            entry = (sum(coeff[i][j] * gc[i][k] for i in idx)
                     - 2 * (symmetrizer[j] * coeff[j][k] + symmetrizer[k] * coeff[k][j]))
            form.append(entry if j == k else 2 * entry)
    form += [2 * sum(coeff[i][j] * go[i] for i in idx) - 4 * symmetrizer[j] * offset[j]
             for j in idx]
    form.append(sum(o * g for o, g in zip(offset, go)))
    return form


def _monomials(rank: int) -> list[tuple[int, ...]]:
    unit = [tuple(int(j == k) for k in range(rank)) for j in range(rank)]
    quadratic = [tuple(a + b for a, b in zip(unit[j], unit[k]))
                 for j in range(rank) for k in range(j, rank)]
    return quadratic + unit + [(0,) * rank]


def quadric_residual(coeff: tuple[tuple[int, ...], ...], offset: tuple[int, ...],
                     cartan: tuple[tuple[Fraction, ...], ...],
                     symmetrizer: tuple[int, ...]) -> MuPolynomial:
    """Residual of the invariant quadric for a symmetrizable coupling matrix.

    Returns sigma^t (D A) sigma - 4 * sum_i d_i mu_i sigma_i with
    D = diag(symmetrizer); reflections preserve this polynomial exactly.
    """
    rank = len(coeff)
    # sigma^t (D A) sigma sees only the symmetric part of D A.
    gram = [[Fraction(symmetrizer[i] * cartan[i][j] + symmetrizer[j] * cartan[j][i], 2)
             for j in range(rank)] for i in range(rank)]
    form = quadric_form(coeff, offset, gram, symmetrizer)
    return MuPolynomial.from_dict(rank, dict(zip(_monomials(rank), form)))


def pohozaev_residual(sigma: MassVector,
                      weights: Weights = FORMAL) -> MuPolynomial | Fraction:
    """Residual of (s1-s3)^2 + (s2-s3)^2 = 4(mu1 s1 + mu2 s2 + 2 mu3 s3).

    Formal weights give the full polynomial (at most 10 exact rational
    coefficients); numeric weights give a single rational.
    """
    poly = quadric_residual(sigma.coeff, sigma.offset, CARTAN_MATRIX, SYMMETRIZER)
    if weights.is_numeric:
        return poly.evaluate(weights.values)  # type: ignore[arg-type]
    return poly


def residual_direction(sigma: MassVector, index: int,
                       weights: Weights = FORMAL) -> MuPolynomial | Fraction:
    """The slow-decay admissibility form 2*mu_i - sum_j a_ij sigma_j."""
    if index not in GENERATORS:
        raise ValueError(f"generator index must be 1..3, got {index}")
    i = index - 1
    comps = sigma.components()
    poly = MuPolynomial.variable(3, index).scale(2)
    for j in range(3):
        a = CARTAN_MATRIX[i][j]
        if a:
            poly = poly - comps[j].scale(a)
    if weights.is_numeric:
        return poly.evaluate(weights.values)  # type: ignore[arg-type]
    return poly
