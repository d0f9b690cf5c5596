"""Exact affine-reflection algebra on symbolic mass vectors, for every rank.

A reflection system is a coupling matrix A with a symmetrizer D.  The
three-component B2(1) system (``B2``), its rank-one sinh-Gordon reduction
(``sinh.SINH``) and the four rank-two subsystems (``weyl2.SUBSYSTEMS``)
are all instances of the one ``ReflectionSystem``, and every rank shares
one vector type, one reflection, one evaluator and one quadric residual.

A rank-r mass vector stores each component as a linear form in the
weights (mu1, ..., mur): an integer r x r coefficient matrix.  Generator
i acts by affine reflection across the i-th wall of the coupling matrix;
composing generators walks the quantized-mass orbit.  Everything here is
exact (ints and Fractions) -- there is deliberately no floating-point
path.

The hot paths stay in the integers.  Weights are held as
mu = M/q, with q the lcm of the denominators and M an integer vector, so
a vector evaluates to the integer vector C*M over the single
denominator q.  The quadric residual is an integer quadratic form in mu
read off the coefficients directly (``quadric_form``); a vector lies on
the quadric identically in mu exactly when every coefficient is zero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, Union


class Frozen:
    """Base of the engine's immutable value types: slotted, compared by their fields.

    A subclass keeps its attributes in ``__slots__`` and names in
    ``_fields``, in constructor order, the ones that make up its value;
    any other slot is derived from them.  Two instances are equal when
    they are of the same class and their field tuples are equal (another
    class gets NotImplemented), the hash is the field tuple's hash, and
    the repr is ``Name(field=value, ...)``.  ``__init__`` is the only way
    in: it sets each attribute once through ``object.__setattr__``, by
    keyword with ``_assign`` or, in the classes built once per step or per
    request, one call at a time, which costs less; assigning or deleting
    one afterwards raises AttributeError.  Copies and pickles carry the
    field tuple and call the class on it (``__reduce__``), so they re-run
    its checks and recompute every derived slot.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _assign(self, **values: object) -> None:
        """Set attributes by name, from ``__init__``."""
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._key()


class ReflectionSystem(Frozen):
    """A rank-r reflection system: coupling matrix A plus symmetrizer D.

    Generator i (1-based) sends sigma_i to 4*mu_i - 2*sum_j a_ij sigma_j
    + sigma_i and fixes every other component.  Derived once: ``doubled``
    is 2A, integral so reflections never leave the integers; ``row_maps``
    holds each generator's row map, the nonzero (j, w_ij) of w = I - 2A;
    ``gram``, D*A symmetrized (ints where integral), is the quadric matrix.
    """

    __slots__ = ("name", "cartan", "symmetrizer", "rank", "doubled", "row_maps", "gram")
    _fields = ("name", "cartan", "symmetrizer")

    name: str
    cartan: tuple[tuple[Fraction, ...], ...]
    symmetrizer: tuple[int, ...]
    rank: int
    doubled: tuple[tuple[int, ...], ...]
    row_maps: tuple[tuple[tuple[int, int], ...], ...]
    gram: tuple[tuple[int | Fraction, ...], ...]

    def __init__(self, name: str, cartan: tuple[tuple[Fraction, ...], ...],
                 symmetrizer: tuple[int, ...]) -> None:
        a, d = cartan, symmetrizer
        rank = len(a)
        if any(len(row) != rank for row in a) or len(d) != rank:
            raise ValueError(f"{name}: the coupling matrix must be square "
                             "and the symmetrizer must match its rank")
        twice = [[2 * Fraction(v) for v in row] for row in a]
        if any(v.denominator != 1 for row in twice for v in row):
            raise ValueError(f"{name}: twice the coupling matrix must be integral")
        gram = [[Fraction(d[i] * a[i][j] + d[j] * a[j][i], 2) for j in range(rank)]
                for i in range(rank)]
        doubled = tuple(tuple(int(v) for v in row) for row in twice)
        self._assign(
            name=name, cartan=cartan, symmetrizer=symmetrizer, rank=rank, doubled=doubled,
            row_maps=tuple(tuple((j, (i == j) - v) for j, v in enumerate(row) if v != (i == j))
                           for i, row in enumerate(doubled)),
            gram=tuple(tuple(int(g) if g.denominator == 1 else g for g in row) for row in gram))


# Coupling matrix of the three-component system.  Row 3 carries halves, so
# reflections run through the doubled matrix B2.doubled and coefficient
# arithmetic never leaves the integers.
CARTAN_MATRIX = (
    (Fraction(1), Fraction(0), Fraction(-1)),
    (Fraction(0), Fraction(1), Fraction(-1)),
    (Fraction(-1, 2), Fraction(-1, 2), Fraction(1)),
)

# Diagonal weighting that symmetrizes the coupling matrix; it defines the
# invariant quadric.
SYMMETRIZER = (1, 1, 2)

B2 = ReflectionSystem("B2(1)", CARTAN_MATRIX, SYMMETRIZER)
GENERATORS = (1, 2, 3)

Rational = Union[int, Fraction, str]


def _scale(ratios: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    """M and q with M/q the ``ratios`` (p, d), d > 0, as ``Fraction.as_integer_ratio()``
    gives them: q is the lcm of the d."""
    q = math.lcm(*(d for _, d in ratios))
    return tuple(p * (q // d) for p, d in ratios), q


class Weights(Frozen):
    """The B2(1) weight vector mu: three exact positive rationals.

    Weights also carry ``scaled = (M, q)``, derived once: q is the lcm of
    the denominators and M the integer vector with values == M/q.
    Equality, hashing and repr see only the values.
    """

    __slots__ = ("values", "scaled")
    _fields = ("values",)

    values: tuple[Fraction, Fraction, Fraction]
    scaled: tuple[tuple[int, ...], int]

    def __init__(self, values: tuple[Fraction, Fraction, Fraction]) -> None:
        if len(values) != 3:
            raise ValueError("exactly three weights required")
        for v in values:
            if not isinstance(v, Fraction):
                raise TypeError("weights must be Fractions")
            if v.numerator <= 0:
                raise ValueError(f"weights must be positive, got {v}")
        self._assign(values=values, scaled=_scale([v.as_integer_ratio() for v in values]))

    @classmethod
    def numeric(cls, mu1: Rational, mu2: Rational, mu3: Rational) -> "Weights":
        return cls((Fraction(mu1), Fraction(mu2), Fraction(mu3)))


UNIT_WEIGHTS = Weights.numeric(1, 1, 1)


class MassVector(Frozen):
    """Symbolic rank-r mass vector: sigma_i = sum_j coeff[i][j]*mu_j.

    The rank is the size of the square coefficient matrix, which every
    vector, the engine's own too, checks in a plain loop (cheaper than ``any``).
    """

    __slots__ = _fields = ("coeff",)

    coeff: tuple[tuple[int, ...], ...]

    def __init__(self, coeff: tuple[tuple[int, ...], ...]) -> None:
        rank = len(coeff)
        for row in coeff:
            if len(row) != rank:
                raise ValueError(f"coefficient matrix must be {rank}x{rank}")
        object.__setattr__(self, "coeff", coeff)

    def coefficient_sums(self) -> tuple[int, ...]:
        """Row sums of the coefficient matrix (the weight-blind masses)."""
        return tuple(sum(row) for row in self.coeff)


ZERO = MassVector(((0, 0, 0), (0, 0, 0), (0, 0, 0)))


def _check_rank(sigma: MassVector, system: ReflectionSystem) -> None:
    if len(sigma.coeff) != system.rank:
        raise ValueError(f"a rank-{len(sigma.coeff)} vector does not fit "
                         f"{system.name}, of rank {system.rank}")


def reflect(sigma: MassVector, index: int, system: ReflectionSystem = B2) -> MassVector:
    """Apply generator ``index`` (1..rank) of ``system``, B2(1) unless given.

    Component i = index - 1 becomes 4*mu_i - sum_j (2A)_ij sigma_j + sigma_i;
    every other component is untouched.  Pure integers.
    """
    if not 0 < index <= system.rank:
        raise ValueError(f"generator index must be 1..{system.rank}, got {index}")
    _check_rank(sigma, system)
    i = index - 1
    return MassVector(_reflected_coeff(sigma.coeff, i, system.row_maps[i]))


def _reflected_coeff(coeff: tuple[tuple[int, ...], ...], i: int, pairs: tuple) -> tuple:
    """``coeff`` after generator i + 1: row i becomes sum_j w_ij * row_j + 4 e_i, the rest stay."""
    row = [0] * len(coeff)
    row[i] = 4
    for j, w in pairs:
        for k, v in enumerate(coeff[j]):
            row[k] += w * v
    return coeff[:i] + (tuple(row),) + coeff[i + 1:]


def apply_word(sigma: MassVector, word: Sequence[int]) -> MassVector:
    """Apply a generator word in application order (word[0] acts first).

    Written multiplicatively the result is R_{w_n} ... R_{w_1} sigma.
    """
    for index in word:
        sigma = reflect(sigma, index)
    return sigma


def _word_map(word: Sequence[int]) -> tuple:
    """The affine map C -> P*C + T of ``word`` on a coefficient matrix, one entry per row it moves.

    T is the word's image of the origin and P + T its image of the
    identity matrix.  Each entry is (r, pairs, T_r) with pairs the nonzero
    (j, P_rj), so new row_r = sum_j P_rj * row_j + T_r, and at the weights
    M/q new v_r = sum_j P_rj * v_j + T_r . M.  Exactly the rows with
    P_r = e_r and T_r = 0 are left out, so two words act alike on every
    matrix exactly when their maps are equal.
    """
    shift = apply_word(ZERO, word).coeff
    image = apply_word(MassVector(((1, 0, 0), (0, 1, 0), (0, 0, 1))), word).coeff
    entries = []
    for r, (moved, t) in enumerate(zip(image, shift)):
        pairs = tuple((j, a - b) for j, (a, b) in enumerate(zip(moved, t)) if a != b)
        if pairs != ((r, 1),) or any(t):
            entries.append((r, pairs, t))
    return tuple(entries)


def scaled_values(sigma: MassVector,
                  weights: Weights | Sequence[Rational]) -> tuple[tuple[int, ...], int]:
    """Integer vector v and denominator q with sigma(mu) = v/q exactly.

    ``weights`` is ``Weights`` (B2(1), positive) or a plain sequence of
    rationals, one per component, of any sign (the reduced systems
    evaluate at zero and negative weights too).
    """
    if isinstance(weights, Weights):
        m, q = weights.scaled
    else:
        m, q = _scale([Fraction(v).as_integer_ratio() for v in weights])
    if len(m) != len(sigma.coeff):
        raise ValueError(f"{len(sigma.coeff)} weight values required, got {len(m)}")
    return tuple([sum(map(mul, row, m)) for row in sigma.coeff]), q


def ratio_text(v: int, q: int) -> str:
    """``str(Fraction(v, q))``, for q > 0, without building the Fraction."""
    g = math.gcd(v, q)
    return str(v // g) if g == q else f"{v // g}/{q // g}"


def ratio_texts(values: Iterable[int], q: int) -> list[str]:
    """``ratio_text`` of each value."""
    return [ratio_text(v, q) for v in values]


def eval_at(sigma: MassVector, weights: Weights | Sequence[Rational]) -> tuple[Fraction, ...]:
    """Evaluate every component at the weights (see ``scaled_values``)."""
    values, q = scaled_values(sigma, weights)
    return tuple(Fraction(v, q) for v in values)


def quadric_form(sigma: MassVector, system: ReflectionSystem = B2) -> list[int | Fraction]:
    """Coefficients of the quadric residual at sigma = C*mu.

    The residual sigma^t G sigma - 4 * sum_i d_i mu_i sigma_i, with G the
    system's ``gram``, equals the quadratic form mu^t Q mu with
    Q = C^t G C - 2(DC + (DC)^t); it has no linear or constant part.
    Coefficients are listed per monomial, mu_j*mu_k for j <= k row by
    row: r(r + 1)/2 of them.  They are integers when G is, and all of
    them vanish exactly when sigma lies on the quadric identically in mu.
    """
    _check_rank(sigma, system)
    coeff, gram, symmetrizer = sigma.coeff, system.gram, system.symmetrizer
    columns = list(zip(*coeff))
    # gc[k] is column k of G*C; entry (j, k) of C^t G C is column j of C dot gc[k].
    gc = [[sum(map(mul, row, column)) for row in gram] for column in columns]
    form = []
    for j, column in enumerate(columns):
        for k in range(j, len(columns)):
            entry = (sum(map(mul, column, gc[k]))
                     - 2 * (symmetrizer[j] * coeff[j][k] + symmetrizer[k] * coeff[k][j]))
            form.append(entry if j == k else 2 * entry)
    return form


def pohozaev_residual(sigma: MassVector, weights: Weights) -> Fraction:
    """Residual of (s1-s3)^2 + (s2-s3)^2 = 4(mu1 s1 + mu2 s2 + 2 mu3 s3) at the weights.

    It is ``quadric_form`` at mu = M/q: sum of each mu_j*mu_k coefficient
    times M_j*M_k, over q^2.
    """
    m, q = weights.scaled
    monomials = [m[j] * m[k] for j in range(3) for k in range(j, 3)]
    return Fraction(sum(map(mul, quadric_form(sigma), monomials)), q * q)
