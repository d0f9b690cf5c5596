"""The integer kernel against independent oracles.

Evaluation at mu = M/q, the integer quadric form and the greedy descent
run on integers only; here they are checked against a sympy expansion,
term-by-term Fraction sums and a reference descent written from its
definition in conftest.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from b2weyl.algebra import (
    MassVector,
    ReflectionSystem,
    Weights,
    ZERO,
    apply_word,
    eval_at,
    quadric_form,
)
from b2weyl.orbit import descend_to_origin, enumerate_orbit, is_member_gamma_N
from b2weyl.sinh import SINH_SYMMETRIZER
from b2weyl.weyl2 import SUBSYSTEMS
from conftest import (
    REF_CARTAN_3,
    REF_CARTAN_SINH,
    REF_SYMMETRIZER_3,
    SAMPLE_WEIGHTS,
    descend_reference,
    quadric_reference,
)

F = Fraction

# (name, coupling matrix, symmetrizer); B2(1) and the rank-one chain use
# the independent transcriptions from conftest.
SYSTEMS = [("b2", REF_CARTAN_3, REF_SYMMETRIZER_3),
           ("sinh", REF_CARTAN_SINH, SINH_SYMMETRIZER)]
SYSTEMS += [(name, sub.cartan, sub.symmetrizer) for name, sub in sorted(SUBSYSTEMS.items())]
# D*A is not symmetric here; the residual is still a plain polynomial identity.
SYSTEMS += [("b2-unit-symmetrizer", REF_CARTAN_3, (1, 1, 1))]

entries = st.integers(min_value=-60, max_value=60)
positive_rationals = st.builds(F, st.integers(1, 60), st.integers(1, 24))


def sympy_residual(coeff, cartan, symmetrizer):
    """Coefficients of the quadric residual at sigma = C*mu, expanded by sympy.

    They are listed in the order of ``quadric_form``: mu_j*mu_k for j <= k
    row by row.  The coefficients of each mu_j and of 1 are asserted to be
    zero, so listing only the quadratic ones loses nothing.
    """
    rank = len(coeff)
    mu = sympy.symbols(f"mu1:{rank + 1}")
    sigma = [sum(coeff[i][j] * mu[j] for j in range(rank)) for i in range(rank)]
    expr = sum(symmetrizer[i] * sympy.Rational(cartan[i][j].numerator, cartan[i][j].denominator)
               * sigma[i] * sigma[j] for i in range(rank) for j in range(rank))
    expr -= 4 * sum(symmetrizer[i] * mu[i] * sigma[i] for i in range(rank))
    poly = sympy.Poly(sympy.expand(expr), *mu)
    monomials = [mu[j] * mu[k] for j in range(rank) for k in range(j, rank)]
    assert poly.total_degree() <= 2
    assert all(poly.coeff_monomial(m) == 0 for m in [*mu, 1])
    return [F(int(c.p), int(c.q)) for c in map(poly.coeff_monomial, monomials)]


@pytest.mark.parametrize("name,cartan,symmetrizer", SYSTEMS, ids=[s[0] for s in SYSTEMS])
@given(data=st.data())
@settings(deadline=None, max_examples=40)
def test_quadric_matches_sympy(name, cartan, symmetrizer, data):
    rank = len(cartan)
    flat = data.draw(st.lists(entries, min_size=rank * rank, max_size=rank * rank))
    coeff = tuple(tuple(flat[i * rank:(i + 1) * rank]) for i in range(rank))
    form = quadric_form(MassVector(coeff), ReflectionSystem(name, cartan, symmetrizer))
    assert form == sympy_residual(coeff, cartan, symmetrizer)


def test_membership_matches_polynomial_residual_through_depth_20():
    checked = 0
    for el in enumerate_orbit(20):
        rows = [list(row) for row in el.sigma.coeff]
        vectors = [el.sigma]
        for i in range(3):
            for j in range(3):
                rows[i][j] += 4
                vectors.append(MassVector(tuple(map(tuple, rows))))
                rows[i][j] -= 4
        for sigma in vectors:
            flag = is_member_gamma_N(sigma).quadric_zero
            values = [(eval_at(sigma, Weights.numeric(*mu)), mu) for mu in SAMPLE_WEIGHTS]
            assert flag == all(quadric_reference(v, mu) == 0 for v, mu in values)
            checked += 1
    assert checked == 561 * 10


@given(st.lists(entries, min_size=9, max_size=9),
       st.tuples(positive_rationals, positive_rationals, positive_rationals))
@settings(deadline=None)
def test_eval_at_matches_fraction_sum(flat, mu):
    sigma = MassVector((tuple(flat[0:3]), tuple(flat[3:6]), tuple(flat[6:9])))
    expected = tuple(sum((F(c) * m for c, m in zip(sigma.coeff[i], mu)), F(0))
                     for i in range(3))
    got = eval_at(sigma, Weights.numeric(*mu))
    assert got == expected
    assert [str(v) for v in got] == [str(v) for v in expected]
    assert all(type(v) is Fraction for v in got)


ORBIT_12 = [el.sigma for el in enumerate_orbit(12)]


@given(st.sampled_from(ORBIT_12),
       st.tuples(positive_rationals, positive_rationals, positive_rationals))
@settings(deadline=None, max_examples=300)
def test_descent_matches_reference_under_random_probes(sigma, mu):
    # The word takes no probe; the reference picks it by the measure at mu.
    word = descend_to_origin(sigma)
    assert apply_word(sigma, word) == ZERO
    assert word == descend_reference(sigma.coeff, mu)
