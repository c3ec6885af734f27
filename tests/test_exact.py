"""The integer polynomial helpers of `clocktree.exact`, checked against sympy.

Polynomials are drawn as products of small integer factors, with repeated
factors and powers of x (zero constant terms), so that gcds, pseudo
remainders and squarefree parts are not trivial.  Sturm counts are also
drawn on sparse rows and on the integers of dyadic floats near 2^+-1000.
"""
import math

import sympy
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from clocktree.exact import _gcd, _pseudo_divide, _real_roots, _squarefree_factors, sturm_count

X = sympy.Symbol("x")
SETTINGS = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# an integer polynomial of degree 1 to 3, highest power first, without leading zeros
_factors = st.lists(st.integers(-9, 9), min_size=2, max_size=4).filter(lambda c: c[0] != 0)


@st.composite
def polynomials(draw):
    """Integer coefficients, highest power first: c * x^k * f_1^m_1 * f_2^m_2 ..., each m_i in 1..3."""
    p = sympy.Poly(draw(st.integers(1, 12)) * draw(st.sampled_from([1, -1])) * X ** draw(st.integers(0, 2)), X)
    for factor, power in draw(st.lists(st.tuples(_factors, st.integers(1, 3)), min_size=1, max_size=3)):
        p *= sympy.Poly(factor, X) ** power
    return [int(c) for c in p.all_coeffs()]


def _poly(p):
    return sympy.Poly(p, X, domain="ZZ")


def _coeffs(p):
    """A sympy polynomial's integer coefficients, highest power first; [] for the zero polynomial."""
    return [] if p.is_zero else [int(c) for c in p.all_coeffs()]


def _primitive_positive(p):
    """The primitive part of a non-zero sympy polynomial, with a positive leading coefficient."""
    part = p.primitive()[1]
    return _coeffs(-part if part.LC() < 0 else part)


@SETTINGS
@given(polynomials(), polynomials(), polynomials())
def test_gcd_is_sympys_primitive_gcd(common, a, b):
    p, q = (_coeffs(_poly(common) * _poly(x)) for x in (a, b))
    assert _gcd(p, q) == _primitive_positive(sympy.gcd(_poly(p), _poly(q)))


@SETTINGS
@given(polynomials(), polynomials())
def test_pseudo_division_is_sympys(p, q):
    quotient, remainder = sympy.pdiv(_poly(p), _poly(q))
    assert _pseudo_divide(p, q) == (_coeffs(quotient), _coeffs(remainder))


@SETTINGS
@given(polynomials())
def test_squarefree_factors_are_sympys(p):
    # ours lists f_1, f_2, ... up to the highest multiplicity, a constant [1]
    # where no factor has that multiplicity; sympy lists the non-constant ones
    ours = {m: f for m, f in enumerate(_squarefree_factors(p), 1) if len(f) > 1}
    assert all(f == [1] for m, f in enumerate(_squarefree_factors(p), 1) if m not in ours)
    _, factors = sympy.sqf_list(_poly(p))
    assert ours == {m: _primitive_positive(f) for f, m in factors}


_coefficient = st.integers(-(2**70), 2**70)


@SETTINGS
@given(st.lists(_coefficient, min_size=2, max_size=3).filter(lambda c: c[0] != 0))
# sympy 1.14's real_roots raises in its factorisation here ("... is not a
# prime factor of ..."), so the roots are isolated without factoring
@example([20821040, 373093884399699, 20821040])
def test_real_roots_are_within_an_ulp_of_sympys(p):
    if len(p) == 3 and p[1] ** 2 == 4 * p[0] * p[2]:
        p = p[:2] + [p[2] + 1]  # a double root: not squarefree
    # the midpoints of isolating intervals narrower than 2^-200, in ascending order
    exact = [float((a + b) / 2) for (a, b), _ in _poly(p).intervals(eps=sympy.Rational(1, 2**200))]
    ours = _real_roots(p)
    assert len(ours) == len(exact)
    for x, r in zip(ours, exact):
        assert abs(x - r) <= math.ulp(r)


# sparse rows: zero coefficients make Sturm's remainders drop more than one degree
_SPARSE = st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7]), min_size=2, max_size=9).filter(lambda c: c[0] != 0)


@st.composite
def dyadic_rows(draw):
    """The integers of a row of dyadic floats near 2^+-1000, scaled to a common power of 2."""
    values = [draw(st.integers(-(2**53), 2**53)) * 2.0 ** draw(st.integers(-1050, 950)) for _ in range(draw(st.integers(2, 7)))]
    values[0] = values[0] or 1.0
    ratios = [v.as_integer_ratio() for v in values]
    m = max(d for _, d in ratios)
    return [a * (m // d) for a, d in ratios]


@SETTINGS
@given(st.one_of(polynomials(), _SPARSE, dyadic_rows()))
@example([1, 0, 0, 0, 1])  # x^4 + 1: no real root, and x^4 + 1 by 4 x^3 leaves a constant
@example([1, 0, -2, 0, 1])  # (x^2 - 1)^2: two double roots
@example([5])
def test_sturm_count_is_sympys_count_of_distinct_real_roots(p):
    assert sturm_count(p) == _poly(p).count_roots()
