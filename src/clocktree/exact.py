"""Exact arithmetic on polynomials with integer coefficients.

A polynomial is a list of Python ints, highest power first, without leading
zeros; [] is the zero polynomial.  The helpers take primitive parts, pseudo
remainders, greatest common divisors and squarefree factors, and give the
real roots of a squarefree factor of degree 1 or 2 in closed form, and
count distinct real roots by a Sturm sequence.  `quartic.classify_quartic`
reads them where the quartic's discriminant is exactly 0, and
`fixedpoint.q5_solution_counts` counts the rows its float Sturm chain cannot
certify.  Only `math` is imported: no numpy, no `fractions`.
"""
from __future__ import annotations

import math
import operator


def _primitive(p: list[int]) -> list[int]:
    """p divided by the gcd of its coefficients, with a positive leading coefficient."""
    g = math.gcd(*p) if p[0] > 0 else -math.gcd(*p)
    return [x // g for x in p]


def _pseudo_divide(p: list[int], q: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of lc(q)^k p divided by q, with k = deg p - deg q + 1."""
    quotient = []
    for _ in range(len(p) - len(q) + 1):
        quotient = [q[0] * x for x in quotient] + [p[0]]
        p = [q[0] * x - p[0] * y for x, y in zip(p[1:], q[1:] + [0] * len(p))]
    while p and p[0] == 0:
        p = p[1:]
    return quotient, p


def _gcd(p: list[int], q: list[int]) -> list[int]:
    """The primitive greatest common divisor of p and q, by a primitive pseudo-remainder sequence."""
    while q:
        r = _pseudo_divide(p, q)[1]
        p, q = q, _primitive(r) if r else r
    return _primitive(p)


def _squarefree_factors(p: list[int]) -> list[list[int]]:
    """Primitive squarefree f_1, f_2, ... with p = const * f_1 f_2^2 f_3^3 ... (Musser's algorithm).

    c = gcd(p, p') = f_2 f_3^2 ..., and w = p / c = f_1 f_2 f_3 ... loses one
    f_m per gcd with c; unlike Yun's algorithm it needs each quotient only up
    to a constant factor, so primitive parts will do.
    """
    c = _gcd(p, [(len(p) - 1 - i) * x for i, x in enumerate(p[:-1])])
    w = _primitive(_pseudo_divide(p, c)[0])
    factors = []
    while len(c) > 1:
        y = _gcd(w, c)
        factors.append(_primitive(_pseudo_divide(w, y)[0]))
        w, c = y, _primitive(_pseudo_divide(c, y)[0])
    return factors + [w]


def _real_roots(p: list[int]) -> list[float]:
    """The real roots of a squarefree p of degree 1 or 2, ascending, each within an ulp or so.

    A quadratic's are q/a and c/q, q = -(b + sign(b) sqrt(b^2 - 4ac)) with no
    cancellation, and sqrt in integers to 64 more bits makes a rational root exact.
    """
    if len(p) == 2:
        return [-p[1] / p[0]]
    a, b, c = p
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    s = math.isqrt(disc << 128)
    q = -(b << 64) - s if b >= 0 else -(b << 64) + s
    return sorted([q / (a << 65), (c << 65) / q])


def sturm_count(p: list[int]) -> int:
    """The number of distinct real roots of p, which is not the zero polynomial.

    Sturm's sequence p, p', then each term the negated remainder of the two
    before it, counts them as V(-inf) - V(+inf), the sign changes of its
    leading coefficients at both ends; it ends at gcd(p, p'), so a multiple
    root counts once.  Each term is taken as a pseudo remainder whose sign
    is fixed to that of the negated remainder and divided by the positive
    gcd of its coefficients, which keeps the integers small and changes no
    sign.
    """
    g = math.gcd(*p)
    p = [x // g for x in p]
    terms = [p, [(len(p) - 1 - i) * x for i, x in enumerate(p[:-1])]][: len(p)]  # a constant has no p'
    while len(terms[-1]) > 1:
        a, b = terms[-2:]
        r = _pseudo_divide(a, b)[1]
        if not r:
            break
        # the pseudo remainder is lc(b)^k times the remainder, k = deg a - deg b + 1
        g = math.gcd(*r) if b[0] < 0 and (len(a) - len(b)) % 2 == 0 else -math.gcd(*r)
        terms.append([x // g for x in r])
    at_plus = [t[0] > 0 for t in terms]
    at_minus = [s != (len(t) % 2 == 0) for s, t in zip(at_plus, terms)]
    return sum(map(operator.ne, at_minus, at_minus[1:])) - sum(map(operator.ne, at_plus, at_plus[1:]))
