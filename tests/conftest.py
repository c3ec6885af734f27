"""Shared oracles and generators, independent of the library internals."""
import functools

import numpy as np
import pytest
import sympy


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def dft_eigenvalues(row):
    """Brute-force DFT oracle: lambda_j = sum_k r_k exp(-2 pi i j k / q)."""
    q = len(row)
    out = []
    for j in range(q):
        total = 0.0 + 0.0j
        for k in range(q):
            total += row[k] * np.exp(-2j * np.pi * j * k / q)
        out.append(total)
    return np.array(out)


def circulant_matrix(row):
    """M[i, j] = r[(j - i) mod q], built entry by entry."""
    q = len(row)
    return np.array([[row[(j - i) % q] for j in range(q)] for i in range(q)])


def recursion_oracle(row, child_vectors):
    """Pointwise tree recursion: normalize(prod_l M p_l)."""
    M = circulant_matrix(row)
    prod = np.ones(len(row))
    for p in child_vectors:
        prod = prod * (M @ p)
    return prod / prod.sum()


def random_symmetric_row(rng, q):
    """A random strictly positive symmetric probability row."""
    half = q // 2
    vals = rng.uniform(0.05, 1.0, half + 1)
    row = np.empty(q)
    row[0] = vals[0]
    for j in range(1, half + 1):
        row[j] = vals[j]
        row[q - j] = vals[j]
    return row / row.sum()


def random_feasible_lambdas(rng, q):
    """(lambda1, lambda2) with a strictly positive non-increasing row, q in {4, 5}."""
    while True:
        l1 = rng.uniform(0.0, 0.7)
        l2 = rng.uniform(0.0, l1) if l1 > 0 else 0.0
        if q == 4:
            row = np.array([1 + 2 * l1 + l2, 1 - l2, 1 - 2 * l1 + l2, 1 - l2]) / 4
        else:
            c1, c2 = np.cos(2 * np.pi / 5), np.cos(4 * np.pi / 5)
            row = (
                np.array(
                    [
                        1 + 2 * l1 + 2 * l2,
                        1 + 2 * l1 * c1 + 2 * l2 * c2,
                        1 + 2 * l1 * c2 + 2 * l2 * c1,
                        1 + 2 * l1 * c2 + 2 * l2 * c1,
                        1 + 2 * l1 * c1 + 2 * l2 * c2,
                    ]
                )
                / 5
            )
        if row.min() > 1e-3 and all(row[j] >= row[j + 1] for j in range(q // 2)):
            return l1, l2


def random_symmetric_probability(rng, q):
    """A random reflection-symmetric probability vector on q states."""
    half = q // 2
    vals = rng.uniform(0.01, 1.0, half + 1)
    p = np.empty(q)
    p[0] = vals[0]
    for j in range(1, half + 1):
        p[j] = vals[j]
        p[q - j] = vals[j]
    return p / p.sum()


def point_column(grid, runs):
    """A `PhaseGrid` run column (`run_regime`, `run_n_nontrivial` or an array derived from them) repeated over each run's points."""
    return np.repeat(runs, np.diff(grid.starts))


@functools.cache
def q5_cofactor():
    """The q=5 sextic in x = sqrt(10) alpha1 from first principles: coefficients in (l1, l2), highest power first.

    The fixed-point equations of the q=5 mode map, times its denominator,
    with alpha1 = x/sqrt(10) and alpha2 = y/sqrt(10), are (times 10 sqrt(10))
        l2^2 (x - 1) y^2 - 2 l1 l2 x y + x (l1^2 x^2 - 4 l1 + 2) and
        l2^2 y^3 + (l1^2 x^2 - 2 l1 l2 x - 4 l2 + 2) y - l1^2 x^2;
    their resultant in y is l2^4 x times this sextic.
    """
    l1, l2, x, y = sympy.symbols("l1 l2 x y")
    e1 = l2**2 * (x - 1) * y**2 - 2 * l1 * l2 * x * y + x * (l1**2 * x**2 - 4 * l1 + 2)
    e2 = l2**2 * y**3 + (l1**2 * x**2 - 2 * l1 * l2 * x - 4 * l2 + 2) * y - l1**2 * x**2
    cofactor = sympy.cancel(sympy.resultant(e1, e2, y) / (l2**4 * x))
    return [sympy.Poly(c, l1, l2) for c in sympy.Poly(cofactor, x).all_coeffs()]


def q5_root_count(lambda1, lambda2):
    """sympy's count of the distinct real roots x != 0 of `q5_cofactor` at the exact values of two floats."""
    point = [sympy.Rational(*float(t).as_integer_ratio()) for t in (lambda1, lambda2)]
    p = sympy.Poly([c.eval(tuple(point)) for c in q5_cofactor()], sympy.Symbol("x"))
    while not p.is_zero and p.eval(0) == 0:
        p = sympy.Poly(p.as_expr() / sympy.Symbol("x"), sympy.Symbol("x"))
    return p.count_roots()
