"""Cosine basis identities and the A-norm."""
import math

import numpy as np
import pytest

from clocktree.basis import a_norm, basis_norms, n_modes, raw_basis_vector, raw_coefficients, unit_basis_vector
from clocktree.errors import AsymmetricVector

from conftest import random_symmetric_probability


@pytest.mark.parametrize("q", [3, 4, 5, 6, 8])
def test_product_identity(q):
    # phi_i * phi_j = phi_{i+j}/2 + phi_{i-j}/2 pointwise (indices as plain integers)
    k = np.arange(q)
    for i in range(n_modes(q) + 1):
        for j in range(n_modes(q) + 1):
            left = raw_basis_vector(q, i) * raw_basis_vector(q, j)
            right = 0.5 * np.cos(2 * np.pi * (i + j) * k / q) + 0.5 * np.cos(
                2 * np.pi * (i - j) * k / q
            )
            assert np.abs(left - right).max() < 1e-14


@pytest.mark.parametrize("q", [3, 4, 5, 6])
def test_convolution_identity(q):
    # phi_i (*) phi_j = z_j delta_ij phi_j, entrywise
    z = basis_norms(q)
    for i in range(n_modes(q) + 1):
        for j in range(n_modes(q) + 1):
            phi_i = raw_basis_vector(q, i)
            phi_j = raw_basis_vector(q, j)
            conv = np.array(
                [sum(phi_i[(k - l) % q] * phi_j[l] for l in range(q)) for k in range(q)]
            )
            expected = (z[j] if i == j else 0.0) * phi_j
            assert np.abs(conv - expected).max() < 1e-12


def test_basis_norms_closed_form():
    assert np.allclose(basis_norms(4), [4.0, 2.0, 4.0])
    assert np.allclose(basis_norms(5), [5.0, 2.5, 2.5])


def test_q5_normalization_constants():
    # c = sqrt(1 + 2cos^2(2pi/5) + 2cos^2(4pi/5)) evaluated numerically
    c = math.sqrt(1 + 2 * math.cos(2 * math.pi / 5) ** 2 + 2 * math.cos(4 * math.pi / 5) ** 2)
    assert abs(c * c - 2.5) < 1e-14
    v = 1.0 / (2.0 * c)
    assert abs(v - 1.0 / math.sqrt(10.0)) < 1e-15
    w = 1.0 / (2.0 * c * c)
    assert abs(w - 0.2) < 1e-15


def test_coefficient_roundtrip(rng):
    # f = sum_j a_j * phi_j
    for q in (3, 4, 5, 7, 8):
        for _ in range(50):
            p = random_symmetric_probability(rng, q)
            coeffs = raw_coefficients(q, p)
            rebuilt = sum(a * raw_basis_vector(q, j) for j, a in enumerate(coeffs))
            assert np.abs(rebuilt - p).max() < 1e-13


def test_unit_vectors_are_unit():
    for q in (4, 5, 7):
        for j in range(n_modes(q) + 1):
            assert abs(np.dot(unit_basis_vector(q, j), unit_basis_vector(q, j)) - 1.0) < 1e-13


def test_a_norm_equidistribution():
    # only a_0 = 1/q survives
    assert abs(a_norm(5, np.full(5, 0.2)) - 0.2) < 1e-15


@pytest.mark.parametrize("q", [3, 4, 5, 6, 8])
def test_a_norm_point_mass_minus_uniform(q):
    e1 = np.zeros(q)
    e1[0] = 1.0
    f = e1 - np.full(q, 1.0 / q)
    expected = sum(1.0 / z for z in basis_norms(q)[1:])
    assert abs(a_norm(q, f) - expected) < 1e-13


def test_a_norm_submultiplicative(rng):
    for q in (4, 5, 6):
        for _ in range(100):
            f = random_symmetric_probability(rng, q) * rng.uniform(0.5, 2.0)
            g = random_symmetric_probability(rng, q) * rng.uniform(0.5, 2.0)
            assert a_norm(q, f * g) <= a_norm(q, f) * a_norm(q, g) + 1e-12


def test_asymmetric_vector_rejected():
    with pytest.raises(AsymmetricVector):
        a_norm(4, np.array([0.4, 0.3, 0.2, 0.1]))
    with pytest.raises(AsymmetricVector):
        raw_coefficients(5, np.array([0.5, 0.2, 0.1, 0.1, 0.1]))
