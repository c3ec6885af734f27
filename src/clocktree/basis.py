"""Cosine bases on the discrete circle and the A-norm.

Reflection-symmetric vectors on {0,...,q-1} (f(k) = f(q-k)) form a space of
dimension floor(q/2)+1 spanned by the cosine vectors

    phi_j(k) = cos(2*pi*j*k/q),        j = 0..floor(q/2).

Two coefficient conventions coexist:

  RAW         coefficients a_j with f = sum_j a_j * phi_j,
              recovered as a_j = <f, phi_j> / z_j where z_j = sum_k phi_j(k)^2.
  NORMALIZED  coefficients alpha_j w.r.t. the L2-unit vectors phi_j / sqrt(z_j);
              alpha_j = a_j * sqrt(z_j).

The basis satisfies the pointwise product rule
phi_i*phi_j = (phi_{i+j} + phi_{i-j})/2 and the convolution rule
phi_i (*) phi_j = z_j delta_ij phi_j, which make both the tree recursion and
the transfer matrix diagonal in mode space.

The A-norm of a symmetric vector is the l1 norm of its RAW coefficients,
||f||_A = sum_j |a_j(f)|, including j = 0.
"""
from __future__ import annotations

import enum
import functools
import math

import numpy as np

from .errors import AsymmetricVector

SYMMETRY_TOL = 1e-12


def n_modes(q: int) -> int:
    """Number of non-constant cosine modes, floor(q/2)."""
    return q // 2


@functools.lru_cache(maxsize=64)
def _cosine_table(q: int) -> np.ndarray:
    """The read-only (q x q) table cos(2*pi*j*k/q), row j = phi_j; `spectral` reads it too."""
    k = np.arange(q)
    table = np.cos(2.0 * math.pi * k[:, None] * k / q)
    table.setflags(write=False)
    return table


def raw_basis_vector(q: int, j: int) -> np.ndarray:
    """phi_j as a read-only length-q vector, j = 0..q-1: phi_j(k) = cos(2*pi*j*k/q)."""
    return _cosine_table(q)[j]


@functools.lru_cache(maxsize=64)
def basis_norms(q: int) -> np.ndarray:
    """z_j = sum_k phi_j(k)^2 for j = 0..floor(q/2).

    Closed form: z_0 = q, z_{q/2} = q for even q, and z_j = q/2 otherwise.
    """
    z = np.full(n_modes(q) + 1, q / 2.0)
    z[0] = float(q)
    if q % 2 == 0:
        z[-1] = float(q)
    z.setflags(write=False)
    return z


@functools.lru_cache(maxsize=256)
def unit_basis_vector(q: int, j: int) -> np.ndarray:
    """phi_j / sqrt(z_j), an L2-unit symmetric vector."""
    v = raw_basis_vector(q, j) / math.sqrt(basis_norms(q)[j])
    v.setflags(write=False)
    return v


def mirror(f: np.ndarray) -> np.ndarray:
    """The reflected vector k -> f((q-k) mod q)."""
    f = np.asarray(f, dtype=float)
    return np.concatenate(([f[0]], f[1:][::-1]))


def _check_symmetric(q: int, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (q,):
        raise AsymmetricVector(f"expected a length-{q} vector, got shape {f.shape}")
    err = np.abs(f - mirror(f)).max()
    if err > SYMMETRY_TOL:
        raise AsymmetricVector(f"vector is not reflection symmetric (max deviation {err:.3e})")
    return f


def raw_coefficients(q: int, f: np.ndarray) -> np.ndarray:
    """RAW coefficients a_j = <f, phi_j>/z_j, j = 0..floor(q/2).

    Direct summation; no FFT for these small q.
    """
    f = _check_symmetric(q, f)
    z = basis_norms(q)
    return np.array([float(np.dot(f, raw_basis_vector(q, j))) / z[j] for j in range(n_modes(q) + 1)])


def pointwise_from_raw(q: int, coeffs: np.ndarray) -> np.ndarray:
    """Reconstruct the symmetric vector sum_j a_j phi_j."""
    coeffs = np.asarray(coeffs, dtype=float)
    out = np.zeros(q)
    for j, a in enumerate(coeffs):
        out += a * raw_basis_vector(q, j)
    return out


class BasisConvention(enum.Enum):
    """Coefficient convention for symmetric vectors.

    RAW: coefficients w.r.t. phi_j.
    NORMALIZED: coefficients w.r.t. the unit vectors phi_j / sqrt(z_j).
    """

    RAW = "raw"
    NORMALIZED = "normalized"


def convert_coefficients(
    q: int, coeffs: np.ndarray, source: BasisConvention, target: BasisConvention
) -> np.ndarray:
    """Rescale a coefficient vector (indices 0..floor(q/2)) between conventions.

    Exact linear rescaling per mode: alpha_j = a_j * sqrt(z_j).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if source is target:
        return coeffs.copy()
    s = np.sqrt(basis_norms(q))
    return coeffs * s if target is BasisConvention.NORMALIZED else coeffs / s


def a_norm(q: int, f: np.ndarray, convention: BasisConvention = BasisConvention.RAW) -> float:
    """Sum of absolute RAW coefficients, ||f||_A, j = 0 included.

    `f` may be a length-q pointwise symmetric vector (convention ignored: the
    norm is defined through RAW coefficients), or a length floor(q/2)+1
    coefficient vector in the given convention, which is converted first.
    The two lengths never coincide, so the dispatch is unambiguous.
    """
    f = np.asarray(f, dtype=float)
    if f.shape == (q,):
        coeffs = raw_coefficients(q, f)
    elif f.shape == (n_modes(q) + 1,):
        coeffs = convert_coefficients(q, f, convention, BasisConvention.RAW)
    else:
        raise AsymmetricVector(
            f"expected length {q} (pointwise) or {n_modes(q) + 1} (coefficients), got {f.shape}"
        )
    return float(np.abs(coeffs).sum())
