"""Mode space: cosine bases on the discrete circle, the A-norm, and symmetric distributions.

The mode-space API that the probes and solvers are checked against: the
bases, the A-norm, `SymmetricDist`, `apply_transfer`, and the general
recursion step `recursion_step` with its `linearization_residual`.  No
command runs it, and no other module of the package imports it.

Reflection-symmetric vectors on {0,...,q-1} (f(k) = f(q-k)) form a space of
dimension floor(q/2)+1 spanned by the cosine vectors

    phi_j(k) = cos(2*pi*j*k/q),        j = 0..floor(q/2).

The basis satisfies the pointwise product rule
phi_i*phi_j = (phi_{i+j} + phi_{i-j})/2 and the convolution rule
phi_i (*) phi_j = z_j delta_ij phi_j, where z_j = sum_k phi_j(k)^2, which
make both the tree recursion and the transfer matrix diagonal in mode space.

A symmetric vector has two representations here:

  RAW         coefficients a_j with f = sum_j a_j * phi_j, recovered as
              a_j = <f, phi_j> / z_j (`raw_coefficients`).  The A-norm of f
              is their l1 norm, ||f||_A = sum_j |a_j(f)|, j = 0 included.
  NORMALIZED  modes alpha_j w.r.t. the L2-unit vectors phi_j / sqrt(z_j),
              alpha_j = a_j * sqrt(z_j).  A single-site marginal in the
              reflection-symmetric probability simplex is a `SymmetricDist`,
              stored by alpha_1..alpha_{floor(q/2)} (the mass mode
              alpha_0 = 1/sqrt(q) is implicit).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AsymmetricVector, DimensionMismatch, EmptyChildren, NormalizationUnderflow, NotAProbability
from .spectral import TransferSpec, _cosine_table

SYMMETRY_TOL = 1e-12


def n_modes(q: int) -> int:
    """Number of non-constant cosine modes, floor(q/2)."""
    return q // 2


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


def a_norm(q: int, f: np.ndarray) -> float:
    """||f||_A of the length-q symmetric vector f: the sum of its absolute RAW coefficients, j = 0 included."""
    return float(np.abs(raw_coefficients(q, f)).sum())


# ---------------------------------------------------------------------------
# symmetric single-site distributions
# ---------------------------------------------------------------------------

DIST_TOL = 1e-12


@dataclass(frozen=True)
class SymmetricDist:
    """Reflection-symmetric probability vector stored by NORMALIZED modes.

    p(j) = 1/q + sum_k alpha_k * phi_k(j) / sqrt(z_k), k = 1..floor(q/2).
    """

    q: int
    modes: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.modes) != n_modes(self.q):
            raise DimensionMismatch(
                f"q={self.q} needs {n_modes(self.q)} modes, got {len(self.modes)}"
            )
        p = self.probabilities()
        if p.min() < -DIST_TOL:
            raise NotAProbability(
                f"modes reconstruct to a negative probability {p.min():.6e}"
            )

    def probabilities(self) -> np.ndarray:
        p = np.full(self.q, 1.0 / self.q)
        for k, a in enumerate(self.modes, start=1):
            p += a * unit_basis_vector(self.q, k)
        return p

    def raw_coefficients(self) -> np.ndarray:
        """RAW coefficients (a_0, ..., a_{floor(q/2)}) of the probability vector."""
        full = np.concatenate(([1.0 / math.sqrt(self.q)], self.modes))
        return full / np.sqrt(basis_norms(self.q))

    @classmethod
    def from_probabilities(cls, p) -> "SymmetricDist":
        p = np.asarray(p, dtype=float)
        q = len(p)
        if abs(p.sum() - 1.0) > 1e-9:
            raise NotAProbability(f"probabilities sum to {float(p.sum())!r}")
        modes = raw_coefficients(q, p) * np.sqrt(basis_norms(q))
        return cls(q=q, modes=tuple(modes[1:]))

    @classmethod
    def uniform(cls, q: int) -> "SymmetricDist":
        return cls(q=q, modes=(0.0,) * n_modes(q))

    @classmethod
    def point_mass(cls, q: int) -> "SymmetricDist":
        """The Dirac distribution at state 0 (the plus boundary condition)."""
        p = np.zeros(q)
        p[0] = 1.0
        return cls.from_probabilities(p)

    def sup_distance_to_uniform(self) -> float:
        return float(np.abs(self.probabilities() - 1.0 / self.q).max())


def apply_transfer(spec: TransferSpec, dist: SymmetricDist) -> SymmetricDist:
    """M acting on a symmetric distribution: each mode scales by its eigenvalue."""
    if spec.q != dist.q:
        raise DimensionMismatch(f"transfer has q={spec.q}, distribution q={dist.q}")
    new = tuple(spec.eigenvalues[k] * a for k, a in enumerate(dist.modes, start=1))
    return SymmetricDist(q=dist.q, modes=new)


# ---------------------------------------------------------------------------
# the general recursion step, in the probability representation
# ---------------------------------------------------------------------------


def recursion_step(spec: TransferSpec, children: Sequence[SymmetricDist]) -> SymmetricDist:
    """p(i) proportional to prod_l (M p_l)(i), normalized.

    Computed in the probability-vector representation and returned as modes.
    """
    if not children:
        raise EmptyChildren("recursion step needs at least one child distribution")
    M = spec.matrix()
    prod = np.ones(spec.q)
    for child in children:
        if child.q != spec.q:
            raise DimensionMismatch(f"child has q={child.q}, transfer q={spec.q}")
        prod = prod * (M @ child.probabilities())
    total = prod.sum()
    if total < 1e-300:
        raise NormalizationUnderflow(f"unnormalized mass {float(total)!r} below 1e-300")
    return SymmetricDist.from_probabilities(prod / total)


def linearization_residual(spec: TransferSpec, children: Sequence[SymmetricDist]) -> float:
    """A-norm gap between one recursion step and its linearization.

    With h_i = M p_i the step produces normalize(prod_i h_i); its linearization
    around uniform is 1 + sum_i (h_i - 1).  The returned residual
    ||normalize(prod h_i) - 1 - sum (h_i - 1)||_A decays super-linearly in
    max_i ||h_i - 1||_A (empirically quadratically).
    """
    if not children:
        raise EmptyChildren("need at least one child distribution")
    M = spec.matrix()
    q = spec.q
    uniform = np.full(q, 1.0 / q)
    hs = [M @ c.probabilities() for c in children]
    prod = np.ones(q)
    for h in hs:
        prod = prod * h
    prod /= prod.sum()
    vec = prod - uniform - sum(h - uniform for h in hs)
    return a_norm(q, vec)
