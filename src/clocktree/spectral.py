"""Circulant transfer matrices and symmetric single-site distributions.

A generalized clock model on q states is defined by a stochastic circulant
matrix M whose first row r is reflection symmetric and non-increasing in the
circle distance.  M is diagonal in the Fourier basis, so it is equivalently
described by its real eigenvalue spectrum.  Row and spectrum are both
reflection symmetric (r_k = r_{q-k}, lambda_j = lambda_{q-j}), so the sines
of the discrete Fourier transform cancel and both directions are cosine sums:

    lambda_j = sum_k r_k cos(2*pi*j*k/q),          lambda_0 = 1,
    r_l      = (1/q) sum_k lambda_k cos(2*pi*l*k/q).

The Potts model (row proportional to (e^beta, 1, ..., 1)) and the standard
clock model (row proportional to exp(J*cos(2*pi*j/q))) are the limiting
members of the family.  Symmetric single-site distributions and the
mode-space operations on them are in `basis`, which this module does not
import.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ClockTreeError,
    DimensionMismatch,
    NotAProbability,
    NotStochastic,
    RowAsymmetric,
    SpectrumAsymmetric,
    ZeroRowEntry,
)

ROW_TOL = 1e-12


# Both transforms multiply by the cached cosine table (`_cosine_table`)
# instead of summing complex exponentials in a loop (the tests keep those
# loops as the reference).  Its entries equal the real parts of the loops'
# scalar exponentials bit for bit, signed zeros included, for every q in
# 3..64, so the products reproduce the loops' real parts.


@functools.lru_cache(maxsize=64)
def _cosine_table(q: int) -> np.ndarray:
    """The read-only (q x q) table cos(2*pi*j*k/q), row j = phi_j; `basis` reads it too."""
    k = np.arange(q)
    table = np.cos(2.0 * math.pi * k[:, None] * k / q)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=64)
def _circulant_index(q: int) -> np.ndarray:
    """Index array (j - i) mod q that gathers a row into its circulant."""
    k = np.arange(q)
    idx = (k[None, :] - k[:, None]) % q
    idx.setflags(write=False)
    return idx


def _sequential_rows(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k table[:, k] * x[:, k] for every row of the batch x, shape (n, len(table)).

    A whole grid is one batch; a single spectrum or row is a batch of one.
    The sums start from +0.0 and add the columns left to right, the order of
    a scalar loop: `x @ table.T` and `np.sum` group the terms differently
    (pairwise for q >= 8) and change the last ulp, and the CLI prints 17
    digits.  Accumulating column by column keeps the temporaries at (n, q)
    instead of broadcasting an (n, q, q) product.
    """
    out = np.zeros((x.shape[0], table.shape[0]))
    for k in range(table.shape[1]):
        out += x[:, k, None] * table[:, k]
    return out


def _first_asymmetry(v: np.ndarray) -> int | None:
    """Smallest k >= 1 with |v[k] - v[q-k]| > ROW_TOL, or None (NaN never counts).

    A plain loop: for q <= 64 it beats a chain of small numpy calls.
    """
    for k, d in enumerate((v[1:] - v[:0:-1]).tolist(), start=1):
        if abs(d) > ROW_TOL:
            return k
    return None


def _symmetrize(v: np.ndarray) -> None:
    """v[..., k] = v[..., q-k] = (v[..., k] + v[..., q-k]) / 2 in place, averaging away the last ulps."""
    v[..., 1:] = 0.5 * (v[..., 1:] + v[..., :0:-1])


def _raw_rows(q: int, spectra: np.ndarray) -> np.ndarray:
    """r_l before symmetrization of each spectrum in an (n, q) batch."""
    return _sequential_rows(_cosine_table(q), spectra) / q


def _finish_rows(rows: np.ndarray) -> np.ndarray:
    """Symmetrize a batch of raw rows and clamp entries in [-1e-12, 0) to 0.

    Averaging cannot push an entry below the smallest one, so a row whose raw
    entries are all non-negative passes the clamp unchanged.
    """
    _symmetrize(rows)
    return np.where((rows < 0.0) & (rows >= -ROW_TOL), 0.0, rows)


def row_from_eigenvalues(q: int, eigenvalues: np.ndarray) -> np.ndarray:
    """First row of the circulant, r_l = (1/q) sum_k lambda_k cos(2*pi*l*k/q).

    A batch of one of the grid transform (`_raw_rows`, `_finish_rows`): one
    product with this module's cosine table, summed left to right
    (`_sequential_rows`), so the row equals the real part of a direct
    complex summation bit for bit.  The spectrum is checked for symmetry
    first, pair by pair; the imaginary parts it cancels are never formed.

    Raises SpectrumAsymmetric for asymmetric spectra, NotStochastic for a
    non-finite eigenvalue, a row whose sums overflow, or when a row entry
    falls below -1e-12.  Entries in [-1e-12, 0) are clamped to 0 so
    boundary-of-feasibility spectra from sweep grids remain usable.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.shape != (q,):
        raise SpectrumAsymmetric(f"expected {q} eigenvalues, got shape {lam.shape}")
    if not all(map(math.isfinite, lam.tolist())):
        raise NotStochastic(f"eigenvalues must be finite, got {lam.tolist()!r}")
    j = _first_asymmetry(lam)
    if j is not None:
        raise SpectrumAsymmetric(
            f"lambda_{j} = {float(lam[j])!r} differs from lambda_{q - j} = {float(lam[q - j])!r}"
        )
    raw = _raw_row(q, lam)
    lowest = raw.min()
    if lowest < -ROW_TOL:
        raise NotStochastic(f"row entry {raw.argmin()} = {lowest:.6e} below -1e-12")
    return _finish_rows(raw)[0]


def _raw_row(q: int, lam: np.ndarray) -> np.ndarray:
    """The raw row, shape (1, q), of one finite spectrum; NotStochastic where a sum overflows the largest float."""
    with np.errstate(over="ignore", invalid="ignore"):
        raw = _raw_rows(q, lam[None, :])
    if not np.isfinite(raw).all():
        raise NotStochastic(f"the row of {lam.tolist()!r} overflows the largest float")
    return raw


def eigenvalues_from_row(q: int, row: np.ndarray) -> np.ndarray:
    """Spectrum lambda_j = sum_k r_k cos(2*pi*j*k/q) of a symmetric probability row.

    Like `row_from_eigenvalues`: one sequential product with the cosine
    table, equal bit for bit to the real part of a direct complex
    summation loop.  A non-finite entry raises NotAProbability.
    """
    r = np.asarray(row, dtype=float)
    if r.shape != (q,):
        raise RowAsymmetric(f"expected a length-{q} row, got shape {r.shape}")
    if not all(map(math.isfinite, r.tolist())):
        raise NotAProbability(f"row entries must be finite, got {r.tolist()!r}")
    kk = _first_asymmetry(r)
    if kk is not None:
        raise RowAsymmetric(f"r_{kk} = {float(r[kk])!r} differs from r_{q - kk} = {float(r[q - kk])!r}")
    if r.min() < -ROW_TOL:
        raise NotAProbability(f"row entry {r.argmin()} = {r.min():.6e} below -1e-12")
    if abs(r.sum() - 1.0) > ROW_TOL:
        raise NotAProbability(f"row sums to {float(r.sum())!r}, not 1")
    lam = _sequential_rows(_cosine_table(q), r[None, :])[0]
    lam[0] = 1.0
    # symmetrize away the last few ulps so the spectrum invariant is exact
    _symmetrize(lam)
    return lam


@dataclass(frozen=True)
class TransferSpec:
    """A q-state circulant transfer matrix, stored as spectrum plus derived row."""

    q: int
    eigenvalues: tuple[float, ...]
    row: tuple[float, ...] = field(compare=False)

    def __post_init__(self) -> None:
        if not 3 <= self.q <= 64:
            raise DimensionMismatch(f"need 3 <= q <= 64, got {self.q}")
        if self.eigenvalues[0] != 1.0:
            raise SpectrumAsymmetric(f"lambda_0 must be exactly 1, got {self.eigenvalues[0]!r}")

    @classmethod
    def from_eigenvalues(cls, q: int, eigenvalues) -> "TransferSpec":
        lam = np.asarray(eigenvalues, dtype=float)
        row = row_from_eigenvalues(q, lam)
        if abs(row.sum() - 1.0) > ROW_TOL:
            raise NotStochastic(f"row sums to {float(row.sum())!r}, not 1")
        return cls(q=q, eigenvalues=tuple(lam.tolist()), row=tuple(row.tolist()))

    @classmethod
    def from_row(cls, q: int, row) -> "TransferSpec":
        lam = eigenvalues_from_row(q, row)
        r = np.asarray(row, dtype=float)
        r = np.where((r < 0.0) & (r >= -ROW_TOL), 0.0, r)
        return cls(q=q, eigenvalues=tuple(lam.tolist()), row=tuple(r.tolist()))

    def matrix(self) -> np.ndarray:
        """The full q x q circulant, M[i, j] = r[(j - i) mod q].

        One gather through a cached per-q index array; every entry is a
        copy of a row entry, so no arithmetic can change a bit.
        """
        return np.asarray(self.row)[_circulant_index(self.q)]

    @property
    def lambda1(self) -> float:
        return self.eigenvalues[1]

    @property
    def lambda2(self) -> float:
        return self.eigenvalues[2]


def _spectrum(q: int, lambda1: float, lambda2: float) -> tuple[float, ...]:
    """The spectrum (1, lambda1, lambda2, ..., lambda1) of q in {4, 5}; `feasible_lambdas` passes arrays."""
    if q == 4:
        return (1.0, lambda1, lambda2, lambda1)
    if q == 5:
        return (1.0, lambda1, lambda2, lambda2, lambda1)
    raise DimensionMismatch(f"two-eigenvalue constructor only supports q in {{4, 5}}, got q={q}")


def spec_from_lambdas(q: int, lambda1: float, lambda2: float) -> TransferSpec:
    """Transfer matrix for q in {4, 5} from its two free eigenvalues."""
    return TransferSpec.from_eigenvalues(q, _spectrum(q, lambda1, lambda2))


def check_row_finite(q: int, lambda1: float, lambda2: float) -> None:
    """Raise NotStochastic where the row of finite (lambda1, lambda2) overflows, as `spec_from_lambdas` does.

    Nothing else is checked: a row with a negative entry passes.
    """
    _raw_row(q, np.array(_spectrum(q, lambda1, lambda2)))


def potts_lambda(q: int, theta: float) -> float:
    """Non-trivial Potts eigenvalue (theta - 1)/(theta + q - 1), theta = e^beta."""
    return (theta - 1.0) / (theta + q - 1.0)


def potts_theta(q: int, lam: float) -> float:
    """Inverse of potts_lambda: e^beta = (1 + lam*(q-1))/(1 - lam).

    Raises NotAProbability unless e^beta is a positive finite float, that
    is unless lam lies in (-1/(q-1), 1).
    """
    theta = (1.0 + lam * (q - 1.0)) / (1.0 - lam) if lam < 1.0 else math.inf
    if not 0.0 < theta < math.inf:
        raise NotAProbability(f"no Potts theta = e^beta > 0 has lambda = {lam!r}, outside (-1/{q - 1}, 1)")
    return theta


def make_potts(q: int, beta: float) -> TransferSpec:
    """Potts transfer matrix: row proportional to (e^beta, 1, ..., 1).

    All non-trivial eigenvalues equal (e^beta - 1)/(e^beta + q - 1).
    """
    if not math.isfinite(beta):
        raise NotAProbability(f"beta must be finite, got {beta!r}")
    try:
        theta = math.exp(beta)
    except OverflowError:
        raise NotAProbability(f"e^beta overflows at beta = {beta!r}") from None
    return TransferSpec.from_eigenvalues(q, [1.0] + [potts_lambda(q, theta)] * (q - 1))


def make_potts_from_theta(q: int, theta: float) -> TransferSpec:
    """Potts transfer matrix parametrized by theta = e^beta > 0, built from theta itself."""
    if not (theta > 0.0 and math.isfinite(theta)):
        raise NotAProbability(f"theta must be positive and finite, got {theta!r}")
    return TransferSpec.from_eigenvalues(q, [1.0] + [potts_lambda(q, theta)] * (q - 1))


def make_standard_clock(q: int, coupling: float) -> TransferSpec:
    """Standard clock model: row proportional to exp(J*cos(2*pi*j/q)).

    The cosine is taken of the circle distance min(j, q - j), so that r_j
    and r_{q-j} are equal bit for bit, and the largest exponent is
    subtracted before `exp`, so that no finite J overflows: the row tends to
    the point mass at 0 as J grows and to the states farthest from 0 as -J
    grows.
    """
    if not math.isfinite(coupling):
        raise NotAProbability(f"coupling must be finite, got {coupling!r}")
    j = np.arange(q)
    exponent = coupling * np.cos(2.0 * math.pi * np.minimum(j, q - j) / q)
    with np.errstate(over="ignore"):  # a difference past -1.8e308 is -inf, whose exp is 0
        row = np.exp(exponent - exponent.max())
    row /= row.sum()
    return TransferSpec.from_row(q, row)


def validate_non_increasing(spec: TransferSpec) -> str | None:
    """The first violated condition of r_0 >= r_1 >= ... >= r_{floor(q/2)} >= 0 (with 1e-12 slack), or None.

    For q in {4, 5} the equivalent eigenvalue ordering lambda1 >= lambda2 is
    checked as well.  The matrix is feasible exactly where this returns
    None.  Reports rather than raises: sweep grids legitimately cross the
    feasibility boundary.
    """
    r = spec.row
    half = spec.q // 2
    for j in range(half):
        if r[j] + ROW_TOL < r[j + 1]:
            return f"r{j} < r{j + 1} ({r[j]!r} < {r[j + 1]!r})"
    if r[half] < -ROW_TOL:
        return f"r{half} = {r[half]!r} negative"
    if spec.q in (4, 5) and spec.lambda1 + ROW_TOL < spec.lambda2:
        return f"lambda1 < lambda2 ({spec.lambda1!r} < {spec.lambda2!r})"
    return None


def feasible_lambdas(q: int, lambda1, lambda2) -> np.ndarray:
    """Feasibility of every point (lambda1[i], lambda2[i]), q in {4, 5}, as a bool array.

    The batched form of `validate_non_increasing(spec_from_lambdas(q, l1, l2)) is None`
    in which a spectrum without a valid row is infeasible.  It runs the same
    cosine transform and every check of that path, with the same operations
    in the same order: no raw row entry below -1e-12, symmetrize and clamp,
    row sum within 1e-12 of 1, then
    r_0 >= ... >= r_{q//2} >= 0 and lambda1 >= lambda2, each with 1e-12 slack.
    A non-finite lambda is infeasible, as `row_from_eigenvalues` refuses it.
    lambda1 and lambda2 must broadcast to one dimension, or ClockTreeError
    names their shapes.
    """
    l1 = np.asarray(lambda1, dtype=float)
    l2 = np.asarray(lambda2, dtype=float)
    try:
        ndim = np.broadcast(l1, l2).ndim
    except ValueError:  # shapes that do not broadcast at all
        ndim = None
    if ndim != 1:
        raise ClockTreeError(
            f"lambda1 and lambda2 must broadcast to one dimension, got shapes {l1.shape} and {l2.shape}"
        )
    spectra = np.stack(np.broadcast_arrays(*_spectrum(q, l1, l2)), axis=1)
    # a huge lambda makes infinite or NaN entries, which fail the checks
    with np.errstate(all="ignore"):
        raw = _raw_rows(q, spectra)
        ok = np.isfinite(l1) & np.isfinite(l2) & ~(raw.min(axis=1) < -ROW_TOL)
        rows = _finish_rows(raw)
        ok &= ~(np.abs(rows.sum(axis=1) - 1.0) > ROW_TOL)
    half = q // 2
    for j in range(half):
        ok &= ~(rows[:, j] + ROW_TOL < rows[:, j + 1])
    ok &= ~(rows[:, half] < -ROW_TOL)
    ok &= ~(l1 + ROW_TOL < l2)
    return ok


# (A_j, B_j) with q r_j = 1 + A_j lambda1 + B_j lambda2, j = 0..q//2, the row
# of the spectrum (1, lambda1, lambda2, ..., lambda1): A_j = 2 cos(2 pi j/q),
# and B_j = cos(pi j) for q = 4, 2 cos(4 pi j/5) for q = 5, in closed form
_COS72, _COS144 = (math.sqrt(5.0) - 1.0) / 4.0, -(math.sqrt(5.0) + 1.0) / 4.0
_ROW_FORMS = {
    4: ((2.0, 0.0, -2.0), (1.0, -1.0, 1.0)),
    5: ((2.0, 2.0 * _COS72, 2.0 * _COS144), (2.0, 2.0 * _COS144, 2.0 * _COS72)),
}


def feasibility_breakpoints(q: int, lambda1) -> np.ndarray:
    """(n, 2 (q//2) + 2) lambda2 values at which `feasible_lambdas(q, lambda1[i], .)` can change.

    At fixed lambda1 every quantity the check compares is affine in lambda2:
    the raw row entries r_j, the differences r_j - r_{j+1} and
    lambda1 - lambda2 (for q = 4 the roots are -1 - 2 lambda1, 1,
    2 lambda1 - 1, -lambda1 and lambda1).  Each root is taken from the
    closed-form coefficients, never from two evaluations of the row, which
    would cancel at large |lambda1|.  The 1e-12 slacks move a root by less
    than 1e-11.  The row sum needs no breakpoint: it fails only where
    |lambda| is about 2e3 or more, outside the bounded feasible polygon,
    where one of the compared quantities already fails.
    A root that overflows is +-inf.
    """
    if q not in _ROW_FORMS:
        raise DimensionMismatch(f"two-eigenvalue constructor only supports q in {{4, 5}}, got q={q}")
    a, b = (np.array(form) for form in _ROW_FORMS[q])
    l1 = np.asarray(lambda1, dtype=float)[:, None]
    with np.errstate(all="ignore"):
        entries = -(1.0 + a * l1) / b
        steps = -((a[:-1] - a[1:]) / (b[:-1] - b[1:])) * l1
    return np.concatenate([entries, steps, l1], axis=1)


def weakened_row(spec: TransferSpec, u: float) -> TransferSpec:
    """Transfer matrix of the weakened potential u*Phi: new row prop. to r^u.

    At u = 1 this is `spec` itself; as u -> 0 the row tends to uniform.
    """
    row = _weakened_entries(spec.row, u)
    return spec if u == 1.0 else TransferSpec.from_row(spec.q, row)


def _weakened_entries(row: tuple[float, ...], u: float) -> np.ndarray:
    """The row r^u / sum r^u of `weakened_row` as a new array, without its spectrum; the row itself at u = 1."""
    if not (0.0 < u <= 1.0):
        raise ClockTreeError(f"weakening u must lie in (0, 1], got {u!r}")
    r = np.array(row)
    if u == 1.0:
        return r
    if (r <= 0.0).any():
        raise ZeroRowEntry("row has a zero entry; the potential is infinite there")
    r = np.power(r, u)
    r /= r.sum()
    return r
