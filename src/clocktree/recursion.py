"""Cayley trees, the Gibbs-marginal recursion, and PT/RPT probes.

The marginal of the finite-volume Gibbs measure at a vertex v with children
w_1..w_k satisfies

    p_v(i) = (1/Z) * prod_l sum_j M(i, j) p_{w_l}(j),

so on a Cayley tree with a constant boundary condition all same-level
marginals coincide and the whole recursion collapses to iterating a single
symmetric vector (homogeneous reduction).  For q = 4 and q = 5 with two
children the recursion closes on the two Fourier modes (alpha_1, alpha_2);
the closed maps are `mode_map_q4` and `mode_map_q5`.  The general step on
symmetric distributions, which they are checked against, is
`basis.recursion_step`.

A probe starts from the all-0 boundary condition coupled through the
(possibly weakened) potential u*Phi and tracks the sup distance of the root
marginal to the uniform distribution level by level.  Whether that distance
stays bounded away from zero for every u in (0, 1] is governed by the sharp
threshold lambda_1 * k = 1 on Cayley(k), whose branching number is k.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ClockTreeError, DimensionMismatch, NormalizationUnderflow, UnsupportedTree
from .spectral import TransferSpec, _weakened_entries

V5 = 1.0 / math.sqrt(10.0)  # basis product constant for q=5: phi_k*phi_l = v*(phi_{k+l}+phi_{k-l})


# ---------------------------------------------------------------------------
# the Cayley tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cayley:
    """Rooted tree in which every vertex has exactly `children` children."""

    children: int

    def __post_init__(self) -> None:
        if self.children < 2:
            raise UnsupportedTree(f"Cayley family needs >= 2 children, got {self.children}")


# ---------------------------------------------------------------------------
# the closed mode maps
# ---------------------------------------------------------------------------


def mode_map_q4(lambda1: float, lambda2: float, alpha: tuple[float, float]) -> tuple[float, float]:
    """Closed two-children recursion on the modes for q = 4.

    alpha1' = (lambda1*alpha1/2 + alpha1*alpha2*lambda1*lambda2) / D
    alpha2' = (lambda2*alpha2/2 + alpha1^2*lambda1^2/2) / D
    with D = 1/4 + alpha1^2*lambda1^2 + alpha2^2*lambda2^2 (always positive).
    """
    a1, a2 = alpha
    den = 0.25 + a1 * a1 * lambda1 * lambda1 + a2 * a2 * lambda2 * lambda2
    n1 = 0.5 * lambda1 * a1 + a1 * a2 * lambda1 * lambda2
    n2 = 0.5 * lambda2 * a2 + 0.5 * a1 * a1 * lambda1 * lambda1
    return (n1 / den, n2 / den)


def mode_map_q5(lambda1: float, lambda2: float, alpha: tuple[float, float]) -> tuple[float, float]:
    """Closed two-children recursion on the modes for q = 5 (v = 1/sqrt(10)).

    alpha1' = (2*lambda1*alpha1/5 + 2*lambda1*lambda2*v*alpha1*alpha2 + v*lambda2^2*alpha2^2) / D
    alpha2' = (2*lambda2*alpha2/5 + 2*lambda1*lambda2*v*alpha1*alpha2 + v*lambda1^2*alpha1^2) / D
    with D = 1/5 + alpha1^2*lambda1^2 + alpha2^2*lambda2^2.
    """
    den, n1, n2 = mode_terms_q5(lambda1, lambda2, alpha)
    return (n1 / den, n2 / den)


def mode_terms_q5(lambda1: float, lambda2: float, alpha: tuple[float, float]) -> tuple[float, float, float]:
    """(D, N1, N2) of `mode_map_q5`, whose modes are N1/D and N2/D; `potts.q5_jacobian` differentiates them."""
    a1, a2 = alpha
    den = 0.2 + a1 * a1 * lambda1 * lambda1 + a2 * a2 * lambda2 * lambda2
    cross = 2.0 * lambda1 * lambda2 * V5 * a1 * a2
    n1 = 0.4 * lambda1 * a1 + cross + V5 * lambda2 * lambda2 * a2 * a2
    n2 = 0.4 * lambda2 * a2 + cross + V5 * lambda1 * lambda1 * a1 * a1
    return den, n1, n2


def mode_map(q: int, lambda1: float, lambda2: float, alpha: tuple[float, float]):
    if q == 4:
        return mode_map_q4(lambda1, lambda2, alpha)
    if q == 5:
        return mode_map_q5(lambda1, lambda2, alpha)
    raise DimensionMismatch(f"closed mode maps exist for q in {{4, 5}}, got q={q}")


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


class Verdict(enum.Enum):
    CONVERGES_TO_UNIFORM = "CONVERGES_TO_UNIFORM"
    BOUNDED_AWAY = "BOUNDED_AWAY"
    UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class ProbeResult:
    """Level-by-level sup distances of the root marginal to uniform.

    BOUNDED_AWAY needs the whole final quarter of the distances above 10*tol
    *and* a stable plateau (the final quarter must not decay by more than 10%);
    slow power-law transients near criticality otherwise masquerade as order.
    CONVERGES_TO_UNIFORM needs the final distance below tol.  Anything else is
    UNDECIDED, which callers must not coerce.

    `cycle` is (start_level, period) when the state at level
    start_level + period repeats the state at start_level bit for bit, so
    that distances[level] == distances[level - period] for every level from
    start_level + period on; None when no state repeats within the run.
    `distances` holds Python floats, not numpy scalars, one per level from
    the leaf layer's at entry 0: a probe of L levels has L + 1.
    """

    distances: tuple[float, ...]
    verdict: Verdict
    u: float
    tol: float
    cycle: Optional[tuple[int, int]] = None


def _verdict(distances: Sequence[float], tol: float) -> Verdict:
    if distances[-1] < tol:
        return Verdict.CONVERGES_TO_UNIFORM
    tail = distances[-max(1, len(distances) // 4):]
    if min(tail) > 10.0 * tol and distances[-1] >= 0.9 * tail[0]:
        return Verdict.BOUNDED_AWAY
    return Verdict.UNDECIDED


def rpt_probe(
    spec: TransferSpec,
    tree: Cayley = Cayley(2),
    u: float = 1.0,
    levels: int = 400,
    tol: float = 1e-12,
) -> ProbeResult:
    """Iterate the homogeneous recursion from the all-0 boundary through u*Phi.

    The cutset sits one level below the leaves of the iterated volume, so each
    leaf sees k weakened edges to boundary spins fixed at 0: the leaf marginal
    is proportional to (M^u(., 0))^k.  Above it the full-strength step
    p -> normalize((M p)^k) applies `levels` times; the sup distance to
    uniform is recorded after every step (entry 0 is the leaf layer).

    Each level, the leaf layer included, is one gemv and two ufuncs (the
    k-th power and the division by the mass), each writing into a
    preallocated array.  The mass, checked against 1e-300, is added up
    term by term on Python floats, left to right from 0.0: for q < 8 the
    same float as np.add.reduce's, which sums 8 or more terms pairwise.

    The step is a fixed map on the float64 vector p, so once p equals, bit
    for bit, its value at an earlier level s, the states and distances of
    the levels s + 1 .. L repeat for ever (L being the level of the repeat).
    The iteration stops there and the remaining distances are that cycle's,
    exactly the numbers further steps would produce; the result records the
    cycle.  The mass check cannot fire after the repeat, because the
    unnormalized masses repeat with the states.

    The tree is a Cayley family: on irregular trees the number of weakened
    edges per leaf varies and there is no single-vector reduction.
    """
    if levels < 0:
        raise ClockTreeError(f"levels must be >= 0, got {levels}")
    if not 0.0 < tol < math.inf:
        raise ClockTreeError(f"tol must be a positive finite number, got {tol!r}")
    k = tree.children
    M = spec.matrix()
    # what a level raises to the k-th power: column 0 of M^u (its first row,
    # by symmetry) at the leaves, M p above them
    v = _weakened_entries(spec.row, u)
    # k and the mass as 0-d float64 arrays: the loops an int k and a float
    # mass select, without a scalar converted at every level
    exponent, total = np.array(float(k)), np.empty(())
    p = np.empty(spec.q)
    # each state's bytes, in level order, and the level of each
    first_level = {}
    cycle = None
    for level in range(levels + 1):
        np.power(v, exponent, out=p)
        mass = 0.0
        for term in p.tolist():
            mass += term
        if mass < 1e-300:
            raise NormalizationUnderflow(f"unnormalized mass {mass!r} below 1e-300")
        total[()] = mass
        np.divide(p, total, out=p)
        start = first_level.setdefault(p.tobytes(), level)
        if start != level:
            cycle = (start, level - start)
            break
        M.dot(p, out=v)
    states = np.frombuffer(b"".join(first_level), dtype=np.float64).reshape(-1, spec.q)
    dist = np.abs(states - 1.0 / spec.q).max(axis=1).tolist()
    if cycle is not None:
        # the state at `level` is the one at `start`
        dist.append(dist[start])
        dist += (dist[start + 1:] * ((levels - level) // cycle[1] + 1))[: levels - level]
    return ProbeResult(
        distances=tuple(dist),
        verdict=_verdict(dist, tol),
        u=u,
        tol=tol,
        cycle=cycle,
    )
