"""Tree families, the Gibbs-marginal recursion, and PT/RPT probes.

The marginal of the finite-volume Gibbs measure at a vertex v with children
w_1..w_k satisfies

    p_v(i) = (1/Z) * prod_l sum_j M(i, j) p_{w_l}(j),

so on a Cayley tree with a constant boundary condition all same-level
marginals coincide and the whole recursion collapses to iterating a single
symmetric vector (homogeneous reduction).  For q = 4 and q = 5 with two
children the recursion closes on the two Fourier modes (alpha_1, alpha_2);
the closed maps are `mode_map_q4` and `mode_map_q5`.

A probe starts from the all-0 boundary condition coupled through the
(possibly weakened) potential u*Phi and tracks the sup distance of the root
marginal to the uniform distribution level by level.  Whether that distance
stays bounded away from zero for every u in (0, 1] is governed by the sharp
threshold lambda_1 * br(T) = 1, where br(T) is the branching number of the
tree.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .basis import a_norm
from .errors import (
    ClockTreeError,
    DimensionMismatch,
    EmptyChildren,
    NormalizationUnderflow,
    UnsupportedTree,
)
from .spectral import SymmetricDist, TransferSpec, weakened_row

V5 = 1.0 / math.sqrt(10.0)  # basis product constant for q=5: phi_k*phi_l = v*(phi_{k+l}+phi_{k-l})


# ---------------------------------------------------------------------------
# tree families and branching numbers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cayley:
    """Rooted tree in which every vertex has exactly `children` children."""

    children: int

    def __post_init__(self) -> None:
        if self.children < 2:
            raise UnsupportedTree(f"Cayley family needs >= 2 children, got {self.children}")


@dataclass(frozen=True)
class SphericallySymmetric:
    """Tree whose vertices at generation n all have children_per_generation[n] children.

    With periodic=True the sequence repeats; otherwise it is used as given and
    must cover at least 20 generations for the growth estimate.
    """

    children_per_generation: tuple[int, ...]
    periodic: bool = True

    def __post_init__(self) -> None:
        if not self.children_per_generation:
            raise UnsupportedTree("need at least one generation size")
        if any(c < 1 for c in self.children_per_generation):
            raise UnsupportedTree("generation sizes must be positive")
        if not self.periodic and len(self.children_per_generation) < 20:
            raise UnsupportedTree(
                "non-periodic growth estimate needs at least 20 generations, "
                f"got {len(self.children_per_generation)}"
            )


TreeFamily = Union[Cayley, SphericallySymmetric]

MIN_GENERATIONS = 20


@dataclass(frozen=True)
class BranchingEstimate:
    value: float
    exact: bool
    generations_used: int


def branching_estimate(tree: TreeFamily) -> BranchingEstimate:
    """Branching number, exact for Cayley(k) (= k), growth-rate estimate otherwise.

    For a spherically symmetric tree the estimate is |level N|^(1/N); for a
    periodic rule N is a multiple of the period, which makes the estimate
    exact in the limit sense (the liminf equals the periodic geometric mean).
    """
    if isinstance(tree, Cayley):
        return BranchingEstimate(float(tree.children), True, 0)
    sizes = tree.children_per_generation
    if tree.periodic:
        period = len(sizes)
        n = period * max(1, -(-MIN_GENERATIONS // period))  # >= 20, multiple of the period
        log_level = sum(math.log(sizes[g % period]) for g in range(n))
    else:
        n = len(sizes)
        log_level = sum(math.log(c) for c in sizes)
    return BranchingEstimate(math.exp(log_level / n), False, n)


def branching_number(tree: TreeFamily) -> float:
    """br(T) of R. Lyons (Ann. Probab. 18 (1990) 931-958): 1/br(T) is the critical
    probability of percolation on T; the robust threshold is lambda1 * br(T) = 1."""
    return branching_estimate(tree).value


# ---------------------------------------------------------------------------
# one recursion step
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
        raise NormalizationUnderflow(f"unnormalized mass {total!r} below 1e-300")
    return SymmetricDist.from_probabilities(prod / total)


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
    a1, a2 = alpha
    den = 0.2 + a1 * a1 * lambda1 * lambda1 + a2 * a2 * lambda2 * lambda2
    cross = 2.0 * lambda1 * lambda2 * V5 * a1 * a2
    n1 = 0.4 * lambda1 * a1 + cross + V5 * lambda2 * lambda2 * a2 * a2
    n2 = 0.4 * lambda2 * a2 + cross + V5 * lambda1 * lambda1 * a1 * a1
    return (n1 / den, n2 / den)


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
    """

    distances: tuple[float, ...]
    verdict: Verdict
    levels_used: int
    u: float
    tol: float
    boundary_init: str
    cycle: Optional[tuple[int, int]] = None

    @property
    def final_distance(self) -> float:
        return self.distances[-1]


def _verdict(distances: np.ndarray, tol: float) -> Verdict:
    if distances[-1] < tol:
        return Verdict.CONVERGES_TO_UNIFORM
    tail = distances[-max(1, len(distances) // 4):]
    if tail.min() > 10.0 * tol and distances[-1] >= 0.9 * tail[0]:
        return Verdict.BOUNDED_AWAY
    return Verdict.UNDECIDED


def rpt_probe(
    spec: TransferSpec,
    tree: TreeFamily = Cayley(2),
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

    The step is a fixed map on the float64 vector p, so once p equals, bit
    for bit, its value at an earlier level s, the states and distances of
    the levels s + 1 .. L repeat for ever (L being the level of the repeat).
    The iteration stops there and the remaining distances are that cycle's,
    exactly the numbers further steps would produce; the result records the
    cycle.  The mass check cannot fire after the repeat, because the
    unnormalized masses repeat with the states.

    Only Cayley families are supported: on irregular trees the number of
    weakened edges per leaf varies and there is no canonical single-vector
    reduction.
    """
    if not isinstance(tree, Cayley):
        raise UnsupportedTree("probes require a Cayley family")
    if levels < 0:
        raise ClockTreeError(f"levels must be >= 0, got {levels}")
    k = tree.children
    M = spec.matrix()
    mu = weakened_row(spec, u)
    states = np.empty((levels + 1, spec.q))
    # column 0 of M^u equals its first row by symmetry
    p = np.power(np.asarray(mu.row), k, out=states[0])
    p /= p.sum()
    first_level = {p.tobytes(): 0}
    cycle = None
    computed = levels + 1
    for level in range(1, levels + 1):
        p = np.power(M @ p, k, out=states[level])
        total = p.sum()
        if total < 1e-300:
            raise NormalizationUnderflow(f"unnormalized mass {total!r} below 1e-300")
        p /= total
        start = first_level.setdefault(p.tobytes(), level)
        if start != level:
            cycle = (start, level - start)
            computed = level + 1
            break
    dist = np.abs(states[:computed] - 1.0 / spec.q).max(axis=1)
    if cycle is not None:
        dist = np.concatenate([dist, np.resize(dist[cycle[0] + 1:], levels + 1 - computed)])
    return ProbeResult(
        distances=tuple(dist),
        verdict=_verdict(dist, tol),
        levels_used=levels,
        u=u,
        tol=tol,
        boundary_init=f"(M^u(.,0))^{k}",
        cycle=cycle,
    )


def pt_probe(
    spec: TransferSpec,
    tree: TreeFamily = Cayley(2),
    levels: int = 400,
    tol: float = 1e-12,
) -> ProbeResult:
    """Full-coupling probe (u = 1): plus boundary condition, no weakening."""
    return rpt_probe(spec, tree=tree, u=1.0, levels=levels, tol=tol)


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
