"""Tree recursion, closed mode maps, probes, linearization."""
import functools
import operator

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import clocktree as ct
from clocktree import spectral
from clocktree.basis import a_norm, basis_norms, raw_coefficients
from clocktree.recursion import _verdict

from conftest import random_feasible_lambdas, random_symmetric_probability, recursion_oracle


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------


def test_cayley_needs_two_children():
    assert ct.Cayley(2).children == 2
    with pytest.raises(ct.UnsupportedTree):
        ct.Cayley(1)


# ---------------------------------------------------------------------------
# recursion step
# ---------------------------------------------------------------------------


def test_uniform_children_stay_uniform():
    spec = ct.spec_from_lambdas(5, 0.4, 0.2)
    out = ct.recursion_step(spec, [ct.SymmetricDist.uniform(5)] * 3)
    assert out.sup_distance_to_uniform() < 1e-14


def test_recursion_step_matches_oracle(rng):
    for q in (4, 5):
        for _ in range(100):
            l1, l2 = random_feasible_lambdas(rng, q)
            spec = ct.spec_from_lambdas(q, l1, l2)
            k = int(rng.integers(1, 4))
            vecs = [random_symmetric_probability(rng, q) for _ in range(k)]
            children = [ct.SymmetricDist.from_probabilities(v) for v in vecs]
            out = ct.recursion_step(spec, children).probabilities()
            assert np.abs(out - recursion_oracle(np.asarray(spec.row), vecs)).max() < 1e-13


def test_recursion_step_q4_fixed_point():
    # closed form at lambda1 = 1/2, lambda2 = 0.4
    l2 = 0.4
    a2 = (3 * l2 - 1) / (2 * (l2 + l2 * l2))
    a1 = np.sqrt(2 * l2 * a2 - 4 * l2 * l2 * a2 * a2)
    spec = ct.spec_from_lambdas(4, 0.5, l2)
    child = ct.SymmetricDist(4, (a1, a2))
    out = ct.recursion_step(spec, [child, child])
    assert abs(out.modes[0] - a1) < 1e-9 and abs(out.modes[1] - a2) < 1e-9
    assert abs(a1 - 0.349927) < 1e-6 and abs(a2 - 0.178571) < 1e-6


def test_single_child_geometric_decay():
    # a chain contracts the distance to uniform by lambda1 per level
    spec = ct.spec_from_lambdas(4, 0.6, 0.3)
    d = ct.SymmetricDist.point_mass(4)
    u = np.full(4, 0.25)
    dist = a_norm(4, d.probabilities() - u)
    for _ in range(30):
        d = ct.recursion_step(spec, [d])
        new = a_norm(4, d.probabilities() - u)
        assert new <= spec.lambda1 * dist + 1e-15
        dist = new
    assert dist < a_norm(4, ct.SymmetricDist.point_mass(4).probabilities() - u) * 0.6**29


def test_recursion_step_errors():
    spec = ct.spec_from_lambdas(4, 0.5, 0.3)
    with pytest.raises(ct.EmptyChildren):
        ct.recursion_step(spec, [])
    with pytest.raises(ct.DimensionMismatch):
        ct.recursion_step(spec, [ct.SymmetricDist.uniform(5)])
    # the mass, 4 * 0.25^520, printed as a plain float, not np.float64(...)
    with pytest.raises(ct.NormalizationUnderflow, match=r"^unnormalized mass [-+.e\d]+ below 1e-300$"):
        ct.recursion_step(spec, [ct.SymmetricDist.uniform(4)] * 520)


# ---------------------------------------------------------------------------
# closed mode maps
# ---------------------------------------------------------------------------


def test_mode_maps_fix_zero():
    assert ct.mode_map_q4(0.5, 0.3, (0.0, 0.0)) == (0.0, 0.0)
    assert ct.mode_map_q5(0.5, 0.3, (0.0, 0.0)) == (0.0, 0.0)


def test_mode_maps_match_recursion(rng):
    for q in (4, 5):
        for _ in range(1000):
            l1, l2 = random_feasible_lambdas(rng, q)
            spec = ct.spec_from_lambdas(q, l1, l2)
            child = ct.SymmetricDist.from_probabilities(random_symmetric_probability(rng, q))
            expected = ct.recursion_step(spec, [child, child]).modes
            got = ct.mode_map(q, l1, l2, child.modes)
            assert abs(got[0] - expected[0]) < 1e-13
            assert abs(got[1] - expected[1]) < 1e-13


def test_mode_map_q4_printed_fixed_point():
    out = ct.mode_map_q4(0.5, 0.4, (0.349927, 0.178571))
    assert abs(out[0] - 0.349927) < 1e-6 and abs(out[1] - 0.178571) < 1e-6


def test_mode_map_q5_quartic_root_is_fixed():
    sols = ct.q5_solutions_at_critical(0.45)
    for a in sols.nontrivial:
        out = ct.mode_map_q5(0.5, 0.45, a)
        assert max(abs(out[0] - a[0]), abs(out[1] - a[1])) < 1e-10


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


def test_rpt_probe_supercritical():
    spec = ct.spec_from_lambdas(4, 0.55, 0.3)
    res = ct.rpt_probe(spec, ct.Cayley(2), u=0.01, levels=400)
    assert res.verdict is ct.Verdict.BOUNDED_AWAY


def test_rpt_probe_subcritical():
    spec = ct.spec_from_lambdas(4, 0.45, 0.3)
    res = ct.rpt_probe(spec, ct.Cayley(2), u=0.01, levels=400)
    assert res.verdict is ct.Verdict.CONVERGES_TO_UNIFORM
    assert res.distances[-1] < 1e-12


def test_pt_probe_retains_order_in_pt_window():
    # full coupling keeps the order even at the robustness threshold
    res = ct.rpt_probe(ct.spec_from_lambdas(4, 0.5, 0.4), ct.Cayley(2), u=1.0, levels=400)
    assert res.verdict is ct.Verdict.BOUNDED_AWAY
    res5 = ct.rpt_probe(ct.spec_from_lambdas(5, 0.5, 0.45), ct.Cayley(2), u=1.0, levels=400)
    assert res5.verdict is ct.Verdict.BOUNDED_AWAY


def test_pt_probe_below_threshold_converges():
    # at lambda1 = 1/2 the linearization is neutral and the decay is a power
    # law, so the tolerance must match the level budget
    res = ct.rpt_probe(ct.spec_from_lambdas(4, 0.5, 0.3), ct.Cayley(2), u=1.0, levels=5000, tol=2e-2)
    assert res.verdict is ct.Verdict.CONVERGES_TO_UNIFORM
    res5 = ct.rpt_probe(ct.spec_from_lambdas(5, 0.5, 0.30), ct.Cayley(2), u=1.0, levels=5000, tol=2e-2)
    assert res5.verdict is ct.Verdict.CONVERGES_TO_UNIFORM


def test_pt_probe_near_critical_is_undecided():
    # with the default tight tolerance a 400-level run cannot decide at the
    # neutral point; the probe must say so instead of inventing a verdict
    res = ct.rpt_probe(ct.spec_from_lambdas(4, 0.5, 0.3), ct.Cayley(2), u=1.0, levels=400, tol=1e-12)
    assert res.verdict is ct.Verdict.UNDECIDED


def test_probe_distance_sequence_shape():
    spec = ct.spec_from_lambdas(4, 0.45, 0.3)
    res = ct.rpt_probe(spec, ct.Cayley(2), u=0.5, levels=50)
    assert len(res.distances) == 51
    assert res.u == 0.5
    assert all(type(d) is float for d in res.distances)


@pytest.mark.parametrize("levels", [0, 5])
def test_rpt_probe_checks_the_leaf_layer_mass(levels):
    # every entry of (M(., 0))^2000 underflows to zero; the leaf layer divided
    # 0 by 0, and then the message printed the mass as np.float64(0.0)
    spec = ct.spec_from_lambdas(4, 0.3, 0.1)
    with pytest.raises(ct.NormalizationUnderflow, match=r"^unnormalized mass 0\.0 below 1e-300$"):
        ct.rpt_probe(spec, ct.Cayley(2000), levels=levels)


def _reference_probe(spec, k, u, levels, tol):
    """The probe loop that iterates every level: distances, verdict and each level's state bytes."""
    M = spec.matrix()
    p = np.power(np.asarray(ct.weakened_row(spec, u).row), k)
    total = functools.reduce(operator.add, p.tolist(), 0.0)
    if total < 1e-300:
        raise ct.NormalizationUnderflow(f"unnormalized mass {total!r} below 1e-300")
    p /= total
    states = [p.tobytes()]
    distances = [float(np.abs(p - 1.0 / spec.q).max())]
    for _ in range(levels):
        p = np.power(M @ p, k)
        total = functools.reduce(operator.add, p.tolist(), 0.0)
        if total < 1e-300:
            raise ct.NormalizationUnderflow(f"unnormalized mass {total!r} below 1e-300")
        p /= total
        states.append(p.tobytes())
        distances.append(float(np.abs(p - 1.0 / spec.q).max()))
    dist = np.array(distances)
    return dist, _verdict(dist, tol), states


@st.composite
def _probe_inputs(draw):
    family = draw(st.sampled_from(("q4", "q5", "potts")))
    if family == "potts":
        spec = ct.make_potts(draw(st.integers(3, 12)), draw(st.floats(0.0, 4.0)))
    else:
        q = 4 if family == "q4" else 5
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        spec = ct.spec_from_lambdas(q, *random_feasible_lambdas(rng, q))
    return (
        spec,
        draw(st.integers(2, 4)),
        draw(st.floats(0.0, 1.0, exclude_min=True)),
        draw(st.integers(0, 2000)),
        draw(st.sampled_from((1e-12, 1e-6, 2e-2))),
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=7))
@example([-0.0, -0.0])  # 0.0 from the start 0.0; a start of -0.0 would give -0.0
def test_numpy_sums_fewer_than_eight_floats_in_order(terms):
    # rpt_probe adds a level's mass term by term on Python floats from 0.0,
    # for q < 8 the float np.add.reduce gives while numpy adds that few terms
    # one by one; a numpy that sums otherwise fails here, so the probe's
    # q < 8 masses are still numpy's
    v = np.array(terms)
    with np.errstate(over="ignore"):
        want = np.add.reduce(v).tobytes()
    assert np.float64(functools.reduce(operator.add, v.tolist(), 0.0)).tobytes() == want


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_probe_inputs())
def test_rpt_probe_matches_every_level_loop(inputs):
    spec, k, u, levels, tol = inputs
    try:
        want, verdict, states = _reference_probe(spec, k, u, levels, tol)
    except ct.NormalizationUnderflow:
        with pytest.raises(ct.NormalizationUnderflow):
            ct.rpt_probe(spec, ct.Cayley(k), u=u, levels=levels, tol=tol)
        return
    res = ct.rpt_probe(spec, ct.Cayley(k), u=u, levels=levels, tol=tol)
    got = np.array(res.distances)
    assert got.shape == want.shape
    assert (got.view(np.uint64) == want.view(np.uint64)).all()
    assert res.verdict is verdict
    # the recorded cycle closes at the first level whose state was seen before
    first, cycle = {}, None
    for level, state in enumerate(states):
        if state in first:
            cycle = (first[state], level - first[state])
            break
        first[state] = level
    assert res.cycle == cycle


def test_rpt_probe_records_cycle():
    spec = ct.spec_from_lambdas(5, 0.4, 0.05)
    res = ct.rpt_probe(spec, ct.Cayley(2), u=1.0, levels=400)
    assert res.cycle == (158, 8)
    start, period = res.cycle
    assert res.distances[start + period:] == res.distances[start:400 - period + 1]
    # a run that ends before the first repeat closes no cycle
    assert ct.rpt_probe(spec, ct.Cayley(2), u=1.0, levels=165).cycle is None
    assert ct.rpt_probe(spec, ct.Cayley(2), u=1.0, levels=166).cycle == (158, 8)
    assert ct.rpt_probe(ct.spec_from_lambdas(4, 0.55, 0.35), levels=400).cycle == (148, 3)
    with pytest.raises(ct.ClockTreeError):
        ct.rpt_probe(spec, levels=-1)


def test_weakened_probe_takes_its_row_without_the_spectrum(monkeypatch):
    # a probe with u < 1 reads only the weakened row r^u / sum r^u, not the
    # spectrum and checks of the TransferSpec that `weakened_row` builds
    spec = ct.spec_from_lambdas(5, 0.49, 0.40)
    want = ct.rpt_probe(spec, u=0.01, levels=50)

    def refuse(q, row):
        raise AssertionError("the probe asked for the weakened row's spectrum")

    monkeypatch.setattr(spectral, "eigenvalues_from_row", refuse)
    assert ct.rpt_probe(spec, u=0.01, levels=50).distances == want.distances


@pytest.mark.parametrize("tol", [0.0, -0.0, -1.0, float("nan"), float("inf"), -float("inf")])
def test_rpt_probe_rejects_a_tol_that_is_not_a_positive_number(tol):
    # with tol <= 0 no distance is below it, so a probe that reaches uniform
    # exactly would be called bounded away
    with pytest.raises(ct.ClockTreeError, match="tol"):
        ct.rpt_probe(ct.spec_from_lambdas(4, 0.1, 0.05), levels=50, tol=tol)


def test_fourier_positivity_and_domination_along_iterates():
    # positive spectrum: all RAW coefficients of every iterate stay positive,
    # and the weighted first mode dominates the higher ones
    for q, l1, l2, u in ((4, 0.55, 0.3, 0.01), (5, 0.49, 0.40, 1.0)):
        spec = ct.spec_from_lambdas(q, l1, l2)
        M = spec.matrix()
        z = basis_norms(q)
        p = np.power(np.asarray(ct.weakened_row(spec, u).row), 2)
        p /= p.sum()
        for _ in range(200):
            coeffs = raw_coefficients(q, p)
            assert (coeffs > 0).all()
            weighted = z * coeffs
            assert all(weighted[1] >= abs(weighted[j]) - 1e-13 for j in range(2, len(weighted)))
            p = np.power(M @ p, 2)
            p /= p.sum()


def test_early_iterates_positive_in_subcritical_regime():
    # below threshold the coefficients decay to the floating-point noise
    # floor; positivity is asserted while they are numerically meaningful
    spec = ct.spec_from_lambdas(4, 0.45, 0.3)
    M = spec.matrix()
    p = np.power(np.asarray(ct.weakened_row(spec, 0.01).row), 2)
    p /= p.sum()
    for _ in range(60):
        coeffs = raw_coefficients(4, p)
        meaningful = np.abs(coeffs) > 1e-15
        assert (coeffs[meaningful] > 0).all()
        p = np.power(M @ p, 2)
        p /= p.sum()


def test_monotone_children_stay_monotone(rng):
    # non-increasing over j = 0..floor(q/2) is preserved by the step
    for q in (4, 5, 6):
        for _ in range(100):
            l1, l2 = random_feasible_lambdas(rng, min(q, 5)) if q in (4, 5) else (0.0, 0.0)
            if q in (4, 5):
                spec = ct.spec_from_lambdas(q, l1, l2)
            else:
                row = np.array([0.4, 0.2, 0.08, 0.04, 0.08, 0.2])
                spec = ct.TransferSpec.from_row(q, row)
            half = q // 2
            vals = np.sort(rng.uniform(0.01, 1.0, half + 1))[::-1]
            p = np.empty(q)
            p[: half + 1] = vals
            for j in range(1, half + 1):
                p[q - j] = p[j]
            p /= p.sum()
            k = int(rng.integers(1, 4))
            child = ct.SymmetricDist.from_probabilities(p)
            out = ct.recursion_step(spec, [child] * k).probabilities()
            assert all(out[j] >= out[j + 1] - 1e-12 for j in range(half))


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------


def test_linearization_zero_at_uniform():
    spec = ct.spec_from_lambdas(5, 0.45, 0.35)
    assert ct.linearization_residual(spec, [ct.SymmetricDist.uniform(5)] * 2) < 1e-14


def test_linearization_halving(rng):
    # halving the amplitudes divides the residual by at least 3.5
    spec = ct.spec_from_lambdas(5, 0.45, 0.35)
    for _ in range(100):
        m = rng.normal(size=2)
        m = m / np.abs(m).sum() * rng.uniform(0.0005, 0.002)
        d1 = ct.SymmetricDist(5, tuple(m))
        d2 = ct.SymmetricDist(5, tuple(m / 2))
        r1 = ct.linearization_residual(spec, [d1, d1])
        r2 = ct.linearization_residual(spec, [d2, d2])
        if r2 > 1e-14:
            assert r1 / r2 >= 3.5


def test_linearization_quadratic_slope():
    spec = ct.spec_from_lambdas(4, 0.5, 0.3)
    eps = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    res = []
    for e in eps:
        d = ct.SymmetricDist(4, (float(e), 0.0))
        res.append(ct.linearization_residual(spec, [d, d]))
    slope = np.polyfit(np.log(eps), np.log(res), 1)[0]
    assert abs(slope - 2.0) < 0.1
