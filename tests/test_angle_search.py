"""The double-homodyne local-oscillator angle search.

The quadrature-sum error ``f(θa, θb) = Var/slope²`` is minimized by a
safeguarded Newton's method with analytic derivatives.  These tests check
the derivatives against central differences of ``f`` itself, the two
symmetries that let the grid cover θa ∈ [0, π) and φ ∈ [0, π) only, that the
tabulated grid finds the best cell of the full grid, and that Newton lands no
higher than a Nelder-Mead simplex search (scipy, the reference) from the same
start, also from starts where an unsafeguarded Newton step is refused.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from mzi_lab import LossModel, ResourceKind, ResourceSpec
from mzi_lab import interferometer, optimize
from mzi_lab.interferometer import phase_coefficients
from mzi_lab.measurements import DEGENERATE_SLOPE
from mzi_lab.optimize import (
    _ANGLE_STEP_CAP,
    _cov_and_dmean,
    _double_hd_grid,
    _newton_angles,
    _refine_sum_quad_angles,
    _sum_quad_objective,
)
from conftest import random_physical_state


def output_moments(nbar, mu, eta_a, eta_b, phi):
    """Output covariance and mean phase slope of a CSV input, as the optimizer sees them."""
    resource = ResourceSpec.from_energy(ResourceKind.CSV, nbar, mu)
    return _cov_and_dmean(phase_coefficients(resource, LossModel(eta_a, eta_b)), phi)


def slope_ratio(dmean, ta, tb):
    """|slope| at (ta, tb) relative to its largest possible value."""
    p, q = dmean[:2], dmean[2:]
    slope = math.cos(ta) * p[0] + math.sin(ta) * p[1] + math.cos(tb) * q[0] + math.sin(tb) * q[1]
    return abs(slope) / (math.hypot(*p) + math.hypot(*q))


def richardson(fn, x, h, order):
    """Central difference of ``fn`` at ``x`` (first or second derivative), Richardson-refined."""

    def central(step):
        if order == 1:
            return (fn(x + step) - fn(x - step)) / (2.0 * step)
        return (fn(x + step) - 2.0 * fn(x) + fn(x - step)) / step**2

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def grid_best_cell(local):
    """Best cell of the half-period angle grid (θa on [0, π), θb on [0, 2π))."""
    spacing = 2.0 * math.pi / 24
    cells = [(j * spacing, k * spacing) for j in range(12) for k in range(24)]
    return min(cells, key=lambda cell: local(*cell)[0])


configurations = st.tuples(
    st.floats(0.1, 20.0),  # nbar
    st.floats(0.0, 0.9),  # mu; at mu = 1 there is no coherent amplitude and no signal
    st.floats(0.3, 1.0),  # eta_a
    st.floats(0.3, 1.0),  # eta_b
    st.floats(0.0, 2.0 * math.pi),  # phi
)
angles = st.floats(0.0, 2.0 * math.pi)


@given(config=configurations, ta=angles, tb=angles)
@settings(max_examples=200, deadline=None)
def test_derivatives_match_central_differences(config, ta, tb):
    cov, dmean = output_moments(*config)
    # Next to a blind point f varies too fast for a finite-difference check.
    assume(slope_ratio(dmean, ta, tb) >= 0.1)
    local = _sum_quad_objective(cov, dmean)
    f, fa, fb, faa, fab, fbb = local(ta, tb)

    def value(a, b):
        return local(a, b)[0]

    ga = richardson(lambda a: value(a, tb), ta, 1e-3, 1)
    gb = richardson(lambda b: value(ta, b), tb, 1e-3, 1)
    haa = richardson(lambda a: value(a, tb), ta, 2e-3, 2)
    hbb = richardson(lambda b: value(ta, b), tb, 2e-3, 2)
    hab = richardson(lambda a: richardson(lambda b: value(a, b), tb, 2e-3, 1), ta, 2e-3, 1)
    gradient_scale = max(abs(f), abs(fa), abs(fb))
    assert abs(fa - ga) <= 1e-6 * gradient_scale
    assert abs(fb - gb) <= 1e-6 * gradient_scale
    hessian_scale = max(abs(f), abs(faa), abs(fab), abs(fbb))
    assert abs(faa - haa) <= 1e-6 * hessian_scale
    assert abs(fab - hab) <= 1e-6 * hessian_scale
    assert abs(fbb - hbb) <= 1e-6 * hessian_scale


@given(config=configurations, ta=angles, tb=angles)
@settings(max_examples=200, deadline=None)
def test_error_is_unchanged_by_turning_both_angles_by_pi(config, ta, tb):
    cov, dmean = output_moments(*config)
    assume(slope_ratio(dmean, ta, tb) >= 1e-3)
    local = _sum_quad_objective(cov, dmean)
    assert local(ta + math.pi, tb + math.pi)[0] == pytest.approx(local(ta, tb)[0], rel=1e-12, abs=0.0)


resources = st.tuples(
    st.sampled_from([ResourceKind.CSV, ResourceKind.TMSV, ResourceKind.COHERENT]),
    st.floats(0.1, 20.0),  # nbar
    st.floats(0.0, 0.9),  # mu, read for CSV only
    st.floats(0.3, 1.0),  # eta_a
    st.floats(0.3, 1.0),  # eta_b
)


@given(config=resources, phi=st.floats(0.0, 2.0 * math.pi), ta=angles, tb=angles)
@settings(max_examples=200, deadline=None)
def test_pi_phase_swaps_the_output_ports(config, phi, ta, tb):
    kind, nbar, mu, eta_a, eta_b = config
    coefficients = phase_coefficients(ResourceSpec.from_energy(kind, nbar, mu), LossModel(eta_a, eta_b))
    cov, dmean = _cov_and_dmean(coefficients, phi + math.pi)
    swapped_cov, swapped_dmean = _cov_and_dmean(coefficients, phi)
    w = np.array([math.cos(ta), math.sin(ta), math.cos(tb), math.sin(tb)])
    swapped_w = np.concatenate([w[2:], w[:2]])
    # The variance is checked for every input; a TMSV has no mean and no slope.
    assert w @ cov @ w == pytest.approx(swapped_w @ swapped_cov @ swapped_w, rel=1e-12, abs=0.0)
    if kind is not ResourceKind.TMSV and slope_ratio(dmean, ta, tb) >= 1e-3:
        swapped = _sum_quad_objective(swapped_cov, swapped_dmean)(tb, ta)[0]
        assert _sum_quad_objective(cov, dmean)(ta, tb)[0] == pytest.approx(swapped, rel=1e-12, abs=0.0)


@given(config=resources, phi=st.floats(0.0, 2.0 * math.pi), ta=angles, tb=angles)
@settings(max_examples=200, deadline=None)
def test_conjugation_reverses_every_angle(config, phi, ta, tb):
    # A real input is its own complex conjugate (P → -P), which maps the output at φ to the one at -φ.
    kind, nbar, mu, eta_a, eta_b = config
    coefficients = phase_coefficients(ResourceSpec.from_energy(kind, nbar, mu), LossModel(eta_a, eta_b))
    cov, dmean = _cov_and_dmean(coefficients, phi)
    mirror_cov, mirror_dmean = _cov_and_dmean(coefficients, -phi)
    w = np.array([math.cos(ta), math.sin(ta), math.cos(tb), math.sin(tb)])
    mirror_w = w * np.array([1.0, -1.0, 1.0, -1.0])
    # The variance is checked for every input; a TMSV has no mean and no slope.
    assert w @ cov @ w == pytest.approx(mirror_w @ mirror_cov @ mirror_w, rel=1e-12, abs=0.0)
    if kind is not ResourceKind.TMSV and slope_ratio(dmean, ta, tb) >= 1e-3:
        mirrored = _sum_quad_objective(mirror_cov, mirror_dmean)(-ta, -tb)[0]
        assert _sum_quad_objective(cov, dmean)(ta, tb)[0] == pytest.approx(mirrored, rel=1e-12, abs=0.0)


def full_grid_minimum(coefficients):
    """Smallest error over 180 phases on [0, 2π) × 12 θa on [0, π) × 24 θb on [0, 2π)."""
    thetas = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    wb = np.column_stack([np.cos(thetas), np.sin(thetas)])
    wa = wb[:12]
    best = math.inf
    for phi in np.linspace(0.0, 2.0 * math.pi, 180, endpoint=False):
        cov, dmean = _cov_and_dmean(coefficients, float(phi))
        va = np.einsum("ui,ij,uj->u", wa, cov[:2, :2], wa)
        vb = np.einsum("vi,ij,vj->v", wb, cov[2:, 2:], wb)
        variance = va[:, None] + vb[None, :] + 2.0 * (wa @ cov[:2, 2:] @ wb.T)
        slope = (wa @ dmean[:2])[:, None] + (wb @ dmean[2:])[None, :]
        seen = np.abs(slope) >= DEGENERATE_SLOPE
        if seen.any():
            best = min(best, float(np.min(variance[seen] / slope[seen] ** 2)))
    return best


def assert_grid_finds_the_full_grid_minimum(coefficients):
    value, phi, ta, tb = _double_hd_grid(coefficients)
    assert 0.0 <= phi < math.pi and 0.0 <= ta < math.pi and 0.0 <= tb < 2.0 * math.pi
    assert value == pytest.approx(full_grid_minimum(coefficients), rel=1e-12, abs=0.0)
    assert value == pytest.approx(_sum_quad_objective(*_cov_and_dmean(coefficients, float(phi)))(ta, tb)[0], rel=1e-12)


@given(config=configurations)
@settings(max_examples=60, deadline=None)
def test_half_period_grid_finds_the_full_grid_minimum(config):
    nbar, mu, eta_a, eta_b, _ = config
    resource = ResourceSpec.from_energy(ResourceKind.CSV, nbar, mu)
    assert_grid_finds_the_full_grid_minimum(phase_coefficients(resource, LossModel(eta_a, eta_b)))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_half_period_grid_holds_for_any_state_at_the_phase_shifter(seed):
    # CSV optima sit near φ = π/2; a random mixed, displaced state puts the
    # optimum anywhere, so a grid that missed some phases would show here.
    state = random_physical_state(np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interferometer, "_post_loss_cov_mean", lambda resource, loss: (state.cov, state.mean))
        coefficients = phase_coefficients(None, None)
    assert_grid_finds_the_full_grid_minimum(coefficients)


def nelder_mead(local, ta, tb, spread):
    """The simplex search that was the Newton fallback, with its options and simplex."""
    start = np.array([ta, tb])
    simplex = np.array([start, start + [spread, 0.0], start + [0.0, spread]])
    result = minimize(
        lambda t: local(t[0], t[1])[0],
        start,
        method="Nelder-Mead",
        options={"xatol": 1e-7, "fatol": 1e-15, "maxiter": 300, "initial_simplex": simplex},
    )
    return float(result.fun)


def test_cold_newton_is_no_worse_than_nelder_mead():
    rng = np.random.default_rng(20261018)
    for _ in range(100):
        nbar, mu = rng.uniform(0.1, 20.0), rng.uniform(0.0, 0.9)
        eta_a, eta_b = rng.uniform(0.3, 1.0, size=2)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        cov, dmean = output_moments(nbar, mu, eta_a, eta_b, phi)
        local = _sum_quad_objective(cov, dmean)
        ta, tb = grid_best_cell(local)
        _, _, value = _refine_sum_quad_angles(cov, dmean, ta, tb)
        assert value <= nelder_mead(local, ta, tb, 0.08) * (1.0 + 1e-9)


# Starts where an unsafeguarded Newton step is refused, from a seeded scan of
# ``_min_double_hd`` over 1,000 random CSV cells (``default_rng(1)``; n̄
# log-uniform in [0.05, 1e4], μ in [0, 1], η in [0.02, 1], symmetric or
# one-arm loss): the first such start in each of eight cells per kind, spread
# over the scan.  Each is (kind, n̄, μ, η_a, η_b, φ, θa, θb,
# warm); a warm start is the previous phase's angles, a cold one a grid cell.
# Kinds: "warm-step", a positive definite Hessian whose step lies in (0.2, 0.3],
# once above the warm-start cap; "non-convex", a Hessian that is not positive
# definite; "long-step", a step above the one cap of 0.3.
REFUSED_STARTS = [
    ("warm-step", 6262.440800928368, 0.7247899407735336, 0.5504023184364856, 0.5504023184364856,
     1.5664465544885557, 2.7773300491149415, 3.503035257151984, True),
    ("warm-step", 2766.3747185049237, 0.27190576176612025, 0.9869443717107669, 0.9869443717107669,
     1.5790366537266871, 2.373769719330483, 3.9177663781824057, True),
    ("warm-step", 293.6191287121257, 0.9997911436030891, 0.2422431309290333, 1.0,
     1.5523703956185908, 2.680797488550967, 3.594129168023175, True),
    ("warm-step", 4806.999689227771, 0.1531331495662983, 0.8893989780609066, 0.8893989780609066,
     1.5790366537266871, 2.471241970171497, 3.821098044684575, True),
    ("warm-step", 3527.0983793765017, 0.7408822942823422, 0.45052428566954256, 0.45052428566954256,
     1.5892222579712023, 2.8523005845054312, 3.4181153050858812, True),
    ("warm-step", 850.7876677201291, 0.7469151591312451, 0.7092221343179598, 0.7092221343179598,
     1.5790366537266871, 2.6447661014283876, 3.6490593398691042, True),
    ("warm-step", 635.1915134418476, 0.9139358213333043, 0.6591734691637169, 1.0,
     1.5790366537266871, 2.464205099956719, 3.827225174475284, True),
    ("warm-step", 1188.338013225909, 0.6685329114974272, 0.12853137088053943, 1.0,
     1.5790366537266871, 2.801727618716297, 3.4897100019354066, True),
    ("non-convex", 6262.440800928368, 0.7247899407735336, 0.5504023184364856, 0.5504023184364856,
     1.5790366537266871, 2.7847307743116634, 3.5104004362448995, True),
    ("non-convex", 6605.076107261501, 0.9923887631356604, 0.061675317210505495, 1.0,
     1.5790366537266871, 2.9023798473672295, 3.389049681698684, True),
    ("non-convex", 3985.724755311495, 0.9001324900548501, 0.5083785807181586, 1.0,
     1.5790366537266871, 2.5264010124788974, 3.765025678473418, True),
    ("non-convex", 8908.88336125067, 0.4708746949087971, 0.8253162884437102, 0.8253162884437102,
     1.5790366537266871, 2.5340404676994104, 3.758825291996967, True),
    ("non-convex", 3242.5198267966384, 0.6753026600541806, 0.13432595031354905, 1.0,
     1.5790366537266871, 2.7945328548109503, 3.4968973412649813, True),
    ("non-convex", 3634.3395614299898, 0.7980433262342324, 0.5440436790904352, 1.0,
     1.5790366537266871, 2.510305300301169, 3.7811215369095184, True),
    ("non-convex", 6943.391101645698, 0.6756551687211889, 0.1600738819612113, 1.0,
     1.5790366537266871, 2.7652071468252837, 3.5262205825629174, True),
    ("non-convex", 4199.096645450744, 0.8603804184889041, 0.7320806742443557, 0.7320806742443557,
     1.5790366537266871, 2.623257445160827, 3.6703767287284794, True),
    ("long-step", 6262.440800928368, 0.7247899407735336, 0.5504023184364856, 0.5504023184364856,
     1.562555999863106, 2.8797932657906435, 3.4033920413889422, False),
    ("long-step", 1138.9304462314533, 0.775849087831725, 0.2588472078287553, 0.2588472078287553,
     1.5523703956185908, 2.986892122870154, 3.281941751051354, True),
    ("long-step", 1781.311243302672, 0.8746833990846345, 0.21220935014260714, 1.0,
     1.5790366537266871, 2.714188784723112, 3.577241024327234, True),
    ("long-step", 7191.386571867489, 0.6708927172949258, 0.3980490934510143, 1.0,
     1.562555999863106, 2.617993877991494, 3.665191429188092, False),
    ("long-step", 3147.8947285621452, 0.7355949843695778, 0.9838421652498757, 0.9838421652498757,
     1.5790366537266871, 2.3766615886802067, 3.91489822400963, True),
    ("long-step", 1172.8932729517107, 0.6668554539279069, 0.9588772495304878, 0.9588772495304878,
     1.5727416041076214, 2.388092501549733, 3.875901600904133, True),
    ("long-step", 2487.4021950519277, 0.572004962279185, 0.7029980026479492, 1.0,
     1.5790366537266871, 2.448156759369081, 3.843270797699897, True),
    ("long-step", 1188.338013225909, 0.6685329114974272, 0.12853137088053943, 1.0,
     1.5727416041076214, 2.7885618531820673, 3.4761652112061108, True),
]


@pytest.mark.parametrize("start", REFUSED_STARTS, ids=[f"{s[0]}-{i}" for i, s in enumerate(REFUSED_STARTS)])
def test_refused_newton_starts_reach_the_simplex_value(start):
    kind, nbar, mu, eta_a, eta_b, phi, ta, tb, warm = start
    cov, dmean = output_moments(nbar, mu, eta_a, eta_b, phi)
    local = _sum_quad_objective(cov, dmean)
    _, ga, gb, haa, hab, hbb = local(ta, tb)
    convex = haa > 0.0 and haa * hbb - hab * hab > 0.0
    # The start is still of its kind, so the safeguarded branch is what runs.
    assert convex is (kind != "non-convex")
    if convex:
        det = haa * hbb - hab * hab
        step = max(abs(hbb * ga - hab * gb), abs(haa * gb - hab * ga)) / det
        assert 0.2 < step <= _ANGLE_STEP_CAP if kind == "warm-step" else step > _ANGLE_STEP_CAP
    _, _, value = _refine_sum_quad_angles(cov, dmean, ta, tb)
    assert math.isfinite(value)
    assert value <= nelder_mead(local, ta, tb, 0.01 if warm else 0.08) * (1.0 + 1e-9)


def test_blind_start_returns_inf():
    cov, dmean = output_moments(8.0, 0.4, 0.8, 0.7, 1.3)
    p, q = dmean[:2], dmean[2:]
    # A start on the blind line: choose tb so that the slope vanishes.
    ta = 0.4
    along_a = math.cos(ta) * p[0] + math.sin(ta) * p[1]
    tb = math.atan2(q[1], q[0]) + math.acos(-along_a / math.hypot(*q))
    local = _sum_quad_objective(cov, dmean)
    assert math.isinf(local(ta, tb)[0])  # |slope| < DEGENERATE_SLOPE
    assert _refine_sum_quad_angles(cov, dmean, ta, tb) == (ta, tb, math.inf)


def test_a_step_that_cannot_lower_the_error_ends_at_the_start():
    # A negative definite Hessian refuses the plain step; the shifted one and every halving of it land higher.
    def local(ta, tb):
        return (1.0 if (ta, tb) == (0.0, 0.0) else 2.0), 1.0, 0.0, -1.0, 0.0, -1.0

    assert _newton_angles(local, 0.0, 0.0) == (0.0, 0.0, 1.0)


@given(config=configurations, ta=angles, tb=angles)
@settings(max_examples=200, deadline=None)
def test_newton_never_ends_above_its_start(config, ta, tb):
    cov, dmean = output_moments(*config)
    local = _sum_quad_objective(cov, dmean)
    refined = _newton_angles(local, ta, tb)
    assert refined is not None
    assert refined[2] <= local(ta, tb)[0]
