"""The double-homodyne local-oscillator angle search.

The quadrature-sum error ``f(θa, θb) = Var/slope²`` is minimized by Newton's
method with analytic derivatives, with Nelder-Mead as the fallback.  These
tests check the derivatives against central differences of ``f`` itself,
the two symmetries that let the grid cover θa ∈ [0, π) and φ ∈ [0, π) only,
that the tabulated grid finds the best cell of the full grid, and that
Newton lands no higher than the simplex search from the same start.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mzi_lab import LossModel, ResourceKind, ResourceSpec
from mzi_lab import interferometer, optimize
from mzi_lab.interferometer import phase_coefficients
from mzi_lab.measurements import DEGENERATE_SLOPE
from mzi_lab.optimize import (
    _COLD_ANGLE_CAP,
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


def nelder_mead_only(monkeypatch, cov, dmean, ta, tb):
    with monkeypatch.context() as patch:
        patch.setattr(optimize, "_newton_angles", lambda *args: None)
        return _refine_sum_quad_angles(cov, dmean, ta, tb)


def test_cold_newton_is_no_worse_than_nelder_mead(monkeypatch):
    rng = np.random.default_rng(20261018)
    accepted = 0
    for _ in range(100):
        nbar, mu = rng.uniform(0.1, 20.0), rng.uniform(0.0, 0.9)
        eta_a, eta_b = rng.uniform(0.3, 1.0, size=2)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        cov, dmean = output_moments(nbar, mu, eta_a, eta_b, phi)
        local = _sum_quad_objective(cov, dmean)
        ta, tb = grid_best_cell(local)
        accepted += _newton_angles(local, ta, tb, _COLD_ANGLE_CAP) is not None
        _, _, value = _refine_sum_quad_angles(cov, dmean, ta, tb)
        _, _, simplex_value = nelder_mead_only(monkeypatch, cov, dmean, ta, tb)
        assert value <= simplex_value * (1.0 + 1e-9)
    # The comparison above only means something if Newton ran.
    assert accepted >= 85


def test_newton_failure_falls_back_to_nelder_mead(monkeypatch):
    cov, dmean = output_moments(8.0, 0.4, 0.8, 0.7, 1.3)
    p, q = dmean[:2], dmean[2:]
    # A start on the blind line: choose tb so that the slope vanishes.
    ta = 0.4
    along_a = math.cos(ta) * p[0] + math.sin(ta) * p[1]
    tb = math.atan2(q[1], q[0]) + math.acos(-along_a / math.hypot(*q))
    local = _sum_quad_objective(cov, dmean)
    assert math.isinf(local(ta, tb)[0])  # |slope| < DEGENERATE_SLOPE
    assert _newton_angles(local, ta, tb, _COLD_ANGLE_CAP) is None
    refined = _refine_sum_quad_angles(cov, dmean, ta, tb)
    assert refined == nelder_mead_only(monkeypatch, cov, dmean, ta, tb)
    assert refined[2] <= local(*grid_best_cell(local))[0]
