"""The Gaussian kernel against an independent scalar reference.

Parity and ``output_state`` run through ``output_grid``, so comparing one of
their scalar entry points with the grid compares the kernel with itself.  The
reference below is built only from the state-level building blocks instead:
the pipeline is composed from ``make_input``, ``beam_splitter``,
``apply_symplectic``, ``apply_loss`` and a mode-a rotation; quadrature
moments come from a mode rotation and ``symmetric_moment``; parity from the
2x2 Wigner formula; and the slope is a Richardson-refined central difference
of the reference signal.

The quadrature observables take their moments and exact slopes from
``phase_coefficients``: these are checked against ``output_grid`` and against
a complex-step derivative through a pipeline composed here.  The last test
compares the blocked phase scan of ``sensitivity_profile`` with one call
over the whole scan, bit for bit.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mzi_lab import (
    GaussianState,
    InterferometerConfig,
    LossModel,
    Observable,
    ObservableKind,
    ResourceKind,
    ResourceSpec,
    apply_loss,
    apply_symplectic,
    beam_splitter,
    make_input,
    output_state,
    qfi_closed,
    sensitivity,
    symmetric_moment,
)
from mzi_lab.interferometer import output_grid, phase_coefficients
from mzi_lab.measurements import DEGENERATE_SLOPE, _grid_parity, sensitivity_profile

from conftest import is_physical, rotation_pair

SLOPE_STEP = 1e-5


def reference_state(resource, phi, loss):
    state = apply_symplectic(make_input(resource), beam_splitter(math.pi / 4.0))
    state = apply_loss(state, loss.eta_a, loss.eta_b)
    return apply_symplectic(state, beam_splitter(-math.pi / 4.0) @ rotation_pair(phi, 0.0))


def reference_signal_variance(state, obs):
    if obs.kind is ObservableKind.PARITY_A:
        cov, d = state.cov[:2, :2], state.mean[:2]
        quad = float(d @ np.linalg.solve(cov, d))
        signal = math.exp(-quad / 2.0) / (2.0 * math.sqrt(float(np.linalg.det(cov))))
        return signal, 1.0 - signal**2
    rotated = apply_symplectic(state, rotation_pair(obs.angle_a, obs.angle_b))

    def moment(*indices):
        return symmetric_moment(rotated, indices)

    if obs.kind is ObservableKind.QUADRATURE_A:
        signal, second = moment(0), moment(0, 0)
    elif obs.kind is ObservableKind.QUADRATURE_SQUARED_A:
        signal, second = moment(0, 0), moment(0, 0, 0, 0)
    elif obs.kind is ObservableKind.PRODUCT_QUAD_AB:
        signal, second = moment(0, 2), moment(0, 0, 2, 2)
    else:
        signal = moment(0) + moment(2)
        second = moment(0, 0) + 2.0 * moment(0, 2) + moment(2, 2)
    return signal, second - signal**2


def reference_moments(resource, phi, loss, obs):
    """Signal, variance and phase slope of ``obs`` at ``phi`` through the reference route."""

    def signal_at(x):
        return reference_signal_variance(reference_state(resource, x, loss), obs)[0]

    h = SLOPE_STEP
    coarse = (signal_at(phi + h) - signal_at(phi - h)) / (2.0 * h)
    fine = (signal_at(phi + h / 2.0) - signal_at(phi - h / 2.0)) / h
    slope = (4.0 * fine - coarse) / 3.0
    signal, variance = reference_signal_variance(reference_state(resource, phi, loss), obs)
    return signal, variance, slope


def make_observable(kind, angle_a, angle_b):
    if kind is ObservableKind.PARITY_A:
        return Observable.parity()
    if kind is ObservableKind.QUADRATURE_A:
        return Observable.quadrature(angle_a)
    if kind is ObservableKind.QUADRATURE_SQUARED_A:
        return Observable.quadrature_squared(angle_a)
    if kind is ObservableKind.PRODUCT_QUAD_AB:
        return Observable.product(angle_a, angle_b)
    return Observable.quadrature_sum(angle_a, angle_b)


@st.composite
def resources(draw, kinds=tuple(ResourceKind)):
    kind = draw(st.sampled_from(kinds))
    nbar = draw(st.floats(0.1, 20.0))
    return ResourceSpec.from_energy(kind, nbar, draw(st.floats(0.0, 1.0)))


phases = st.floats(0.0, 2.0 * math.pi)
angles = st.floats(0.0, 2.0 * math.pi)
transmissivities = st.floats(0.05, 1.0)


@given(resource=resources(), eta_a=transmissivities, eta_b=transmissivities, phi=phases)
@settings(max_examples=150, deadline=None)
def test_pipeline_matches_reference(resource, eta_a, eta_b, phi):
    loss = LossModel(eta_a, eta_b)
    out = output_state(InterferometerConfig(resource, phi, loss))
    ref = reference_state(resource, phi, loss)
    assert np.abs(out.cov - ref.cov).max() <= 1e-14
    assert np.abs(out.mean - ref.mean).max() <= 1e-14


@pytest.mark.parametrize("kind", list(ObservableKind))
@given(
    resource=resources(),
    eta_a=transmissivities,
    eta_b=transmissivities,
    phi=phases,
    angle_a=angles,
    angle_b=angles,
)
@settings(max_examples=60, deadline=None)
def test_profile_matches_reference(kind, resource, eta_a, eta_b, phi, angle_a, angle_b):
    loss = LossModel(eta_a, eta_b)
    obs = make_observable(kind, angle_a, angle_b)
    signal, variance, slope = reference_moments(resource, phi, loss, obs)
    # Both routes difference signals whose roundoff scales with the rms of
    # the observable; away from blind points the slope dwarfs that noise.
    assume(abs(slope) >= 0.03 * math.sqrt(variance + signal**2))
    error = sensitivity_profile(resource, loss, np.array([phi]), obs)[0]
    assert error == pytest.approx(variance / slope**2, rel=1e-8)


@pytest.mark.parametrize("kind", list(ObservableKind))
@given(
    resource=resources(kinds=(ResourceKind.TMSV, ResourceKind.CSV)),
    eta=st.floats(0.3, 0.95),
    one_arm=st.booleans(),
    phi=phases,
    angle_a=angles,
    angle_b=angles,
)
@settings(max_examples=30, deadline=None)
def test_error_respects_qcrb_and_outputs_are_physical(
    kind, resource, eta, one_arm, phi, angle_a, angle_b
):
    loss = LossModel.one_arm(eta) if one_arm else LossModel.symmetric(eta)
    obs = make_observable(kind, angle_a, angle_b)
    phis = np.append(np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False), phi)
    errors = sensitivity_profile(resource, loss, phis, obs)
    # A coherent input (CSV with mu = 0) read by the quadrature sum
    # saturates the bound, so allow roundoff below it.
    assert np.all(errors >= qfi_closed(resource, loss).qcrb * (1.0 - 1e-9))
    for cov, mean in zip(*output_grid(resource, loss, phis)):
        assert is_physical(GaussianState(cov, mean))


def single_call_profile(resource, loss, phis):
    """The parity ``sensitivity_profile`` with the whole 5n-phase stencil in one ``output_grid`` call."""
    n, h = phis.shape[0], SLOPE_STEP
    shifts = np.array([0.0, h, -h, h / 2.0, -h / 2.0])
    covs, means = output_grid(resource, loss, (phis + shifts[:, None]).ravel())
    signals = _grid_parity(covs, means)
    variance = 1.0 - signals[:n] ** 2
    _, s_p, s_m, s_hp, s_hm = signals.reshape(5, n)
    slope = (4.0 * ((s_hp - s_hm) / h) - (s_p - s_m) / (2.0 * h)) / 3.0
    out = np.full(n, np.inf)
    ok = (np.abs(slope) >= DEGENERATE_SLOPE) & (variance >= 0.0)
    out[ok] = variance[ok] / slope[ok] ** 2
    return out


@pytest.mark.parametrize("kind", list(ObservableKind))
@pytest.mark.parametrize("resource_kind", list(ResourceKind))
def test_blocked_profile_equals_one_call(kind, resource_kind):
    # The parity stencil splits a 720-phase scan into blocks, and the
    # quadrature kernel works elementwise on its phases; each phase's result
    # must not depend on either.
    resource = ResourceSpec.from_energy(resource_kind, 6.0, 0.4)
    loss = LossModel(0.8, 0.65)
    phis = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    obs = make_observable(kind, 0.7, 2.1)
    blocked = sensitivity_profile(resource, loss, phis, obs)
    if kind is ObservableKind.PARITY_A:
        assert np.array_equal(blocked, single_call_profile(resource, loss, phis))
    else:
        edges = [0, 1, 8, 9, 200, 333, 719, 720]
        batches = [sensitivity_profile(resource, loss, phis[a:b], obs) for a, b in zip(edges, edges[1:])]
        assert np.array_equal(blocked, np.concatenate(batches))


@given(resource=resources(), eta_a=transmissivities, eta_b=transmissivities, phi=phases)
@settings(max_examples=150, deadline=None)
def test_phase_coefficients_reproduce_output_grid(resource, eta_a, eta_b, phi):
    loss = LossModel(eta_a, eta_b)
    K, M = phase_coefficients(resource, loss)
    c, s = math.cos(phi), math.sin(phi)
    cov = sum(t * k for t, k in zip((1.0, c, s, c * c, s * s, c * s), K))
    mean = M[0] + c * M[1] + s * M[2]
    covs, means = output_grid(resource, loss, [phi])
    assert np.all(np.abs(cov - covs[0]) <= 1e-14 * np.maximum(1.0, np.abs(covs[0])))
    assert np.all(np.abs(mean - means[0]) <= 1e-14 * np.maximum(1.0, np.abs(means[0])))


def complex_step_slope(resource, loss, phi, obs, h=1e-30):
    """``d<O>/dφ`` as ``Im <O>(phi + ih) / h``, through a pipeline composed with complex phases."""
    state = apply_symplectic(make_input(resource), beam_splitter(math.pi / 4.0))
    state = apply_loss(state, loss.eta_a, loss.eta_b)
    c, s = cmath.cos(complex(phi, h)), cmath.sin(complex(phi, h))
    rotation = np.array([[c, s, 0, 0], [-s, c, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    post = beam_splitter(-math.pi / 4.0) @ rotation
    cov, mean = post @ state.cov @ post.T, post @ state.mean
    wa = np.array([math.cos(obs.angle_a), math.sin(obs.angle_a)])
    wb = np.array([math.cos(obs.angle_b), math.sin(obs.angle_b)])
    ma, mb = wa @ mean[:2], wb @ mean[2:]
    signal = {
        ObservableKind.QUADRATURE_A: ma,
        ObservableKind.QUADRATURE_SQUARED_A: wa @ cov[:2, :2] @ wa + ma * ma,
        ObservableKind.PRODUCT_QUAD_AB: wa @ cov[:2, 2:] @ wb + ma * mb,
        ObservableKind.SUM_QUAD_AB: ma + mb,
    }[obs.kind]
    return signal.imag / h


@pytest.mark.parametrize("kind", [k for k in ObservableKind if k is not ObservableKind.PARITY_A])
@given(
    resource=resources(),
    eta_a=transmissivities,
    eta_b=transmissivities,
    phi=phases,
    angle_a=angles,
    angle_b=angles,
)
@settings(max_examples=80, deadline=None)
def test_exact_slope_matches_complex_step(kind, resource, eta_a, eta_b, phi, angle_a, angle_b):
    loss = LossModel(eta_a, eta_b)
    obs = make_observable(kind, angle_a, angle_b)
    signal, variance = reference_signal_variance(reference_state(resource, phi, loss), obs)
    slope = complex_step_slope(resource, loss, phi, obs)
    assume(abs(slope) >= 0.03 * math.sqrt(variance + signal**2))
    result = sensitivity(InterferometerConfig(resource, phi, loss), obs)
    assert result.slope == pytest.approx(slope, rel=1e-10)
