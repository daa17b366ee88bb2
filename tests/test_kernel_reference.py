"""The Gaussian kernel against an independent scalar reference.

Every production path runs through ``output_grid`` and the grid observables
of :mod:`mzi_lab.measurements`, so comparing a scalar entry point with the
grid compares the kernel with itself.  The reference below is built only
from the state-level building blocks instead: the pipeline is composed from
``make_input``, ``beam_splitter``, ``apply_symplectic``, ``apply_loss`` and
``phase_shifter``; quadrature moments come from a mode rotation and
``symmetric_moment``; parity from the 2x2 Wigner formula; and the slope is a
Richardson-refined central difference of the reference signal.
"""

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
    is_physical,
    make_input,
    output_state,
    phase_shifter,
    qfi_closed,
    symmetric_moment,
)
from mzi_lab.interferometer import output_grid
from mzi_lab.measurements import sensitivity_profile

from conftest import rotation_pair

SLOPE_STEP = 1e-5


def reference_state(resource, phi, loss):
    state = apply_symplectic(make_input(resource), beam_splitter(math.pi / 4.0))
    state = apply_loss(state, loss.eta_a, loss.eta_b)
    return apply_symplectic(state, beam_splitter(-math.pi / 4.0) @ phase_shifter(phi))


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
