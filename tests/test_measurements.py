import math
import os
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest

from mzi_lab import (
    DegenerateWorkingPoint,
    GaussianState,
    InterferometerConfig,
    LossModel,
    NumericFailure,
    Observable,
    ObservableKind,
    ResourceKind,
    ResourceSpec,
    SingleModeState,
    output_mode_a,
    output_state,
    parity_expectation,
    qfi_closed,
    sensitivity,
    sensitivity_profile,
    symmetric_moment,
)
from mzi_lab.measurements import _errors, _quadrature_moments


def single_mode(cov, mean):
    return SingleModeState(np.asarray(cov, dtype=float), np.asarray(mean, dtype=float))


class TestParityExpectation:
    def test_vacuum(self):
        assert parity_expectation(single_mode(np.eye(2) / 2.0, [0.0, 0.0])) == pytest.approx(1.0)

    def test_coherent(self):
        d = np.array([1.1, -0.4])
        state = single_mode(np.eye(2) / 2.0, d)
        assert parity_expectation(state) == pytest.approx(math.exp(-(d @ d)), rel=1e-12)

    def test_thermal(self):
        nbar = 1.7
        state = single_mode((2.0 * nbar + 1.0) * np.eye(2) / 2.0, [0.0, 0.0])
        assert parity_expectation(state) == pytest.approx(1.0 / (2.0 * nbar + 1.0), rel=1e-12)

    def test_non_positive_determinant_is_a_numeric_failure(self):
        with pytest.raises(NumericFailure, match="determinant"):
            parity_expectation(single_mode(np.zeros((2, 2)), [0.0, 0.0]))


class TestObservable:
    @pytest.mark.parametrize(
        "angle_a, angle_b", [(0.3, 1.2), (-0.4, -2.0), (2.0 * math.pi, 7.5), (-1e-17, 4.0 * math.pi + 0.1)]
    )
    def test_constructor_wraps_both_angles_like_the_classmethods(self, angle_a, angle_b):
        kind = ObservableKind
        assert Observable(kind.QUADRATURE_A, angle_a) == Observable.quadrature(angle_a)
        assert Observable(kind.QUADRATURE_SQUARED_A, angle_a) == Observable.quadrature_squared(angle_a)
        assert Observable(kind.PRODUCT_QUAD_AB, angle_a, angle_b) == Observable.product(angle_a, angle_b)
        obs = Observable(kind.SUM_QUAD_AB, angle_a, angle_b)
        assert obs == Observable.quadrature_sum(angle_a, angle_b)
        assert 0.0 <= obs.angle_a < 2.0 * math.pi and 0.0 <= obs.angle_b < 2.0 * math.pi
        assert Observable(kind.PARITY_A) == Observable.parity()


class TestMomentExpansions:
    """The second and fourth output moments in closed trigonometric form."""

    def test_csv_p_quadrature_moments(self):
        alpha, r = 0.9, 0.7
        resource = ResourceSpec.csv(alpha, r)
        for phi in (0.4, 2.1):
            out = output_state(InterferometerConfig(resource, phi, LossModel.lossless()))
            expected_p2 = (
                4.0 + 4.0 * math.cos(phi) + 3.0 * math.exp(-2 * r)
                - 4.0 * math.exp(-2 * r) * math.cos(phi)
                + math.exp(-2 * r) * math.cos(2 * phi)
                + 2.0 * math.exp(2 * r) * math.sin(phi) ** 2
                + 8.0 * alpha**2 * math.sin(phi) ** 2
            ) / 16.0
            assert symmetric_moment(out, (1, 1)) == pytest.approx(expected_p2, rel=1e-12)
            # the signal magnitude alpha sin(phi)/sqrt(2); its sign is a
            # phase-direction convention
            assert abs(symmetric_moment(out, (1,))) == pytest.approx(
                alpha * math.sin(phi) / math.sqrt(2.0), rel=1e-12
            )

    def test_tmsv_x_squared_moment(self):
        s = 0.8
        resource = ResourceSpec.tmsv(s)
        for phi in (0.4, 2.1):
            out = output_state(InterferometerConfig(resource, phi, LossModel.lossless()))
            expected = (
                math.cosh(s) ** 2 + math.sinh(s) ** 2 - math.sin(phi) ** 2 * math.sinh(2 * s)
            ) / 2.0
            assert symmetric_moment(out, (0, 0)) == pytest.approx(expected, rel=1e-12)

    def test_tmsv_product_moments(self):
        s = 0.8
        resource = ResourceSpec.tmsv(s)
        for phi in (0.3, 1.1, 2.7):
            out = output_state(InterferometerConfig(resource, phi, LossModel.lossless()))
            assert symmetric_moment(out, (0, 2)) == pytest.approx(
                math.sinh(2 * s) * math.cos(phi) ** 2 / 2.0, rel=1e-12
            )
            expected_fourth = (
                (17.0 + 4.0 * math.cos(2 * phi)) * math.cosh(4 * s)
                - 1.0 - 4.0 * math.cos(2 * phi)
                + 6.0 * math.cos(4 * phi) * math.sinh(2 * s) ** 2
                - 16.0 * math.sin(phi) ** 2 * math.sinh(4 * s)
            ) / 64.0
            assert symmetric_moment(out, (0, 0, 2, 2)) == pytest.approx(expected_fourth, rel=1e-12)


class TestParitySensitivity:
    def test_variance_is_involution_complement(self):
        cfg = InterferometerConfig(ResourceSpec.tmsv(0.8), 1.1, LossModel.symmetric(0.9))
        result = sensitivity(cfg, Observable.parity())
        signal = parity_expectation(output_mode_a(cfg))
        assert result.variance == pytest.approx(1.0 - signal**2, abs=1e-12)
        assert 0.0 <= result.variance <= 1.0

    def test_error_identity(self):
        cfg = InterferometerConfig(ResourceSpec.csv(1.0, 0.6), 2.5, LossModel.one_arm(0.8))
        result = sensitivity(cfg, Observable.parity())
        assert result.error == pytest.approx(result.variance / result.slope**2, rel=1e-12)

    def test_degenerate_point_raises(self):
        # For a lossless TMSV the parity expectation peaks at phi = pi/2.
        cfg = InterferometerConfig(ResourceSpec.tmsv(0.8), math.pi / 2.0, LossModel.lossless())
        with pytest.raises(DegenerateWorkingPoint):
            sensitivity(cfg, Observable.parity())


class TestHomodyneSensitivity:
    def test_csv_p_quadrature_at_pi(self):
        # At phi = pi the output mode a is a pure squeezed state and the
        # sensitivity equals 1/(alpha^2 e^{2r}) exactly.
        alpha, r = 1.1, 0.8
        cfg = InterferometerConfig(ResourceSpec.csv(alpha, r), math.pi, LossModel.lossless())
        result = sensitivity(cfg, Observable.quadrature(math.pi / 2.0))
        assert result.error == pytest.approx(1.0 / (alpha**2 * math.exp(2 * r)), rel=1e-9)

    def test_error_identity(self):
        cfg = InterferometerConfig(ResourceSpec.tmsv(0.8), 0.9, LossModel.symmetric(0.8))
        result = sensitivity(cfg, Observable.quadrature_squared(0.0))
        assert result.error == pytest.approx(result.variance / result.slope**2, rel=1e-12)

    def test_never_below_qcrb(self):
        resource = ResourceSpec.tmsv(1.0)
        for loss in (LossModel.lossless(), LossModel.symmetric(0.8)):
            qcrb = qfi_closed(resource, loss).qcrb
            for phi in (0.3, 0.9, 1.4):
                cfg = InterferometerConfig(resource, phi, loss)
                result = sensitivity(cfg, Observable.quadrature_squared(0.0))
                assert result.error >= qcrb


class TestVectorizedProfile:
    """A scalar call is a batch of one of the grid path."""

    @pytest.mark.parametrize(
        "obs",
        [
            Observable.parity(),
            Observable.quadrature(math.pi / 2.0),
            Observable.quadrature_squared(0.4),
            Observable.product(0.2, 1.1),
            Observable.quadrature_sum(0.7, 2.3),
        ],
    )
    def test_profile_matches_scalar(self, obs):
        resource = ResourceSpec.csv(0.9, 0.6)
        loss = LossModel(0.85, 0.7)
        phis = np.array([0.3, 1.2, 2.6, 4.4])
        profile = sensitivity_profile(resource, loss, phis, obs)
        for i, phi in enumerate(phis):
            assert profile[i] == sensitivity(InterferometerConfig(resource, float(phi), loss), obs).error

    def test_rotated_quadrature_moments(self):
        # X_theta moments computed through mode rotations agree with a
        # direct projection of the covariance.
        cfg = InterferometerConfig(ResourceSpec.csv(0.8, 0.5), 0.7, LossModel.lossless())
        state = output_state(cfg)
        theta = 0.9
        w = np.array([math.cos(theta), math.sin(theta), 0.0, 0.0])
        result = sensitivity(cfg, Observable.quadrature(theta))
        assert result.signal == pytest.approx(w @ state.mean, rel=1e-12)
        assert result.variance == pytest.approx(w @ state.cov @ w, rel=1e-12)

    @pytest.mark.parametrize("obs", [Observable.quadrature_squared(0.2), Observable.product(0.1, 0.4)])
    def test_overflowing_moments_are_blind(self, obs):
        # Near the float range the variance and the slope overflow: the error is inf, never nan or 0.
        resource = ResourceSpec.from_energy(ResourceKind.CSV, 1e300, 0.5)
        loss = LossModel.symmetric(0.8)
        assert np.all(sensitivity_profile(resource, loss, np.linspace(0.0, 3.0, 5), obs) == np.inf)
        # The float closure the phase optimum evaluates at each stationary phase.
        assert _errors(*_quadrature_moments(resource, loss, obs)(0.7)[1:]) == math.inf


_FAULT_PROBE = textwrap.dedent(
    """
    import resource
    from mzi_lab import LossModel, ResourceKind, Scheme, scheme_sensitivity

    def op(nbar):
        scheme_sensitivity(Scheme.{scheme}, ResourceKind.{kind}, nbar, LossModel.symmetric(0.8))

    op(4.0)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for nbar in {nbars}:
        op(nbar)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len({nbars}))
    """
)


def minor_faults_per_op(scheme, kind, nbars):
    """Minor page faults per ``scheme_sensitivity`` call after a warm-up call, in a fresh interpreter.

    The interpreter reads and writes no bytecode cache (an empty ``PYTHONPYCACHEPREFIX``), so it
    compiles every module from source and its heap starts the same whatever ``.pyc`` files exist.
    """
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = _FAULT_PROBE.format(scheme=scheme, kind=kind, nbars=nbars)
    with tempfile.TemporaryDirectory() as pycache:
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            PYTHONPYCACHEPREFIX=pycache,
            PYTHONDONTWRITEBYTECODE="1",
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120, check=True
        )
    return float(proc.stdout)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's mmap threshold is Linux behaviour")
def test_phase_scan_reuses_heap_memory():
    # A 720-phase scan is 3,600 stencil phases; as one output_grid call its
    # temporaries exceed glibc's mmap threshold, and every scan then maps
    # and unmaps fresh pages (about 400 minor faults per point).
    assert minor_faults_per_op("SINGLE_HD", "TMSV", [5.0] * 10) < 50.0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's mmap threshold is Linux behaviour")
def test_double_homodyne_grid_reuses_heap_memory():
    # Each new n̄ is a cold point: a full squeezing-fraction search, every
    # probe a fresh double-homodyne grid scan.
    assert minor_faults_per_op("DOUBLE_HD", "CSV", [5.0, 6.0, 7.0, 8.0, 9.0]) < 50.0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's mmap threshold is Linux behaviour")
@pytest.mark.parametrize("kind, nbars", [("TMSV", [5.0] * 10), ("CSV", [5.0, 6.0, 7.0])], ids=["TMSV", "CSV"])
def test_parity_stencil_reuses_heap_memory(kind, nbars):
    # Parity is the one observable whose phase scan still runs the stencil
    # through output_grid; the quadrature scans above no longer do.
    assert minor_faults_per_op("PARITY", kind, nbars) < 50.0
