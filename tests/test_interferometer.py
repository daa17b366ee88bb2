import math

import numpy as np
import pytest

from mzi_lab import (
    InterferometerConfig,
    InvalidArgument,
    LossModel,
    Mode,
    ResourceSpec,
    apply_loss,
    apply_symplectic,
    beam_splitter,
    make_input,
    output_mode_a,
    output_state,
    reduce_to_mode,
)
from mzi_lab.interferometer import output_grid

from conftest import photon_number, rotation_pair


class TestLossModel:
    def test_presets(self):
        assert LossModel.symmetric(0.8) == LossModel(0.8, 0.8)
        assert LossModel.one_arm(0.8) == LossModel(0.8, 1.0)
        assert LossModel.lossless().is_lossless

    def test_range_check(self):
        with pytest.raises(InvalidArgument):
            LossModel(1.5, 1.0)


class TestOutputState:
    def test_coherent_zero_phase_exits_one_port(self):
        cfg = InterferometerConfig(ResourceSpec.coherent(1.2), 0.0, LossModel.lossless())
        out = output_state(cfg)
        # Balanced interferometer at phi = 0 is the identity: all light in mode a.
        assert out.mean[0] == pytest.approx(1.2 * math.sqrt(2.0), rel=1e-12)
        assert np.allclose(out.mean[1:], 0.0, atol=1e-12)
        assert np.allclose(out.cov, np.eye(4) / 2.0, atol=1e-14)

    def test_unit_transmissivity_matches_lossless_pipeline(self):
        resource = ResourceSpec.csv(0.9, 0.6)
        cfg = InterferometerConfig(resource, 0.7, LossModel(1.0, 1.0))
        direct = apply_symplectic(
            make_input(resource),
            beam_splitter(-math.pi / 4.0) @ rotation_pair(0.7, 0.0) @ beam_splitter(math.pi / 4.0),
        )
        out = output_state(cfg)
        assert np.allclose(out.cov, direct.cov, atol=1e-14)
        assert np.allclose(out.mean, direct.mean, atol=1e-14)

    def test_loss_placement_commutes_with_phase(self):
        # Loss before the phase shifter (as wired) equals loss after it.
        resource = ResourceSpec.tmsv(0.8)
        loss = LossModel(0.7, 0.45)
        wired = output_state(InterferometerConfig(resource, 1.1, loss))
        state = apply_symplectic(make_input(resource), beam_splitter(math.pi / 4.0))
        state = apply_symplectic(state, rotation_pair(1.1, 0.0))
        state = apply_loss(state, loss.eta_a, loss.eta_b)
        swapped = apply_symplectic(state, beam_splitter(-math.pi / 4.0))
        assert np.allclose(wired.cov, swapped.cov, atol=1e-13)
        assert np.allclose(wired.mean, swapped.mean, atol=1e-13)

    def test_energy_monotonicity(self):
        resource = ResourceSpec.csv(1.1, 0.9)
        nbar_in = photon_number(make_input(resource))
        lossless = output_state(InterferometerConfig(resource, 0.5, LossModel.lossless()))
        assert photon_number(lossless) == pytest.approx(nbar_in, rel=1e-12)
        for loss in (LossModel.symmetric(0.8), LossModel.one_arm(0.6), LossModel(0.9, 0.3)):
            lossy = output_state(InterferometerConfig(resource, 0.5, loss))
            assert photon_number(lossy) < nbar_in

    def test_phase_periodicity(self):
        cfg0 = InterferometerConfig(ResourceSpec.tmsv(0.7), 0.9, LossModel.symmetric(0.85))
        cfg1 = InterferometerConfig(ResourceSpec.tmsv(0.7), 0.9 + 2.0 * math.pi, LossModel.symmetric(0.85))
        a, b = output_state(cfg0), output_state(cfg1)
        assert np.abs(a.cov - b.cov).max() < 1e-12
        assert np.abs(a.mean - b.mean).max() < 1e-12


class TestOutputModeA:
    def test_vacuum_in_vacuum_out(self):
        cfg = InterferometerConfig(ResourceSpec.coherent(0.0), 0.4, LossModel.symmetric(0.9))
        mode = output_mode_a(cfg)
        assert np.allclose(mode.cov, np.eye(2) / 2.0, atol=1e-14)
        assert np.allclose(mode.mean, 0.0)

    @pytest.mark.parametrize("phi", [0.0, 0.3, 1.2, math.pi])
    def test_coherent_symmetric_loss_amplitude(self, phi):
        eta, alpha = 0.75, 1.3
        cfg = InterferometerConfig(ResourceSpec.coherent(alpha), phi, LossModel.symmetric(eta))
        mode = output_mode_a(cfg)
        assert np.allclose(mode.cov, np.eye(2) / 2.0, atol=1e-14)
        # |mean|^2 = 2 eta alpha^2 (1 + cos phi)/2
        expected = 2.0 * eta * alpha**2 * (1.0 + math.cos(phi)) / 2.0
        assert mode.mean @ mode.mean == pytest.approx(expected, abs=1e-12)

    def test_csv_zero_phase_has_no_p_displacement(self):
        cfg = InterferometerConfig(ResourceSpec.csv(1.0, 0.8), 0.0, LossModel.lossless())
        mode = output_mode_a(cfg)
        assert mode.mean[1] == pytest.approx(0.0, abs=1e-14)

    def test_matches_full_state_reduction(self):
        cfg = InterferometerConfig(ResourceSpec.csv(0.7, 0.5), 0.9, LossModel.one_arm(0.8))
        via_op = output_mode_a(cfg)
        via_reduce = reduce_to_mode(output_state(cfg), Mode.A)
        assert np.allclose(via_op.cov, via_reduce.cov)
        assert np.allclose(via_op.mean, via_reduce.mean)


class TestOutputGrid:
    def test_matches_scalar_pipeline(self):
        resource = ResourceSpec.csv(0.8, 0.7)
        loss = LossModel(0.85, 0.6)
        phis = np.array([0.0, 0.4, 1.7, 3.9, 6.1])
        covs, means = output_grid(resource, loss, phis)
        for i, phi in enumerate(phis):
            ref = output_state(InterferometerConfig(resource, float(phi), loss))
            assert np.allclose(covs[i], ref.cov, atol=1e-14)
            assert np.allclose(means[i], ref.mean, atol=1e-14)
