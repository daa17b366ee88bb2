import math

import numpy as np
import pytest

from mzi_lab import (
    GaussianState,
    InterferometerConfig,
    InvalidArgument,
    LossModel,
    NumericFailure,
    QfiMethod,
    ResourceKind,
    ResourceSpec,
    UnsupportedConfiguration,
    bures_fidelity,
    make_input,
    output_state,
    qfi_closed,
    qfi_numeric,
    snl,
    vacuum_state,
)
from conftest import random_physical_state


def coherent_state(alpha_x, alpha_p=0.0):
    mean = np.array([math.sqrt(2.0) * alpha_x, math.sqrt(2.0) * alpha_p, 0.0, 0.0])
    return GaussianState(np.eye(4) / 2.0, mean)


class TestBuresFidelity:
    def test_self_fidelity_pure(self):
        state = make_input(ResourceSpec.csv(1.0, 0.8))
        assert bures_fidelity(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_self_fidelity_mixed(self):
        mixed = output_state(
            InterferometerConfig(ResourceSpec.tmsv(0.9), 0.6, LossModel.symmetric(0.7))
        )
        assert bures_fidelity(mixed, mixed) == pytest.approx(1.0, abs=1e-10)

    def test_coherent_states_overlap(self):
        a, b = coherent_state(0.9, 0.2), coherent_state(0.1, -0.4)
        delta = b.mean - a.mean
        expected = math.exp(-(delta @ delta) / 4.0)
        assert bures_fidelity(a, b) == pytest.approx(expected, rel=1e-12)

    def test_vacuum_vs_squeezed(self):
        # |<0|S(r)|0>| = 1/sqrt(cosh r)
        r = 0.8
        squeezed = make_input(ResourceSpec.csv(0.0, r))
        vac = vacuum_state()
        assert bures_fidelity(vac, squeezed) == pytest.approx(math.cosh(r) ** -0.5, rel=1e-12)

    def test_symmetry(self, rng):
        s1 = random_physical_state(rng)
        s2 = random_physical_state(rng)
        assert bures_fidelity(s1, s2) == pytest.approx(bures_fidelity(s2, s1), abs=1e-12)

    def test_bounded(self, rng):
        for _ in range(10):
            f = bures_fidelity(random_physical_state(rng), random_physical_state(rng))
            assert 0.0 <= f <= 1.0

    def test_nearby_outputs_below_one(self):
        resource = ResourceSpec.tmsv(0.5)
        s1 = output_state(InterferometerConfig(resource, 0.4, LossModel.lossless()))
        s2 = output_state(InterferometerConfig(resource, 0.4 + 1e-3, LossModel.lossless()))
        assert bures_fidelity(s1, s2) < 1.0


class TestLosslessQfi:
    @pytest.mark.parametrize("nbar", [1.0, 7.0, 10.0])
    def test_squeezed_vacuum_resource(self, nbar):
        resource = ResourceSpec.from_energy(ResourceKind.CSV, nbar, 1.0)
        result = qfi_numeric(resource, 0.3, LossModel.lossless())
        assert result.qfi == pytest.approx(nbar * (2.0 * nbar + 3.0), rel=1e-6)
        assert result.method is QfiMethod.NUMERIC_FIDELITY

    @pytest.mark.parametrize("nbar", [1.0, 7.0, 10.0])
    def test_tmsv(self, nbar):
        resource = ResourceSpec.from_energy(ResourceKind.TMSV, nbar)
        result = qfi_numeric(resource, 0.3, LossModel.lossless())
        assert result.qfi == pytest.approx(2.0 * nbar * (nbar + 2.0), rel=1e-6)

    def test_coherent_shot_noise_benchmark(self):
        resource = ResourceSpec.coherent(math.sqrt(10.0))
        result = qfi_numeric(resource, 0.1, LossModel.lossless())
        assert result.qfi == pytest.approx(20.0, rel=1e-6)

    def test_phase_independence(self):
        resource = ResourceSpec.tmsv(1.0)
        values = [qfi_numeric(resource, phi, LossModel.symmetric(0.8)).qfi for phi in (0.0, 0.7, 2.9)]
        assert max(values) - min(values) <= 1e-8 * max(values)

    def test_qcrb_is_inverse(self):
        result = qfi_numeric(ResourceSpec.tmsv(0.7), 0.2, LossModel.lossless())
        assert result.qfi * result.qcrb == pytest.approx(1.0, abs=1e-12)

    def test_bad_step_rejected(self):
        with pytest.raises(InvalidArgument):
            qfi_numeric(ResourceSpec.tmsv(0.7), 0.2, LossModel.lossless(), dphi=0.0)


class TestClosedForms:
    def test_tmsv_lossless_limit(self):
        resource = ResourceSpec.tmsv(0.9)
        assert qfi_closed(resource, LossModel.lossless()).qfi == pytest.approx(
            2.0 * math.sinh(1.8) ** 2, rel=1e-14
        )

    def test_tmsv_symmetric_formula(self):
        s, eta = 0.9, 0.75
        expected = 2.0 * eta**2 * math.sinh(2 * s) ** 2 / (1.0 + 2.0 * eta * (1 - eta) * math.sinh(s) ** 2)
        assert qfi_closed(ResourceSpec.tmsv(s), LossModel.symmetric(eta)).qfi == pytest.approx(
            expected, rel=1e-14
        )

    def test_csv_one_arm_equals_symmetric_at_unit_transmissivity(self):
        resource = ResourceSpec.csv(0.8, 0.7)
        sym = qfi_closed(resource, LossModel.symmetric(1.0)).qfi
        one = qfi_closed(resource, LossModel.one_arm(1.0)).qfi
        lossless = resource.alpha**2 * math.exp(2 * resource.r) + math.sinh(resource.r) ** 2 \
            + resource.alpha**2 + math.sinh(2 * resource.r) ** 2 / 2.0
        assert sym == pytest.approx(lossless, rel=1e-12)
        assert one == pytest.approx(lossless, rel=1e-12)

    @pytest.mark.parametrize("eta", [0.5, 0.7, 0.9])
    @pytest.mark.parametrize("nbar", [1.0, 10.0])
    def test_numeric_matches_closed_on_grid(self, eta, nbar):
        for kind, mu, losses in (
            (ResourceKind.CSV, 0.7, (LossModel.symmetric(eta), LossModel.one_arm(eta))),
            (ResourceKind.TMSV, None, (LossModel.symmetric(eta), LossModel.one_arm(eta))),
        ):
            resource = ResourceSpec.from_energy(kind, nbar, mu)
            for loss in losses:
                closed = qfi_closed(resource, loss).qfi
                numeric = qfi_numeric(resource, 0.4, loss).qfi
                assert numeric == pytest.approx(closed, rel=1e-6)

    def test_tmsv_empty_arm_loss_is_free(self):
        # Loss in the arm without the phase shifter does not change the
        # bound at all: after the first splitter the state is a product and
        # only the phase-arm factor carries information.
        resource = ResourceSpec.tmsv(1.0)
        lossless = qfi_closed(resource, LossModel.lossless()).qfi
        assert qfi_closed(resource, LossModel(1.0, 0.6)).qfi == pytest.approx(lossless, rel=1e-14)
        numeric = qfi_numeric(resource, 0.2, LossModel(1.0, 0.6)).qfi
        assert numeric == pytest.approx(lossless, rel=1e-6)

    def test_tmsv_general_loss_depends_only_on_phase_arm(self):
        resource = ResourceSpec.tmsv(1.0)
        ref = qfi_closed(resource, LossModel.symmetric(0.7)).qfi
        assert qfi_closed(resource, LossModel(0.7, 0.3)).qfi == pytest.approx(ref, rel=1e-14)
        assert qfi_numeric(resource, 0.5, LossModel(0.7, 0.3)).qfi == pytest.approx(ref, rel=1e-6)

    def test_qfi_monotone_in_loss(self):
        resource = ResourceSpec.from_energy(ResourceKind.TMSV, 10.0)
        values = [qfi_closed(resource, LossModel.symmetric(eta)).qfi for eta in (1.0, 0.9, 0.8, 0.7, 0.6, 0.5)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        csv = ResourceSpec.from_energy(ResourceKind.CSV, 10.0, 0.7)
        values = [qfi_closed(csv, LossModel.one_arm(eta)).qfi for eta in (1.0, 0.9, 0.8, 0.7, 0.6, 0.5)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_unsupported_configurations(self):
        with pytest.raises(UnsupportedConfiguration):
            qfi_closed(ResourceSpec.coherent(1.0), LossModel.lossless())
        with pytest.raises(UnsupportedConfiguration):
            qfi_closed(ResourceSpec.csv(1.0, 0.5), LossModel(1.0, 0.7))
        with pytest.raises(UnsupportedConfiguration):
            qfi_closed(ResourceSpec.csv(1.0, 0.5), LossModel(0.9, 0.7))


class TestSnl:
    def test_values(self):
        assert snl(10.0) == pytest.approx(0.05, abs=1e-15)
        assert snl(7.0) == pytest.approx(1.0 / 14.0, rel=1e-15)
        assert snl(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidArgument):
            snl(0.0)

    @pytest.mark.parametrize("nbar", [math.inf, math.nan])
    def test_rejects_non_finite(self, nbar):
        with pytest.raises(InvalidArgument):
            snl(nbar)


class TestDegenerateFisherInformation:
    def test_zero_energy_is_a_numeric_failure(self):
        with pytest.raises(NumericFailure):
            qfi_closed(ResourceSpec.tmsv(0.0), LossModel.lossless())

    def test_closed_form_division_by_zero_is_a_numeric_failure(self):
        # e^r - 2 eta sinh r rounds to 0 at this squeezing
        resource = ResourceSpec.from_energy(ResourceKind.CSV, 1e300, 0.5)
        with pytest.raises(NumericFailure):
            qfi_closed(resource, LossModel.lossless())
