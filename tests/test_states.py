import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzi_lab import (
    OMEGA,
    GaussianState,
    InvalidArgument,
    LossModel,
    Mode,
    ResourceKind,
    ResourceSpec,
    apply_loss,
    apply_symplectic,
    beam_splitter,
    make_input,
    reduce_to_mode,
    symmetric_moment,
)
from mzi_lab import fock
from conftest import is_physical, photon_number, random_physical_state, rotation_pair, vacuum


class TestConstructors:
    def test_zero_parameter_csv_is_vacuum(self):
        state = make_input(ResourceSpec.csv(0.0, 0.0))
        assert np.allclose(state.cov, np.eye(4) / 2.0)
        assert np.allclose(state.mean, 0.0)

    def test_tmsv_mean_photon_number(self):
        s = math.asinh(math.sqrt(5.0))
        state = make_input(ResourceSpec.tmsv(s))
        assert photon_number(state) == pytest.approx(10.0, abs=1e-12)

    def test_csv_squeezing_convention(self):
        # X is anti-squeezed: mode-b block diag(e^2, e^-2)/2 for r = 1.
        # (Cross-checked against Fock-basis quadrature variances in
        # test_fock_oracle.)
        state = make_input(ResourceSpec.csv(1.0, 1.0))
        assert state.cov[2, 2] == pytest.approx(3.694528049465325, rel=1e-14)
        assert state.cov[3, 3] == pytest.approx(0.06766764161830635, rel=1e-14)
        assert state.cov[2, 3] == 0.0

    def test_coherent_mean(self):
        state = make_input(ResourceSpec.coherent(1.25))
        assert state.mean[0] == pytest.approx(1.25 * math.sqrt(2.0), rel=1e-15)
        assert np.allclose(state.cov, np.eye(4) / 2.0)

    def test_negative_parameters_rejected(self):
        with pytest.raises(InvalidArgument):
            ResourceSpec.csv(-0.1, 0.0)
        with pytest.raises(InvalidArgument):
            ResourceSpec.tmsv(-1.0)

    @pytest.mark.parametrize("nbar", [math.inf, math.nan])
    def test_from_energy_rejects_non_finite_energy(self, nbar):
        # mu as a numpy float, as the optimizers' grids pass it
        for kind, mu in ((ResourceKind.CSV, np.float64(1.0)), (ResourceKind.TMSV, None), (ResourceKind.COHERENT, None)):
            with pytest.raises(InvalidArgument):
                ResourceSpec.from_energy(kind, nbar, mu)

    def test_from_energy_roundtrip(self):
        for kind, mu in ((ResourceKind.CSV, 0.37), (ResourceKind.TMSV, None), (ResourceKind.COHERENT, None)):
            spec = ResourceSpec.from_energy(kind, 8.5, mu)
            assert spec.nbar == pytest.approx(8.5, rel=1e-12)
            assert photon_number(make_input(spec)) == pytest.approx(8.5, rel=1e-12)


class TestCoherentIsCsvAtZeroSqueezing:
    """A coherent resource is built as the CSV resource at r = 0, in every layer that builds a state."""

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0, math.sqrt(7.0)])
    def test_same_state_energy_and_fock_factor_bit_for_bit(self, alpha):
        coherent, csv = ResourceSpec.coherent(alpha), ResourceSpec.csv(alpha, 0.0)
        gauss_coherent, gauss_csv = make_input(coherent), make_input(csv)
        assert np.array_equal(gauss_coherent.cov, gauss_csv.cov)
        assert np.array_equal(gauss_coherent.mean, gauss_csv.mean)
        assert coherent.nbar == csv.nbar
        factor_coherent = fock.build_fock_input(coherent, 40).factor
        assert np.array_equal(factor_coherent, fock.build_fock_input(csv, 40).factor)


class TestGaussianStateChecks:
    @pytest.mark.parametrize("cov, mean", [(np.eye(3) / 2.0, np.zeros(3)), (np.eye(4) / 2.0, np.zeros(3))])
    def test_wrong_shapes_are_rejected(self, cov, mean):
        with pytest.raises(InvalidArgument, match="4x4 covariance"):
            GaussianState(cov, mean)

    def test_asymmetric_covariance_is_rejected(self):
        cov = np.eye(4) / 2.0
        cov[0, 1] = 1e-6
        with pytest.raises(InvalidArgument, match="not symmetric"):
            GaussianState(cov, np.zeros(4))

    def test_roundoff_asymmetry_is_averaged_away(self):
        cov = np.eye(4) / 2.0
        cov[0, 1] = 1e-14
        state = GaussianState(cov, np.zeros(4))
        assert state.cov[0, 1] == state.cov[1, 0] == 5e-15


class TestMeanPhotonNumber:
    def test_csv_formula(self):
        state = make_input(ResourceSpec.csv(1.3, 0.8))
        assert photon_number(state) == pytest.approx(1.3**2 + math.sinh(0.8) ** 2, rel=1e-12)

    def test_tmsv_s_equal_one(self):
        state = make_input(ResourceSpec.tmsv(1.0))
        assert photon_number(state) == pytest.approx(2.7621956910836314, rel=1e-14)


class TestSymplectics:
    def test_beam_splitter_zero_is_identity(self):
        assert np.allclose(beam_splitter(0.0), np.eye(4))

    def test_beam_splitter_balanced_entries(self):
        m = beam_splitter(math.pi / 4.0)
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        expected = np.array(
            [
                [inv_sqrt2, 0, inv_sqrt2, 0],
                [0, inv_sqrt2, 0, inv_sqrt2],
                [-inv_sqrt2, 0, inv_sqrt2, 0],
                [0, -inv_sqrt2, 0, inv_sqrt2],
            ]
        )
        assert np.allclose(m, expected)

    def test_beam_splitter_inverse_pair(self):
        assert np.allclose(beam_splitter(0.63) @ beam_splitter(-0.63), np.eye(4), atol=1e-15)

    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4.0, -math.pi / 4.0, 2.0])
    def test_generated_matrices_are_symplectic(self, theta):
        m = beam_splitter(theta)
        assert np.abs(m @ OMEGA @ m.T - OMEGA).max() <= 1e-12


class TestApplySymplectic:
    def test_identity_leaves_state(self):
        state = make_input(ResourceSpec.csv(1.0, 0.5))
        out = apply_symplectic(state, np.eye(4))
        assert np.allclose(out.cov, state.cov)
        assert np.allclose(out.mean, state.mean)

    def test_vacuum_invariant_under_beam_splitter(self):
        out = apply_symplectic(vacuum(), beam_splitter(0.77))
        assert np.allclose(out.cov, np.eye(4) / 2.0, atol=1e-15)

    def test_tmsv_decouples_on_balanced_splitter(self):
        state = apply_symplectic(make_input(ResourceSpec.tmsv(0.9)), beam_splitter(math.pi / 4.0))
        assert np.abs(state.cov[:2, 2:]).max() < 1e-14
        # each mode is a single-mode squeezed vacuum
        assert state.cov[0, 0] == pytest.approx(math.exp(1.8) / 2.0, rel=1e-13)
        assert state.cov[1, 1] == pytest.approx(math.exp(-1.8) / 2.0, rel=1e-13)

    def test_non_symplectic_rejected(self):
        with pytest.raises(InvalidArgument):
            apply_symplectic(vacuum(), np.diag([2.0, 2.0, 1.0, 1.0]))


class TestApplyLoss:
    def test_full_transmission_is_identity(self, rng):
        state = random_physical_state(rng)
        out = apply_loss(state, 1.0, 1.0)
        assert np.allclose(out.cov, state.cov)
        assert np.allclose(out.mean, state.mean)

    def test_zero_transmission_gives_vacuum(self, rng):
        out = apply_loss(random_physical_state(rng), 0.0, 0.0)
        assert np.allclose(out.cov, np.eye(4) / 2.0, atol=1e-14)
        assert np.allclose(out.mean, 0.0)

    def test_coherent_amplitude_scaling(self):
        state = make_input(ResourceSpec.coherent(1.0))
        out = apply_loss(state, 0.64, 0.64)
        assert out.mean[0] == pytest.approx(0.8 * state.mean[0], rel=1e-14)
        assert np.allclose(out.cov, np.eye(4) / 2.0, atol=1e-15)

    def test_out_of_range_transmissivity(self):
        with pytest.raises(InvalidArgument):
            apply_loss(vacuum(), 1.2, 1.0)

    @pytest.mark.parametrize("name, etas", [("eta_a", (1.5, 1.0)), ("eta_b", (1.0, 1.5))])
    @pytest.mark.parametrize(
        "lossy",
        [
            LossModel,
            lambda a, b: apply_loss(vacuum(), a, b),
            lambda a, b: fock.apply_loss_fock(fock.build_fock_input(ResourceSpec.coherent(0.0), 2), a, b),
        ],
        ids=["LossModel", "apply_loss", "apply_loss_fock"],
    )
    def test_every_loss_rejects_a_transmissivity_above_one(self, lossy, name, etas):
        with pytest.raises(InvalidArgument, match=rf"^{name} must lie in \[0, 1\], got 1\.5$"):
            lossy(*etas)

    def test_commutes_with_phase_shifter(self, rng):
        state = random_physical_state(rng)
        first = apply_loss(apply_symplectic(state, rotation_pair(0.9, 0.0)), 0.7, 0.4)
        second = apply_symplectic(apply_loss(state, 0.7, 0.4), rotation_pair(0.9, 0.0))
        assert np.allclose(first.cov, second.cov, atol=1e-13)
        assert np.allclose(first.mean, second.mean, atol=1e-13)


class TestReduceToMode:
    def test_vacuum(self):
        mode = reduce_to_mode(vacuum(), Mode.A)
        assert np.allclose(mode.cov, np.eye(2) / 2.0)

    def test_tmsv_reduces_to_thermal(self):
        # Partial trace of a two-mode squeezed vacuum is thermal with
        # cov = cosh(2s) I / 2; 0.5927326091211339 is the Fock-oracle
        # quadrature variance at s = 0.3, cutoff 40.
        mode = reduce_to_mode(make_input(ResourceSpec.tmsv(0.3)), Mode.B)
        assert np.allclose(mode.cov, 0.5927326091211339 * np.eye(2), rtol=1e-13)
        assert np.allclose(mode.mean, 0.0)

    def test_csv_mode_a_is_coherent(self):
        mode = reduce_to_mode(make_input(ResourceSpec.csv(0.8, 1.1)), Mode.A)
        assert np.allclose(mode.cov, np.eye(2) / 2.0)
        assert mode.mean[0] == pytest.approx(0.8 * math.sqrt(2.0), rel=1e-15)
        assert mode.mean[1] == 0.0


def _char_function_moment(state, indices, h=0.05):
    """Moment from finite differences of the characteristic function.

    chi(xi) = exp(-xi^T g xi / 2 + i d^T xi); the n-th moment is
    (1/i^n) d^n chi evaluated at 0, here via nested central differences
    with two Richardson refinement levels (O(h^6) residual).
    """

    def chi(xi):
        return np.exp(-0.5 * xi @ state.cov @ xi + 1j * state.mean @ xi)

    def derivative(fn, index_list, step):
        if not index_list:
            return fn(np.zeros(4))
        first, rest = index_list[0], index_list[1:]

        def shifted(offset):
            def inner(xi):
                out = np.array(xi, dtype=float)
                out[first] += offset
                return fn(out)

            return derivative(inner, rest, step)

        return (shifted(step) - shifted(-step)) / (2.0 * step)

    idx = list(indices)
    d1, d2, d4 = (derivative(chi, idx, h / k) for k in (1.0, 2.0, 4.0))
    r1 = (4.0 * d2 - d1) / 3.0
    r2 = (4.0 * d4 - d2) / 3.0
    value = (16.0 * r2 - r1) / 15.0
    return ((1.0 / 1j) ** len(idx) * value).real


class TestSymmetricMoment:
    def test_vacuum_second_moment(self):
        assert symmetric_moment(vacuum(), (0, 0)) == pytest.approx(0.5, abs=1e-15)

    def test_zero_mean_fourth_moment_wick(self, rng):
        state = random_physical_state(rng)
        state = GaussianState(state.cov, np.zeros(4))
        expected = 3.0 * state.cov[0, 0] ** 2
        assert symmetric_moment(state, (0, 0, 0, 0)) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("indices", [(0, 1, 2, 3), (0, 0, 2, 2), (1, 1, 1, 1), (3, 0, 3, 1)])
    def test_fourth_moment_matches_the_written_out_wick_sum(self, rng, indices):
        i, j, k, l = indices
        for _ in range(3):
            state = random_physical_state(rng, max_squeeze=0.6, max_mean=0.8)
            g, d = state.cov, state.mean
            pairs = g[i, j] * g[k, l] + g[i, k] * g[j, l] + g[i, l] * g[j, k]
            with_means = (
                g[i, j] * d[k] * d[l] + g[i, k] * d[j] * d[l] + g[i, l] * d[j] * d[k]
                + g[j, k] * d[i] * d[l] + g[j, l] * d[i] * d[k] + g[k, l] * d[i] * d[j]
            )
            expected = pairs + with_means + d[i] * d[j] * d[k] * d[l]
            assert symmetric_moment(state, indices) == pytest.approx(expected, rel=1e-13, abs=1e-15)

    def test_unsupported_length(self):
        with pytest.raises(InvalidArgument):
            symmetric_moment(vacuum(), (0, 1, 2))

    def test_out_of_range_index(self):
        with pytest.raises(InvalidArgument):
            symmetric_moment(vacuum(), (4,))

    @pytest.mark.parametrize("indices", [(1,), (0, 1), (2, 2), (0, 1, 2, 3), (0, 0, 2, 2), (1, 1, 1, 1)])
    def test_matches_characteristic_function(self, rng, indices):
        for _ in range(3):
            state = random_physical_state(rng, max_squeeze=0.6, max_mean=0.8)
            expected = _char_function_moment(state, indices)
            assert symmetric_moment(state, indices) == pytest.approx(expected, abs=1e-6)


@st.composite
def physical_states(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_physical_state(np.random.default_rng(seed))


class TestPhysicality:
    @given(physical_states(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_loss_preserves_physicality(self, state, eta_a, eta_b):
        assert is_physical(apply_loss(state, eta_a, eta_b))

    @given(physical_states(), st.floats(-8.0, 8.0), st.floats(-8.0, 8.0))
    @settings(max_examples=40, deadline=None)
    def test_symplectic_preserves_physicality(self, state, theta, phi):
        out = apply_symplectic(state, beam_splitter(theta) @ rotation_pair(phi, 0.0))
        assert is_physical(out)
