import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, sqrtm

from mzi_lab import (
    CutoffTooSmall,
    InterferometerConfig,
    InvalidArgument,
    LossModel,
    ResourceKind,
    ResourceSpec,
    bures_fidelity,
    output_mode_a,
    output_state,
    parity_expectation,
    qfi_closed,
    qfi_numeric,
    symmetric_moment,
)
from mzi_lab import fock


class TestInputStates:
    def test_all_zero_spec_is_ground_state(self):
        state = fock.build_fock_input(ResourceSpec.csv(0.0, 0.0), 8)
        expected = np.zeros((64, 64))
        expected[0, 0] = 1.0
        assert np.allclose(state.dm, expected)

    def test_tmsv_photon_distribution(self):
        s, cutoff = 0.3, 25
        state = fock.build_fock_input(ResourceSpec.tmsv(s), cutoff)
        lam = math.tanh(s)
        diag = np.real(np.diag(state.dm)).reshape(cutoff, cutoff)
        for n in range(6):
            assert diag[n, n] == pytest.approx((1.0 - lam**2) * lam ** (2 * n), rel=1e-10)
        # off the Schmidt diagonal nothing is populated
        assert diag.sum() == pytest.approx(np.trace(np.real(state.dm)), abs=1e-12)

    def test_csv_mean_photon_number(self):
        spec = ResourceSpec.csv(0.5, 0.4)
        state = fock.build_fock_input(spec, 30)
        assert fock.oracle_expectation(state, "n_total") == pytest.approx(
            spec.alpha**2 + math.sinh(spec.r) ** 2, abs=1e-8
        )

    def test_squeezed_vacuum_quadrature_convention(self):
        # X anti-squeezed: <X^2> = e^{2r}/2; this pins the sign convention
        # used by the Gaussian constructors.
        r = 0.4
        state = fock.build_fock_input(ResourceSpec.csv(0.0, r), 30)
        assert fock.oracle_expectation(state, "x2_b") == pytest.approx(
            math.exp(2 * r) / 2.0, rel=1e-9
        )
        assert fock.oracle_expectation(state, "p2_b") == pytest.approx(
            math.exp(-2 * r) / 2.0, rel=1e-9
        )

    def test_kets_follow_their_closed_forms_and_are_the_vacuum_at_zero(self):
        n = np.arange(20)
        log_fact = np.array([math.lgamma(k + 1.0) for k in n])
        alpha, r = 1.3, 0.6
        expected = np.exp(n * math.log(alpha) - 0.5 * log_fact - alpha**2 / 2.0)
        assert fock.coherent_ket(alpha, 20) == pytest.approx(expected, rel=1e-13)
        m = n[::2] // 2
        log_weight = 0.5 * np.array([math.lgamma(2 * k + 1.0) for k in m]) - np.array([math.lgamma(k + 1.0) for k in m])
        even = np.exp(log_weight + m * math.log(math.tanh(r) / 2.0)) / math.sqrt(math.cosh(r))
        assert fock.squeezed_vacuum_ket(r, 20)[::2] == pytest.approx(even, rel=1e-13)
        assert not fock.squeezed_vacuum_ket(r, 20)[1::2].any()
        vacuum = np.eye(1, 9).ravel()
        assert np.array_equal(fock.coherent_ket(0.0, 9), vacuum)
        assert np.array_equal(fock.squeezed_vacuum_ket(0.0, 9), vacuum)

    def test_leakage_guard(self):
        with pytest.raises(CutoffTooSmall):
            fock.build_fock_input(ResourceSpec.tmsv(1.5), 12)

    def test_cutoff_above_100_is_refused(self):
        with pytest.raises(InvalidArgument, match="at most 100"):
            fock.build_fock_input(ResourceSpec.coherent(0.3), 101)

    def test_dense_matrix_is_formed_once(self):
        state = fock.build_fock_input(ResourceSpec.csv(0.3, 0.2), 20)
        assert state.dm is state.dm

    def test_trace_one_and_hermitian(self):
        state = fock.build_fock_input(ResourceSpec.csv(0.7, 0.5), 30)
        assert np.trace(state.dm).real == pytest.approx(1.0, abs=1e-10)
        assert np.abs(state.dm - state.dm.conj().T).max() < 1e-12


class TestUhlmannFidelity:
    def test_mismatched_cutoffs_are_refused(self):
        spec = ResourceSpec.coherent(0.1)
        with pytest.raises(InvalidArgument, match="different cutoffs"):
            fock.uhlmann_fidelity(fock.build_fock_input(spec, 6), fock.build_fock_input(spec, 8))


class TestChannels:
    @pytest.mark.parametrize("cutoff", [12, 28])
    @pytest.mark.parametrize("theta", [math.pi / 4.0, -math.pi / 4.0], ids=["pi/4", "-pi/4"])
    def test_beam_splitter_blocks_are_orthogonal(self, theta, cutoff):
        for idx, block in fock._beam_splitter_blocks(theta, cutoff):
            ns = idx // cutoff
            coupling = np.sqrt((ns[:-1] + 1.0) * (idx % cutoff)[:-1])  # <n+1, m-1| G |n, m>
            generator = np.diag(coupling, -1) - np.diag(coupling, 1)
            assert np.abs(block @ block.T - np.eye(len(idx))).max() < 1e-14
            assert np.abs(block - expm(theta * generator)).max() < 1e-12

    def test_identity_loss(self):
        state = fock.build_fock_input(ResourceSpec.csv(0.6, 0.3), 20)
        out = fock.apply_loss_fock(state, 1.0, 1.0)
        assert np.allclose(out.dm, state.dm)

    def test_phase_is_diagonal(self):
        cutoff = 6
        ket = np.zeros(cutoff * cutoff)
        ket[2 * cutoff + 1] = 1.0  # |2, 1>
        out = fock.apply_phase(fock.FockState(ket[:, None], cutoff), 0.7)
        # |2,1><2,1| is invariant; coherences would pick up e^{-i n phi}
        assert np.allclose(out.dm, np.outer(ket, ket))
        super_ket = (ket + np.roll(ket, cutoff)) / math.sqrt(2.0)  # adds |3,1>
        out = fock.apply_phase(fock.FockState(super_ket[:, None], cutoff), 0.7)
        coherence = out.dm[2 * cutoff + 1, 3 * cutoff + 1]
        assert coherence == pytest.approx(0.5 * np.exp(1j * 0.7), abs=1e-12)

    @pytest.mark.parametrize("eta", [0.0, 0.35, 0.8])
    def test_loss_preserves_trace_and_positivity(self, eta):
        state = fock.build_fock_input(ResourceSpec.csv(0.6, 0.4), 25)
        out = fock.apply_loss_fock(state, eta, 0.9)
        assert np.trace(out.dm).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(out.dm).min() >= -1e-10

    def test_full_loss_gives_vacuum(self):
        state = fock.build_fock_input(ResourceSpec.coherent(0.8), 20)
        out = fock.apply_loss_fock(state, 0.0, 0.0)
        assert out.dm[0, 0].real == pytest.approx(1.0, abs=1e-10)


class TestAgainstGaussianPipeline:
    def test_coherent_through_lossy_interferometer(self):
        resource = ResourceSpec.coherent(0.8)
        loss = LossModel(0.85, 0.6)
        phi = 0.9
        oracle = fock.fock_output_state(resource, phi, loss, 25)
        gauss = output_state(InterferometerConfig(resource, phi, loss))
        for name, indices in (("x_a", (0,)), ("p_a", (1,)), ("x2_a", (0, 0)), ("xx_ab", (0, 2)), ("x4_a", (0, 0, 0, 0))):
            assert fock.oracle_expectation(oracle, name) == pytest.approx(
                symmetric_moment(gauss, indices), abs=1e-8
            )

    def test_parity_of_coherent_state(self):
        alpha = 0.6
        state = fock.build_fock_input(ResourceSpec.coherent(alpha), 25)
        assert fock.oracle_expectation(state, "parity_a") == pytest.approx(
            math.exp(-2.0 * alpha**2), abs=1e-10
        )

    def test_parity_matches_wigner_origin_formula(self):
        resource = ResourceSpec.csv(0.6, 0.4)
        loss = LossModel.symmetric(0.8)
        cfg = InterferometerConfig(resource, 0.7, loss)
        gauss_value = parity_expectation(output_mode_a(cfg))
        oracle = fock.fock_output_state(resource, 0.7, loss, 30)
        assert fock.oracle_expectation(oracle, "parity_a") == pytest.approx(gauss_value, abs=1e-8)

    def test_fidelity_of_nearby_outputs(self):
        resource = ResourceSpec.tmsv(0.5)
        pairs = [
            (LossModel.lossless(), 1e-8),
            (LossModel.symmetric(0.8), 1e-8),
        ]
        for loss, tol in pairs:
            g1 = output_state(InterferometerConfig(resource, 0.4, loss))
            g2 = output_state(InterferometerConfig(resource, 0.6, loss))
            f_gauss = bures_fidelity(g1, g2)
            f_oracle = fock.uhlmann_fidelity(
                fock.fock_output_state(resource, 0.4, loss, 25),
                fock.fock_output_state(resource, 0.6, loss, 25),
            )
            assert f_gauss == pytest.approx(f_oracle, abs=tol)


class TestOracleQfi:
    def test_coherent_lossless(self):
        assert fock.oracle_qfi(ResourceSpec.coherent(0.5), 0.2, LossModel.lossless(), 20) == pytest.approx(
            0.5, abs=1e-6
        )

    def test_tmsv_lossless(self):
        s = 0.4
        value = fock.oracle_qfi(ResourceSpec.tmsv(s), 0.3, LossModel.lossless(), 25)
        assert value == pytest.approx(2.0 * math.sinh(2 * s) ** 2, rel=1e-6)

    def test_tmsv_symmetric_loss(self):
        resource = ResourceSpec.tmsv(0.4)
        loss = LossModel.symmetric(0.8)
        value = fock.oracle_qfi(resource, 0.3, loss, 25)
        assert value == pytest.approx(qfi_closed(resource, loss).qfi, rel=1e-6)

    def test_csv_symmetric_loss_matches_fidelity_route(self):
        resource = ResourceSpec.from_energy(ResourceKind.CSV, 1.0, 0.5)
        loss = LossModel.symmetric(0.7)
        oracle = fock.oracle_qfi(resource, 0.4, loss, 32)
        numeric = qfi_numeric(resource, 0.4, loss).qfi
        assert oracle == pytest.approx(numeric, rel=3e-6)


class TestOracleExpectation:
    def test_unknown_operator(self):
        state = fock.build_fock_input(ResourceSpec.coherent(0.3), 10)
        with pytest.raises(InvalidArgument):
            fock.oracle_expectation(state, "y_a")


# -- dense reference ------------------------------------------------------------


def dense_qfi(resource, phi, loss, cutoff, step=1e-4):
    """SLD Fisher information of the dense output density matrix.

    Eigendecomposes rho and builds ``2 |<i|d rho|j>|² / (p_i + p_j)`` over
    eigenpairs with ``p_i + p_j`` above 1e-14; the phase derivative is a
    central difference at steps ``step`` and ``step/2``, Richardson-refined.
    """

    def rho(angle):
        return fock.fock_output_state(resource, angle, loss, cutoff).dm

    def central_difference(h):
        return (rho(phi + h) - rho(phi - h)) / (2.0 * h)

    drho = (4.0 * central_difference(step / 2.0) - central_difference(step)) / 3.0
    probs, vecs = np.linalg.eigh(rho(phi))
    m = vecs.conj().T @ drho @ vecs
    denom = probs[:, None] + probs[None, :]
    mask = denom > 1e-14
    return float(np.sum(2.0 * np.abs(m[mask]) ** 2 / denom[mask]))


def dense_fidelity(s1, s2):
    """Nuclear norm of ``sqrtm(rho) sqrtm(sigma)`` from the dense matrices."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sqrtm warns on rank-deficient input
        product = sqrtm(s1.dm) @ sqrtm(s2.dm)
    return float(np.sum(np.linalg.svd(product, compute_uv=False)))


SMALL_RESOURCES = [
    ResourceSpec.from_energy(ResourceKind.CSV, 0.05, 0.5),
    ResourceSpec.from_energy(ResourceKind.TMSV, 0.2),
    ResourceSpec.from_energy(ResourceKind.COHERENT, 0.3),
]
LOSSES = [LossModel.lossless(), LossModel.symmetric(0.8), LossModel.one_arm(0.6)]


class TestAgainstDenseReference:
    @pytest.mark.parametrize("loss", LOSSES, ids=["lossless", "symmetric", "one-arm"])
    @pytest.mark.parametrize("resource", SMALL_RESOURCES, ids=lambda spec: spec.kind.value)
    def test_qfi_and_fidelity(self, resource, loss):
        cutoff = 12
        assert fock.oracle_qfi(resource, 0.4, loss, cutoff) == pytest.approx(
            dense_qfi(resource, 0.4, loss, cutoff), abs=1e-10
        )
        s1 = fock.fock_output_state(resource, 0.4, loss, cutoff)
        s2 = fock.fock_output_state(resource, 0.7, loss, cutoff)
        assert fock.uhlmann_fidelity(s1, s2) == pytest.approx(dense_fidelity(s1, s2), abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    resource=st.sampled_from(SMALL_RESOURCES),
    eta_a=st.floats(0.0, 1.0),
    eta_b=st.floats(0.0, 1.0),
    phi=st.floats(-math.pi, math.pi),
)
def test_self_fidelity_and_trace_are_one(resource, eta_a, eta_b, phi):
    state = fock.fock_output_state(resource, phi, LossModel(eta_a, eta_b), 10)
    assert fock.uhlmann_fidelity(state, state) == pytest.approx(1.0, abs=1e-12)
    assert np.trace(state.dm).real == pytest.approx(1.0, abs=1e-12)
