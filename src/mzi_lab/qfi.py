"""Quantum Fisher information and Cramér-Rao bounds for the lossy interferometer.

The general route is the exact Gaussian moment formula on the state before
the phase shifter; closed forms cover the lossless case and symmetric/one-arm
loss for both resource families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NumericFailure, UnsupportedConfiguration
from .interferometer import LossModel, _J, _post_loss_cov_mean
from .states import OMEGA, GaussianState, ResourceKind, ResourceSpec

__all__ = ["QfiResult", "bures_fidelity", "qfi_numeric", "qfi_closed", "snl", "snl_tie_bound"]

# det(2*cov) = 1 characterizes pure two-mode Gaussian states; used to pick
# the numerically stable fidelity branch.
_PURITY_TOL = 1e-9

_OMEGA_OMEGA = np.kron(OMEGA, OMEGA)

#: Largest residual ``|(s⊗s - Ω⊗Ω)x - vec ds| / |s|`` that :func:`qfi_numeric` accepts;
#: an accepted value is within about three times it of the closed forms, relative.
_RESIDUAL_TOL = 2e-9


@dataclass(frozen=True)
class QfiResult:
    qfi: float
    qcrb: float


def _result(qfi):
    qfi = float(qfi)
    if not (math.isfinite(qfi) and qfi > 0.0):
        raise NumericFailure(f"Fisher information must be finite and > 0, got {qfi}")
    if not math.isfinite(1.0 / qfi):
        raise NumericFailure(f"Fisher information {qfi} is too small for a finite bound")
    return QfiResult(qfi=qfi, qcrb=1.0 / qfi)


def _is_pure(cov):
    return abs(16.0 * np.linalg.det(cov) - 1.0) < _PURITY_TOL


def bures_fidelity(s1: GaussianState, s2: GaussianState) -> float:
    """Bures fidelity (amplitude convention) of two two-mode Gaussian states.

    For pure inputs this reduces to ``|<psi1|psi2>|``.  The general
    expression is

        F = F0 * exp(-delta^T (g1+g2)^{-1} delta / 4),
        F0 = [sqrt(G) + sqrt(L) - sqrt((sqrt(G)+sqrt(L))^2 - D)]^{-1/2},

    with ``D = det(g1+g2)``, ``G = 16 det(Omega g1 Omega g2 - I/4)`` and
    ``L = 16 det(g1 + i Omega/2) det(g2 + i Omega/2)``.  When both states
    are pure, ``L = 0`` and ``G = D`` identically, so the subtracted square
    root is pure cancellation noise; that branch therefore uses the exact
    pure-state limit ``F0 = D^{-1/4}`` instead.

    Raises:
        NumericFailure: if ``g1 + g2`` is singular.
    """
    g1, g2 = s1.cov, s2.cov
    gsum = g1 + g2
    delta = s2.mean - s1.mean
    try:
        shift = float(delta @ np.linalg.solve(gsum, delta))
    except np.linalg.LinAlgError as exc:
        raise NumericFailure("covariance sum is singular") from exc
    det_sum = float(np.linalg.det(gsum))
    if det_sum <= 0.0:
        raise NumericFailure("covariance sum has non-positive determinant")

    if _is_pure(g1) and _is_pure(g2):
        f0 = det_sum**-0.25
    else:
        gamma_big = 16.0 * float(np.linalg.det(OMEGA @ g1 @ OMEGA @ g2 - np.eye(4) / 4.0))
        lam1 = float(np.real(np.linalg.det(g1 + 0.5j * OMEGA)))
        lam2 = float(np.real(np.linalg.det(g2 + 0.5j * OMEGA)))
        lambda_big = 16.0 * max(lam1, 0.0) * max(lam2, 0.0)
        root = math.sqrt(max(gamma_big, 0.0)) + math.sqrt(lambda_big)
        inner = max(root * root - det_sum, 0.0)
        f0 = (root - math.sqrt(inner)) ** -0.5

    fid = f0 * math.exp(-shift / 4.0)
    return min(max(fid, 0.0), 1.0)


def qfi_numeric(resource: ResourceSpec, phi: float, loss: LossModel) -> QfiResult:
    """Fisher information from the exact Gaussian moment formula.

    ``F = ½·vec(ds)ᵀ (s⊗s - Ω⊗Ω)⁺ vec(ds) + 2·ddᵀ s⁻¹ dd`` (Monras,
    arXiv:1303.3682; Šafránek, arXiv:1801.00299), with ``s = 2·cov`` and the
    mean ``d`` of the state before the phase shifter, ``ds = A s + s Aᵀ`` and
    ``dd = A d`` for the generator ``A`` of the rotation of mode a.  The
    phase rotation and the second splitter are fixed symplectic maps once
    differentiated, so ``phi`` does not change the value.

    Raises:
        NumericFailure: if the moments overflow, or if the pseudo-inverse
            cannot resolve the state: the solve's residual, relative to
            ``|s|``, exceeds ``_RESIDUAL_TOL``.  That happens for nearly pure,
            very strongly squeezed states (a lossless TMSV from n̄ ≈ 1,700).
    """
    cov, mean = _post_loss_cov_mean(resource, loss)
    sigma = 2.0 * cov
    dsigma = (_J @ sigma + sigma @ _J.T).reshape(-1)
    dmean = _J @ mean
    with np.errstate(all="ignore"):
        system = np.multiply.outer(sigma, sigma).transpose(0, 2, 1, 3).reshape(16, 16) - _OMEGA_OMEGA
        try:
            x = np.linalg.pinv(system, rcond=1e-12, hermitian=True) @ dsigma
            displacement = dmean @ np.linalg.solve(sigma, dmean)
        except np.linalg.LinAlgError as exc:
            raise NumericFailure(f"moment formula failed: {exc}") from exc
        residual = np.linalg.norm(system @ x - dsigma) / np.linalg.norm(sigma)
    if not residual <= _RESIDUAL_TOL:
        raise NumericFailure(f"moment formula cannot resolve the state: residual {residual:.3g}")
    return _result(0.5 * (dsigma @ x) + 2.0 * displacement)


def _qfi_csv_symmetric(alpha, r, eta):
    # Squeezed-term coefficients validated against both the moment formula
    # and the Fock-basis SLD oracle; they reduce to sinh^2(r)*(3 + 2 sinh^2 r)
    # at eta = 1.
    sh, eh = math.sinh(r), math.exp(r)
    sh2 = sh * sh
    squeezed = eta * sh2 * (1.0 + 2.0 * eta + 2.0 * eta * (2.0 - eta) * sh2)
    squeezed /= 1.0 + 2.0 * eta * (1.0 - eta) * sh2
    coherent = 2.0 * alpha**2 * eta * (eh - eta * sh) / (eh - 2.0 * eta * sh)
    return squeezed + coherent


def _qfi_csv_one_arm(alpha, r, eta):
    sh, ch = math.sinh(r), math.cosh(r)
    sh2r = math.sinh(2.0 * r)
    return 2.0 * eta * (
        sh * sh / (1.0 + eta)
        + alpha**2 * ch / (ch - eta * sh)
        + eta * sh2r * sh2r / (3.0 + eta**2 + (1.0 - eta**2) * math.cosh(2.0 * r))
    )


def _qfi_tmsv(s, eta):
    sh2s = math.sinh(2.0 * s)
    return 2.0 * eta**2 * sh2s * sh2s / (1.0 + 2.0 * eta * (1.0 - eta) * math.sinh(s) ** 2)


def qfi_closed(resource: ResourceSpec, loss: LossModel) -> QfiResult:
    """Closed-form Fisher information for the supported loss patterns.

    TMSV resources are covered for arbitrary ``(eta_a, eta_b)``: the bound
    depends only on the phase-arm transmissivity.  CSV resources are covered
    for lossless, symmetric, and phase-arm-only loss; their output modes stay
    correlated, so no comparable closed form exists for loss in arm b alone.

    Raises:
        UnsupportedConfiguration: for other resources or loss patterns.
        NumericFailure: if the formula divides by zero, overflows, or gives
            no finite positive information (a zero-energy input).
    """
    eta_a, eta_b = loss.eta_a, loss.eta_b
    if resource.kind is ResourceKind.TMSV:
        # After the first splitter a TMSV is a product of two single-mode
        # squeezed vacua and only the phase-arm factor carries information,
        # so loss in arm b cannot change the bound: only eta_a enters.
        form, args = _qfi_tmsv, (resource.s, eta_a)
    elif resource.kind is ResourceKind.CSV and eta_a == eta_b:
        form, args = _qfi_csv_symmetric, (resource.alpha, resource.r, eta_a)
    elif resource.kind is ResourceKind.CSV and eta_b == 1.0:
        form, args = _qfi_csv_one_arm, (resource.alpha, resource.r, eta_a)
    elif resource.kind is ResourceKind.CSV:
        raise UnsupportedConfiguration(f"no CSV closed form for {loss}")
    else:
        raise UnsupportedConfiguration(f"no closed form for resource kind {resource.kind}")
    try:
        value = form(*args)
    except (ZeroDivisionError, OverflowError) as exc:
        # e.g. e^r - 2 eta sinh r rounds to 0 at huge squeezing
        raise NumericFailure(f"closed-form Fisher information failed: {exc}") from exc
    return _result(value)


def snl(nbar: float) -> float:
    """Shot-noise limit ``1/(2 nbar)``, the coherent-state benchmark."""
    if not (math.isfinite(nbar) and nbar > 0.0):
        raise InvalidArgument(f"nbar must be finite and > 0, got {nbar}")
    benchmark = 1.0 / (2.0 * nbar)
    if not math.isfinite(benchmark):
        raise InvalidArgument(f"nbar {nbar} is too small: its shot-noise limit 1/(2 nbar) overflows")
    return benchmark


def snl_tie_bound(benchmark: float) -> float:
    """The error below which a scheme beats the SNL ``benchmark``.

    An error within a relative 1e-12 of the SNL ties it and does not beat
    it: a lossless coherent state reaches the SNL exactly, and the exact
    routes put it there only to roundoff (7e-16).
    """
    return benchmark * (1.0 - 1e-12)
