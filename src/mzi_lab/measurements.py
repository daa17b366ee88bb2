"""Estimator-level phase sensitivities via error propagation.

Each observable yields an error ``var(O) / |d<O>/dphi|^2``.  Supported
observables: parity of output mode a, single quadratures and squared
quadratures of mode a, and products/sums of one quadrature per output mode.
Moments are read off the output covariance and mean, with the fourth-order
ones from the Gaussian (Isserlis) expansion; every observable here involves
only mutually commuting quadratures, so symmetric ordering equals operator
ordering.  One grid kernel evaluates them on arrays of phases; the scalar
functions are grids of one phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateWorkingPoint, InvalidArgument, NumericFailure
from .interferometer import InterferometerConfig, output_grid
from .states import GaussianState, SingleModeState

__all__ = [
    "ObservableKind",
    "Observable",
    "SensitivityResult",
    "parity_expectation",
    "parity_sensitivity",
    "homodyne_sensitivity",
    "double_hd_csv_sensitivity",
]

#: Central-difference step for phase slopes.
SLOPE_STEP = 1e-5

#: Below this slope magnitude a working point is treated as blind.
DEGENERATE_SLOPE = 1e-10


class ObservableKind(Enum):
    PARITY_A = "parity_a"
    QUADRATURE_A = "quadrature_a"
    QUADRATURE_SQUARED_A = "quadrature_squared_a"
    PRODUCT_QUAD_AB = "product_quad_ab"
    SUM_QUAD_AB = "sum_quad_ab"


def _wrap_angle(angle):
    return float(angle) % (2.0 * math.pi)


@dataclass(frozen=True)
class Observable:
    """A measured observable, with local-oscillator angles where relevant.

    ``angle = 0`` measures ``X``, ``angle = pi/2`` measures ``P``.
    """

    kind: ObservableKind
    angle_a: float = 0.0
    angle_b: float = 0.0

    @classmethod
    def parity(cls):
        return cls(ObservableKind.PARITY_A)

    @classmethod
    def quadrature(cls, angle):
        return cls(ObservableKind.QUADRATURE_A, angle_a=_wrap_angle(angle))

    @classmethod
    def quadrature_squared(cls, angle):
        return cls(ObservableKind.QUADRATURE_SQUARED_A, angle_a=_wrap_angle(angle))

    @classmethod
    def product(cls, angle_a, angle_b):
        return cls(
            ObservableKind.PRODUCT_QUAD_AB,
            angle_a=_wrap_angle(angle_a),
            angle_b=_wrap_angle(angle_b),
        )

    @classmethod
    def quadrature_sum(cls, angle_a, angle_b):
        return cls(
            ObservableKind.SUM_QUAD_AB,
            angle_a=_wrap_angle(angle_a),
            angle_b=_wrap_angle(angle_b),
        )


@dataclass(frozen=True)
class SensitivityResult:
    """Error-propagation result at a fixed working point."""

    error: float
    signal: float
    variance: float
    slope: float
    phi: float


def parity_expectation(mode_a: SingleModeState) -> float:
    """Expectation of ``(-1)^{a†a}``, i.e. pi times the Wigner function at the origin."""
    det = float(np.linalg.det(mode_a.cov))
    if det <= 0.0:
        raise NumericFailure(f"covariance determinant must be positive, got {det}")
    return float(_grid_parity(mode_a.cov[None], mode_a.mean[None])[0])


def signal_and_variance(state: GaussianState, obs: Observable):
    """Mean and variance of a quadrature-type observable on an output state."""
    if obs.kind is ObservableKind.PARITY_A:
        raise InvalidArgument("parity has no quadrature moments; use parity_expectation")
    signal, variance = _grid_signal_variance(state.cov[None], state.mean[None], obs)
    return float(signal[0]), float(variance[0])


def _error_from(signal, variance, slope, phi):
    if abs(slope) < DEGENERATE_SLOPE:
        raise DegenerateWorkingPoint(
            f"signal slope {slope:.3e} at phi={phi:.6f} is below {DEGENERATE_SLOPE:.0e}"
        )
    return SensitivityResult(
        error=float(variance / slope**2),
        signal=float(signal),
        variance=float(variance),
        slope=float(slope),
        phi=float(phi),
    )


def _sensitivity_at(cfg: InterferometerConfig, obs: Observable) -> SensitivityResult:
    signal, variance, slope = _signal_variance_slope(cfg.resource, cfg.loss, [cfg.phi], obs)
    return _error_from(signal[0], variance[0], slope[0], cfg.phi)


def parity_sensitivity(cfg: InterferometerConfig) -> SensitivityResult:
    """Phase sensitivity of the parity measurement on output mode a.

    Parity squares to the identity, so the variance is ``1 - <Pi>^2``; the
    slope is a Richardson-refined central difference of the expectation.
    """
    return _sensitivity_at(cfg, Observable.parity())


def homodyne_sensitivity(cfg: InterferometerConfig, obs: Observable) -> SensitivityResult:
    """Phase sensitivity of a quadrature-type observable.

    Raises:
        InvalidArgument: if ``obs`` is the parity observable.
        DegenerateWorkingPoint: if the signal slope vanishes at ``cfg.phi``.
    """
    if obs.kind is ObservableKind.PARITY_A:
        raise InvalidArgument("use parity_sensitivity for the parity observable")
    return _sensitivity_at(cfg, obs)


def double_hd_csv_sensitivity(
    cfg: InterferometerConfig, angle_a: float, angle_b: float
) -> SensitivityResult:
    """Sensitivity of the two-port quadrature sum ``X_{angle_a} + X_{angle_b}``."""
    return homodyne_sensitivity(cfg, Observable.quadrature_sum(angle_a, angle_b))


# -- the grid kernel ----------------------------------------------------------


def _angle_vectors(obs):
    wa = np.array([math.cos(obs.angle_a), math.sin(obs.angle_a)])
    wb = np.array([math.cos(obs.angle_b), math.sin(obs.angle_b)])
    return wa, wb


def _grid_signal_variance(covs, means, obs):
    wa, wb = _angle_vectors(obs)
    ga = covs[:, :2, :2]
    gb = covs[:, 2:, 2:]
    gab = covs[:, :2, 2:]
    ma = means[:, :2] @ wa
    mb = means[:, 2:] @ wb
    va = np.einsum("i,nij,j->n", wa, ga, wa)
    vb = np.einsum("i,nij,j->n", wb, gb, wb)
    cab = np.einsum("i,nij,j->n", wa, gab, wb)
    if obs.kind is ObservableKind.QUADRATURE_A:
        return ma, va
    if obs.kind is ObservableKind.QUADRATURE_SQUARED_A:
        return va + ma**2, 2.0 * va**2 + 4.0 * va * ma**2
    if obs.kind is ObservableKind.PRODUCT_QUAD_AB:
        signal = cab + ma * mb
        variance = va * vb + cab**2 + va * mb**2 + vb * ma**2 + 2.0 * cab * ma * mb
        return signal, variance
    if obs.kind is ObservableKind.SUM_QUAD_AB:
        return ma + mb, va + vb + 2.0 * cab
    raise InvalidArgument(f"no grid moments for observable kind {obs.kind}")


def _grid_parity(covs, means):
    dets = np.linalg.det(covs[:, :2, :2])
    try:
        sol = np.linalg.solve(covs[:, :2, :2], means[:, :2, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise NumericFailure("mode-a covariance is singular") from exc
    quad = np.einsum("ni,ni->n", means[:, :2], sol)
    return np.exp(-quad / 2.0) / (2.0 * np.sqrt(dets))


def _phase_stencil(resource, loss, phis, values):
    """Output moments on a phase grid, with a derived quantity and its phase slope.

    The grid and its shifts by ``±h`` and ``±h/2`` (``h = SLOPE_STEP``) go
    through one :func:`output_grid` call; the slope of ``values(covs,
    means)`` is the Richardson combination of the two central differences.

    Returns:
        Tuple ``(covs, means, value, slope)`` on the unshifted grid.
    """
    phis = np.asarray(phis, dtype=float)
    n = phis.shape[0]
    h = SLOPE_STEP
    shifts = np.array([0.0, h, -h, h / 2.0, -h / 2.0])
    covs, means = output_grid(resource, loss, (phis + shifts[:, None]).ravel())
    v = values(covs, means)
    center, s_p, s_m, s_hp, s_hm = v.reshape((5, n) + v.shape[1:])
    coarse = (s_p - s_m) / (2.0 * h)
    fine = (s_hp - s_hm) / h
    return covs[:n], means[:n], center, (4.0 * fine - coarse) / 3.0


def _signal_variance_slope(resource, loss, phis, obs):
    if obs.kind is ObservableKind.PARITY_A:
        _, _, signal, slope = _phase_stencil(resource, loss, phis, _grid_parity)
        return signal, 1.0 - signal**2, slope

    def signal_of(covs, means):
        return _grid_signal_variance(covs, means, obs)[0]

    covs, means, signal, slope = _phase_stencil(resource, loss, phis, signal_of)
    return signal, _grid_signal_variance(covs, means, obs)[1], slope


def sensitivity_profile(resource, loss, phis, obs: Observable):
    """Error-propagation sensitivity on a grid of phases.

    Returns an array shaped like ``phis``; blind working points (slope below
    :data:`DEGENERATE_SLOPE`) and negative variances from roundoff map to
    ``inf`` rather than raising, so optimizers can scan freely.
    """
    _, variance, slope = _signal_variance_slope(resource, loss, phis, obs)
    out = np.full(np.shape(phis), np.inf)
    ok = (np.abs(slope) >= DEGENERATE_SLOPE) & (variance >= 0.0)
    out[ok] = variance[ok] / slope[ok] ** 2
    return out
