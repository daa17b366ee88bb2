"""Estimator-level phase sensitivities via error propagation.

Each observable yields an error ``var(O) / |d<O>/dφ|^2``.  Supported
observables: parity of output mode a, single quadratures and squared
quadratures of mode a, and products/sums of one quadrature per output mode.
Moments are read off the output covariance and mean, with the fourth-order
ones from the Gaussian (Isserlis) expansion; every observable here involves
only mutually commuting quadratures, so symmetric ordering equals operator
ordering.  Quadrature moments and exact phase slopes come from ``phase_coefficients``;
parity alone samples ``output_grid`` for a stencil slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateWorkingPoint, NumericFailure
from .interferometer import InterferometerConfig, output_grid, phase_coefficients
from .states import SingleModeState

__all__ = [
    "ObservableKind",
    "Observable",
    "SensitivityResult",
    "parity_expectation",
    "sensitivity",
    "sensitivity_profile",
]

#: Central-difference step of the parity slope.
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
    return float(angle) % (2.0 * math.pi) % (2.0 * math.pi)  # twice: -1e-17 % 2π rounds up to 2π


@dataclass(frozen=True)
class Observable:
    """A measured observable, with local-oscillator angles where relevant.

    ``angle = 0`` measures ``X``, ``angle = pi/2`` measures ``P``.  Both
    angles are stored wrapped into ``[0, 2pi)``.
    """

    kind: ObservableKind
    angle_a: float = 0.0
    angle_b: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "angle_a", _wrap_angle(self.angle_a))
        object.__setattr__(self, "angle_b", _wrap_angle(self.angle_b))

    @classmethod
    def parity(cls):
        return cls(ObservableKind.PARITY_A)

    @classmethod
    def quadrature(cls, angle):
        return cls(ObservableKind.QUADRATURE_A, angle)

    @classmethod
    def quadrature_squared(cls, angle):
        return cls(ObservableKind.QUADRATURE_SQUARED_A, angle)

    @classmethod
    def product(cls, angle_a, angle_b):
        return cls(ObservableKind.PRODUCT_QUAD_AB, angle_a, angle_b)

    @classmethod
    def quadrature_sum(cls, angle_a, angle_b):
        return cls(ObservableKind.SUM_QUAD_AB, angle_a, angle_b)


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


def sensitivity(cfg: InterferometerConfig, obs: Observable) -> SensitivityResult:
    """Phase sensitivity of any observable at ``cfg.phi``: a batch of one of the profile.

    Raises:
        DegenerateWorkingPoint: if the signal slope vanishes at ``cfg.phi``.
    """
    signal, variance, slope = (float(v[0]) for v in _evaluate(cfg.resource, cfg.loss, [cfg.phi], obs))
    if abs(slope) < DEGENERATE_SLOPE:
        raise DegenerateWorkingPoint(
            f"signal slope {slope:.3e} at phi={cfg.phi:.6f} is below {DEGENERATE_SLOPE:.0e}"
        )
    return SensitivityResult(variance / (slope * slope), signal, variance, slope, float(cfg.phi))


# -- the quadrature kernel ----------------------------------------------------


def _moments(cov, mean, obs):
    """``m_a, m_b, v_a, v_b, c_ab`` of ``obs``; ``cov`` and ``mean`` may carry a leading axis."""
    wa = np.array([math.cos(obs.angle_a), math.sin(obs.angle_a)])
    wb = np.array([math.cos(obs.angle_b), math.sin(obs.angle_b)])
    ma, mb = mean[..., :2] @ wa, mean[..., 2:] @ wb
    return [ma, mb, wa @ cov[..., :2, :2] @ wa, wb @ cov[..., 2:, 2:] @ wb, wa @ cov[..., :2, 2:] @ wb]


def _observable(kind, moments, slopes):
    """Signal, variance and phase slope from :func:`_moments` and their slopes (floats or arrays)."""
    (ma, mb, va, vb, cab), (dma, dmb, dva, _, dcab) = moments, slopes
    if kind is ObservableKind.QUADRATURE_A:
        return ma, va, dma
    if kind is ObservableKind.QUADRATURE_SQUARED_A:
        return va + ma * ma, 2.0 * (va * va) + 4.0 * va * (ma * ma), dva + 2.0 * ma * dma
    if kind is ObservableKind.PRODUCT_QUAD_AB:
        variance = va * vb + cab * cab + va * (mb * mb) + vb * (ma * ma) + 2.0 * cab * ma * mb
        return cab + ma * mb, variance, dcab + dma * mb + ma * dmb
    return ma + mb, va + vb + 2.0 * cab, dma + dmb


def _quadrature_moments(resource, loss, obs):
    """``phi -> (signal, variance, slope)`` of a quadrature-type observable, exact in ``phi``.

    Each moment ``Σ_k T_k(φ)·k_k`` of :func:`phase_coefficients` (a mean has no degree-2
    terms) has the slope ``Σ_k T_k'(φ)·k_k``; ``phi`` is a float or an array.
    """
    K, M = phase_coefficients(resource, loss)
    coefficients = [m.tolist() for m in _moments(K, np.concatenate([M, np.zeros_like(M)]), obs)]

    def at(phi):
        trig = math if isinstance(phi, float) else np
        c, s = trig.cos(phi), trig.sin(phi)
        cc, ss, cs = c * c, s * s, c * s
        moments, slopes = [], []
        for k0, k1, k2, k3, k4, k5 in coefficients:
            moments.append(k0 + c * k1 + s * k2 + cc * k3 + ss * k4 + cs * k5)
            slopes.append(c * k2 - s * k1 + 2.0 * cs * (k4 - k3) + (cc - ss) * k5)
        return _observable(obs.kind, moments, slopes)

    return at


def _errors(variance, slope):
    """``variance / slope²``; ``inf`` at blind points, negative variances and overflowed moments."""
    square = slope * slope
    ok = (abs(slope) >= DEGENERATE_SLOPE) & (0.0 <= variance) & (variance < math.inf) & (square < math.inf)
    if isinstance(slope, float):
        return variance / square if ok else math.inf
    out = np.full(np.shape(slope), np.inf)
    out[ok] = variance[ok] / square[ok]
    return out


# -- the parity stencil -------------------------------------------------------


def _grid_parity(covs, means):
    # Overflowing moments (n̄ near the float range) give nan, not warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        dets = np.linalg.det(covs[:, :2, :2])
        try:
            sol = np.linalg.solve(covs[:, :2, :2], means[:, :2, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise NumericFailure("mode-a covariance is singular") from exc
        quad = np.einsum("ni,ni->n", means[:, :2], sol)
        return np.exp(-quad / 2.0) / (2.0 * np.sqrt(dets))


#: Grid phases per :func:`output_grid` call of the stencil.  At five stencil
#: phases per grid phase, a block's (900, 4, 4) temporaries take 115 kB,
#: below glibc's default 128 KiB mmap threshold, so a 720-phase scan reuses
#: heap memory instead of mapping and faulting in fresh pages each time.
_STENCIL_BLOCK = 180


def _phase_stencil(resource, loss, phis):
    """Parity of output mode a on a phase grid, with its phase slope.

    The grid and its shifts by ``±h`` and ``±h/2`` (``h = SLOPE_STEP``) go
    through :func:`output_grid`, one call per block of at most
    ``_STENCIL_BLOCK`` grid phases; the slope is the Richardson combination
    of the two central differences.  Each phase's result does not depend on
    the blocking.

    Returns:
        Tuple ``(parity, slope)`` on the unshifted grid.
    """
    phis = np.asarray(phis, dtype=float)
    total = phis.shape[0]
    h = SLOPE_STEP
    shifts = np.array([0.0, h, -h, h / 2.0, -h / 2.0])
    # The outputs are allocated before the blocks, so that every block's
    # temporaries can take the memory the previous block's released.
    value, slope = np.empty((2, total))
    for start in range(0, total, _STENCIL_BLOCK):
        block = phis[start : start + _STENCIL_BLOCK]
        n = block.shape[0]
        v = _grid_parity(*output_grid(resource, loss, (block + shifts[:, None]).ravel()))
        center, s_p, s_m, s_hp, s_hm = v.reshape(5, n)
        coarse = (s_p - s_m) / (2.0 * h)
        fine = (s_hp - s_hm) / h
        value[start : start + n] = center
        slope[start : start + n] = (4.0 * fine - coarse) / 3.0
    return value, slope


def _evaluate(resource, loss, phis, obs):
    """``(signal, variance, slope)`` of ``obs`` on a phase array.

    Parity's variance is ``1 - <Pi>^2`` (it squares to the identity) and its
    slope the stencil's; the quadratures' moments and slopes are exact.
    """
    phis = np.asarray(phis, dtype=float)
    if obs.kind is ObservableKind.PARITY_A:
        signal, slope = _phase_stencil(resource, loss, phis)
        return signal, 1.0 - signal**2, slope
    with np.errstate(over="ignore", invalid="ignore"):
        return _quadrature_moments(resource, loss, obs)(phis)


def sensitivity_profile(resource, loss, phis, obs: Observable):
    """Error-propagation sensitivity on a grid of phases.

    Returns an array shaped like ``phis``; blind working points (slope below
    :data:`DEGENERATE_SLOPE`) and negative variances from roundoff map to
    ``inf`` rather than raising, so optimizers can scan freely.
    """
    _, variance, slope = _evaluate(resource, loss, phis, obs)
    if obs.kind is ObservableKind.PARITY_A:
        # A stencil slope cannot overflow when squared; entering np.errstate
        # would cost each parity probe of the φ search about 1–2 % (2 µs of 100).
        return _errors(variance, slope)
    with np.errstate(over="ignore", invalid="ignore"):
        return _errors(variance, slope)
