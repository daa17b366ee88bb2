"""Working-point, resource-ratio and loss-threshold optimizers.

A quadrature readout's phase optimum is exact: the least error over the
roots of a trigonometric polynomial (:func:`_min_over_phi`).  Every other
search is a deterministic grid-then-refine 1-D routine: a coarse scan locates
the global basin and golden section refines it; the parity and
double-homodyne phases then take the vertex of a parabola fitted through
three off-center points.  At a degenerate working point (signal variance and
slope both vanish) errors evaluated too close to it are roundoff in the
variance, while a parabola fitted a safe distance away recovers the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidArgument, MziLabError, NoOptimum, NumericFailure, UnsupportedConfiguration
from .interferometer import LossModel, phase_coefficients
from .interferometer import output_grid  # noqa: F401 (perfbench's tracing test checks this binding)
from .measurements import DEGENERATE_SLOPE, Observable, ObservableKind, sensitivity_profile
from .measurements import _errors, _quadrature_moments, _wrap_angle
from .qfi import qfi_closed, qfi_numeric, snl, snl_tie_bound
from .states import ResourceKind, ResourceSpec

__all__ = [
    "Scheme",
    "LossKind",
    "SchemePoint",
    "ThresholdResult",
    "SweepVariable",
    "SweepSpec",
    "SweepRow",
    "optimal_csv_ratio",
    "scheme_sensitivity",
    "snl_threshold",
    "run_sweep",
]

_TWO_PI = 2.0 * math.pi
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Offset of the parabola-fit stencil from the converged working point.
#: Large enough that sensitivities evaluated there are far above their
#: roundoff floor even next to a degenerate optimum, small enough that the
#: quartic term of the basin does not bias the fitted vertex.
_POLISH_STEP = 1e-4


class Scheme(Enum):
    QFI = "qfi"
    PARITY = "parity"
    SINGLE_HD = "single-hd"
    DOUBLE_HD = "double-hd"


class LossKind(Enum):
    SYMMETRIC = "symmetric"
    ONE_ARM = "one-arm"

    def model(self, loss_rate: float) -> LossModel:
        if not 0.0 <= loss_rate <= 1.0:
            raise InvalidArgument(f"loss rate must lie in [0, 1], got {loss_rate}")
        eta = 1.0 - loss_rate
        if self is LossKind.SYMMETRIC:
            return LossModel.symmetric(eta)
        return LossModel.one_arm(eta)


def golden_section(fn, lo, hi, tol):
    """Golden-section minimization of ``fn`` on ``[lo, hi]``.

    Returns ``(x, fn(x))`` for the better of the two interior probes once
    the bracket is narrower than ``tol``, or once the probes no longer lie
    strictly inside it (its ends are then floats a few ulps apart).
    """
    a, b = float(lo), float(hi)
    c = b - (b - a) * _INVPHI
    d = a + (b - a) * _INVPHI
    fc, fd = fn(c), fn(d)
    while b - a > tol and a < c < d < b:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INVPHI
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INVPHI
            fd = fn(d)
    return (c, fc) if fc < fd else (d, fd)


def _fit_parabola(fn, x0, h):
    """Parabola through ``x0 - h``, ``x0 + h``, ``x0 + 2h``.

    The stencil deliberately avoids ``x0`` itself: at a degenerate working
    point the sensitivity there is pure roundoff.  Returns
    ``(vertex_x, vertex_value, alpha)`` or ``None`` for unusable fits.
    """
    fm, fp, f2 = fn(x0 - h), fn(x0 + h), fn(x0 + 2.0 * h)
    if not all(map(math.isfinite, (fm, fp, f2))):
        return None
    beta = (fp - fm) / 2.0
    alpha = (f2 - fp - beta) / 3.0
    if alpha <= 0.0:
        return None
    t = -beta / (2.0 * alpha)
    if abs(t) > 2.5:
        return None
    value = (fp - alpha - beta) - beta * beta / (4.0 * alpha)
    if not math.isfinite(value):
        return None
    return x0 + t * h, max(value, 0.0), alpha


def _parabola_polish(fn, x0, f0):
    """Refine a converged minimum by fitting parabolas next to it.

    The first fit uses the default stencil; if the fitted quadratic region
    (half-width ``h * sqrt(value/alpha)``) turns out much narrower than the
    stencil, the fit is repeated at a proportionally smaller offset so the
    basin's quartic term cannot bias the vertex.  Near degenerate optima the
    basin width also sets the roundoff floor, which keeps the shrunken
    stencil safely conditioned.
    """
    best_x, best_f = x0, f0
    h = _POLISH_STEP
    for _ in range(3):
        fit = _fit_parabola(fn, best_x, h)
        if fit is None:
            h /= 4.0
            continue
        best_x, best_f, alpha = fit
        if best_f <= 0.0:
            break
        quad_halfwidth = h * math.sqrt(best_f / alpha)
        h_next = min(max(quad_halfwidth / 50.0, 5e-6), _POLISH_STEP)
        if h_next >= 0.8 * h:
            break
        h = h_next
    return best_x, best_f


def _refine_minimum(fn, lo, hi, tol):
    # The polish sets the final accuracy; golden section only needs to land inside the basin's
    # quadratic region.  An error that is not finite and > 0 there comes from roundoff.
    x, f = _parabola_polish(fn, *golden_section(fn, lo, hi, tol))
    if not (math.isfinite(f) and f > 0.0):
        raise NumericFailure(f"phase optimum {f!r} is not a finite positive error")
    return x, f


# -- scheme evaluation --------------------------------------------------------


@dataclass(frozen=True)
class SchemePoint:
    """Optimized estimation error of one scheme at one configuration."""

    scheme: Scheme
    resource: ResourceSpec
    delta2phi: float
    phi_star: float
    mu: float


#: 16 phases resolve a quadrature error V/S²: V, S and g = V′S − 2VS′ have degree ≤ 4, 2 and 6.
_ROOT_PHIS = (np.arange(16) * (_TWO_PI / 16)).tolist()
_ROOT_GAPS = np.subtract.outer(_ROOT_PHIS, _ROOT_PHIS)  # φ_l − φ_j
_ROOT_DIFF = -sum(k * np.sin(k * _ROOT_GAPS) for k in range(1, 8)) / 8.0  # d/dφ of the 16-sample interpolant
_ROOT_RFFT = np.exp(-1j * np.outer(np.arange(7), _ROOT_PHIS))  # G_0 … G_6 of 16 samples
_LINEAR_KINDS = (ObservableKind.QUADRATURE_A, ObservableKind.SUM_QUAD_AB)  # g of degree 3


def _min_over_phi(resource, loss, obs):
    """Phase-optimized error of a fixed observable, as ``(phi_star, value)``.

    A quadrature readout's error V/S² is stationary where g = V′S − 2VS′
    vanishes: at the unit-circle roots of Σ_k G_k·z^(k+d), z = e^{iφ}, with
    G_k (G_-k = conj G_k) g's Fourier coefficients from 16 samples and d its
    degree.  The least error over them is emitted as evaluated there; errors
    within 1e-12 relative of it tie, going to the smallest φ in [0, 2π).
    Parity keeps a 720-point scan, golden section and the parabola polish.

    Raises:
        NoOptimum: if the observable is blind at every phase.
        NumericFailure: if the moments overflow, or if the error moves by
            more than 1e-6 relative within its root's roundoff.
    """
    if obs.kind is ObservableKind.PARITY_A:
        grid = np.linspace(0.0, _TWO_PI, 720, endpoint=False)
        values = sensitivity_profile(resource, loss, grid, obs)
        if not np.isfinite(values).any():
            raise NoOptimum("observable is blind at every phase on the grid")
        phi0, spacing = grid[int(np.argmin(values))], _TWO_PI / 720
        fn = lambda phi: float(sensitivity_profile(resource, loss, [phi], obs)[0])  # noqa: E731
        return _refine_minimum(fn, phi0 - spacing, phi0 + spacing, 1e-5)

    moments = _quadrature_moments(resource, loss, obs)
    error = lambda phi: _errors(*moments(phi)[1:])  # noqa: E731 (float phases: sensitivity()'s bits)
    with np.errstate(all="ignore"):  # overflowed moments are refused below
        vs = np.array([moments(phi)[1:] for phi in _ROOT_PHIS])
        (v, s), (dv, ds) = vs.T, (_ROOT_DIFF @ vs).T
        if (np.abs(s) < DEGENERATE_SLOPE).all():
            raise NoOptimum("observable is blind at every phase")
        scale = np.abs(dv * s).max() + 2.0 * np.abs(v * ds).max()
        g = _ROOT_RFFT[: 4 if obs.kind in _LINEAR_KINDS else 7] @ (dv * s - 2.0 * v * ds)
        if not (np.isfinite(scale) and np.isfinite(g).all()):
            raise NumericFailure("phase optimum is unresolved: the moments overflow")
        degree = max(np.flatnonzero(np.abs(g) > 1e-13 * np.abs(g).max()), default=0)
        poly = np.concatenate([g[degree::-1], g[1 : degree + 1].conj()])
        roots = np.roots(poly)
        phis = sorted((_wrap_angle(np.angle(z)), j) for j, z in enumerate(roots) if abs(abs(z) - 1.0) < 1e-3)
        values = [error(phi) for phi, _ in phis]
        least = min(values, default=math.inf)
        if not (math.isfinite(least) and least > 0.0):
            raise NumericFailure(f"phase optimum {least!r} is not a finite positive error")
        (phi_star, j), value = next((p, e) for p, e in zip(phis, values) if e <= least * (1.0 + 1e-12))
        # Coefficient roundoff, up to 16ε·scale = 3.6e-15·scale each, moves a root by its sum over |p′(z)|.
        step = float(3.6e-15 * scale * poly.size / abs(np.polyval(np.polyder(poly), roots[j])))
    spread = max(abs(error(phi_star + d) - value) for d in (-step, step)) / value if step < 1.0 else math.inf
    if not spread <= 1e-6:
        raise NumericFailure(f"phase optimum is unresolved: its error moves {spread:.1e} within {step:.1e} rad")
    return phi_star, value


#: Newton step cap for the LO angles: about one cell of the angle grid, whose
#: spacing is 2π/24 ≈ 0.26.
_ANGLE_STEP_CAP = 0.3
_NEWTON_ITERS = 30


def _sum_quad_objective(cov, dmean):
    """The quadrature-sum error ``f = V/S²`` in the two LO angles, with exact derivatives.

    For ``u = (cos θa, sin θa)``, ``u' = (-sin θa, cos θa)`` and ``v``, ``v'``
    likewise for θb, with ``A``, ``B``, ``C`` the aa, bb and ab blocks of
    ``cov`` and ``p``, ``q`` the a and b halves of ``dmean``:
    ``V = uᵀAu + vᵀBv + 2uᵀCv`` and ``S = uᵀp + vᵀq``.

    Returns ``local(ta, tb) -> (f, f_a, f_b, f_aa, f_ab, f_bb)``; ``f`` is
    ``inf`` and the derivatives ``nan`` where ``|S| < DEGENERATE_SLOPE``.
    """
    (a00, a01, c00, c01), (_, a11, c10, c11), (_, _, b00, b01), (_, _, _, b11) = cov.tolist()
    p0, p1, q0, q1 = dmean.tolist()
    trace_a, trace_b = a00 + a11, b00 + b11

    def local(ta, tb):
        ca, sa = math.cos(ta), math.sin(ta)
        cb, sb = math.cos(tb), math.sin(tb)
        s = ca * p0 + sa * p1 + cb * q0 + sb * q1
        if abs(s) < DEGENERATE_SLOPE:
            return (math.inf,) + (math.nan,) * 5
        s_a, s_b = ca * p1 - sa * p0, cb * q1 - sb * q0
        s_aa, s_bb = -(ca * p0 + sa * p1), -(cb * q0 + sb * q1)
        au0, au1 = a00 * ca + a01 * sa, a01 * ca + a11 * sa  # Au
        bv0, bv1 = b00 * cb + b01 * sb, b01 * cb + b11 * sb  # Bv
        cv0, cv1 = c00 * cb + c01 * sb, c10 * cb + c11 * sb  # Cv
        cw0, cw1 = c01 * cb - c00 * sb, c11 * cb - c10 * sb  # Cv'
        uau, vbv = ca * au0 + sa * au1, cb * bv0 + sb * bv1
        ucv = ca * cv0 + sa * cv1
        v = uau + vbv + 2.0 * ucv
        v_a = 2.0 * (ca * au1 - sa * au0 + ca * cv1 - sa * cv0)
        v_b = 2.0 * (cb * bv1 - sb * bv0 + ca * cw0 + sa * cw1)
        # u'ᵀAu' = tr A - uᵀAu, because u and u' are an orthonormal basis.
        v_aa = 2.0 * (trace_a - 2.0 * uau - ucv)
        v_bb = 2.0 * (trace_b - 2.0 * vbv - ucv)
        v_ab = 2.0 * (ca * cw1 - sa * cw0)
        r = 1.0 / s
        r2, r3 = r * r, r * r * r
        r4 = r2 * r2
        return (
            v * r2,
            v_a * r2 - 2.0 * v * s_a * r3,
            v_b * r2 - 2.0 * v * s_b * r3,
            v_aa * r2 - (4.0 * v_a * s_a + 2.0 * v * s_aa) * r3 + 6.0 * v * s_a * s_a * r4,
            v_ab * r2 - 2.0 * (v_a * s_b + v_b * s_a) * r3 + 6.0 * v * s_a * s_b * r4,
            v_bb * r2 - (4.0 * v_b * s_b + 2.0 * v * s_bb) * r3 + 6.0 * v * s_b * s_b * r4,
        )

    return local


def _newton_angles(local, ta, tb):
    """Safeguarded Newton's method on the two-angle objective ``local`` (exact derivatives).

    A plain Newton step is taken as it is, with no descent test, wherever the
    Hessian is positive definite, the step is within ``_ANGLE_STEP_CAP`` and
    it lands on a point where ``local`` is finite.  Otherwise the Hessian is
    shifted to positive definite, the step is cut to the cap, and it is
    halved until the error falls; a step that cannot lower it ends the search.

    Returns ``(ta, tb, value)``; ``value`` is ``inf`` when the start is blind,
    the derivatives there are not finite, or the shifted Hessian is singular
    or not finite.
    """
    point = local(ta, tb)
    if not all(map(math.isfinite, point)):
        return ta, tb, math.inf
    for _ in range(_NEWTON_ITERS):
        value, ga, gb, haa, hab, hbb = point
        det = haa * hbb - hab * hab
        trial = None
        if det > 0.0 and haa > 0.0:
            da = -(hbb * ga - hab * gb) / det
            db = -(haa * gb - hab * ga) / det
            if max(abs(da), abs(db)) <= _ANGLE_STEP_CAP:
                trial = local(ta + da, tb + db)
        if trial is None or not all(map(math.isfinite, trial)):
            # Shift the Hessian's least eigenvalue up to at least its own size and 1e-8 of the
            # largest's, so that a nearly singular Hessian (next to a blind line) stays solvable.
            mean, radius = 0.5 * (haa + hbb), math.hypot(0.5 * (haa - hbb), hab)
            least = mean - radius
            shift = max(0.0, max(abs(least), 1e-8 * (abs(mean) + radius)) - least)
            haa, hbb = haa + shift, hbb + shift
            det = haa * hbb - hab * hab
            if not (math.isfinite(det) and det > 0.0):
                return ta, tb, math.inf
            da = -(hbb * ga - hab * gb) / det
            db = -(haa * gb - hab * ga) / det
            scale = _ANGLE_STEP_CAP / max(abs(da), abs(db), _ANGLE_STEP_CAP)
            da, db = da * scale, db * scale
            trial = local(ta + da, tb + db)
            while not (all(map(math.isfinite, trial)) and trial[0] < value):
                da, db = 0.5 * da, 0.5 * db
                if not max(abs(da), abs(db)) >= 1e-9:  # also ends a step that overflowed to nan
                    return ta, tb, value
                trial = local(ta + da, tb + db)
        ta += da
        tb += db
        point = trial
        if max(abs(da), abs(db)) < 1e-9:
            break
    return ta, tb, point[0]


def _refine_sum_quad_angles(cov, dmean, theta_a, theta_b):
    """Joint refinement of the two local-oscillator angles by :func:`_newton_angles`.

    The two angles are strongly coupled through the inter-mode covariance
    (the landscape is a narrow diagonal valley), so coordinate descent is out.
    """
    return _newton_angles(_sum_quad_objective(cov, dmean), theta_a, theta_b)


def _cov_and_dmean(coefficients, phi):
    """Output covariance and mean phase slope at the phase ``phi``."""
    K, M = coefficients
    c, s = math.cos(phi), math.sin(phi)
    cov = (np.array([1.0, c, s, c * c, s * s, c * s]) @ K.reshape(6, 16)).reshape(4, 4)
    return cov, np.array([-s, c]) @ M[1:]


# The double-homodyne grid: 90 phases on [0, π), 2π/180 apart, and 12 × 24
# LO angles 2π/24 apart (θa on [0, π), θb on [0, 2π)).  A cell's variance is
# Σ_k T_k(φ)·wᵀK[k]w and its slope (-sin φ·M[1] + cos φ·M[2])ᵀw, with
# w = (cos θa, sin θa, cos θb, sin θb), so each (resource, loss) needs only
# two small tables over the angle cells; the phase rows are fixed.
_GRID_PHIS = np.linspace(0.0, math.pi, 90, endpoint=False)
_GRID_TRIG = np.column_stack([
    np.ones(90), np.cos(_GRID_PHIS), np.sin(_GRID_PHIS), np.cos(_GRID_PHIS) ** 2,
    np.sin(_GRID_PHIS) ** 2, np.cos(_GRID_PHIS) * np.sin(_GRID_PHIS),
])
_GRID_DTRIG = np.column_stack([-np.sin(_GRID_PHIS), np.cos(_GRID_PHIS)])
_THETAS = np.linspace(0.0, _TWO_PI, 24, endpoint=False)
_THETA_A, _THETA_B = np.meshgrid(_THETAS[:12], _THETAS, indexing="ij")  # cells in (θa, θb) order
_GRID_W = np.array([np.cos(_THETA_A), np.sin(_THETA_A), np.cos(_THETA_B), np.sin(_THETA_B)]).reshape(4, 288)
_GRID_WW = (_GRID_W[:, None] * _GRID_W[None]).reshape(16, 288)  # vec(w·wᵀ) per cell

#: Phases per slab of the grid scan.  Its (30, 288) temporaries (69 kB) stay
#: below glibc's 128 KiB mmap threshold, where the whole grid's would map
#: and fault in fresh pages on every call; at 45 phases two of them freed
#: together pass the 128 KiB trim threshold and the heap top is returned.
_GRID_SLAB = 30


def _double_hd_grid(coefficients):
    """Best cell of the double-homodyne grid, as ``(value, phi, theta_a, theta_b)``.

    Ties go to the first cell in (φ, θa, θb) order.

    Raises:
        NoOptimum: if every cell is blind.
    """
    K, M = coefficients
    variance_table = K.reshape(6, 16) @ _GRID_WW
    slope_table = M[1:] @ _GRID_W
    best, best_value = None, np.inf
    for start in range(0, 90, _GRID_SLAB):
        rows = slice(start, start + _GRID_SLAB)
        values = _GRID_TRIG[rows] @ variance_table
        slope = _GRID_DTRIG[rows] @ slope_table
        blind = np.abs(slope) < DEGENERATE_SLOPE
        slope *= slope
        if blind.any():  # inf / 1 there, and no division by a vanishing slope
            values[blind], slope[blind] = np.inf, 1.0
        values /= slope
        cell = int(np.argmin(values))
        if values.flat[cell] < best_value:
            best_value, best = values.flat[cell], (start + cell // 288, cell % 288 // 24, cell % 24)
    if best is None:
        raise NoOptimum("quadrature-sum scheme is blind everywhere on the grid")
    i, j, k = best
    angle_spacing = _TWO_PI / 24
    return best_value, _GRID_PHIS[i], j * angle_spacing, k * angle_spacing


def _min_double_hd(resource, loss):
    """Jointly optimize phase and both LO angles for the quadrature-sum scheme, as ``(phi_star, value)``.

    The error does not change under (θa, θb) → (θa + π, θb + π), nor under
    (φ, θa, θb) → (φ + π, θb, θa): a π phase on arm a swaps the output ports
    up to signs.  So the grid of :func:`_double_hd_grid`, 90 phases in
    [0, π) × 12 values of θa in [0, π) × 24 values of θb in [0, 2π), holds
    every distinct setting once; it locates the basin.  Golden section and
    the parabola polish then refine φ, and at every phase they try,
    :func:`_refine_sum_quad_angles` refines the angles, from the grid's best
    cell the first time and from the previous phase's angles after.
    """
    coefficients = phase_coefficients(resource, loss)
    _, phi0, theta_a, theta_b = _double_hd_grid(coefficients)

    def fn(phi):
        nonlocal theta_a, theta_b
        cov, dmean = _cov_and_dmean(coefficients, phi)
        theta_a, theta_b, value = _refine_sum_quad_angles(cov, dmean, theta_a, theta_b)
        return value

    spacing = _TWO_PI / 180
    return _refine_minimum(fn, phi0 - spacing, phi0 + spacing, tol=2e-4)


_P_QUADRATURE = Observable.quadrature(math.pi / 2.0)


def _measurement_observable(scheme, kind):
    if kind is ResourceKind.COHERENT:
        # Classical benchmark: its best single quadrature, under every scheme.
        return _P_QUADRATURE
    if scheme is Scheme.PARITY:
        return Observable.parity()
    if scheme is Scheme.SINGLE_HD:
        if kind is ResourceKind.CSV:
            return _P_QUADRATURE
        return Observable.quadrature_squared(0.0)
    if scheme is Scheme.DOUBLE_HD and kind is ResourceKind.TMSV:
        return Observable.product(0.0, 0.0)
    return None  # double-HD CSV optimizes its angles


def _measurement_optimum(scheme, resource, loss):
    """Phase-optimized error of a measurement scheme, as ``(phi_star, value)`` with φ* in [0, 2π)."""
    obs = _measurement_observable(scheme, resource.kind)
    phi_star, value = _min_double_hd(resource, loss) if obs is None else _min_over_phi(resource, loss, obs)
    return _wrap_angle(phi_star), value


def _fisher_information(resource, loss):
    """Closed-form Fisher information where one exists, else the moment formula."""
    try:
        return qfi_closed(resource, loss).qfi
    except UnsupportedConfiguration:
        return qfi_numeric(resource, 0.0, loss).qfi


def _scan_mu(fn, points, tol):
    """``(mu, value)`` minimizing ``fn`` over a grid of ``points`` fractions in [0, 1], then by golden
    section between the best cell's neighbours; a grid with no finite value is not refined."""
    grid = np.linspace(0.0, 1.0, points).tolist()  # Python floats: a probe's mu may be emitted
    values = [fn(m) for m in grid]
    i = int(np.argmin(values))
    if not math.isfinite(values[i]):
        return grid[i], values[i]
    return golden_section(fn, grid[max(i - 1, 0)], grid[min(i + 1, points - 1)], tol)


def optimal_csv_ratio(nbar, loss: LossModel):
    """Squeezed-vacuum energy fraction maximizing the CSV Fisher information.

    Golden section never probes the ends mu = 0 and 1, so they compete with
    its refined optimum; an exact tie keeps the refined one.

    Returns:
        Tuple ``(mu_star, qfi)`` with ``mu_star`` in [0, 1].
    """
    if nbar <= 0.0:
        raise InvalidArgument(f"nbar must be > 0, got {nbar}")

    def negative_qfi(mu):
        resource = ResourceSpec.from_energy(ResourceKind.CSV, nbar, mu)
        return -_fisher_information(resource, loss)

    candidates = [_scan_mu(negative_qfi, 33, 1e-6), *((end, negative_qfi(end)) for end in (0.0, 1.0))]
    mu_star, neg = min(candidates, key=lambda candidate: candidate[1])
    return mu_star, -neg


class _BelowTarget(Exception):
    """Carries ``(mu, value)`` of the squeezing-fraction probe that met ``stop_below``."""


def _minimize_over_mu(value_fn, tol=1e-5, seed=None, stop_below=None):
    """Minimize a sensitivity over the CSV energy fraction mu in [0, 1].

    A ``seed`` from a nearby configuration restricts the search to a local
    bracket; if the minimum then sticks to an interior bracket edge (the
    optimum drifted further than expected), the full grid scan is rerun.

    With ``stop_below``, the search returns ``(mu, value)`` of the first
    probe whose value is below it, since that probe already proves the
    minimum is; otherwise it runs probe for probe as without the target.
    The ends mu = 0 and 1 never stop it.  The full search never returns
    them (golden-section probes are interior), and at mu = 0, a coherent
    state, the double-homodyne error ties the SNL to roundoff.

    Raises:
        NumericFailure: if the search ends with no finite value and some
            probe failed numerically.
        NoOptimum: if it ends with no finite value otherwise.
    """
    numeric_failures = []

    def fn(mu):
        # Library errors and non-finite values count as inf.  Only the message of a
        # NumericFailure is kept: a kept exception would keep its frames alive.
        try:
            value = value_fn(mu)
        except NumericFailure as exc:
            numeric_failures.append(str(exc))
            return math.inf
        except MziLabError:
            return math.inf
        if not math.isfinite(value):
            return math.inf
        if stop_below is not None and value < stop_below and 0.0 < mu < 1.0:
            raise _BelowTarget(float(mu), value)
        return value

    try:
        if seed is not None:
            lo, hi = max(seed - 0.08, 0.0), min(seed + 0.08, 1.0)
            mu, value = golden_section(fn, lo, hi, tol)
            stuck_low = mu - lo < 5e-3 and lo > 0.0
            stuck_high = hi - mu < 5e-3 and hi < 1.0
            if math.isfinite(value) and not (stuck_low or stuck_high):
                return mu, value
        mu, value = _scan_mu(fn, 21, tol)
    except _BelowTarget as hit:
        return hit.args
    if math.isfinite(value):
        return mu, value
    if numeric_failures:  # roundoff, not the scheme, may have hidden a usable fraction
        raise NumericFailure(
            f"no squeezing fraction gave a usable error "
            f"({len(numeric_failures)} failed numerically: {numeric_failures[0]})"
        )
    raise NoOptimum("scheme is degenerate for every squeezing fraction")


def scheme_sensitivity(
    scheme: Scheme,
    resource_kind: ResourceKind,
    nbar: float,
    loss: LossModel,
    mu=None,
    mu_tol=1e-5,
    mu_seed=None,
    mu_stop_below=None,
) -> SchemePoint:
    """Fully optimized estimation error of a scheme at fixed energy and loss.

    The phase (and, for the CSV double-homodyne scheme, both LO angles) is
    always optimized.  For CSV resources ``mu`` selects the squeezing
    fraction: ``None`` searches it per call, a float pins it.  With
    ``mu_stop_below`` that search stops at the first fraction whose error is
    below it, so the point then shows only that the optimum is below it too;
    the QFI scheme's search ignores it.

    Returns:
        A :class:`SchemePoint`; ``phi_star`` is ``nan`` for the QFI scheme,
        whose bound is phase-independent.
    """

    def at(mu_value, fisher=None):
        resource = ResourceSpec.from_energy(resource_kind, nbar, mu_value)
        if scheme is Scheme.QFI:
            if fisher is None:
                fisher = _fisher_information(resource, loss)
            return SchemePoint(scheme, resource, 1.0 / fisher, math.nan, mu_value)
        phi_star, value = _measurement_optimum(scheme, resource, loss)
        return SchemePoint(scheme, resource, value, phi_star, mu_value)

    if resource_kind is not ResourceKind.CSV:
        return at(math.nan)
    if mu is not None:
        return at(float(mu))
    if scheme is Scheme.QFI:
        return at(*optimal_csv_ratio(nbar, loss))
    points = {}

    def value_at(mu_value):
        points[mu_value] = at(mu_value)
        return points[mu_value].delta2phi

    mu_value, _ = _minimize_over_mu(value_at, tol=mu_tol, seed=mu_seed, stop_below=mu_stop_below)
    return points[mu_value]


def _chain(scheme, kind, optimize_mu=True, mu_tol=1e-5):
    """The squeezing-fraction rule for a run of nearby points of one cell.

    Returns ``point(nbar, loss, stop_below=None) -> SchemePoint``.  Only a CSV
    resource has a squeezing fraction.  With ``optimize_mu`` it is searched
    at every point, warm-started from the fraction the previous point
    returned; otherwise it is pinned at the scheme's lossless optimum,
    computed once per ``nbar``, and that lossless point is itself the chain's
    answer at zero loss.  ``stop_below`` ends a point's search at the first
    fraction whose error is below it (see :func:`scheme_sensitivity`), so
    the next point is then seeded from that last probe, not from an optimum.
    """
    last_mu = None
    pins = {}

    def point(nbar, loss, stop_below=None):
        nonlocal last_mu
        if kind is not ResourceKind.CSV:
            return scheme_sensitivity(scheme, kind, nbar, loss)
        if not optimize_mu:
            if nbar not in pins:
                pins[nbar] = scheme_sensitivity(scheme, kind, nbar, LossModel.lossless())
            if loss.is_lossless:
                return pins[nbar]
            return scheme_sensitivity(scheme, kind, nbar, loss, mu=pins[nbar].mu)
        result = scheme_sensitivity(
            scheme, kind, nbar, loss, mu_tol=mu_tol, mu_seed=last_mu, mu_stop_below=stop_below
        )
        last_mu = result.mu
        return result

    return point


# -- SNL thresholds -----------------------------------------------------------


@dataclass(frozen=True)
class ThresholdResult:
    """Loss rate at which an optimized scheme crosses the shot-noise limit."""

    loss_rate: float
    bracket: tuple
    iterations: int
    status: str  # "crossed" or "no-crossing"


_SCAN_STEP = 0.05


def snl_threshold(
    scheme: Scheme,
    resource_kind: ResourceKind,
    nbar: float,
    loss_kind: LossKind,
    optimize_mu: bool = True,
    tol=1e-3,
) -> ThresholdResult:
    """Largest loss rate below which the scheme still beats the shot-noise limit.

    Scans upward from zero loss (which both guards against multiple
    crossings and locates the bracket), then bisects to ``tol``, or until
    the bracket's ends are adjacent floats.  A scheme that does not beat
    the SNL at zero loss (one that ties it within :func:`snl_tie_bound`
    does not) reports ``"no-crossing"``.  A failure to evaluate
    the scheme at zero loss raises; at any larger loss it counts as not
    beating the SNL.

    Each step decides only the sign of the optimized error minus the SNL.
    A CSV squeezing-fraction search therefore stops at the first fraction
    that beats the SNL, and runs in full only on steps that do not; the
    next step is seeded from the last fraction probed.

    Raises:
        InvalidArgument: if ``tol`` is not a finite positive number.
        MziLabError: if the scheme cannot be evaluated at zero loss.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidArgument(f"tol must be a finite number > 0, got {tol}")
    target = snl_tie_bound(snl(nbar))
    # Successive bisection points are close, so one chain carries the
    # squeezing-fraction optimum from each point to the next.
    point = _chain(scheme, resource_kind, optimize_mu)

    def gap(loss_rate):
        try:
            return point(nbar, loss_kind.model(loss_rate), stop_below=target).delta2phi - target
        except MziLabError:
            return math.inf

    if point(nbar, loss_kind.model(0.0), stop_below=target).delta2phi - target >= 0.0:
        return ThresholdResult(math.nan, (0.0, 0.0), 0, "no-crossing")

    lo = 0.0
    hi = _SCAN_STEP
    iterations = 0
    while hi < 1.0:
        iterations += 1
        if gap(hi) >= 0.0:
            break
        lo, hi = hi, hi + _SCAN_STEP
    else:
        hi = 1.0 - 1e-9
        iterations += 1
        if gap(hi) < 0.0:
            return ThresholdResult(math.nan, (lo, 1.0), iterations, "no-crossing")

    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if not lo < mid < hi:
            break
        iterations += 1
        if gap(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return ThresholdResult((lo + hi) / 2.0, (lo, hi), iterations, "crossed")


# -- sweeps -------------------------------------------------------------------


class SweepVariable(Enum):
    LOSS_RATE = "loss-rate"
    MEAN_PHOTON_NUMBER = "nbar"


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for a figure-style sweep.

    One row is produced per (grid value, scheme, resource) triple, in that order.
    """

    variable: SweepVariable
    lo: float
    hi: float
    points: int
    schemes: tuple
    resources: tuple
    loss_kind: LossKind
    nbar: float = 10.0  # fixed energy for loss sweeps
    loss_rate: float = 0.0  # fixed loss for energy sweeps
    optimize_mu: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvalidArgument(f"sweep bounds must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise InvalidArgument(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.points < 2:
            raise InvalidArgument(f"need at least 2 grid points, got {self.points}")


@dataclass(frozen=True)
class SweepRow:
    variable: str
    value: float
    scheme: str
    resource: str
    nbar: float
    loss_kind: str
    loss_rate: float
    phi_star: float
    mu: float
    delta2phi: float
    snl: float
    beats_snl: bool
    status: str


def _sweep_row(variable, value, scheme, kind, nbar, loss_kind, loss_rate, benchmark, point, status):
    """The row of one cell, whose ``point`` is ``None`` where it failed; a tie with the SNL does not beat it."""
    phi_star, mu, delta2phi = (math.nan,) * 3 if point is None else (point.phi_star, point.mu, point.delta2phi)
    return SweepRow(
        variable, value, scheme.value, kind.value, nbar, loss_kind.value, loss_rate, phi_star, mu, delta2phi,
        benchmark, bool(delta2phi < snl_tie_bound(benchmark)), status,
    )


#: Grid points per warm-start chain.  Chains restart cold at each chunk only to keep
#: the emitted rows byte-identical until sweep rows no longer carry warm starts.
_SWEEP_CHUNK = 16


def run_sweep(spec: SweepSpec):
    """Evaluate every (grid value, scheme, resource) cell of a sweep.

    Rows are returned in (grid index, scheme, resource) order.  Per-row
    failures (degenerate observables, unsupported combinations) are recorded
    in the row's ``status`` instead of aborting the sweep.  Each (scheme,
    resource) pair keeps one warm-started chain, rebuilt cold at every
    ``_SWEEP_CHUNK``-th grid index.
    """
    rows = []
    for index, value in enumerate(np.linspace(spec.lo, spec.hi, spec.points)):
        if index % _SWEEP_CHUNK == 0:
            chains = {
                (scheme, kind): _chain(scheme, kind, spec.optimize_mu, mu_tol=1e-3)
                for scheme in spec.schemes
                for kind in spec.resources
            }
        if spec.variable is SweepVariable.LOSS_RATE:
            nbar, loss_rate = spec.nbar, float(value)
        else:
            nbar, loss_rate = float(value), spec.loss_rate
        loss = spec.loss_kind.model(loss_rate)
        for scheme in spec.schemes:
            for kind in spec.resources:
                benchmark, point, status = math.nan, None, "ok"
                try:
                    benchmark = snl(nbar)
                    point = chains[scheme, kind](nbar, loss)
                except MziLabError as exc:
                    status = type(exc).__name__
                rows.append(_sweep_row(
                    spec.variable.value, float(value), scheme, kind, nbar, spec.loss_kind, loss_rate, benchmark,
                    point, status,
                ))
    return rows
