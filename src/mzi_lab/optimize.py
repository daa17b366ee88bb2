"""Working-point, resource-ratio and loss-threshold optimizers.

All searches are deterministic grid-then-refine 1-D routines: a coarse scan
locates the global basin, golden-section refines it, and a parabola fit
through three off-center points returns the final value.  The parabola step
matters for the lossless schemes whose optimum is a degenerate working point
(signal variance and slope both vanish there): finite-difference sensitivities
evaluated too close to such a point are dominated by roundoff, while the
vertex of a parabola fitted a safe distance away recovers the limit value to
well below the tolerances used in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidArgument, MziLabError, NoOptimum, UnsupportedConfiguration
from .interferometer import LossModel, output_grid  # noqa: F401 (perfbench's tracing test checks this binding)
from .measurements import DEGENERATE_SLOPE, Observable, _phase_stencil, sensitivity_profile
from .qfi import qfi_closed, qfi_numeric, snl
from .states import ResourceKind, ResourceSpec

__all__ = [
    "Scheme",
    "LossKind",
    "SchemePoint",
    "ThresholdResult",
    "SweepVariable",
    "SweepSpec",
    "SweepRow",
    "golden_section",
    "optimal_phi",
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


def _safe(fn):
    def wrapped(x):
        try:
            value = fn(x)
        except MziLabError:
            return math.inf
        if not math.isfinite(value):
            return math.inf
        return value

    return wrapped


def golden_section(fn, lo, hi, tol=1e-8):
    """Golden-section minimization of ``fn`` on ``[lo, hi]``.

    Returns ``(x, fn(x))`` for the better of the two interior probes once
    the bracket is narrower than ``tol``.
    """
    a, b = float(lo), float(hi)
    c = b - (b - a) * _INVPHI
    d = a + (b - a) * _INVPHI
    fc, fd = fn(c), fn(d)
    while abs(b - a) > tol:
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
            if h < 1e-6:
                break
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


def _refine_minimum(fn, lo, hi, tol=1e-8):
    # The polish sets the final accuracy; golden section only needs to land
    # inside the quadratic region of the basin.
    x, f = golden_section(fn, lo, hi, tol)
    return _parabola_polish(fn, x, f)


def optimal_phi(sensitivity_fn, domain=(0.0, _TWO_PI), grid_points=720, tol=1e-8):
    """Global minimum of a phase-sensitivity function over one period.

    A ``grid_points`` scan locates the basin (points where the function
    raises a degenerate-working-point or similar error are skipped), then
    golden-section refinement plus a parabola polish pin the minimum.

    Returns:
        Tuple ``(phi_star, value)``.

    Raises:
        NoOptimum: if the function is degenerate on the whole grid.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not hi > lo:
        raise InvalidArgument(f"empty domain {domain}")
    fn = _safe(sensitivity_fn)
    grid = np.linspace(lo, hi, int(grid_points), endpoint=False)
    values = np.array([fn(x) for x in grid])
    if not np.isfinite(values).any():
        raise NoOptimum("sensitivity is degenerate everywhere on the grid")
    i = int(np.argmin(values))
    spacing = (hi - lo) / grid_points
    return _refine_minimum(fn, grid[i] - spacing, grid[i] + spacing, tol)


# -- scheme evaluation --------------------------------------------------------


@dataclass(frozen=True)
class SchemePoint:
    """Optimized estimation error of one scheme at one configuration."""

    scheme: Scheme
    resource: ResourceSpec
    delta2phi: float
    phi_star: float
    mu: float
    angles: tuple | None = None


def _min_over_phi(resource, loss, obs):
    """Phase-optimized sensitivity of a fixed observable (720-point scan)."""
    grid = np.linspace(0.0, _TWO_PI, 720, endpoint=False)
    values = sensitivity_profile(resource, loss, grid, obs)
    if not np.isfinite(values).any():
        raise NoOptimum("observable is blind at every phase on the grid")
    i = int(np.argmin(values))

    def fn(phi):
        return float(sensitivity_profile(resource, loss, np.array([phi]), obs)[0])

    spacing = _TWO_PI / 720
    return _refine_minimum(fn, grid[i] - spacing, grid[i] + spacing, 1e-5)


def _sum_quad_objective(cov, dmean):
    a00, a01, a11 = cov[0, 0], cov[0, 1], cov[1, 1]
    b00, b01, b11 = cov[2, 2], cov[2, 3], cov[3, 3]
    c00, c01, c10, c11 = cov[0, 2], cov[0, 3], cov[1, 2], cov[1, 3]
    pa0, pa1, pb0, pb1 = dmean

    def value(ta, tb):
        ca, sa = math.cos(ta), math.sin(ta)
        cb, sb = math.cos(tb), math.sin(tb)
        variance = (
            a00 * ca * ca + 2.0 * a01 * ca * sa + a11 * sa * sa
            + b00 * cb * cb + 2.0 * b01 * cb * sb + b11 * sb * sb
            + 2.0 * (ca * (c00 * cb + c01 * sb) + sa * (c10 * cb + c11 * sb))
        )
        slope = ca * pa0 + sa * pa1 + cb * pb0 + sb * pb1
        if abs(slope) < DEGENERATE_SLOPE:
            return math.inf
        return variance / (slope * slope)

    return value


def _newton_angles(value, ta, tb):
    """Damped Newton on the two-angle objective from a warm start.

    Returns ``None`` whenever the local quadratic model is not trustworthy
    (non-convex Hessian, oversized step, non-finite values), in which case
    the caller falls back to the simplex search.
    """
    step = 1e-4
    for _ in range(8):
        f0 = value(ta, tb)
        fpa, fma = value(ta + step, tb), value(ta - step, tb)
        fpb, fmb = value(ta, tb + step), value(ta, tb - step)
        fpp = value(ta + step, tb + step)
        fmm = value(ta - step, tb - step)
        fpm = value(ta + step, tb - step)
        fmp = value(ta - step, tb + step)
        if not all(map(math.isfinite, (f0, fpa, fma, fpb, fmb, fpp, fmm, fpm, fmp))):
            return None
        ga = (fpa - fma) / (2.0 * step)
        gb = (fpb - fmb) / (2.0 * step)
        haa = (fpa - 2.0 * f0 + fma) / step**2
        hbb = (fpb - 2.0 * f0 + fmb) / step**2
        hab = (fpp - fpm - fmp + fmm) / (4.0 * step**2)
        det = haa * hbb - hab * hab
        if det <= 0.0 or haa <= 0.0:
            return None
        da = -(hbb * ga - hab * gb) / det
        db = -(haa * gb - hab * ga) / det
        if max(abs(da), abs(db)) > 0.2:
            return None
        ta += da
        tb += db
        if max(abs(da), abs(db)) < 1e-9:
            break
    return ta, tb, value(ta, tb)


def _refine_sum_quad_angles(cov, dmean, theta_a, theta_b, warm=False):
    """Joint refinement of the two local-oscillator angles.

    The two angles are strongly coupled through the inter-mode covariance
    (the landscape is a narrow diagonal valley), so coordinate descent is
    out; warm starts take a few Newton steps and anything else falls back
    to a simplex search.
    """
    value = _sum_quad_objective(cov, dmean)
    if warm:
        refined = _newton_angles(value, theta_a, theta_b)
        if refined is not None:
            return refined

    from scipy.optimize import minimize

    start = np.array([theta_a, theta_b])
    spread = 0.01 if warm else 0.08
    simplex = np.array([start, start + [spread, 0.0], start + [0.0, spread]])
    result = minimize(
        lambda t: value(t[0], t[1]),
        start,
        method="Nelder-Mead",
        options={"xatol": 1e-7, "fatol": 1e-15, "maxiter": 300, "initial_simplex": simplex},
    )
    ta, tb = result.x
    return float(ta), float(tb), float(result.fun)


def _min_double_hd(resource, loss):
    """Jointly optimize phase and both LO angles for the quadrature-sum scheme.

    A 180-phase by 24×24-angle grid locates the basin.
    """
    phis = np.linspace(0.0, _TWO_PI, 180, endpoint=False)
    covs, _, _, dmeans = _phase_stencil(resource, loss, phis, lambda covs, means: means)
    thetas = np.linspace(0.0, _TWO_PI, 24, endpoint=False)
    w = np.column_stack([np.cos(thetas), np.sin(thetas)])

    # Sensitivity on the full (phi, theta_a, theta_b) grid in one shot.
    va = np.einsum("ui,nij,uj->nu", w, covs[:, :2, :2], w)
    vb = np.einsum("vi,nij,vj->nv", w, covs[:, 2:, 2:], w)
    cab = np.einsum("ui,nij,vj->nuv", w, covs[:, :2, 2:], w)
    variance = va[:, :, None] + vb[:, None, :] + 2.0 * cab
    slope = (dmeans[:, :2] @ w.T)[:, :, None] + (dmeans[:, 2:] @ w.T)[:, None, :]
    values = np.full(variance.shape, np.inf)
    ok = np.abs(slope) >= DEGENERATE_SLOPE
    values[ok] = variance[ok] / slope[ok] ** 2
    if not np.isfinite(values).any():
        raise NoOptimum("quadrature-sum scheme is blind everywhere on the grid")
    i, j, k = np.unravel_index(int(np.argmin(values)), values.shape)
    angle_spacing = _TWO_PI / 24

    state = {"ta": j * angle_spacing, "tb": k * angle_spacing, "warm": False}

    def fn(phi):
        covs, _, _, dmeans = _phase_stencil(resource, loss, [phi], lambda covs, means: means)
        ta, tb, value = _refine_sum_quad_angles(
            covs[0], dmeans[0], state["ta"], state["tb"], warm=state["warm"]
        )
        state["ta"], state["tb"], state["warm"] = ta, tb, True
        return value

    spacing = _TWO_PI / 180
    phi_star, value = _refine_minimum(fn, phis[i] - spacing, phis[i] + spacing, tol=2e-4)
    return phi_star, value, (state["ta"] % _TWO_PI, state["tb"] % _TWO_PI)


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
    obs = _measurement_observable(scheme, resource.kind)
    if obs is None:
        return _min_double_hd(resource, loss)
    phi_star, value = _min_over_phi(resource, loss, obs)
    return phi_star, value, None


def _fisher_information(resource, loss):
    """Closed-form Fisher information where one exists, else the fidelity route."""
    if resource.kind is not ResourceKind.COHERENT:
        try:
            return qfi_closed(resource, loss).qfi
        except UnsupportedConfiguration:
            pass
    return qfi_numeric(resource, 0.0, loss).qfi


def optimal_csv_ratio(nbar, loss: LossModel, tol=1e-6):
    """Squeezed-vacuum energy fraction maximizing the CSV Fisher information.

    Returns:
        Tuple ``(mu_star, qfi)`` with ``mu_star`` in [0, 1].
    """
    if nbar <= 0.0:
        raise InvalidArgument(f"nbar must be > 0, got {nbar}")

    def negative_qfi(mu):
        resource = ResourceSpec.from_energy(ResourceKind.CSV, nbar, min(max(mu, 0.0), 1.0))
        return -_fisher_information(resource, loss)

    grid = np.linspace(0.0, 1.0, 33)
    values = [negative_qfi(m) for m in grid]
    i = int(np.argmin(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    mu_star, neg = golden_section(negative_qfi, lo, hi, tol)
    mu_star = min(max(mu_star, 0.0), 1.0)
    return mu_star, -neg


def _minimize_over_mu(value_fn, tol=1e-5, seed=None):
    """Minimize a sensitivity over the CSV energy fraction mu in [0, 1].

    A ``seed`` from a nearby configuration restricts the search to a local
    bracket; if the minimum then sticks to an interior bracket edge (the
    optimum drifted further than expected), the full grid scan is rerun.
    """
    fn = _safe(value_fn)
    if seed is not None:
        lo, hi = max(seed - 0.08, 0.0), min(seed + 0.08, 1.0)
        mu, value = golden_section(fn, lo, hi, tol)
        stuck_low = mu - lo < 5e-3 and lo > 0.0
        stuck_high = hi - mu < 5e-3 and hi < 1.0
        if math.isfinite(value) and not (stuck_low or stuck_high):
            return min(max(mu, 0.0), 1.0), value
    grid = np.linspace(0.0, 1.0, 21)
    values = [fn(m) for m in grid]
    i = int(np.argmin(values))
    if not math.isfinite(values[i]):
        raise NoOptimum("scheme is degenerate for every squeezing fraction")
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    mu, value = golden_section(fn, lo, hi, tol)
    if not math.isfinite(value):
        raise NoOptimum("scheme is degenerate for every squeezing fraction")
    return min(max(mu, 0.0), 1.0), value


def scheme_sensitivity(
    scheme: Scheme,
    resource_kind: ResourceKind,
    nbar: float,
    loss: LossModel,
    mu="optimize",
    mu_tol=1e-5,
    mu_seed=None,
) -> SchemePoint:
    """Fully optimized estimation error of a scheme at fixed energy and loss.

    The phase (and, for the CSV double-homodyne scheme, both LO angles) is
    always optimized.  For CSV resources ``mu`` selects the squeezing
    fraction: ``"optimize"`` searches it per call, a float pins it.

    Returns:
        A :class:`SchemePoint`; ``phi_star`` is ``nan`` for the QFI scheme,
        whose bound is phase-independent.
    """
    if scheme is Scheme.QFI:
        mu_value, fisher = math.nan, None
        if resource_kind is ResourceKind.CSV:
            if mu == "optimize":
                mu_value, fisher = optimal_csv_ratio(nbar, loss)
            else:
                mu_value = float(mu)
        resource = ResourceSpec.from_energy(resource_kind, nbar, mu_value)
        if fisher is None:
            fisher = _fisher_information(resource, loss)
        return SchemePoint(scheme, resource, 1.0 / fisher, math.nan, mu_value)

    if resource_kind is ResourceKind.CSV:
        angles_box = {}

        def value_at(mu_value):
            resource = ResourceSpec.from_energy(ResourceKind.CSV, nbar, mu_value)
            phi, value, angles = _measurement_optimum(scheme, resource, loss)
            angles_box[mu_value] = (phi, angles)
            return value

        if mu == "optimize":
            mu_value, value = _minimize_over_mu(value_at, tol=mu_tol, seed=mu_seed)
        else:
            mu_value = float(mu)
            value = value_at(mu_value)
        phi_star, angles = angles_box[mu_value]
        resource = ResourceSpec.from_energy(ResourceKind.CSV, nbar, mu_value)
        return SchemePoint(scheme, resource, value, phi_star, mu_value, angles)

    resource = ResourceSpec.from_energy(resource_kind, nbar)
    phi_star, value, angles = _measurement_optimum(scheme, resource, loss)
    return SchemePoint(scheme, resource, value, phi_star, math.nan, angles)


def _chain(scheme, kind, optimize_mu=True, mu_tol=1e-5):
    """The squeezing-fraction rule for a run of nearby points of one cell.

    Returns ``point(nbar, loss) -> SchemePoint``.  Only a CSV resource has a
    squeezing fraction.  With ``optimize_mu`` it is searched at every point,
    warm-started from the previous point's optimum; otherwise it is pinned at
    the scheme's lossless optimum, computed once per ``nbar``.
    """
    last_mu = None
    pins = {}

    def point(nbar, loss):
        nonlocal last_mu
        if kind is not ResourceKind.CSV:
            return scheme_sensitivity(scheme, kind, nbar, loss)
        if not optimize_mu:
            if nbar not in pins:
                pins[nbar] = scheme_sensitivity(scheme, kind, nbar, LossModel.lossless()).mu
            return scheme_sensitivity(scheme, kind, nbar, loss, mu=pins[nbar])
        result = scheme_sensitivity(scheme, kind, nbar, loss, mu_tol=mu_tol, mu_seed=last_mu)
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
    the bracket's ends are adjacent floats.  A scheme already at or above
    the SNL at zero loss reports ``"no-crossing"``.  A failure to evaluate
    the scheme at zero loss raises; at any larger loss it counts as not
    beating the SNL.

    Raises:
        InvalidArgument: if ``tol`` is not a finite positive number.
        MziLabError: if the scheme cannot be evaluated at zero loss.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidArgument(f"tol must be a finite number > 0, got {tol}")
    target = snl(nbar)
    # Successive bisection points are close, so one chain carries the
    # squeezing-fraction optimum from each point to the next.
    point = _chain(scheme, resource_kind, optimize_mu)

    def gap(loss_rate):
        try:
            return point(nbar, loss_kind.model(loss_rate)).delta2phi - target
        except MziLabError:
            return math.inf

    if point(nbar, loss_kind.model(0.0)).delta2phi - target >= 0.0:
        return ThresholdResult(math.nan, (0.0, 0.0), 0, "no-crossing")

    lo = 0.0
    hi = _SCAN_STEP
    iterations = 0
    while hi < 1.0:
        iterations += 1
        if gap(min(hi, 1.0 - 1e-9)) >= 0.0:
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

    One row is produced per (grid value, scheme, resource) triple, in that
    order, regardless of how rows are evaluated.
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
        if not self.lo < self.hi:
            raise InvalidArgument(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.points < 2:
            raise InvalidArgument(f"need at least 2 grid points, got {self.points}")

    def grid(self):
        return np.linspace(self.lo, self.hi, self.points)


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


#: Grid points per evaluation chunk.  Warm starts for the CSV squeezing
#: fraction never cross a chunk boundary, so results are independent of how
#: chunks are distributed over workers.
_SWEEP_CHUNK = 16


def _sweep_chunk(spec: SweepSpec, values):
    rows = []
    chains = {
        (scheme, kind): _chain(scheme, kind, spec.optimize_mu, mu_tol=1e-3)
        for scheme in spec.schemes
        for kind in spec.resources
    }
    for value in values:
        if spec.variable is SweepVariable.LOSS_RATE:
            nbar, loss_rate = spec.nbar, float(value)
        else:
            nbar, loss_rate = float(value), spec.loss_rate
        loss = spec.loss_kind.model(loss_rate)
        for scheme in spec.schemes:
            for kind in spec.resources:
                benchmark = phi_star = mu = delta2phi = math.nan
                status = "ok"
                try:
                    benchmark = snl(nbar)
                    point = chains[scheme, kind](nbar, loss)
                    phi_star, mu, delta2phi = point.phi_star, point.mu, point.delta2phi
                except MziLabError as exc:
                    status = type(exc).__name__
                rows.append(SweepRow(
                    spec.variable.value, float(value), scheme.value, kind.value, nbar,
                    spec.loss_kind.value, loss_rate, phi_star, mu, delta2phi, benchmark,
                    bool(delta2phi < benchmark), status,
                ))
    return rows


def run_sweep(spec: SweepSpec, threads: int = 1):
    """Evaluate every (grid value, scheme, resource) cell of a sweep.

    Rows are returned in (grid index, scheme, resource) order.  Per-row
    failures (degenerate observables, unsupported combinations) are recorded
    in the row's ``status`` instead of aborting the sweep.  When ``threads``
    exceeds one, fixed-size chunks of the grid are evaluated in worker
    processes; chunk boundaries do not depend on the worker count, so the
    output is identical however the work is distributed.
    """
    grid = spec.grid()
    chunks = [grid[i : i + _SWEEP_CHUNK] for i in range(0, len(grid), _SWEEP_CHUNK)]
    if threads <= 1 or len(chunks) <= 1:
        parts = [_sweep_chunk(spec, chunk) for chunk in chunks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, len(chunks))) as pool:
            parts = list(pool.map(_sweep_chunk, [spec] * len(chunks), chunks))
    return [row for part in parts for row in part]
