import importlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzi_lab import (
    InterferometerConfig,
    InvalidArgument,
    LossKind,
    LossModel,
    NoOptimum,
    NumericFailure,
    Observable,
    ResourceKind,
    ResourceSpec,
    Scheme,
    SweepSpec,
    SweepVariable,
    optimal_csv_ratio,
    run_sweep,
    scheme_sensitivity,
    sensitivity,
    sensitivity_profile,
    snl,
    snl_threshold,
)
from mzi_lab import optimize
from mzi_lab.errors import DegenerateWorkingPoint, MziLabError
from mzi_lab.optimize import ThresholdResult, _chain, _min_over_phi, _minimize_over_mu, golden_section


class TestGoldenSection:
    def test_quadratic(self):
        x, f = golden_section(lambda x: (x - 1.3) ** 2 + 2.0, -4.0, 4.0, tol=1e-9)
        assert x == pytest.approx(1.3, abs=1e-7)
        assert f == pytest.approx(2.0, abs=1e-12)

    def test_cosine(self):
        x, _ = golden_section(math.cos, 2.0, 4.5, tol=1e-9)
        assert x == pytest.approx(math.pi, abs=1e-7)

    def test_zero_tolerance_stops_at_float_resolution(self):
        calls = 0

        def fn(x):
            nonlocal calls
            calls += 1
            if calls > 10_000:
                raise RuntimeError("golden section did not stop")
            return (x - 0.3) ** 2

        x, _ = golden_section(fn, 0.0, 1.0, tol=0.0)
        assert x == pytest.approx(0.3, abs=1e-15)
        assert calls < 100

    @settings(max_examples=300, deadline=None)
    @given(
        lo=st.floats(0.0, 1.0),
        span=st.one_of(st.integers(0, 6), st.floats(0.0, 1.0)),  # ulps, or a fraction of [lo, 1]
        tol=st.sampled_from([0.0, 1e-12, 1e-3]),
        where=st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 2.0]), st.floats(-1.0, 2.0)),
    )
    def test_returns_a_probe_inside_the_bracket(self, lo, span, tol, where):
        # The squeezing-fraction searches rely on this: with brackets inside [0, 1], every mu they
        # return or probe lies in [0, 1], whether the minimum is inside, at or beyond an edge.
        hi = lo
        if isinstance(span, int):
            for _ in range(span):
                hi = min(math.nextafter(hi, 2.0), 1.0)
        else:
            hi = min(lo + span * (1.0 - lo), 1.0)
        target = lo + where * (hi - lo)
        probes = []

        def fn(x):
            probes.append(x)
            return (x - target) ** 2

        x, f = golden_section(fn, lo, hi, tol)
        assert lo <= x <= hi and f == fn(x)
        assert all(lo <= p <= hi for p in probes)


class TestParabolaPolish:
    def test_narrow_basin_is_refit_with_a_smaller_stencil(self):
        # The quadratic region of 1e-8 + t² is 1e-4 wide, no wider than the default stencil,
        # so the cubic term biases the first fit and a second fit at a smaller offset follows.
        vertex, calls = 0.3, []

        def fn(x):
            calls.append(x)
            t = x - vertex
            return 1e-8 + t * t + 30.0 * t**3

        x, f = optimize._parabola_polish(fn, vertex + 3e-5, fn(vertex + 3e-5))
        stencils = [calls[i : i + 3] for i in range(1, len(calls), 3)]
        steps = [(hi - lo) / 2.0 for lo, hi, _ in stencils]
        assert len(steps) == 2
        assert steps[0] == pytest.approx(optimize._POLISH_STEP, rel=1e-6)
        assert steps[1] < 0.8 * steps[0]
        first_fit = optimize._fit_parabola(fn, vertex + 3e-5, optimize._POLISH_STEP)[0]
        assert abs(x - vertex) < 1e-9 < abs(first_fit - vertex)
        assert f == pytest.approx(1e-8, rel=1e-5)

    def test_zero_mu_tolerance_ends(self, monkeypatch):
        calls = 0
        measurement_optimum = optimize._measurement_optimum

        def counted(*args):
            nonlocal calls
            calls += 1
            if calls > 10_000:
                raise RuntimeError("the squeezing-fraction search did not stop")
            return measurement_optimum(*args)

        monkeypatch.setattr(optimize, "_measurement_optimum", counted)
        point = scheme_sensitivity(Scheme.SINGLE_HD, ResourceKind.CSV, 5.0, LossModel.symmetric(0.8), mu_tol=0.0)
        assert 0.0 < point.mu < 1.0
        assert calls < 200


#: n̄ of the pinned minima below.
PINNED_NBARS = (1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e8, 1e10, 1e16)

#: 80-digit minima over φ of the TMSV squared-quadrature and product errors at
#: each of ``PINNED_NBARS``, taking the float moments of
#: ``interferometer._post_loss_cov_mean`` as exact (mpmath 1.3: a 2,000-phase
#: scan, then golden section at 80 digits).
PINNED_MINIMA = {
    ("symmetric 0.8", "squared"): (
        0.055415409355627714, 0.005061519589881915, 0.0005006240019957055,
        5.0006249000149664e-05, 5.000062498984899e-06, 5.00000624804992e-07,
        4.999999962499995e-09, 4.999999999624996e-11, 5.0000000000000104e-17,
    ),
    ("symmetric 0.8", "product"): (
        0.03319051605152835, 0.0030526457001523156, 0.00030213117400910554,
        3.0181220121234917e-05, 3.017802464663386e-06, 3.0177705032325804e-07,
        3.017766928123405e-09, 3.0177669527179366e-11, 3.0177669529663753e-17,
    ),
    ("one-arm 0.6", "squared"): (
        0.07453424301250547, 0.006754357258560823, 0.0006675543357723294,
        6.667555433348923e-05, 6.666755554347498e-06, 6.666675552682167e-07,
        6.666666622222216e-09, 6.666666666222218e-11, 6.66666666666668e-17,
    ),
    ("one-arm 0.6", "product"): (
        0.06733195814377767, 0.006672366705271195, 0.0006667223710349854,
        6.666722237148539e-05, 6.6666722223125165e-06, 6.666667221665268e-07,
        6.666666622222216e-09, 6.666666666222218e-11, 6.666666666666679e-17,
    ),
}


_QUADRATURE_READOUTS = {
    "csv P": (ResourceKind.CSV, Observable.quadrature(math.pi / 2.0)),
    "coherent P": (ResourceKind.COHERENT, Observable.quadrature(math.pi / 2.0)),
    "tmsv X squared": (ResourceKind.TMSV, Observable.quadrature_squared(0.0)),
    "tmsv XX": (ResourceKind.TMSV, Observable.product(0.0, 0.0)),
}
_PINNED_LOSSES = {"symmetric 0.8": LossModel.symmetric(0.8), "one-arm 0.6": LossModel.one_arm(0.6)}
_PINNED_OBSERVABLES = {"squared": Observable.quadrature_squared(0.0), "product": Observable.product(0.0, 0.0)}


class TestQuadraturePhaseOptimum:
    @given(
        readout=st.sampled_from(sorted(_QUADRATURE_READOUTS)),
        nbar=st.floats(0.5, 50.0),
        mu=st.floats(0.4, 1.0, exclude_max=True),
        eta_a=st.floats(0.4, 1.0),
        eta_b=st.floats(0.4, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_emitted_error_is_attained_and_least(self, readout, nbar, mu, eta_a, eta_b):
        kind, obs = _QUADRATURE_READOUTS[readout]
        resource = ResourceSpec.from_energy(kind, nbar, mu)  # mu is a CSV's alone
        loss = LossModel(eta_a, eta_b)
        phi, value = _min_over_phi(resource, loss, obs)
        assert 0.0 <= phi < 2.0 * math.pi
        assert value == sensitivity(InterferometerConfig(resource, phi, loss), obs).error
        grid = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        assert sensitivity_profile(resource, loss, grid, obs).min() >= value * (1.0 - 1e-12)

    def test_lossless_tmsv_closed_forms(self):
        tmsv = ResourceSpec.from_energy(ResourceKind.TMSV, 10.0)
        s, lossless = tmsv.s, LossModel.lossless()
        squared = (1.0 / (2.0 * math.exp(2 * s))) * (1.0 / math.sinh(s) ** 2 + 1.0 / math.cosh(s) ** 2)
        product = 1.0 / (math.sqrt(2.0 + 2.0 * math.exp(8 * s)) - math.exp(4 * s) - 1.0)
        assert _min_over_phi(tmsv, lossless, Observable.quadrature_squared(0.0))[1] == pytest.approx(
            squared, rel=1e-12)
        assert _min_over_phi(tmsv, lossless, Observable.product(0.0, 0.0))[1] == pytest.approx(product, rel=1e-12)

    def test_ties_go_to_the_smallest_phase(self):
        # The lossless product error takes its least value at several phases.
        tmsv = ResourceSpec.from_energy(ResourceKind.TMSV, 10.0)
        phi, _ = _min_over_phi(tmsv, LossModel.lossless(), Observable.product(0.0, 0.0))
        assert phi == pytest.approx(1.516682, abs=1e-6)

    @pytest.mark.parametrize("loss_name", sorted(_PINNED_LOSSES))
    @pytest.mark.parametrize("obs_name", sorted(_PINNED_OBSERVABLES))
    def test_pinned_high_precision_minima(self, loss_name, obs_name):
        # Exact to 1e-10 up to n̄ = 1e4; beyond, exact to 1e-9 or refused.  No
        # value may undercut the least error any phase attains beyond roundoff.
        loss, obs = _PINNED_LOSSES[loss_name], _PINNED_OBSERVABLES[obs_name]
        for nbar, reference in zip(PINNED_NBARS, PINNED_MINIMA[loss_name, obs_name]):
            resource = ResourceSpec.from_energy(ResourceKind.TMSV, nbar)
            try:
                _, value = _min_over_phi(resource, loss, obs)
            except NumericFailure as exc:
                assert nbar > 1e4, f"refused at n̄ = {nbar:g}: {exc}"
                assert str(exc).startswith("phase optimum")
                continue
            assert value == pytest.approx(reference, rel=1e-10 if nbar <= 1e4 else 1e-9), nbar
            assert value >= reference * (1.0 - 1e-15), nbar


class TestOptimalCsvRatio:
    def test_lossless_optimum_is_pure_squeezing(self):
        mu, qfi = optimal_csv_ratio(10.0, LossModel.lossless())
        assert mu == pytest.approx(1.0, abs=1e-4)
        assert qfi == pytest.approx(230.0, rel=1e-6)

    def test_one_arm_stays_at_pure_squeezing(self):
        for nbar in (10.0, 100.0):
            for rate in (0.1, 0.25, 0.4):
                mu, _ = optimal_csv_ratio(nbar, LossModel.one_arm(1.0 - rate))
                assert mu > 0.99

    def test_never_below_the_ends(self):
        # The ends mu = 0 and 1 compete with the golden-section optimum, so
        # the returned information is at least either end's, exactly.
        cases = ((10.0, LossModel.lossless()), (4.0, LossModel.one_arm(0.8)), (3.0, LossModel.symmetric(0.5)))
        for nbar, loss in cases:
            mu, qfi = optimal_csv_ratio(nbar, loss)
            for end in (0.0, 1.0):
                assert qfi >= optimize._fisher_information(ResourceSpec.from_energy(ResourceKind.CSV, nbar, end), loss)
            assert 0.0 <= mu <= 1.0

    def test_ratio_bounded(self):
        mu, _ = optimal_csv_ratio(3.0, LossModel.symmetric(0.5))
        assert 0.0 <= mu <= 1.0

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(InvalidArgument):
            optimal_csv_ratio(0.0, LossModel.lossless())


class TestSchemeSensitivity:
    def test_qfi_tmsv(self):
        point = scheme_sensitivity(Scheme.QFI, ResourceKind.TMSV, 10.0, LossModel.symmetric(0.8))
        expected = 1.0 / (2.0 * 0.64 * math.sinh(2 * math.asinh(math.sqrt(5.0))) ** 2 / (1.0 + 2.0 * 0.8 * 0.2 * 5.0))
        assert point.delta2phi == pytest.approx(expected, rel=1e-12)

    # At n̄ = 1000 the phase basin is narrower than the polish's default stencil, and only its
    # re-fit at a smaller offset reaches the closed form (one fit alone reads 3.8e-4 low).
    @pytest.mark.parametrize("nbar, rel", [(10.0, 1e-6), (1000.0, 1e-5)])
    def test_parity_lossless_matches_closed_form(self, nbar, rel):
        point = scheme_sensitivity(Scheme.PARITY, ResourceKind.TMSV, nbar, LossModel.lossless())
        assert point.delta2phi == pytest.approx(1.0 / (nbar * (nbar + 2.0)), rel=rel)

    def test_fixed_mu(self):
        point = scheme_sensitivity(
            Scheme.SINGLE_HD, ResourceKind.CSV, 10.0, LossModel.lossless(), mu=0.5
        )
        assert point.mu == 0.5
        resource = point.resource
        assert point.delta2phi == pytest.approx(
            1.0 / (resource.alpha**2 * math.exp(2 * resource.r)), rel=1e-6
        )

    def test_coherent_benchmark_uses_p_quadrature(self):
        point = scheme_sensitivity(
            Scheme.SINGLE_HD, ResourceKind.COHERENT, 10.0, LossModel.lossless()
        )
        # best quadrature readout of a coherent state: variance 1/2,
        # slope^2 at the optimal point alpha^2/2
        assert point.delta2phi == pytest.approx(0.1, rel=1e-6)

    def test_qfi_csv_fixed_mu_reproduces_optimized_point(self):
        # No closed form covers this loss pattern, so both calls take the
        # fidelity route.
        loss = LossModel(0.7, 0.3)
        optimized = scheme_sensitivity(Scheme.QFI, ResourceKind.CSV, 5.0, loss)
        fixed = scheme_sensitivity(Scheme.QFI, ResourceKind.CSV, 5.0, loss, mu=optimized.mu)
        assert fixed.mu == optimized.mu
        assert fixed.delta2phi == pytest.approx(optimized.delta2phi, rel=1e-12)

    def test_mu_none_searches_and_a_float_pins(self):
        loss = LossModel.symmetric(0.8)
        searched = scheme_sensitivity(Scheme.SINGLE_HD, ResourceKind.CSV, 5.0, loss, mu=None)
        assert searched == scheme_sensitivity(Scheme.SINGLE_HD, ResourceKind.CSV, 5.0, loss)
        assert 0.0 < searched.mu < 1.0
        assert scheme_sensitivity(Scheme.SINGLE_HD, ResourceKind.CSV, 5.0, loss, mu=searched.mu) == searched

    def test_parity_blind_at_every_phase_is_no_optimum(self):
        with pytest.raises(NoOptimum, match="^observable is blind at every phase on the grid$"):
            scheme_sensitivity(Scheme.PARITY, ResourceKind.TMSV, 0.0, LossModel.lossless())

    def test_qfi_zero_energy_is_a_numeric_failure(self):
        with pytest.raises(NumericFailure):
            scheme_sensitivity(Scheme.QFI, ResourceKind.TMSV, 0.0, LossModel.symmetric(0.9))

    def test_double_hd_without_squeezing_reaches_snl(self):
        # quadrature sum over both ports with optimal angles recovers
        # 1/(2 alpha^2) for a bare coherent input
        point = scheme_sensitivity(
            Scheme.DOUBLE_HD, ResourceKind.CSV, 8.0, LossModel.lossless(), mu=0.0
        )
        assert point.delta2phi == pytest.approx(snl(8.0), rel=1e-6)


#: A stand-in point whose error beats any SNL.
BEATS_SNL = SimpleNamespace(delta2phi=0.0)


class TestSnlThreshold:
    def test_qfi_tmsv_symmetric_is_exactly_solvable(self):
        # 2 eta^2 sinh^2(2s)/(1 + 2 eta (1-eta) sinh^2 s) = 2 nbar at
        # nbar = 10 reduces to 22 eta^2 - 10 eta - 1 = 0.
        eta_star = (10.0 + math.sqrt(188.0)) / 44.0
        result = snl_threshold(Scheme.QFI, ResourceKind.TMSV, 10.0, LossKind.SYMMETRIC)
        assert result.status == "crossed"
        assert result.loss_rate == pytest.approx(1.0 - eta_star, abs=1.5e-3)

    def test_bracket_invariant(self):
        result = snl_threshold(Scheme.QFI, ResourceKind.TMSV, 10.0, LossKind.SYMMETRIC)
        target = snl(10.0)
        eps = 2e-3
        below = scheme_sensitivity(
            Scheme.QFI, ResourceKind.TMSV, 10.0, LossKind.SYMMETRIC.model(result.loss_rate - eps)
        )
        above = scheme_sensitivity(
            Scheme.QFI, ResourceKind.TMSV, 10.0, LossKind.SYMMETRIC.model(result.loss_rate + eps)
        )
        assert below.delta2phi < target < above.delta2phi

    def test_threshold_never_exceeds_qfi_threshold(self):
        qfi = snl_threshold(Scheme.QFI, ResourceKind.TMSV, 10.0, LossKind.SYMMETRIC)
        parity = snl_threshold(Scheme.PARITY, ResourceKind.TMSV, 10.0, LossKind.SYMMETRIC)
        assert parity.status == "crossed"
        assert parity.loss_rate <= qfi.loss_rate

    def test_no_crossing_status(self):
        # A single quadrature readout of a coherent state reaches 1/nbar at
        # best, which never beats the 1/(2 nbar) benchmark.
        result = snl_threshold(Scheme.SINGLE_HD, ResourceKind.COHERENT, 10.0, LossKind.SYMMETRIC)
        assert result.status == "no-crossing"
        assert math.isnan(result.loss_rate)

    @pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan, math.inf])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(InvalidArgument):
            snl_threshold(Scheme.QFI, ResourceKind.TMSV, 10.0, LossKind.SYMMETRIC, tol=tol)

    def test_bisection_stops_at_adjacent_floats(self):
        result = snl_threshold(Scheme.QFI, ResourceKind.TMSV, 10.0, LossKind.SYMMETRIC, tol=1e-300)
        lo, hi = result.bracket
        assert result.status == "crossed"
        assert hi == math.nextafter(lo, math.inf)

    def test_failure_at_zero_loss_raises(self):
        with pytest.raises(NumericFailure):
            snl_threshold(Scheme.QFI, ResourceKind.TMSV, 1e300, LossKind.SYMMETRIC)

    @staticmethod
    def threshold_with_fake_chain(monkeypatch, point):
        monkeypatch.setattr(optimize, "_chain", lambda *args, **kwargs: point)
        return snl_threshold(Scheme.QFI, ResourceKind.TMSV, 10.0, LossKind.SYMMETRIC)

    def test_scan_to_full_loss_reports_no_crossing(self, monkeypatch):
        result = self.threshold_with_fake_chain(monkeypatch, lambda nbar, loss, stop_below=None: BEATS_SNL)
        assert math.isnan(result.loss_rate)
        assert (result.bracket, result.iterations, result.status) == ((0.9500000000000003, 1.0), 20, "no-crossing")

    def test_failed_step_does_not_beat_the_snl(self, monkeypatch):
        def point(nbar, loss, stop_below=None):
            if loss.eta_a < 0.5:
                raise NoOptimum("no optimum below eta = 0.5")
            return BEATS_SNL

        result = self.threshold_with_fake_chain(monkeypatch, point)
        assert (result.loss_rate, result.status) == (0.500390625, "crossed")

    def test_fixed_mu_chain_answers_zero_loss_with_its_pin(self, monkeypatch):
        point = _chain(Scheme.QFI, ResourceKind.CSV, optimize_mu=False)
        pin = point(5.0, LossKind.SYMMETRIC.model(0.0))
        monkeypatch.setattr(optimize, "scheme_sensitivity", None)  # no second evaluation
        assert point(5.0, LossModel.lossless()) is pin


def recorded(fn):
    """``fn`` and the list of ``(mu, value)`` probes it is called with."""
    probes = []

    def probe(mu):
        value = fn(mu)
        probes.append((mu, value))
        return value

    return probe, probes


def basin(mu):
    return 1.0 + (mu - 0.37) ** 2


@pytest.mark.parametrize("seed", [None, 0.0, 0.03, 0.97, 1.0])
@pytest.mark.parametrize("vertex", [-0.5, 1.5])
def test_falling_past_an_end_stays_in_the_unit_interval(seed, vertex):
    # The objective is finite everywhere, so only the search's brackets keep mu in [0, 1].
    fn, probes = recorded(lambda mu: (mu - vertex) ** 2)
    mu, value = _minimize_over_mu(fn, seed=seed)
    assert 0.0 <= mu <= 1.0 and value == (mu - vertex) ** 2
    assert all(0.0 <= probe <= 1.0 for probe, _ in probes)


class TestMuSearchTarget:
    @pytest.mark.parametrize("seed", [None, 0.3])
    @pytest.mark.parametrize("target", [1.0 + 1e-3, 1.0 + 1e-7])  # a grid probe first, golden probes only
    def test_returns_the_first_probe_below_the_target(self, seed, target):
        full, probes = recorded(basin)
        _minimize_over_mu(full, seed=seed)
        k = next(i for i, (mu, value) in enumerate(probes) if value < target)
        assert k >= 2
        early, early_probes = recorded(basin)
        assert _minimize_over_mu(early, seed=seed, stop_below=target) == probes[k]
        assert early_probes == probes[: k + 1]

    @pytest.mark.parametrize("seed", [None, 0.3])
    def test_target_below_every_probe_changes_nothing(self, seed):
        full, probes = recorded(basin)
        expected = _minimize_over_mu(full, seed=seed)
        for target in (1.0, -math.inf):
            early, early_probes = recorded(basin)
            assert _minimize_over_mu(early, seed=seed, stop_below=target) == expected
            assert early_probes == probes

    @pytest.mark.parametrize("seed", [None, 0.6])
    def test_scheme_point_is_bit_identical_without_a_reachable_target(self, seed):
        loss = LossModel.symmetric(0.8)
        expected = scheme_sensitivity(Scheme.SINGLE_HD, ResourceKind.CSV, 5.0, loss, mu_seed=seed)
        point = scheme_sensitivity(Scheme.SINGLE_HD, ResourceKind.CSV, 5.0, loss, mu_seed=seed, mu_stop_below=0.0)
        assert (point.mu, point.delta2phi, point.phi_star) == (expected.mu, expected.delta2phi, expected.phi_star)

    def test_the_ends_never_stop_the_search(self):
        # Only mu = 0 is below the target; the search runs on as without it.
        full, probes = recorded(lambda mu: mu + 1.0)
        expected = _minimize_over_mu(full)
        early, early_probes = recorded(lambda mu: mu + 1.0)
        assert _minimize_over_mu(early, stop_below=1.0 + 1e-12) == expected
        assert early_probes == probes

    @pytest.mark.parametrize(
        "error, raised",
        [(NumericFailure("roundoff"), NumericFailure), (DegenerateWorkingPoint("blind"), NoOptimum)],
    )
    def test_failures_are_unchanged(self, error, raised):
        def failing(mu):
            raise error

        messages = []
        for target in (None, 1.0):
            with pytest.raises(raised) as excinfo:
                _minimize_over_mu(failing, stop_below=target)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]


def full_search_threshold(scheme, kind, nbar, loss_kind, tol=1e-3):
    """``snl_threshold``'s scan and bisection, each step a full squeezing-fraction search."""
    target = snl(nbar)
    point = _chain(scheme, kind)

    def gap(loss_rate):
        try:
            return point(nbar, loss_kind.model(loss_rate)).delta2phi - target
        except MziLabError:
            return math.inf

    if point(nbar, loss_kind.model(0.0)).delta2phi - target >= 0.0:
        return ThresholdResult(math.nan, (0.0, 0.0), 0, "no-crossing")
    lo, hi, iterations = 0.0, optimize._SCAN_STEP, 0
    while hi < 1.0:
        iterations += 1
        if gap(min(hi, 1.0 - 1e-9)) >= 0.0:
            break
        lo, hi = hi, hi + optimize._SCAN_STEP
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


_CSV_HOMODYNE_THRESHOLDS = [
    (scheme, nbar, loss_kind)
    for scheme in (Scheme.SINGLE_HD, Scheme.DOUBLE_HD)
    for nbar in (5.0, 10.0)
    for loss_kind in LossKind
]


class TestThresholdStopsAtTheSnl:
    """Thresholds whose squeezing-fraction searches stop at the first fraction that beats the SNL."""

    @pytest.mark.parametrize(
        "scheme, nbar, loss_kind", _CSV_HOMODYNE_THRESHOLDS + [(Scheme.PARITY, 10.0, LossKind.SYMMETRIC)]
    )
    def test_matches_full_searches(self, scheme, nbar, loss_kind):
        result = snl_threshold(scheme, ResourceKind.CSV, nbar, loss_kind)
        reference = full_search_threshold(scheme, ResourceKind.CSV, nbar, loss_kind)
        assert result.status == reference.status == "crossed"
        assert (result.loss_rate, result.bracket, result.iterations) == (
            reference.loss_rate, reference.bracket, reference.iterations
        )

    def test_makes_at_most_half_the_probes(self, monkeypatch):
        probes = [0]
        original = optimize._measurement_optimum

        def counted(scheme, resource, loss):
            probes[0] += 1
            return original(scheme, resource, loss)

        monkeypatch.setattr(optimize, "_measurement_optimum", counted)
        cases = [case for case in _CSV_HOMODYNE_THRESHOLDS if case[1] == 10.0]
        for scheme, nbar, loss_kind in cases:
            snl_threshold(scheme, ResourceKind.CSV, nbar, loss_kind)
        early, probes[0] = probes[0], 0
        for scheme, nbar, loss_kind in cases:
            full_search_threshold(scheme, ResourceKind.CSV, nbar, loss_kind)
        assert early <= probes[0] / 2


class TestRunSweep:
    def test_spec_validation(self):
        with pytest.raises(InvalidArgument):
            SweepSpec(
                variable=SweepVariable.LOSS_RATE,
                lo=0.5,
                hi=0.1,
                points=5,
                schemes=(Scheme.QFI,),
                resources=(ResourceKind.TMSV,),
                loss_kind=LossKind.SYMMETRIC,
            )
        with pytest.raises(InvalidArgument):
            SweepSpec(
                variable=SweepVariable.LOSS_RATE,
                lo=0.0,
                hi=0.5,
                points=1,
                schemes=(Scheme.QFI,),
                resources=(ResourceKind.TMSV,),
                loss_kind=LossKind.SYMMETRIC,
            )

    def test_single_point_matches_direct_call(self):
        spec = SweepSpec(
            variable=SweepVariable.LOSS_RATE,
            lo=0.2,
            hi=0.4,
            points=2,
            schemes=(Scheme.QFI,),
            resources=(ResourceKind.TMSV,),
            loss_kind=LossKind.SYMMETRIC,
            nbar=10.0,
        )
        rows = run_sweep(spec)
        direct = scheme_sensitivity(Scheme.QFI, ResourceKind.TMSV, 10.0, LossModel.symmetric(0.8))
        assert rows[0].delta2phi == pytest.approx(direct.delta2phi, rel=1e-12)
        assert rows[0].beats_snl == (direct.delta2phi < snl(10.0))

    def test_qfi_rows_monotone_in_loss(self):
        spec = SweepSpec(
            variable=SweepVariable.LOSS_RATE,
            lo=0.0,
            hi=0.5,
            points=11,
            schemes=(Scheme.QFI,),
            resources=(ResourceKind.TMSV, ResourceKind.CSV),
            loss_kind=LossKind.SYMMETRIC,
            nbar=10.0,
        )
        rows = run_sweep(spec)
        for kind in ("tmsv", "csv"):
            column = [row.delta2phi for row in rows if row.resource == kind]
            assert all(a <= b + 1e-12 for a, b in zip(column, column[1:]))

    def test_deterministic(self):
        spec = SweepSpec(
            variable=SweepVariable.MEAN_PHOTON_NUMBER,
            lo=2.0,
            hi=20.0,
            points=10,
            schemes=(Scheme.QFI,),
            resources=(ResourceKind.CSV,),
            loss_kind=LossKind.ONE_ARM,
            loss_rate=0.2,
        )
        # NaN-valued fields (phi_star for QFI rows) break dataclass
        # equality, so compare the printed forms.
        assert [repr(r) for r in run_sweep(spec)] == [repr(r) for r in run_sweep(spec)]

    def test_warm_starts_stay_inside_chunks(self):
        # 17 points make two chunks; the single-HD CSV rows carry a
        # warm-started squeezing-fraction search from row to row, and
        # row 16 opens the second chunk with a cold chain.
        spec = SweepSpec(
            variable=SweepVariable.LOSS_RATE,
            lo=0.0,
            hi=0.4,
            points=17,
            schemes=(Scheme.SINGLE_HD,),
            resources=(ResourceKind.CSV,),
            loss_kind=LossKind.SYMMETRIC,
            nbar=4.0,
        )
        rows = run_sweep(spec)
        assert len(rows) == 17
        assert all(row.status == "ok" for row in rows)

        def cold(row):
            point = _chain(Scheme.SINGLE_HD, ResourceKind.CSV, True, mu_tol=1e-3)(
                4.0, LossKind.SYMMETRIC.model(row.loss_rate)
            )
            return point.delta2phi, point.mu, point.phi_star

        assert (rows[16].delta2phi, rows[16].mu, rows[16].phi_star) == cold(rows[16])
        assert (rows[15].delta2phi, rows[15].mu, rows[15].phi_star) != cold(rows[15])  # row 15 is warm

    def test_row_status_records_failures(self):
        # mu pinned at 1 gives the single-HD scheme zero signal everywhere
        spec = SweepSpec(
            variable=SweepVariable.LOSS_RATE,
            lo=0.0,
            hi=0.1,
            points=2,
            schemes=(Scheme.SINGLE_HD,),
            resources=(ResourceKind.CSV,),
            loss_kind=LossKind.SYMMETRIC,
            nbar=4.0,
            optimize_mu=False,
        )
        rows = run_sweep(spec)
        assert all(row.status in ("ok", "NoOptimum") for row in rows)


class TestPipelineCallCounts:
    """Which scheme points run the sampled pipeline, counted by wrapping ``output_grid``."""

    @staticmethod
    def count_phases(monkeypatch, attribute):
        """Record the phase count of every call to ``attribute``, in each module that binds it."""
        modules = [importlib.import_module("mzi_lab." + name) for name in ("interferometer", "measurements", "optimize")]
        modules = [module for module in modules if hasattr(module, attribute)]
        original = getattr(modules[0], attribute)
        phases = []

        def counted(*args, **kwargs):
            phases.append(np.size(args[2]))
            return original(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, attribute, counted)
        return phases

    @pytest.mark.parametrize(
        "scheme, kind",
        [
            (Scheme.SINGLE_HD, ResourceKind.CSV),
            (Scheme.DOUBLE_HD, ResourceKind.CSV),
            (Scheme.SINGLE_HD, ResourceKind.TMSV),
        ],
    )
    def test_quadrature_points_evaluate_phase_coefficients_only(self, monkeypatch, scheme, kind):
        grid = self.count_phases(monkeypatch, "output_grid")
        scheme_sensitivity(scheme, kind, 5.0, LossModel.symmetric(0.8))
        assert grid == []

    def test_parity_point_runs_the_stencil(self, monkeypatch):
        grid = self.count_phases(monkeypatch, "output_grid")
        profile = self.count_phases(monkeypatch, "sensitivity_profile")
        scheme_sensitivity(Scheme.PARITY, ResourceKind.TMSV, 5.0, LossModel.symmetric(0.8))
        assert sum(profile) >= 720
        assert sum(grid) == 5 * sum(profile)
