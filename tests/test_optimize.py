import math

import numpy as np
import pytest

from mzi_lab import (
    InvalidArgument,
    LossKind,
    LossModel,
    NoOptimum,
    NumericFailure,
    ResourceKind,
    Scheme,
    SweepSpec,
    SweepVariable,
    optimal_csv_ratio,
    optimal_phi,
    run_sweep,
    scheme_sensitivity,
    snl,
    snl_threshold,
)
from mzi_lab.errors import DegenerateWorkingPoint
from mzi_lab.optimize import golden_section


class TestGoldenSection:
    def test_quadratic(self):
        x, f = golden_section(lambda x: (x - 1.3) ** 2 + 2.0, -4.0, 4.0, tol=1e-9)
        assert x == pytest.approx(1.3, abs=1e-7)
        assert f == pytest.approx(2.0, abs=1e-12)

    def test_cosine(self):
        x, _ = golden_section(math.cos, 2.0, 4.5, tol=1e-9)
        assert x == pytest.approx(math.pi, abs=1e-7)


class TestOptimalPhi:
    def test_constant_function(self):
        _, value = optimal_phi(lambda phi: 3.75)
        assert value == pytest.approx(3.75)

    def test_known_minimum(self):
        phi, value = optimal_phi(lambda phi: 2.0 - math.sin(phi))
        assert value == pytest.approx(1.0, abs=1e-9)
        assert phi == pytest.approx(math.pi / 2.0, abs=1e-4)

    def test_domain_shift_invariance(self):
        fn = lambda phi: 1.0 + 0.5 * math.cos(3.0 * phi + 0.4)
        _, v0 = optimal_phi(fn, domain=(0.0, 2.0 * math.pi))
        _, v1 = optimal_phi(fn, domain=(2.0 * math.pi, 4.0 * math.pi))
        assert v0 == pytest.approx(v1, abs=1e-6)

    def test_degenerate_everywhere(self):
        def blind(phi):
            raise DegenerateWorkingPoint("no signal")

        with pytest.raises(NoOptimum):
            optimal_phi(blind)

    def test_skips_degenerate_points(self):
        def spiky(phi):
            if abs(phi - 3.0) < 0.01:
                raise DegenerateWorkingPoint("hole around the minimum")
            return (phi - 3.0) ** 2 + 1.0

        # The best evaluable point sits on the hole's rim at |phi - 3| = 0.01.
        _, value = optimal_phi(spiky)
        assert value == pytest.approx(1.0 + 0.01**2, abs=2e-4)


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

    def test_parity_lossless_matches_closed_form(self):
        point = scheme_sensitivity(Scheme.PARITY, ResourceKind.TMSV, 10.0, LossModel.lossless())
        assert point.delta2phi == pytest.approx(1.0 / 120.0, rel=1e-6)

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

    def test_deterministic_and_chunk_independent(self):
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
        serial = run_sweep(spec, threads=1)
        again = run_sweep(spec, threads=1)
        parallel = run_sweep(spec, threads=2)
        # NaN-valued fields (phi_star for QFI rows) break dataclass equality
        # across process boundaries, so compare the printed forms.
        assert [repr(r) for r in serial] == [repr(r) for r in again]
        assert [repr(r) for r in serial] == [repr(r) for r in parallel]

    def test_warm_starts_stay_inside_chunks(self):
        # 17 points make two chunks; the single-HD CSV rows carry a
        # warm-started squeezing-fraction search from row to row.
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
        serial = run_sweep(spec, threads=1)
        parallel = run_sweep(spec, threads=2)
        assert len(serial) == 17
        assert all(row.status == "ok" for row in serial)
        assert [repr(r) for r in serial] == [repr(r) for r in parallel]

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
