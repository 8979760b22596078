"""Weighted moment integrals, growth fits, and the split/comparator probes."""

import math

import numpy as np
import pytest

from zetalab import moments
from zetalab import (
    DegenerateFitError,
    DomainError,
    GrowthFit,
    MomentResult,
    MomentSpec,
    PrecisionError,
    QuadratureSettings,
    dyadic_scan,
    fit_growth,
    integrate_moment,
    sixth_moment_probe,
    split_i1_i2,
    watt_ratio,
)
from zetalab.dirichlet import _MAX_TERMS
from zetalab.errors import ResourceLimitError
from zetalab.quadrature import integrate
from zetalab.zeta import DEFAULT_SETTINGS, _MAX_WEIGHT_TERMS, _dirichlet_sum, zeta_grid_multi


def _no_kernel(*args, **kwargs):
    raise AssertionError("a zeta or Dirichlet-polynomial kernel was reached")


# Independent oracle: fourth moment times |zeta(3/4+it)|^2 over [0, 100],
# computed with mpmath zeta at 30 digits under composite Simpson with
# h = 0.025 (error well below the 1e-6 relative gate used here).
MOMENT_SIGMA34_J1_0_100 = 16452.602373638387


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma": 0.4},
            {"sigma": 1.1},
            {"j": 3},
            {"j": -1},
            {"t_min": -1.0},
            {"t_min": 10.0, "t_max": 5.0},
        ],
    )
    def test_bad_spec(self, kwargs):
        full = {"sigma": 0.75, "j": 1, "t_min": 0.0, "t_max": 50.0}
        full.update(kwargs)
        with pytest.raises(DomainError):
            MomentSpec(**full)

    def test_growth_fit_validation(self):
        with pytest.raises(DomainError):
            GrowthFit(((1.0, 1.0), (2.0, 2.0)), 1.0, 0.0, 0.0)
        with pytest.raises(DegenerateFitError):
            GrowthFit(((1.0, 1.0), (2.0, 0.0), (3.0, 3.0)), 1.0, 0.0, 0.0)


class TestIntegrateMoment:
    def test_empty_interval_is_zero(self):
        res = integrate_moment(MomentSpec(0.75, 1, 30.0, 30.0))
        assert res.value == 0.0 and res.panel_count == 0

    def test_pinned_value(self):
        res = integrate_moment(MomentSpec(0.75, 1, 0.0, 100.0))
        assert res.value == pytest.approx(MOMENT_SIGMA34_J1_0_100, rel=1e-6)
        assert res.error_estimate < 1e-6 * (1 + res.value)

    def test_monotone_in_t_max(self):
        lo = integrate_moment(MomentSpec(0.5, 0, 0.0, 40.0))
        hi = integrate_moment(MomentSpec(0.5, 0, 0.0, 80.0))
        assert 0 <= lo.value <= hi.value

    def test_interval_additivity(self):
        for sigma, j in [(0.75, 1), (0.5, 0)]:
            whole = integrate_moment(MomentSpec(sigma, j, 0.0, 60.0))
            left = integrate_moment(MomentSpec(sigma, j, 0.0, 25.0))
            right = integrate_moment(MomentSpec(sigma, j, 25.0, 60.0))
            tol = whole.error_estimate + left.error_estimate + right.error_estimate
            assert abs(whole.value - (left.value + right.value)) <= tol

    def test_refinement_within_estimate(self):
        for sigma, j, t_max in [(0.6, 1, 50.0), (0.9, 2, 35.0), (0.5, 0, 70.0)]:
            spec = MomentSpec(sigma, j, 0.0, t_max)
            res = integrate_moment(spec)
            finer = integrate_moment(
                MomentSpec(sigma, j, 0.0, t_max, spec.quadrature.halved())
            )
            assert abs(finer.value - res.value) <= res.error_estimate

    def test_j0_ignores_sigma_bitwise(self):
        a = integrate_moment(MomentSpec(0.5, 0, 0.0, 60.0))
        b = integrate_moment(MomentSpec(0.9, 0, 0.0, 60.0))
        assert a.value == b.value
        assert a.panel_count == b.panel_count

    def test_desk_scale_limit(self):
        with pytest.raises(ResourceLimitError):
            integrate_moment(MomentSpec(0.75, 1, 0.0, 2.0e4))

    def test_second_moment_error_term_mean(self):
        """Ingham: integral_0^T |zeta(1/2+it)|^2 dt = T log(T/2 pi) +
        (2 gamma - 1) T + E(T), and (Atkinson; Hafner-Ivic) integral_0^T E
        = pi T + O(T^{3/4}).  The mean of E over [0, T] is one weighted
        integral, integral_0^T (T - u) |zeta(1/2+iu)|^2 du, minus the closed
        form T^2/2 log(T/2 pi) - T^2/4 + (2 gamma - 1) T^2/2.  A relative
        bias delta in the integral moves the mean by about
        delta (T/2) log(T/2 pi), 0.025 for delta = 1e-5, so this checks
        panels, rule, kernel and tail against a constant none of them
        knows; the O(T^{-1/4}) remainder sets the loose pin (3.132 read)."""
        big_t = 1000.0
        res = moments._moment(
            [(0.5, 2)], 0.0, big_t, QuadratureSettings(), DEFAULT_SETTINGS,
            weight=lambda ts: big_t - ts,
        )
        closed = (
            big_t**2 / 2 * math.log(big_t / (2 * math.pi))
            - big_t**2 / 4
            + (2 * np.euler_gamma - 1) * big_t**2 / 2
        )
        assert abs((res.value - closed) / big_t - math.pi) <= 0.5

    def test_stall_raises_precision_error(self, monkeypatch):
        # |zeta(1/2+it)|^8 dips to an octic zero near t = 14.13; two-point
        # panels about 0.7 wide cannot track it, so K and G disagree
        # beyond the stall tolerance.
        monkeypatch.setattr(QuadratureSettings, "points_per_panel", 2)
        with pytest.raises(PrecisionError):
            integrate_moment(MomentSpec(0.5, 2, 13.0, 16.0))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("level", [math.nan, math.inf, 1e307])
    def test_non_finite_moment_raises_precision_error(self, level):
        # a NaN value passed the stall check (NaN > tol is False); finite
        # panels of 1e307 each overflow fsum, which raised OverflowError
        with pytest.raises(PrecisionError, match=r"moment on rows \(\(0.5, 0\),\)"):
            moments._moment(
                [(0.5, 0)], 0.0, 100.0, QuadratureSettings(), DEFAULT_SETTINGS,
                weight=lambda ts: np.full_like(ts, level),
            )


class TestOnePassEstimate:
    # hybrid-moment windows of the benchmark's hybrid-high workload, where
    # the integrand's rounding level, not |K - G|, dominates the estimate
    @pytest.mark.parametrize(
        "t_min, t_max", [(1000.0, 1014.0), (2500.0, 2505.0), (4750.0, 4752.375)]
    )
    @pytest.mark.parametrize("sigma, j", [(0.6, 1), (0.9, 2)])
    def test_refinement_within_estimate_at_height(self, sigma, j, t_min, t_max):
        spec = MomentSpec(sigma, j, t_min, t_max)
        res = integrate_moment(spec)
        finer = integrate_moment(
            MomentSpec(sigma, j, t_min, t_max, spec.quadrature.halved())
        )
        assert abs(finer.value - res.value) <= res.error_estimate

    def test_pole_at_sigma_one_raises(self):
        # |zeta(1+it)|^(2j) ~ t^(-2j) near t = 0 is not integrable; the
        # graded panels at t = 0 must not hide it, on short or long spans
        for j in (1, 2):
            for t_max in (0.7, 3.0, 10.0, 30.0):
                with pytest.raises(PrecisionError):
                    integrate_moment(MomentSpec(1.0, j, 0.0, t_max))

    @pytest.mark.parametrize(
        "sigma, j, t_min, t_max",
        [
            (0.9, 2, 0.0, 22.0),  # graded stretch below t* = 3.98, then log
            (0.9, 2, 0.0, 184.0),
            (0.75, 1, 88.0, 184.0),  # log stretch only
            (0.5, 2, 9950.0, 1.0e4),  # near the desk-scale top
        ],
    )
    def test_estimates_cover_the_half_width_move(self, sigma, j, t_min, t_max):
        spec = MomentSpec(sigma, j, t_min, t_max)
        res = integrate_moment(spec)
        finer = integrate_moment(
            MomentSpec(sigma, j, t_min, t_max, spec.quadrature.halved())
        )
        assert finer.panel_count > res.panel_count > 0
        assert abs(finer.value - res.value) <= res.error_estimate + finer.error_estimate

    @pytest.mark.parametrize("t_min, t_max", [(0.0, 50.0), (4750.0, 4752.375)])
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_wide_panels_agree_with_half_width(self, j, t_min, t_max):
        # halved() is the narrower bandwidth term 2 / log(2 + t) above t*;
        # the wide rule must move the value within its estimate and leave
        # the estimate, set by the rounding term, where it was
        spec = MomentSpec(0.6, j, t_min, t_max)
        wide = integrate_moment(spec)
        half = integrate_moment(
            MomentSpec(0.6, j, t_min, t_max, spec.quadrature.halved())
        )
        assert abs(wide.value - half.value) <= wide.error_estimate
        assert 1 / 1.25 <= wide.error_estimate / half.error_estimate <= 1.25

    def test_scan_sums_pieces(self):
        t_list = [16.0, 32.0, 64.0, 128.0]
        fit = dyadic_scan(0.75, 1, t_list)
        pieces = []
        for lo, hi, (big_t, sample) in zip([0.0] + t_list, t_list, fit.samples):
            piece = integrate_moment(MomentSpec(0.75, 1, lo, hi))
            pieces.append(piece)
            assert big_t == hi
            assert sample == math.fsum(p.value for p in pieces)
            whole = integrate_moment(MomentSpec(0.75, 1, 0.0, hi))
            assert abs(sample - whole.value) <= whole.error_estimate


def test_dirichlet_sum_matches_dense_phase_matrix():
    # The shared kernel against sum_m c_m e^{-it log m} from one dense
    # phase matrix, on |P|^2 as the moment weights use it.  Complex
    # coefficients go in as a real and an imaginary row; the + sign is
    # reached through conj(c), as watt_ratio does.  The tolerance is the
    # phase level 4 eps |t| log M (sum |c_m|)^2, with |t| + 1 in place of
    # |t| for the rounding of the sums themselves near t = 0; at M = 1
    # it is 0, and the kernel must return c exactly.
    rng = np.random.default_rng(7)
    heights = [np.linspace(-300.0, 300.0, 1301), 1e4 + np.linspace(-3.0, 3.0, 401)]
    for m_len in (1, 2, 40, 115):
        log_m = np.log(np.arange(1.0, m_len + 1))
        real = np.arange(1.0, m_len + 1) ** -0.75
        for coeffs in (real, real * np.exp(2j * np.pi * rng.random(m_len))):
            for sign in (-1.0, 1.0):
                c = coeffs if sign < 0 else np.conj(coeffs)
                rows = np.array([c.real, c.imag] if np.iscomplexobj(c) else [c])
                for ts in heights:
                    sums = _dirichlet_sum(rows, ts, math.log(m_len))
                    got = np.abs(sums[0] if len(rows) == 1 else sums[0] + 1j * sums[1]) ** 2
                    dense = np.abs(np.exp(sign * 1j * np.outer(ts, log_m)) @ coeffs) ** 2
                    scale = np.sum(np.abs(coeffs)) ** 2
                    tol = 4 * 2.0**-52 * (1 + np.abs(ts)) * math.log(m_len) * scale
                    assert np.all(np.abs(got - dense) <= tol), (m_len, sign, ts[0])
    ts = np.concatenate(heights)
    single = np.array([[0.75], [-2.5]])
    assert np.array_equal(_dirichlet_sum(single, ts, 0.0), np.broadcast_to(single, (2, ts.size)))


class TestGrowthFit:
    def test_exact_linear_power(self):
        fit = fit_growth([(t, 3.5 * t) for t in (10.0, 20.0, 40.0, 80.0)])
        assert fit.exponent == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.5), abs=1e-12)
        assert fit.residual_rms <= 1e-13

    def test_exact_quadratic_power(self):
        fit = fit_growth([(t, 0.25 * t * t) for t in (8.0, 16.0, 32.0)])
        assert fit.exponent == pytest.approx(2.0, abs=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(DomainError):
            fit_growth([(1.0, 1.0), (2.0, 2.0)])

    def test_nonpositive_t(self):
        with pytest.raises(DomainError):
            fit_growth([(0.0, 1.0), (2.0, 2.0), (3.0, 3.0)])

    def test_nonpositive_value(self):
        with pytest.raises(DegenerateFitError):
            fit_growth([(1.0, 1.0), (2.0, -2.0), (3.0, 3.0)])

    def test_scan_needs_ascending_t(self):
        with pytest.raises(DomainError):
            dyadic_scan(0.9, 1, [64.0, 32.0, 128.0])
        with pytest.raises(DomainError):
            dyadic_scan(0.9, 1, [64.0, 128.0])


class TestSplit:
    def test_prefactor_is_neutral_at_unit_smoothing(self):
        # Y = 1 kills the Y^{1-2 sigma} prefactor and the second piece
        # never sees sigma, so I2 must agree bitwise across sigma.
        _, i2_a = split_i1_i2(40.0, 0.6, 1.0)
        _, i2_b = split_i1_i2(40.0, 0.8, 1.0)
        assert i2_a == i2_b  # value, estimate and panels

    def test_recorded_run_is_finite_positive(self):
        big_t = 80.0
        i1, i2 = split_i1_i2(big_t, 5 / 6, big_t**0.375)
        assert i1.value > 0 and i2.value > 0
        assert math.isfinite(i1.value) and math.isfinite(i2.value)

    @pytest.mark.parametrize(
        "args",
        [
            (1.0, 0.75, 8.0),
            (100.0, 0.5, 8.0),
            (100.0, 1.0, 8.0),
            (100.0, 0.75, 0.5),
        ],
    )
    def test_domain_errors(self, args):
        with pytest.raises(DomainError):
            split_i1_i2(*args)

    def test_desk_scale_limit(self):
        with pytest.raises(ResourceLimitError):
            split_i1_i2(5000.0, 0.75, 8.0)
        with pytest.raises(ResourceLimitError):  # the guard precedes the sigma check
            split_i1_i2(5000.0, 0.5, 8.0)

    def test_i1_against_dense_weight(self):
        # |sum_n e^{-n/Y} n^{-sigma-it}|^2 from one dense phase matrix,
        # integrated over the same panels
        big_t, sigma, smoothing = 40.0, 0.75, 40.0**0.375
        n = np.arange(1.0, math.floor(smoothing * math.log(big_t) ** 2) + 1)
        coeffs = np.exp(-n / smoothing) * n**-sigma

        def dense(ts):
            poly = np.exp(-1j * np.outer(ts, np.log(n))) @ coeffs
            return np.abs(zeta_grid_multi([0.5], ts)[0]) ** 4 * np.abs(poly) ** 2

        value, panels, _ = integrate(dense, 0.0, big_t, QuadratureSettings())
        i1, _ = split_i1_i2(big_t, sigma, smoothing)
        assert i1.panel_count == panels
        assert abs(i1.value - value) <= i1.error_estimate

    def test_i2_runs_on_half_width_panels(self):
        # I2's weight has corners, so it keeps the narrower panels; I1's is
        # a Dirichlet polynomial and takes the settings as given
        q = QuadratureSettings()
        i1, i2 = split_i1_i2(96.0, 0.75, 96.0**0.375, q)
        assert i1.panel_count == integrate(np.cos, 0.0, 96.0, q)[1]
        assert i2.panel_count == integrate(np.cos, 0.0, 96.0, q.halved())[1]

    def test_polynomial_beyond_term_cap(self):
        log_sq = math.log(96.0) ** 2
        smoothing = (_MAX_TERMS + 1.5) / log_sq
        assert math.floor(smoothing * log_sq) == _MAX_TERMS + 1
        with pytest.raises(ResourceLimitError):
            split_i1_i2(96.0, 0.75, smoothing)

    def test_polynomial_beyond_weight_cap(self, monkeypatch):
        monkeypatch.setattr(moments, "_dirichlet_sum", _no_kernel)
        monkeypatch.setattr(moments, "zeta_grid_multi", _no_kernel)
        log_sq = math.log(2000.0) ** 2
        smoothing = (_MAX_WEIGHT_TERMS + 1.5) / log_sq
        assert math.floor(smoothing * log_sq) == _MAX_WEIGHT_TERMS + 1
        with pytest.raises(ResourceLimitError, match="Y log"):
            split_i1_i2(2000.0, 0.75, smoothing)

    def test_non_finite_t(self):
        with pytest.raises(DomainError):
            split_i1_i2(math.nan, 0.75, 8.0)
        with pytest.raises(DomainError):
            split_i1_i2(-math.inf, 0.75, 8.0)
        with pytest.raises(ResourceLimitError):  # +inf meets the height guard first
            split_i1_i2(math.inf, 0.75, 8.0)


class TestWatt:
    def test_zero_t(self):
        assert watt_ratio(0.0, [1.0, 1.0]) == (MomentResult(0.0, 0.0, 0), 0.0, 0.0)

    def test_zero_coefficients(self):
        lhs, rhs, ratio = watt_ratio(50.0, [0.0, 0.0, 0.0])
        assert lhs.value == 0.0 and rhs == 0.0 and ratio == 0.0

    def test_single_unit_coefficient_matches_plain_fourth_moment(self):
        # |1 * 1^{it}|^2 = 1 exactly, so the weighted integral collapses
        # to the plain fourth moment over the same partition, bit for bit;
        # with M = 1 the estimates agree too.
        lhs, _, _ = watt_ratio(60.0, [1.0])
        plain = integrate_moment(MomentSpec(0.5, 0, 0.0, 60.0))
        assert lhs == plain

    def test_complex_coefficients_against_dense_weight(self):
        # |sum_m a_m m^{+it}|^2 from one dense phase matrix, integrated over
        # the same panels; the kernel reaches the + sign through conj(a_m),
        # and conj(a) itself gives a different integral
        a = np.array([1.0, 0.5j, -0.25 + 0.3j, 0.1])
        log_m = np.log(np.arange(1.0, 5.0))

        def dense(ts):
            poly = np.exp(1j * np.outer(ts, log_m)) @ a
            return np.abs(zeta_grid_multi([0.5], ts)[0]) ** 4 * np.abs(poly) ** 2

        value, panels, _ = integrate(dense, 0.0, 120.0, QuadratureSettings())
        lhs, _, _ = watt_ratio(120.0, a)
        assert lhs.panel_count == panels
        assert abs(lhs.value - value) <= lhs.error_estimate
        assert abs(watt_ratio(120.0, np.conj(a))[0].value - value) > 0.01 * value

    @pytest.mark.parametrize(
        "big_t, coeffs",
        [
            (100.0, [0.0, 1e200]),
            (100.0, [0.0, 1e-200]),
            (100.0, [0.0, 1e155 + 1e155j]),
            (100.0, [0.0, 5e-324]),
            (100.0, [1e150] + [0.0] * 999),
            (5e-324, [1.0]),
        ],
    )
    def test_rhs_outside_the_float_range(self, big_t, coeffs, monkeypatch):
        # max|a_m|^2 overflowed to inf (lhs inf, ratio nan) or underflowed
        # to 0 (ratio 0, though the ratio does not depend on the scale),
        # or rhs itself did; refused before the kernels run
        monkeypatch.setattr(moments, "zeta_grid_multi", _no_kernel)
        with pytest.raises(DomainError, match="lies outside the float range"):
            watt_ratio(big_t, coeffs)

    def test_rhs_formula(self):
        _, rhs, _ = watt_ratio(100.0, [0.0, 3.0])
        expected = 100.0**1.01 * 2 * (1 + 4 / math.sqrt(100.0)) * 9.0
        assert rhs == pytest.approx(expected, rel=1e-15)

    def test_ratio_stable_under_refinement(self):
        coeffs = [m ** (-0.75) for m in range(1, 9)]
        base = watt_ratio(300.0, coeffs)
        fine = watt_ratio(300.0, coeffs, QuadratureSettings(width_scale=0.5))
        assert base[2] == pytest.approx(fine[2], rel=0.05)

    @pytest.mark.parametrize(
        "args",
        [
            (-1.0, [1.0]),
            (10.0, [1.0, math.nan]),
            (10.0, []),
        ],
    )
    def test_domain_errors(self, args):
        with pytest.raises(DomainError):
            watt_ratio(*args)

    def test_desk_scale_limit(self):
        with pytest.raises(ResourceLimitError):
            watt_ratio(5000.0, [1.0])

    def test_weight_beyond_cap(self, monkeypatch):
        monkeypatch.setattr(moments, "_dirichlet_sum", _no_kernel)
        monkeypatch.setattr(moments, "zeta_grid_multi", _no_kernel)
        m = _MAX_WEIGHT_TERMS + 1
        with pytest.raises(ResourceLimitError, match="weight terms"):
            watt_ratio(2000.0, np.ones(m))
        with pytest.raises(ResourceLimitError):  # the guard precedes the zero-peak return
            watt_ratio(5000.0, [0.0, 0.0, 0.0])

    def test_non_finite_t(self):
        with pytest.raises(DomainError):
            watt_ratio(math.nan, [1.0])
        with pytest.raises(DomainError):  # refused before the zero-peak return
            watt_ratio(math.nan, [0.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            watt_ratio(-math.inf, [1.0])
        with pytest.raises(ResourceLimitError):
            watt_ratio(math.inf, [1.0])


class TestSixthMomentProbe:
    def test_zero_t(self):
        assert sixth_moment_probe(0.0) == MomentResult(0.0, 0.0, 0)

    def test_trend_pair_recorded(self):
        lo = sixth_moment_probe(64.0).value
        hi = sixth_moment_probe(128.0).value
        assert lo > 0 and hi > 0
        assert math.isfinite(hi / lo)

    def test_guards(self):
        with pytest.raises(DomainError):
            sixth_moment_probe(-1.0)
        with pytest.raises(ResourceLimitError):
            sixth_moment_probe(5000.0)

    def test_non_finite_t(self):
        with pytest.raises(DomainError):
            sixth_moment_probe(math.nan)
        with pytest.raises(DomainError):
            sixth_moment_probe(-math.inf)
        with pytest.raises(ResourceLimitError):
            sixth_moment_probe(math.inf)


def _power_coeffs(m_length: int, exponent: float) -> list[float]:
    return [m**exponent for m in range(1, m_length + 1)]


# The inputs of the CLI tests, the regression report and the benchmark's
# lab-session workload.  Each call maps a quadrature rule to one result.
ONE_PATH_CASES = {
    **{
        f"split-I{k + 1}-T{big_t:g}-s{sigma}": (
            lambda q, big_t=big_t, sigma=sigma, k=k: split_i1_i2(
                big_t, sigma, big_t**0.375, q
            )[k]
        )
        for big_t, sigma in [(40.0, 0.75), (96.0, 0.6), (96.0, 0.7), (96.0, 0.8)]
        for k in (0, 1)
    },
    **{
        f"watt-T{big_t:g}-M{m}-e{e}": (
            lambda q, big_t=big_t, m=m, e=e: watt_ratio(
                big_t, _power_coeffs(m, e), q
            )[0]
        )
        for big_t, m, e in [
            (30.0, 4, -0.5),
            (150.0, 4, -0.5),
            (150.0, 8, -0.75),
            (150.0, 16, -0.5),
            (200.0, 8, -0.75),
        ]
    },
    **{
        f"sixth-T{big_t:g}": (lambda q, big_t=big_t: sixth_moment_probe(big_t, q))
        for big_t in (64.0, 128.0, 256.0)
    },
}


class TestOnePath:
    @pytest.mark.parametrize("case", sorted(ONE_PATH_CASES))
    def test_half_width_within_estimate(self, case):
        base = ONE_PATH_CASES[case](QuadratureSettings())
        finer = ONE_PATH_CASES[case](QuadratureSettings().halved())
        assert base.panel_count > 0
        assert abs(finer.value - base.value) <= base.error_estimate

    @pytest.mark.parametrize(
        "case", ["split-I1-T40-s0.75", "watt-T30-M4-e-0.5", "sixth-T64"]
    )
    def test_rough_rule_raises_precision_error(self, case, monkeypatch):
        # two-point panels cannot track |zeta|^4 or |zeta|^6 near the
        # low zeros, as in test_stall_raises_precision_error
        monkeypatch.setattr(QuadratureSettings, "points_per_panel", 2)
        with pytest.raises(PrecisionError):
            ONE_PATH_CASES[case](QuadratureSettings())

    def test_split_i2_estimate_covers_the_rule_change(self):
        # I2 of `moment split --T 96` moved 4.45e-9 relative when the panel
        # rule went from G16 to K21; its estimate must cover that move.
        _, i2 = split_i1_i2(96.0, 0.75, 96.0**0.375)
        assert i2.error_estimate >= 4.45e-9 * i2.value

    def test_rounding_term_counts_polynomial_length(self):
        # the same |zeta|^4 integral with an M-term unit-modulus polynomial
        # weight adds 2 eps T log M |I| to the rounding term; the kernel
        # gives |P|^2 = 1 only to within a few ulp, so the weighted value
        # may differ from the plain one, but by no more than that term
        big_t, m = 300.0, 16
        plain = watt_ratio(big_t, [1.0])[0]
        weighted = watt_ratio(big_t, [1.0] + [0.0] * (m - 1))[0]
        expected = 2 * 2.0**-52 * big_t * math.log(m) * plain.value
        assert abs(weighted.value - plain.value) <= expected
        extra = weighted.error_estimate - plain.error_estimate
        assert extra == pytest.approx(expected, rel=1e-9)
