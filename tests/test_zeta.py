"""Zeta engine: Euler-Maclaurin values, chi, and the finite-sum forms.

Pinned decimal constants are frozen oracles: each was computed two
independent ways (30-digit Euler-Maclaurin with doubled term count, and
mpmath's zeta / direct brute-force summation) and they agreed to well
below the asserted tolerance.
"""

import cmath
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from zetalab import (
    DivisorTable,
    DomainError,
    EvalSettings,
    PoleError,
    PrecisionError,
    ResourceLimitError,
    ZetalabError,
    afe_simple,
    afe_zeta_squared,
    chi,
    chi_grid,
    functional_equation_residual,
    report,
    smoothed_sum,
    zeta,
    zeta_grid_multi,
)
from zetalab.dirichlet import _MAX_TERMS
from zetalab.quadrature import panel_edges
from zetalab.zeta import (
    DEFAULT_SETTINGS,
    _choose_terms,
    _log_gamma,
    _remainder_log_bound,
    _zeta_at,
    _zeta_points,
    _zeta_values,
    bernoulli_numbers,
    default_smoothing_truncation,
    partial_zeta_sum,
)

# frozen oracles (see module docstring)
ZETA_HALF = -1.4603545088095868
ZETA_MINUS_HALF = -0.20788622497735457
ZETA_THREE = 1.2020569031595942
SMOOTHED_Y1_S2 = 0.4087542873488963  # sum e^-n n^-2 = Li_2(1/e), brute force
SMOOTHED_Y1E4_S2 = 1.6439130303110427  # brute force n <= 250000


class TestZetaValues:
    def test_classical_points(self):
        assert abs(zeta(2) - math.pi**2 / 6) <= 1e-12
        assert abs(zeta(0) - (-0.5)) <= 1e-12
        assert abs(zeta(3) - ZETA_THREE) <= 1e-12

    def test_half_line_oracle(self):
        assert abs(zeta(0.5) - ZETA_HALF) <= 1e-12

    def test_continuation_below_zero(self):
        assert abs(zeta(-0.5) - ZETA_MINUS_HALF) <= 1e-12

    def test_conjugate_symmetry_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            s = complex(rng.uniform(0.25, 2.0), rng.uniform(-100.0, 100.0))
            assert zeta(s.conjugate()) == zeta(s).conjugate()

    def test_pole(self):
        with pytest.raises(PoleError):
            zeta(1.0)
        with pytest.raises(PoleError):
            zeta(1 + 0j)

    def test_domain_limits(self):
        with pytest.raises(DomainError):
            zeta(0.5 + 2e6j)
        with pytest.raises(DomainError):
            zeta(-1.5)

    @pytest.mark.parametrize(
        "s", [math.nan, complex(0.5, math.nan), complex(math.nan, 10.0), complex(0.5, math.inf)]
    )
    def test_non_finite_s_is_a_domain_error(self, s):
        # not the PrecisionError of an unreachable target
        with pytest.raises(DomainError, match="s must be finite"):
            zeta(s)

    def test_doubling_terms_is_stable(self):
        for s in (0.75 + 50j, 0.5 + 200j, 0.3 + 14.1347j):
            auto = _choose_terms(s, DEFAULT_SETTINGS)
            assert abs(zeta(s) - _zeta_at(s, 2 * auto)) <= 1e-12

    @pytest.mark.parametrize("sigma", [-1.0, -0.25, 0.5, 0.75, 1.0, 2.0])
    def test_zeta_is_the_value_at_the_chosen_length(self, sigma):
        for t in (0.0, 3.5, 14.134725, 100.0, 1e3, 4750.0, 1e4):
            s = complex(sigma, t)
            if s == 1:
                continue
            expected = _zeta_at(s, _choose_terms(s, DEFAULT_SETTINGS))
            got = zeta(s)
            assert (got.real, got.imag) == (expected.real, expected.imag)  # bitwise

    def test_bernoulli_numbers(self):
        from fractions import Fraction as F

        b = bernoulli_numbers(8)
        assert b[0] == 1 and b[1] == F(-1, 2)
        assert b[2] == F(1, 6) and b[4] == F(-1, 30)
        assert b[3] == 0 and b[5] == 0 and b[7] == 0
        assert b[8] == F(-1, 30)

    def test_settings_validation(self):
        for bad in (0.0, -1e-13, math.nan, math.inf):
            with pytest.raises(DomainError):
                EvalSettings(target_abs_error=bad)


def _assert_oracle_level(s: complex):
    """zeta(s) against 30-digit mpmath within the truncation target plus
    the phase rounding: 2 target + 4 eps |t| log N scale, with
    scale = max(|zeta|, 1, N^(1/2-sigma)).  N^(1/2-sigma) is the
    random-walk size of the direct terms n^-sigma, which exceeds |zeta|
    for sigma < 1/2 (at sigma = -1 the rounding reaches 1.3 times the
    tolerance without it)."""
    n = _choose_terms(s, DEFAULT_SETTINGS)
    with mpmath.workdps(30):
        ref = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
    scale = max(abs(ref), 1.0, n ** (0.5 - s.real))
    rounding = 4 * np.finfo(float).eps * abs(s.imag) * math.log(n) * scale
    tol = 2 * DEFAULT_SETTINGS.target_abs_error + rounding
    got = zeta(s)
    assert abs(got - ref) <= tol, (s, n, got, ref, tol)


class TestAutoRule:
    """The auto rule picks the smallest N whose remainder bound meets the
    target, and zeta() at that N stays at the target."""

    @pytest.mark.parametrize("sigma", [-1.0, 0.5, 0.75, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.0, 1.0, 14.0, 100.0, 1e3, 1e4, 1e5])
    def test_minimal(self, sigma, t):
        s = complex(sigma, t)
        log_target = math.log(DEFAULT_SETTINGS.target_abs_error)
        n = _choose_terms(s, DEFAULT_SETTINGS)
        assert _remainder_log_bound(s, n) <= log_target
        assert n == 2 or _remainder_log_bound(s, n - 1) > log_target
        assert n <= max(50, math.ceil(2 * t))  # the former start of the search

    def test_unreachable_target_raises(self):
        # with q = 12 the target 1e-300 needs log N of about 30, past the
        # log of the term cap
        assert math.log(_MAX_TERMS) < 30
        with pytest.raises(PrecisionError, match="cannot reach target"):
            zeta(0.5 + 100j, EvalSettings(target_abs_error=1e-300))

    def test_term_cap_cuts_no_value(self):
        # the longest length over the supported domain, at its corner
        assert _choose_terms(complex(-1.0, 1e6), DEFAULT_SETTINGS) <= _MAX_TERMS

    @pytest.mark.parametrize(
        "s",
        [
            complex(sigma, t)
            for sigma in (-1.0, 0.0, 0.5, 1.0, 2.0)
            for t in (0.0, 0.5, 3.0, 14.134725, 37.5, 71.25, 100.0)
            if complex(sigma, t) != 1
        ],
    )
    def test_low_t_against_mpmath(self, s):
        _assert_oracle_level(s)

    @settings(max_examples=60, deadline=None)
    @given(
        sigma=st.floats(-1.0, 2.0),
        t=st.floats(-2000.0, 2000.0),
    )
    def test_drawn_points_against_mpmath(self, sigma, t):
        s = complex(sigma, t)
        # near the pole |zeta| ~ 1/|s - 1| outgrows the absolute target
        assume(abs(s - 1) >= 0.25)
        _assert_oracle_level(s)


class TestZetaGrid:
    def test_matches_scalar_path(self):
        ts = np.array([0.5, 14.134725, 37.5, 99.0])
        grid = zeta_grid_multi([0.5, 0.75, 2.0], ts)
        assert grid.shape == (3, 4)
        for row, sig in enumerate([0.5, 0.75, 2.0]):
            for col, t in enumerate(ts):
                assert abs(grid[row, col] - zeta(complex(sig, t))) <= 1e-11

    def test_empty_ts(self):
        assert zeta_grid_multi([0.5], np.array([])).shape == (1, 0)

    def test_empty_sigmas(self):
        assert zeta_grid_multi([], np.array([1.0, 2.0, 3.0])).shape == (0, 3)

    def test_pole_and_domain(self):
        with pytest.raises(PoleError):
            zeta_grid_multi([1.0], np.array([0.0, 5.0]))
        with pytest.raises(DomainError):
            zeta_grid_multi([-2.0], np.array([1.0]))

    @pytest.mark.parametrize(
        "s", [complex(1.0, 0.0), complex(-1.5, 3.0), complex(0.5, -2e6), complex(math.nan, 1.0)]
    )
    def test_grid_refuses_as_scalar_does(self, s):
        with pytest.raises(DomainError) as scalar:
            zeta(s)
        with pytest.raises(type(scalar.value), match=re.escape(str(scalar.value))):
            zeta_grid_multi([0.75, s.real], np.array([s.imag / 2, s.imag]))

    @pytest.mark.parametrize(
        "sigmas, ts",
        [([0.5], [1.0, math.nan]), ([0.5, math.nan], [1.0]), ([0.5], [-math.inf])],
    )
    def test_non_finite_s_is_a_domain_error(self, sigmas, ts):
        with pytest.raises(DomainError, match="s must be finite"):
            zeta_grid_multi(sigmas, np.array(ts))


GRID_SIGMAS = (0.5, 0.75, 1.0)


def _panel_nodes(t0: float) -> np.ndarray:
    """16 Gauss nodes on each half-width quadrature panel of [t0, t0 + 1]."""
    edges = panel_edges(t0, t0 + 1, 0.5)
    x, _ = np.polynomial.legendre.leggauss(16)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * (edges[1:] - edges[:-1])
    return (mids[:, None] + halves[:, None] * x[None, :]).ravel()


def _grid_terms(ts: np.ndarray) -> int:
    """The Euler-Maclaurin length N one grid call over ts uses."""
    return _choose_terms(complex(min(GRID_SIGMAS), np.max(np.abs(ts))), DEFAULT_SETTINGS)


def _assert_phase_level(got: complex, ref: complex, s: complex, n: int):
    """|got - ref| <= 4 eps |t| log N max(|ref|, 1, N^(1/2-sigma)): the
    rounding of the phases t log n, which bounds both the grid and the
    scalar engine.  N^(1/2-sigma), the random-walk size of the direct
    terms, is the scale of _assert_oracle_level; it is at most 1 for
    sigma >= 1/2."""
    scale = max(abs(ref), 1.0, n ** (0.5 - s.real))
    tol = 4 * np.finfo(float).eps * abs(s.imag) * math.log(n) * scale
    assert abs(got - ref) <= tol, (s, got, ref, tol)


def _assert_grid_matches_scalar(ts: np.ndarray):
    grid = zeta_grid_multi(GRID_SIGMAS, ts)
    n = _grid_terms(ts)
    for row, sig in enumerate(GRID_SIGMAS):
        for t, got in zip(ts, grid[row]):
            _assert_phase_level(got, zeta(complex(sig, t)), complex(sig, t), n)


class TestGridTaylorShift:
    """The cell-centred Taylor-shift kernel against independent oracles."""

    @pytest.mark.parametrize("t0", [100.0, 1000.0, 4750.0, 9990.0])
    def test_panel_nodes_against_mpmath(self, t0):
        nodes = _panel_nodes(t0)
        grid = zeta_grid_multi(GRID_SIGMAS, nodes)
        n = _grid_terms(nodes)
        picks = np.linspace(0, nodes.size - 1, 16).astype(int)
        with mpmath.workdps(30):
            for row, sig in enumerate(GRID_SIGMAS):
                for i in picks:
                    ref = complex(mpmath.zeta(mpmath.mpc(sig, nodes[i])))
                    _assert_phase_level(grid[row, i], ref, complex(sig, nodes[i]), n)

    @pytest.mark.parametrize("t0", [100.0, 1000.0, 4750.0, 9990.0])
    def test_panel_nodes_against_scalar(self, t0):
        _assert_grid_matches_scalar(_panel_nodes(t0))

    @pytest.mark.parametrize("t", [123.4, -777.7, 4321.0])
    def test_one_node(self, t):
        _assert_grid_matches_scalar(np.array([t]))

    def test_reversed_and_duplicated_nodes_bit_identical(self):
        nodes = _panel_nodes(1000.0)
        grid = zeta_grid_multi(GRID_SIGMAS, nodes)
        reversed_grid = zeta_grid_multi(GRID_SIGMAS, nodes[::-1])
        assert np.array_equal(reversed_grid[:, ::-1], grid)
        doubled = np.concatenate([nodes, nodes[::3], nodes[:5]])
        doubled_grid = zeta_grid_multi(GRID_SIGMAS, doubled)
        assert np.array_equal(doubled_grid[:, : nodes.size], grid)
        repeated = np.r_[0 : nodes.size : 3, 0:5]
        assert np.array_equal(doubled_grid[:, nodes.size :], grid[:, repeated])

    def test_node_on_cell_edge(self):
        n = _grid_terms(np.array([1001.0]))
        width = 4 / math.log(n)
        k = math.ceil(1001 / width)
        while (k * width) / width != k:
            k += 1
        edge = k * width
        assert edge / width == k  # on the cell lattice exactly
        offsets = width * np.array([0.5, 0.3, 0.1, 1e-9])
        ts = np.concatenate([edge - offsets, [edge], edge + offsets[::-1]])
        assert _grid_terms(ts) == n
        _assert_grid_matches_scalar(ts)

    def test_negative_t(self):
        _assert_grid_matches_scalar(
            np.concatenate([-_panel_nodes(1000.0), -_panel_nodes(100.0), _panel_nodes(100.0)])
        )


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def _scalar_terms(s: complex, target: float = 1e-13) -> int:
    """The length rule one point at a time, with math.log and fsum: the
    formula _choose_terms evaluates on arrays, kept here as the oracle."""
    q = 12
    sigma, p = s.real, s.real + 2 * q + 1
    log_b = math.log(abs(float(bernoulli_numbers(2 * q + 2)[2 * q + 2]))) - math.lgamma(2 * q + 3)
    log_rise = math.fsum(math.log(abs(s + i)) for i in range(2 * q + 1) if abs(s + i) > 0)
    a = log_b + log_rise + math.log(abs(s + 2 * q + 1) / (sigma + 2 * q + 1))
    log_target = math.log(target)
    n = max(2, math.ceil(math.exp((a - log_target) / p)))
    while n > 2 and a - p * math.log(n - 1) <= log_target:
        n -= 1
    while a - p * math.log(n) > log_target:
        n += 1
    return n


def _drawn_points(count: int, t_max_exp: float, seed: int) -> list[complex]:
    """sigma uniform in [-1, 2], |t| log-uniform up to 10^t_max_exp, both signs."""
    rng = np.random.default_rng(seed)
    sigma = rng.uniform(-1.0, 2.0, count)
    t = rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-2.0, t_max_exp, count)
    return [complex(a, b) for a, b in zip(sigma, t) if abs(complex(a, b) - 1) >= 0.1]


class TestArrayRule:
    """The length rule on arrays gives the one-point formula's N, and a
    batch refuses what zeta() refuses at its offending point."""

    def test_scan_grids(self):
        fe = report.fe_check_grid("fine") + report.fe_check_grid("coarse")
        points = fe + [1 - s for s in fe]
        points += [complex(sigma, t) for sigma, t, _ in report.afe_grid()]
        points += [complex(sigma, t) for sigma, t, _ in report.afe2_grid()]
        got = _choose_terms(np.array(points), DEFAULT_SETTINGS).tolist()
        assert got == [_scalar_terms(s) for s in points]
        assert got == [_choose_terms(s, DEFAULT_SETTINGS) for s in points]  # alone

    def test_drawn_points(self):
        points = _drawn_points(10_000, 6.0, seed=17)
        got = _choose_terms(np.array(points), DEFAULT_SETTINGS)
        assert got.tolist() == [_scalar_terms(s) for s in points]

    def test_one_point_is_an_int(self):
        n = _choose_terms(0.5 + 14j, DEFAULT_SETTINGS)
        assert type(n) is int and n == _scalar_terms(0.5 + 14j)

    @pytest.mark.parametrize(
        "bad, target",
        [
            (complex(math.nan, 1.0), 1e-13),
            (complex(1.0, 0.0), 1e-13),
            (complex(0.5, -2e6), 1e-13),
            (complex(-1.5, 3.0), 1e-13),
            (complex(-1.0, 1e6), 1e-25),  # unreachable there, reachable at the others
        ],
    )
    def test_batch_refuses_as_zeta_does(self, bad, target):
        settings = EvalSettings(target_abs_error=target)
        with pytest.raises(ZetalabError) as scalar:
            zeta(bad, settings)
        batch = [complex(0.5, 10.0), complex(2.0, 0.0), bad, complex(0.75, -50.0)]
        with pytest.raises(type(scalar.value), match=re.escape(str(scalar.value))):
            _zeta_points(batch, settings)


class TestZetaPoints:
    """_zeta_points, the array evaluator behind zeta() and the scans."""

    def test_alone_and_in_a_mixed_batch_bit_identical(self):
        points = _drawn_points(48, 4.0, seed=5)
        lengths = _choose_terms(np.array(points), DEFAULT_SETTINGS)
        assert lengths.min() < 10 and lengths.max() > 1000
        batch = [_bits(z) for z in _zeta_points(points)]
        assert batch == [_bits(zeta(s)) for s in points]
        assert [_bits(z) for z in _zeta_points(points[::-1])] == batch[::-1]

    def test_given_lengths_alone_and_in_a_batch_bit_identical(self):
        points = _drawn_points(12, 4.0, seed=6)
        lengths = [2, 3, 5, 9, 17, 64, 100, 257, 999, 1000, 2048, 4000][: len(points)]
        batch = _zeta_values(np.array(points), np.array(lengths))
        assert [_bits(z) for z in batch] == [_bits(_zeta_at(s, n)) for s, n in zip(points, lengths)]

    @pytest.mark.parametrize("t0", [100.0, 1000.0])
    def test_below_half_against_mpmath(self, t0):
        nodes = _panel_nodes(t0)
        ts = nodes[np.linspace(0, nodes.size - 1, 3).astype(int)]
        points = [complex(sigma, t) for sigma in (-1.0, 0.0, 0.25) for t in ts]
        lengths = _choose_terms(np.array(points), DEFAULT_SETTINGS).tolist()
        with mpmath.workdps(30):
            for s, got, n in zip(points, _zeta_points(points), lengths):
                ref = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
                _assert_phase_level(got, ref, s, n)


def _log_gamma_error(z: complex) -> float:
    """|_log_gamma(z) - log Gamma(z)| modulo 2 pi i, relative to
    max(1, |log Gamma(z)|), against 40-digit mpmath."""
    with mpmath.workdps(40):
        ref = mpmath.loggamma(mpmath.mpc(z.real, z.imag))
        diff = mpmath.mpc(_log_gamma(z)) - ref
        diff -= 2j * mpmath.pi * mpmath.nint(diff.imag / (2 * mpmath.pi))
        return float(abs(diff) / max(1, abs(ref)))


# 90 eps: over 20,000 draws of z = 1 - s the worst error read 7.3e-15,
# at the reflection and near the poles it read below 1e-15
LOG_GAMMA_REL_TOL = 2e-14


class TestLogGamma:
    def test_against_mpmath(self):
        """z = 1 - s for sigma in [-1, 2] and 0.1 <= |t| <= 1e6,
        log-uniform in |t| with both signs: the chi and smoothed-sum
        residue arguments, on the shift path and in Stirling's series."""
        rng = np.random.default_rng(16)
        n = 2000
        ts = rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-1.0, 6.0, n)
        sigmas = rng.uniform(-1.0, 2.0, n)
        worst = max(_log_gamma_error(complex(1 - a, -b)) for a, b in zip(sigmas, ts))
        assert worst <= LOG_GAMMA_REL_TOL

    def test_reflection_against_mpmath(self):
        """Left of Re z = -1, where Stirling's series alone would sit
        near the negative axis: chi(s) for sigma > 2."""
        rng = np.random.default_rng(17)
        n = 500
        re_z = rng.uniform(-60.0, -1.0, n)
        im_z = rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-3.0, 3.0, n)
        worst = max(_log_gamma_error(complex(a, b)) for a, b in zip(re_z, im_z))
        assert worst <= LOG_GAMMA_REL_TOL

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 8, 9, 40])
    def test_near_poles(self, k):
        """Within 1e-12 of a pole the shift product, or the reflected sine,
        carries the small factor without cancellation."""
        for d in (1e-12, -1e-12, -1e-9, 1e-5, 0.5):
            for e in (0.0, 1e-13, -1e-6):
                assert _log_gamma_error(complex(-k + d, e)) <= LOG_GAMMA_REL_TOL, (k, d, e)

    @pytest.mark.parametrize("z", [0j, complex(0.0, -0.0), -1 + 0j, -2 + 0j, -7 + 0j, -50 + 0j])
    def test_poles_are_nan(self, z):
        value = _log_gamma(z)
        assert math.isnan(value.real) and math.isnan(value.imag)

    def test_non_finite_is_nan(self):
        for z in (complex(math.inf, 0.0), complex(-math.inf, 1.0), complex(math.nan, 0.0)):
            assert cmath.isnan(_log_gamma(z))


class TestChi:
    def test_symmetry_point(self):
        assert abs(chi(0.5) - 1) <= 1e-12

    def test_critical_line_modulus(self):
        for t in (10.0, 100.0, 1000.0):
            assert abs(abs(chi(0.5 + 1j * t)) - 1) <= 1e-10

    def test_modulus_grid(self):
        ts = np.linspace(0.0, 1000.0, 2000)
        dev = np.abs(np.abs(chi_grid(0.5 + 1j * ts)) - 1.0)
        assert float(dev.max()) <= 1e-10

    def test_reflection_product(self):
        for s in (0.3 + 7j, 0.75 + 50j, 0.1 - 20j):
            assert abs(chi(s) * chi(1 - s) - 1) <= 1e-10

    def test_asymptotic_modulus(self):
        target = (50 / (2 * math.pi)) ** -0.25
        assert abs(abs(chi(0.75 + 50j)) - target) <= 0.02 * target

    def test_gamma_poles(self):
        for m in (1, 2, 3, 7):
            with pytest.raises(PoleError):
                chi(float(m))

    def test_trivial_zeros_of_factor(self):
        assert chi(0.0) == 0
        assert chi(-2.0) == 0
        assert chi(-4.0) == 0

    def test_against_mpmath(self):
        """chi and chi_grid against 40-digit mpmath over sigma in [-1, 2]
        and 0.1 <= |t| <= 1000, log-uniform in |t| with both signs, so
        every branch of log sin (pi s / 2) runs, including |Im z| > 10.
        The tolerance follows the rounding of s log 2, (s - 1) log pi and
        log Gamma, which grows like |t| log |t|.  These draws reach
        c = 22 at |t| < 1 (20 eps relative) and c = 1.5 for |t| > 10."""
        rng = np.random.default_rng(2024)
        n = 400
        ts = rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-1.0, 3.0, n)
        s_values = rng.uniform(-1.0, 2.0, n) + 1j * ts
        grid = chi_grid(s_values)
        eps = np.finfo(float).eps
        with mpmath.workdps(40):
            for s, got_grid in zip(s_values, grid):
                s = complex(s)
                z = mpmath.mpc(s.real, s.imag)
                ref = complex(
                    mpmath.power(2, z) * mpmath.power(mpmath.pi, z - 1)
                    * mpmath.gamma(1 - z) * mpmath.sin(mpmath.pi * z / 2)
                )
                tol = 64 * eps * (1 + abs(s.imag)) * math.log(2 + abs(s.imag)) * abs(ref)
                assert abs(chi(s) - ref) <= tol, (s, chi(s), ref)
                assert abs(got_grid - ref) <= tol, (s, got_grid, ref)

    def test_grid_matches_scalar(self):
        s_values = np.array([0.3 + 7j, 0.5 + 300j, 0.9 - 40j, -0.5 + 3j])
        g = chi_grid(s_values)
        for got, s in zip(g, s_values):
            assert abs(got - chi(complex(s))) <= 1e-12 * (1 + abs(got))

    def test_grid_is_scalar_per_element(self):
        s_values = np.array([[0.3 + 7j, 0.5 + 300j, 0.9 - 40j], [-0.5 + 3j, 0.5, 0.75 + 5e3j]])
        g = chi_grid(s_values)
        assert g.shape == (2, 3)
        assert [repr(complex(v)) for v in g.flat] == [repr(chi(s)) for s in s_values.flat]

    def test_grid_follows_scalar_at_integers(self):
        for s in (1.0, 2.0):
            with pytest.raises(PoleError):
                chi_grid(np.array([0.5 + 1j, s]))
        assert list(chi_grid(np.array([-2.0, 0.0]))) == [chi(-2.0), chi(0.0)] == [0, 0]

    @pytest.mark.parametrize(
        "s", [complex(math.inf, 0), complex(math.nan, 0), complex(0.5, math.inf),
              complex(math.nan, 1)],
        ids=repr,
    )
    def test_non_finite_s_is_a_domain_error(self, s):
        with pytest.raises(DomainError, match="s must be finite"):
            chi(s)
        with pytest.raises(DomainError, match="s must be finite"):
            chi_grid(np.array([0.5 + 1j, s]))


class TestFunctionalEquation:
    @pytest.mark.parametrize(
        "s", [0.5 + 14.134725j, 0.75 + 25j, 0.25 - 25j]
    )
    def test_residual_small(self, s):
        assert functional_equation_residual(s) <= 1e-8

    def test_poles_rejected(self):
        with pytest.raises(PoleError):
            functional_equation_residual(0.0)
        with pytest.raises(PoleError):
            functional_equation_residual(1.0)


class TestAfeSimple:
    def test_convergent_series(self):
        value, residual = afe_simple(2.0, 1e6)
        assert abs(value - math.pi**2 / 6) <= 1e-6
        assert residual <= 1e-6

    def test_critical_strip_residual(self):
        _, residual = afe_simple(0.75 + 100j, 200.0)
        assert residual <= 10.0

    def test_empty_sum(self):
        value, residual = afe_simple(0.75 + 30j, 0.0)
        assert value == 0
        assert abs(residual - abs(zeta(0.75 + 30j))) <= 1e-12

    def test_sigma_below_half_rejected(self):
        with pytest.raises(DomainError):
            afe_simple(0.25 + 30j, 100.0)

    def test_negative_cutoff_rejected(self):
        with pytest.raises(DomainError):
            afe_simple(0.75, -1.0)

    def test_partial_sum_empty(self):
        assert partial_zeta_sum(2.0, 0.5) == 0

    def test_cutoff_beyond_term_cap(self):
        # refused before anything is allocated
        with pytest.raises(ResourceLimitError):
            afe_simple(0.75 + 10j, _MAX_TERMS + 1)
        with pytest.raises(ResourceLimitError):
            partial_zeta_sum(2.0, _MAX_TERMS + 1)


class TestSmoothedSum:
    def test_brute_force_y1(self):
        assert abs(smoothed_sum(2.0, 1.0) - SMOOTHED_Y1_S2) <= 1e-12

    def test_brute_force_y1e4(self):
        assert abs(smoothed_sum(2.0, 1e4) - SMOOTHED_Y1E4_S2) <= 1e-12

    def test_residue_identity_decays(self):
        s = 0.75 + 20j
        z = zeta(s)
        residuals = []
        for y in (1e2, 1e3, 1e4):
            gamma_term = cmath.exp(complex(mpmath.loggamma(1 - s)) + (1 - s) * math.log(y))
            residuals.append(abs(smoothed_sum(s, y) - z - gamma_term))
        assert residuals[0] > residuals[1] > residuals[2]
        for y, r in zip((1e2, 1e3, 1e4), residuals):
            assert r <= 10.0 * y ** (0.5 - s.real)

    def test_default_truncation_floor(self):
        assert default_smoothing_truncation(0.0) == 40.0
        assert default_smoothing_truncation(1e4) == math.log(1e4) ** 2

    def test_small_smoothing_rejected(self):
        with pytest.raises(DomainError):
            smoothed_sum(2.0, 0.5)

    def test_length_beyond_term_cap(self):
        y = (_MAX_TERMS + 1.5) / 40  # the truncation at t = 10 is 40 Y
        assert math.floor(y * default_smoothing_truncation(10.0)) == _MAX_TERMS + 1
        with pytest.raises(ResourceLimitError):
            smoothed_sum(0.75 + 10j, y)


class TestAfeZetaSquared:
    def setup_method(self):
        self.table = DivisorTable(3000)

    def test_balanced_point(self):
        s = 0.75 + 50j
        x = 50 / (2 * math.pi)
        value, residual, bound = afe_zeta_squared(s, x, self.table)
        assert bound == pytest.approx(x ** (0.5 - 0.75) * math.log(50))
        assert residual == pytest.approx(abs(value - zeta(s) ** 2))
        assert residual / bound <= 50.0

    def test_second_sum_boundary_single_term(self):
        t = 30.0
        s = 0.5 + 1j * t
        x = t * t / (4 * math.pi**2)  # makes y = 1: reflected sum is d(1) alone
        value, residual, bound = afe_zeta_squared(s, x, self.table)
        nx = int(x)
        n = np.arange(1, nx + 1, dtype=np.float64)
        first = complex(
            np.sum(self.table.d[1 : nx + 1] * np.exp(-s * np.log(n))).item()
        )
        assert abs(value - (first + chi(s) ** 2)) <= 1e-9 * (1 + abs(value))

    def test_critical_line_balanced(self):
        s = 0.5 + 30j
        x = 30 / (2 * math.pi)
        value, residual, bound = afe_zeta_squared(s, x, self.table)
        assert abs(value - zeta(s) ** 2) <= 50.0 * bound

    @pytest.mark.parametrize(
        "s,x",
        [
            (1.5 + 50j, 10.0),  # sigma outside (0, 1)
            (0.5 + 5j, 2.0),  # t below 10
            (0.5 + 50j, 1.0),  # x below t/(2 pi)
            (0.5 + 50j, 2501.0),  # x above t^2
        ],
    )
    def test_domain_errors(self, s, x):
        with pytest.raises(DomainError):
            afe_zeta_squared(s, x, self.table)

    def test_table_too_small(self):
        small = DivisorTable(10)
        with pytest.raises(DomainError):
            afe_zeta_squared(0.5 + 200j, 2000.0, small)
