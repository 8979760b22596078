"""Deterministic panel quadrature."""

import ast
import inspect
import math
from dataclasses import fields

import numpy as np
import pytest

from zetalab import DomainError, QuadratureSettings, integrate, panel_edges, panel_width
from zetalab import quadrature
from zetalab.errors import ResourceLimitError
from zetalab.quadrature import _MAX_PANELS, _MAX_THREADS, _W_GAUSS, _W_KRONROD, _X

EPS = 2.0**-52


def _budget(t_min: float, t_max: float, scale: float) -> float:
    """The endpoint bound on the panel count that panel_edges checks."""
    narrowest = min(panel_width(t_min, scale), panel_width(t_max, scale))
    return (t_max - t_min) / narrowest + 1


def _scipy_kronrod_literals(name: str) -> dict:
    """The node and weight tuples of scipy's quad_vec Gauss-Kronrod rule
    `name`, read from the installed source (x: Kronrod nodes, v: their
    weights)."""
    quad_vec = pytest.importorskip("scipy.integrate._quad_vec")
    for node in ast.parse(inspect.getsource(quad_vec)).body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return {
                st.targets[0].id: np.array(ast.literal_eval(st.value))
                for st in node.body
                if isinstance(st, ast.Assign) and isinstance(st.targets[0], ast.Name)
                and st.targets[0].id in ("x", "v")
            }
    pytest.skip(f"{name} not in the installed scipy")


class TestPanelRule:
    def test_width_small_t_caps_at_quarter(self):
        assert panel_width(0.0) == pytest.approx(0.25)

    def test_width_tracks_log(self):
        assert panel_width(1000.0) == pytest.approx(4 / math.log(1002.0))

    def test_width_grades_toward_the_pole(self):
        assert panel_width(1.0) == pytest.approx(0.75)
        assert panel_width(1.0, 0.5) == pytest.approx(0.375)

    def test_t_star_is_where_the_terms_meet(self):
        # the width rises up to t* ~ 3.975 and falls after it, so its
        # least value on an interval is at one end: the premise of the
        # up-front panel budget
        below = np.linspace(0.0, 3.97, 2000)
        above = np.geomspace(3.98, 1e15, 2000)
        for scale in (1.0, 0.5):
            rising = [panel_width(t, scale) for t in below]
            falling = [panel_width(t, scale) for t in above]
            assert (np.diff(rising) > 0).all() and (np.diff(falling) < 0).all()
        assert panel_width(3.97) == 0.25 + 3.97 / 2
        assert panel_width(3.98) == 4 / math.log(2 + 3.98)

    def test_scale_multiplies(self):
        assert panel_width(50.0, 0.5) == pytest.approx(0.5 * panel_width(50.0))

    def test_edges_cover_interval(self):
        edges = panel_edges(3.0, 47.0)
        assert edges[0] == 3.0 and edges[-1] == 47.0
        widths = np.diff(edges)
        assert (widths > 0).all()
        rule = np.array([panel_width(t) for t in edges[:-1]])
        assert (widths <= rule + 1e-12).all()

    def test_edges_deterministic(self):
        a = panel_edges(0.0, 100.0, 0.7)
        b = panel_edges(0.0, 100.0, 0.7)
        assert np.array_equal(a, b)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            panel_edges(10.0, 5.0)

    @pytest.mark.parametrize("t_min", [-0.25, -1.0, math.nan])
    def test_t_min_below_zero_is_refused(self, t_min):
        # the graded stretch is measured from the pole's height t = 0
        with pytest.raises(DomainError):
            panel_edges(t_min, 1.0)

    @pytest.mark.parametrize("scale", [0.0, -1.0, 1.5, math.inf, math.nan])
    def test_scale_outside_unit_interval_is_refused(self, scale):
        # the rule QuadratureSettings applies to width_scale
        with pytest.raises(DomainError, match="width scale"):
            panel_edges(0.0, 10.0, scale)
        with pytest.raises(DomainError, match="width scale"):
            QuadratureSettings(width_scale=scale)

    def test_panel_budget_guard(self):
        with pytest.raises(ResourceLimitError):
            panel_edges(0.0, 10.0, 1e-6)

    def test_infinite_t_max_is_refused(self):
        # the width at t = inf is 0, so the bound is infinite
        with pytest.raises(ResourceLimitError):
            panel_edges(0.0, math.inf)
        with pytest.raises(ResourceLimitError):
            integrate(np.cos, 0.0, math.inf)

    def test_budget_refuses_before_the_loop(self, monkeypatch):
        # [0, T] at scale 1 is budgeted at T / (1/4) + 1 panels, so
        # refused above T = 1.25e6: the two endpoint widths are all it reads
        calls = []

        def width(t, scale=1.0):
            calls.append(t)
            return panel_width(t, scale)

        monkeypatch.setattr(quadrature, "panel_width", width)
        with pytest.raises(ResourceLimitError):
            panel_edges(0.0, 1.3e6)
        assert calls == [0.0, 1.3e6]

    @pytest.mark.parametrize(
        "t_min, t_max, scale",
        [(4000.0, 4000.000000001, 1e-13), (4e15, 4e15 + 1, 1.0)],
    )
    def test_width_under_half_ulp_is_refused(self, t_min, t_max, scale):
        # t + width rounds back to t, so the greedy loop cannot advance,
        # while the endpoint bound stays under the budget
        assert t_min + panel_width(t_min, scale) == t_min
        assert _budget(t_min, t_max, scale) < _MAX_PANELS
        with pytest.raises(ResourceLimitError):
            panel_edges(t_min, t_max, scale)
        with pytest.raises(ResourceLimitError):
            integrate(np.cos, t_min, t_max, QuadratureSettings(width_scale=scale))

    @pytest.mark.parametrize(
        "t_min, t_max, scale",
        [
            (0.0, 100.0, 1.0),
            (0.0, 1e4, 1.0),
            (0.0, 5.0, 1.0),
            (2.2, 9.1, 0.7),
            (5.3, 5.5, 1.0),
            (100.0, 2000.0, 0.25),
            (1000.0, 1014.0, 0.5),
            (4750.0, 4752.375, 1.0),
            (0.0, 2.26, 0.5),
            (0.3, 6.0, 0.5),
            (2.0, 3.0, 0.5),
            (1.8934015098017802, 2.499193882760619, 0.5),
            (0.5463863648928148, 3.0485110306877616, 1.0),
            (0.0, 3.97, 0.5),
            (3.5, 4.5, 1.0),
        ],
    )
    def test_panel_integral_counts_the_partition(self, t_min, t_max, scale):
        # the up-front budget check reads this bound in place of the count
        count = panel_edges(t_min, t_max, scale).size - 1
        assert count <= _budget(t_min, t_max, scale)


class TestSettings:
    def test_halved(self):
        q = QuadratureSettings(width_scale=0.6, threads=3)
        assert q.halved() == QuadratureSettings(width_scale=0.3, threads=3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"points_per_panel": 10},
            {"width_scale": 0.0},
            {"width_scale": 1.5},
            {"threads": 0},
        ],
    )
    def test_validation(self, kwargs):
        # n is a constant of the rule, not a constructor argument
        error = TypeError if "points_per_panel" in kwargs else DomainError
        with pytest.raises(error):
            QuadratureSettings(**kwargs)

    def test_points_per_panel_is_a_class_constant(self):
        assert QuadratureSettings.points_per_panel == 10 == _W_GAUSS.size
        assert [f.name for f in fields(QuadratureSettings)] == ["width_scale", "threads"]

    def test_thread_cap(self):
        assert QuadratureSettings(threads=_MAX_THREADS).threads == _MAX_THREADS
        for threads in (_MAX_THREADS + 1, 20_000):
            with pytest.raises(ResourceLimitError, match="thread cap"):
                QuadratureSettings(threads=threads)


class TestKronrodRule:
    """The table of G_10 / K_21, mirrored into the whole rule."""

    @pytest.mark.parametrize("n", [QuadratureSettings.points_per_panel])
    def test_exact_on_legendre_to_degree_3n_plus_1(self, n):
        x, w = _X, _W_KRONROD
        assert x.size == 2 * n + 1 and (np.diff(x) > 0).all()
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        residual = np.polynomial.legendre.legvander(x, 3 * n + 1).T @ w
        residual[0] -= 2.0
        # each sum has 2n+1 terms of total modulus <= sum(w) = 2
        assert np.abs(residual).max() <= 2 * (2 * n + 1) * EPS
        # ... and no further: the first even degree beyond 3n+1 is missed
        # (odd degrees vanish by symmetry)
        beyond = 3 * n + 2 + n % 2
        assert abs(np.polynomial.legendre.legvander(x, beyond)[:, beyond] @ w) > 1e-6

    @pytest.mark.parametrize("n", [QuadratureSettings.points_per_panel])
    def test_gauss_subset_is_leggauss(self, n):
        # points_per_panel is the size of the Gauss table
        gx, gw = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(_X[1::2], gx)
        assert np.array_equal(_W_GAUSS, gw)

    @pytest.mark.parametrize("n, name", [(10, "_quadrature_gk21")])
    def test_matches_quadpack_literals(self, n, name):
        lit = _scipy_kronrod_literals(name)
        order = np.argsort(lit["x"])
        assert _X.size == lit["x"].size == 2 * n + 1
        assert np.abs(_X - lit["x"][order]).max() <= 1e-15
        assert np.abs(_W_KRONROD - lit["v"][order]).max() <= 1e-15


class TestIntegrate:
    def test_polynomial_exact(self):
        value, panels, _ = integrate(lambda t: t**3, 0.0, 10.0, QuadratureSettings())
        assert value == pytest.approx(2500.0, abs=1e-9)
        assert panels == panel_edges(0.0, 10.0).size - 1 == 9

    def test_empty_interval(self):
        assert integrate(lambda t: t, 5.0, 5.0) == (0.0, 0, 0.0)
        assert integrate(lambda t: t, 7.0, 5.0) == (0.0, 0, 0.0)

    def test_oscillatory_spectral(self):
        value, _, _ = integrate(np.cos, 0.0, 20.0 * math.pi, QuadratureSettings())
        assert abs(value) <= 1e-10

    def test_exponential(self):
        value, _, _ = integrate(np.exp, 0.0, 5.0, QuadratureSettings())
        assert value == pytest.approx(math.exp(5.0) - 1.0, rel=1e-13)

    def test_parallel_matches_serial_bitwise(self):
        def f(ts):
            return np.abs(np.sin(ts * 3.1)) ** 1.7 + ts * 1e-3

        serial = integrate(f, 0.0, 200.0, QuadratureSettings(threads=1))
        for threads in (2, 4, 7):
            parallel = integrate(f, 0.0, 200.0, QuadratureSettings(threads=threads))
            assert parallel == serial  # value, panels and error, bit for bit

    def test_error_estimate_covers_error(self, monkeypatch):
        exact = math.atan(30.0)
        for wide in (False, True):
            if wide:  # panels 4 wide, past what the width rule allows
                monkeypatch.setattr(quadrature, "panel_width", lambda t, scale=1.0: 4.0 * scale)
            value, _, error = integrate(
                lambda t: 1.0 / (1.0 + t**2), 0.0, 30.0, QuadratureSettings()
            )
            assert abs(value - exact) <= error

    def test_halving_refines(self):
        def f(ts):
            return 1.0 / (1.0 + ts**2)

        q = QuadratureSettings()
        coarse, _, _ = integrate(f, 0.0, 30.0, q)
        fine, _, _ = integrate(f, 0.0, 30.0, q.halved())
        exact = math.atan(30.0)
        assert abs(fine - exact) <= abs(coarse - exact) + 1e-15


class TestPieces:
    BREAKS = [0.0, 64.0, 128.0, 256.0, 512.0]  # 57 + 73 + 168 + 380 panels

    @staticmethod
    def f(ts):
        return np.abs(np.sin(ts * 3.1)) ** 1.7 + ts * 1e-3

    def test_each_piece_keeps_its_own_panels(self):
        pieces = quadrature.integrate_pieces(self.f, self.BREAKS)
        for lo, hi, (value, panels, error) in zip(self.BREAKS, self.BREAKS[1:], pieces):
            alone = integrate(self.f, lo, hi)
            assert panels == alone[1] == panel_edges(lo, hi).size - 1
            # the integrand is pointwise, so the chunks it is called on
            # cannot move a bit
            assert (value, error) == (alone[0], alone[2])

    def test_chunks_span_pieces_whatever_the_threads(self):
        sizes = []

        def counted(ts):
            sizes.append(ts.size)
            return self.f(ts)

        serial = quadrature.integrate_pieces(counted, self.BREAKS)
        assert sizes == [256 * _X.size, 256 * _X.size, 166 * _X.size]  # 678 panels
        for threads in (2, 4):
            settings = QuadratureSettings(threads=threads)
            assert quadrature.integrate_pieces(self.f, self.BREAKS, settings) == serial

    def test_empty_and_nan_pieces_read_zero(self):
        pieces = quadrature.integrate_pieces(self.f, [0.0, 0.0, 10.0, math.nan])
        assert pieces[0] == pieces[2] == (0.0, 0, 0.0)
        assert pieces[1] == integrate(self.f, 0.0, 10.0)

    def test_sum_past_the_float_range_reads_inf(self):
        # 97 finite panels of 2.5e307 or more each, whose fsum raises
        # OverflowError
        value, panels, _ = integrate(lambda t: np.full_like(t, 5e307), 0.0, 100.0)
        assert panels == 97 and value == math.inf
