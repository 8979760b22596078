"""Deterministic panel quadrature."""

import ast
import inspect
import math
from dataclasses import fields

import numpy as np
import pytest

from zetalab import DomainError, QuadratureSettings, integrate, panel_edges, panel_width
from zetalab.errors import ResourceLimitError
from zetalab.quadrature import _MAX_THREADS, _T_STAR, _kronrod_rule, _panel_integral

EPS = 2.0**-52


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
        assert 0.25 + _T_STAR / 2 == pytest.approx(4 / math.log(2 + _T_STAR), rel=1e-15)
        below, above = _T_STAR - 1e-6, _T_STAR + 1e-6
        assert panel_width(below) == 0.25 + below / 2
        assert panel_width(above) == 4 / math.log(2 + above)

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

    @pytest.mark.parametrize(
        "t_min, t_max, scale",
        [(4000.0, 4000.000000001, 1e-13), (4e15, 4e15 + 1, 1.0)],
    )
    def test_width_under_half_ulp_is_refused(self, t_min, t_max, scale):
        # t + width rounds back to t, so the greedy loop cannot advance,
        # while the closed-form count stays under the budget
        assert t_min + panel_width(t_min, scale) == t_min
        assert _panel_integral(t_min, t_max, scale) + 1 < 5_000_000
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
        # the up-front budget check reads this integral in place of the count
        count = panel_edges(t_min, t_max, scale).size - 1
        integral = _panel_integral(t_min, t_max, scale)
        assert count <= integral + 1
        assert abs(count - integral) <= 1


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
        assert QuadratureSettings.points_per_panel == 10
        assert [f.name for f in fields(QuadratureSettings)] == ["width_scale", "threads"]

    def test_thread_cap(self):
        assert QuadratureSettings(threads=_MAX_THREADS).threads == _MAX_THREADS
        for threads in (_MAX_THREADS + 1, 20_000):
            with pytest.raises(ResourceLimitError, match="thread cap"):
                QuadratureSettings(threads=threads)


class TestKronrodRule:
    @pytest.mark.parametrize("n", [2, 7, 10, 16])
    def test_exact_on_legendre_to_degree_3n_plus_1(self, n):
        x, w, _ = _kronrod_rule(n)
        assert x.size == 2 * n + 1 and (np.diff(x) > 0).all()
        residual = np.polynomial.legendre.legvander(x, 3 * n + 1).T @ w
        residual[0] -= 2.0
        # each sum has 2n+1 terms of total modulus <= sum(w) = 2
        assert np.abs(residual).max() <= 2 * (2 * n + 1) * EPS
        # ... and no further: the first even degree beyond 3n+1 is missed
        # (odd degrees vanish by symmetry)
        beyond = 3 * n + 2 + n % 2
        assert abs(np.polynomial.legendre.legvander(x, beyond)[:, beyond] @ w) > 1e-6

    @pytest.mark.parametrize("n", [2, 7, 10, 16])
    def test_gauss_subset_is_leggauss(self, n):
        x, _, w_gauss = _kronrod_rule(n)
        gx, gw = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(x[1::2], gx)
        assert np.array_equal(w_gauss, gw)

    @pytest.mark.parametrize("n, name", [(7, "_quadrature_gk15"), (10, "_quadrature_gk21")])
    def test_matches_quadpack_literals(self, n, name):
        lit = _scipy_kronrod_literals(name)
        order = np.argsort(lit["x"])
        x, w, _ = _kronrod_rule(n)
        assert np.abs(x - lit["x"][order]).max() <= 1e-15
        assert np.abs(w - lit["v"][order]).max() <= 1e-15


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
        for n in (2, 4, 10):
            monkeypatch.setattr(QuadratureSettings, "points_per_panel", n)
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
