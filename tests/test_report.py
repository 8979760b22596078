"""Scan grids, CSV builders, and the regression report."""

import json
from fractions import Fraction

import pytest

from zetalab import Config, DomainError
from zetalab.report import (
    afe2_grid,
    afe2_scan_rows,
    afe_scan_rows,
    emit_csv,
    fe_check_grid,
    fe_check_rows,
    fmt_float,
    fmt_rational,
    regression_data,
    render_report,
    smooth_scan_rows,
    write_regression_report,
)
from zetalab.zeta import DEFAULT_SETTINGS


class TestFormatting:
    def test_fmt_float_15_digits(self):
        assert fmt_float(1 / 3) == "0.333333333333333"
        assert fmt_float(2.0) == "2"

    def test_fmt_rational(self):
        assert fmt_rational(Fraction(589, 666)) == "589/666"

    def test_emit_csv_lf_only(self):
        text = emit_csv("a,b", [["1", "2"], ["3", "4"]])
        assert text == "a,b\n1,2\n3,4\n"
        assert "\r" not in text


class TestGrids:
    def test_fine_grid_is_exactly_1000_points(self):
        grid = fe_check_grid("fine")
        assert len(grid) == 1000
        assert all(0 < s.real < 1 and abs(s.imag) <= 100 for s in grid)

    def test_coarse_grid(self):
        assert len(fe_check_grid("coarse")) == 36

    def test_unknown_grid(self):
        with pytest.raises(DomainError):
            fe_check_grid("medium")

    def test_afe2_grid_is_50_points(self):
        grid = afe2_grid()
        assert len(grid) == 50
        assert len(set(grid)) == 50


class TestScans:
    def test_fe_coarse_rows(self):
        rows, worst = fe_check_rows("coarse", DEFAULT_SETTINGS)
        assert len(rows) == 36
        assert worst <= 1e-8

    def test_afe_scan_stays_under_limit(self):
        rows, worst = afe_scan_rows(DEFAULT_SETTINGS)
        assert len(rows) == 2 * 3 * 7
        assert worst <= 10.0

    def test_afe2_scan_stays_under_limit(self):
        rows, worst = afe2_scan_rows(DEFAULT_SETTINGS)
        assert len(rows) == 50
        assert worst <= 1.0  # worst is already a ratio against the bound

    def test_smooth_scan_residuals_decrease(self):
        rows, residuals = smooth_scan_rows(DEFAULT_SETTINGS)
        assert len(rows) == 3
        assert residuals[0] > residuals[1] > residuals[2]


@pytest.fixture(scope="module")
def data():
    return regression_data(Config())


class TestRegressionReport:
    def test_threshold_block(self, data):
        ref = data["thresholds"]["reference_pair"]
        assert (ref["sigma_pair"], ref["sigma_full"]) == ("589/666", "5/6")
        best = data["thresholds"]["q_family_optimum"]
        assert best["q"] == 3 and best["sigma"] == "63/64"
        assert data["thresholds"]["superseded_pair"]["sigma_pair"] == "819/926"

    def test_property_block(self, data):
        props = data["properties"]
        assert props["b_involution_ok"] is True
        assert props["chi_modulus_max_deviation"] <= 1e-10
        assert props["fe_residual_max_coarse"] <= 1e-8
        assert props["hyperbola_max_relative"] <= 1e-9
        assert props["em_stability_delta"] <= 1e-9

    def test_probe_estimates_reported(self, data):
        mo = data["moments"]
        sixth, watt = mo["sixth_probe_T256"], mo["watt_T200_M8"]
        assert type(sixth) is float and type(watt["lhs"]) is float
        assert 0 < mo["sixth_probe_T256_error_estimate"] <= 1e-6 * sixth
        assert 0 < watt["lhs_error_estimate"] <= 1e-6 * watt["lhs"]
        text = render_report(data)
        assert "sixth-moment probe error estimate" in text
        assert "watt lhs error estimate" in text

    def test_render_mentions_key_values(self, data):
        text = render_report(data)
        assert "589/666" in text and "63/64" in text
        assert text.endswith("\n")

    def test_write_report_round_trips(self, data, tmp_path):
        paths = write_regression_report(data, str(tmp_path))
        assert len(paths) == 2
        with open(paths[1], encoding="utf-8") as fh:
            loaded = json.load(fh)
        with open(paths[0], encoding="utf-8") as fh:
            assert fh.read() == render_report(loaded)
