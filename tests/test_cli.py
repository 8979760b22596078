"""Command-line surface: exit codes, CSV schemas, byte determinism."""

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zetalab
from zetalab import cli, dirichlet, moments, pairs, quadrature, report
from zetalab.cli import main
from zetalab.config import ENV_VAR
from zetalab.dirichlet import _MAX_TERMS
from zetalab.report import MOMENT_CSV_HEADER, PAIR_CSV_HEADER, ZETA_CSV_HEADER
from zetalab.zeta import DEFAULT_SETTINGS, _fe_residuals, chi, smoothed_sum, zeta

# the module; the package's attribute zetalab.zeta is the function zeta
zeta_module = importlib.import_module("zetalab.zeta")


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


HELP_TARGETS = [
    [],
    ["pairs"],
    ["pairs", "enumerate"],
    ["pairs", "optimize"],
    ["pairs", "thresholds"],
    ["zeta"],
    ["zeta", "eval"],
    ["zeta", "afe"],
    ["zeta", "afe2"],
    ["zeta", "smooth"],
    ["zeta", "fe-check"],
    ["moment"],
    ["moment", "integrate"],
    ["moment", "scan"],
    ["moment", "split"],
    ["moment", "watt"],
    ["moment", "report"],
]


@pytest.mark.parametrize("target", HELP_TARGETS, ids=lambda t: " ".join(t) or "root")
def test_help_exits_zero(target, capsys):
    assert main(target + ["--help"]) == 0
    assert "usage" in capsys.readouterr().out


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["pairs", "frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["moment", "integrate"]) == 1

    def test_bad_choice_value(self, capsys):
        assert main(["moment", "integrate", "--T", "50", "--j", "5"]) == 1


class TestPairs:
    def test_enumerate_csv(self, capsys):
        assert main(["pairs", "enumerate", "--depth", "2"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == PAIR_CSV_HEADER
        assert len(lines) == 4  # header + trivial + B + AB at depth 2
        assert "\r" not in out

    def test_enumerate_json(self, capsys):
        assert main(["pairs", "enumerate", "--depth", "1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        assert payload[1]["word"] == "B"

    def test_enumerate_unknown_seed(self, capsys):
        assert main(["pairs", "enumerate", "--seeds", "nonsense"]) == 1

    def test_thresholds_row_pinned(self, capsys):
        assert main(["pairs", "thresholds", "--pair", "huxley32"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1] == "32/205,269/410,589/666,5/6"

    def test_thresholds_explicit_pair(self, capsys):
        assert main(["pairs", "thresholds", "--pair", "1/6,2/3"]) == 0
        assert out_line(capsys, 1).startswith("1/6,2/3,")

    def test_thresholds_gate_violation(self, capsys):
        assert main(["pairs", "thresholds", "--theorem", "2", "--pair", "huxley89"]) == 3

    def test_optimize_objective(self, capsys):
        code = main(
            [
                "pairs",
                "optimize",
                "--objective",
                "(5k + l)/(4k + 1)",
                "--constraint",
                "k + l < 1",
                "--depth",
                "4",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == PAIR_CSV_HEADER + ",value"
        assert len(lines) == 2

    def test_optimize_row_leads_with_the_enumerated_pair_row(self, capsys):
        argv = ["--objective", "(5k + l)/(4k + 1)", "--constraint", "k + l < 1", "--depth", "4"]
        assert main(["pairs", "optimize"] + argv) == 0
        cells = out_line(capsys, 1).split(",")
        assert len(cells) == 7
        assert main(["pairs", "enumerate", "--depth", "4"]) == 0
        assert ",".join(cells[:6]) in capsys.readouterr().out.splitlines()[1:]

    def test_json_record_keys_are_the_csv_columns(self, capsys):
        assert main(["pairs", "enumerate", "--depth", "3", "--format", "json"]) == 0
        for record in json.loads(capsys.readouterr().out):
            assert list(record) == PAIR_CSV_HEADER.split(",")

    def test_optimize_bad_objective_prints_grammar(self, capsys):
        assert main(["pairs", "optimize", "--objective", "k ^ 2"]) == 1
        err = capsys.readouterr().err
        assert "objective  := part" in err and "parse error" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--objective", "9" * 5000 + "k"],
            ["--objective", "k", "--constraint", "9" * 5000 + "k < 1"],
            ["--objective", "2*"],
            ["--objective", "k", "--constraint", "2* < 3"],
            ["--objective", "k", "--q-range", "2:4"],
            [],
        ],
        ids=[
            "long-objective-literal",
            "long-constraint-literal",
            "dangling-star",
            "dangling-star-constraint",
            "objective-and-q-range",
            "no-objective",
        ],
    )
    def test_optimize_refuses_malformed_text(self, flags, capsys):
        assert main(["pairs", "optimize", *flags, "--depth", "1"]) == 1
        assert "zetalab: parse error: " in capsys.readouterr().err

    def test_optimize_empty_result(self, capsys):
        assert main(["pairs", "optimize", "--objective", "k", "--constraint", "l < 1/2"]) == 2

    def test_optimize_family_scan(self, capsys):
        assert main(["pairs", "optimize", "--theorem", "2", "--q-range", "2:10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "q,k,l,sigma,selected"
        selected = [line for line in lines[1:] if line.endswith(",true")]
        assert len(selected) == 1
        assert selected[0].startswith("3,")

    def test_optimize_bad_q_range(self, capsys):
        # a reversed range is empty, not malformed
        assert main(["pairs", "optimize", "--q-range", "10:2"]) == 2
        assert main(["pairs", "optimize", "--q-range", "2-10"]) == 1

    def test_optimize_q_range_top_is_a_resource_limit(self, capsys, monkeypatch):
        assert main(["pairs", "optimize", "--theorem", "2", "--q-range", "1000:1000"]) == 0
        capsys.readouterr()
        built = []
        monkeypatch.setattr(cli, "q_family_optimum", lambda *a: built.append(a))
        assert main(["pairs", "optimize", "--theorem", "2", "--q-range", "2:100000"]) == 4
        assert built == []  # refused before any pair is built
        assert capsys.readouterr().out == ""

    def test_optimize_empty_family_range(self, capsys):
        assert main(["pairs", "optimize", "--q-range", "5:4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "zetalab: empty result: empty q-range\n"

    def test_deep_closure_is_a_resource_limit(self, capsys, monkeypatch):
        largest = 0
        add = pairs.PairSet.add

        def counting_add(self, p):
            nonlocal largest
            new = add(self, p)
            largest = max(largest, len(self))
            return new

        monkeypatch.setattr(pairs.PairSet, "add", counting_add)
        assert main(["pairs", "enumerate", "--depth", "1000000000"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("zetalab: resource limit: ")
        # refused within one parent's two children of the cap
        assert pairs._MAX_PAIRS < largest <= pairs._MAX_PAIRS + 2


class TestZeta:
    def test_eval(self, capsys):
        assert main(["zeta", "eval", "--sigma", "2", "--t", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ZETA_CSV_HEADER
        assert float(lines[1].split(",")[3]) == pytest.approx(1.6449340668482264)

    def test_eval_pole(self, capsys):
        assert main(["zeta", "eval", "--sigma", "1", "--t", "0"]) == 3

    def test_eval_outside_strip(self, capsys):
        assert main(["zeta", "eval", "--sigma", "0.5", "--t", "2e6"]) == 3

    def test_afe_grid(self, capsys):
        assert main(["zeta", "afe", "--grid"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 42

    def test_afe_needs_flags(self, capsys):
        assert main(["zeta", "afe", "--sigma", "0.75"]) == 1

    def test_afe_point(self, capsys):
        assert main(["zeta", "afe", "--sigma", "0.75", "--t", "100", "--cutoff", "200"]) == 0
        ratio = float(out_line(capsys, 1).split(",")[7])
        assert ratio <= 1.0

    def test_afe2_balanced(self, capsys):
        assert main(["zeta", "afe2", "--sigma", "0.75", "--t", "50"]) == 0
        row = out_line(capsys, 1).split(",")
        assert float(row[7]) <= 50.0

    def test_afe2_table_guard(self, capsys):
        assert main(["zeta", "afe2", "--sigma", "0.75", "--t", "50", "--x", "1e9"]) == 4

    def test_afe2_table_at_the_term_cap(self, capsys, monkeypatch):
        # a small cap keeps both sides of the boundary cheap
        monkeypatch.setattr(dirichlet, "_MAX_TERMS", 1000)
        argv = ["zeta", "afe2", "--sigma", "0.75", "--t", "50", "--x"]
        assert main(argv + ["1000"]) == 0
        capsys.readouterr()
        assert main(argv + ["1001"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("zetalab: resource limit: ")

    def test_afe2_range_is_checked_before_the_sieve(self, capsys, monkeypatch):
        # x = 4e6 lies under the table cap but beyond t^2 = 2500
        def no_table(*args):
            raise AssertionError("a divisor table was sieved")

        monkeypatch.setattr(zeta_module, "DivisorTable", no_table)
        assert main(["zeta", "afe2", "--sigma", "0.75", "--t", "50", "--x", "4000000"]) == 3
        assert "x must lie in" in capsys.readouterr().err

    def test_afe2_bad_x(self, capsys):
        assert main(["zeta", "afe2", "--sigma", "0.75", "--t", "50", "--x", "wide"]) == 1

    def test_smooth(self, capsys):
        assert main(["zeta", "smooth", "--sigma", "0.75", "--t", "20", "--Y", "100"]) == 0
        row = out_line(capsys, 1).split(",")
        assert float(row[5]) <= float(row[6])

    def test_smooth_keeps_its_row_at_sigma_three_halves(self, capsys):
        assert main(["zeta", "smooth", "--sigma", "1.5", "--t", "5", "--Y", "100"]) == 0
        assert out_line(capsys, 1) == (
            "1.5,5,100,0.802643132200661,0.132193653971858,"
            "0.00735694591596444,0.1,0.0735694591596444"
        )

    @pytest.mark.parametrize("sigma, t", [("2", "0"), ("3", "0"), ("2.5", "5")])
    def test_smooth_beyond_three_halves_is_a_domain_error(self, capsys, sigma, t):
        # past sigma = 3/2 the residue of Gamma(w) at w = -1 joins the
        # leftover, so the residual would no longer measure the identity
        assert main(["zeta", "smooth", "--sigma", sigma, "--t", t, "--Y", "10"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sigma <= 3/2" in captured.err
        assert "Traceback" not in captured.err

    def test_smooth_refuses_before_summing(self, capsys, monkeypatch):
        # at Y = 1e5 the series would be 4,000,000 terms
        def no_sum(*args):
            raise AssertionError("the smoothed series was summed")

        monkeypatch.setattr(report, "smoothed_sum", no_sum)
        assert main(["zeta", "smooth", "--sigma", "2", "--t", "0", "--Y", "100000"]) == 3
        assert "sigma <= 3/2" in capsys.readouterr().err

    def test_fe_check_coarse(self, capsys):
        assert main(["zeta", "fe-check"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 36
        ratios = [float(line.split(",")[7]) for line in lines[1:]]
        assert max(ratios) <= 1.0


class TestHarnessParity:
    """A single-point command prints the row its scan prints for that point."""

    def _row(self, capsys, argv) -> str:
        assert main(argv) == 0
        return out_line(capsys, 1)

    def test_eval_matches_fe_check_value_cells(self, capsys):
        rows, _ = report.fe_check_rows("coarse", DEFAULT_SETTINGS)
        s = report.fe_check_grid("coarse")[8]
        cells = self._row(capsys, ["zeta", "eval", "--sigma", repr(s.real), "--t", repr(s.imag)])
        cells = cells.split(",")
        assert [cells[i] for i in (0, 1, 3, 4)] == [rows[8][i] for i in (0, 1, 3, 4)]
        assert [cells[i] for i in (2, 5, 6, 7)] == ["", "", "", ""]

    def test_afe_point_matches_scan(self, capsys):
        rows, _ = report.afe_scan_rows(DEFAULT_SETTINGS)
        sigma, t, cutoff = rows[10][:3]  # sigma 0.75, t 150, cutoff 200
        argv = ["zeta", "afe", "--sigma", sigma, "--t", t, "--cutoff", cutoff]
        assert self._row(capsys, argv) == ",".join(rows[10])

    @pytest.mark.parametrize("index", [14, 15])  # sigma 0.45, t 200; x balanced, then x = t
    def test_afe2_point_matches_scan(self, capsys, index):
        rows, _ = report.afe2_scan_rows(DEFAULT_SETTINGS)
        sigma, t, x = report.afe2_grid()[index]
        argv = ["zeta", "afe2", "--sigma", repr(sigma), "--t", repr(t), "--x", repr(x)]
        assert self._row(capsys, argv) == ",".join(rows[index])

    @pytest.mark.parametrize("grid", ["coarse", "fine"])
    def test_fe_check_is_zeta_at_every_point(self, grid):
        # the grid is one array evaluation; each row holds zeta() at its
        # point, bit for bit, and the one-point residual
        points = report.fe_check_grid(grid)
        rows, worst = report.fe_check_rows(grid, DEFAULT_SETTINGS)
        values, residuals = _fe_residuals(points, DEFAULT_SETTINGS)
        assert len(rows) == len(values) == len(points)
        for s, row, value, residual in zip(points, rows, values, residuals):
            expected = zeta(s)
            assert _bits(value) == _bits(expected), s
            assert residual == abs(expected - chi(s) * zeta(1 - s)), s
            assert row == report.zeta_row(s.real, s.imag, None, expected, residual, 1e-8)
        assert worst == max(residuals)

    def test_afe_scan_is_afe_row_at_every_point(self):
        rows, _ = report.afe_scan_rows(DEFAULT_SETTINGS)
        grid = report.afe_grid()
        assert len(rows) == len(grid) == 42
        for point, row in zip(grid, rows):
            assert report.afe_rows([point], DEFAULT_SETTINGS)[0] == [row]

    def test_afe2_scan_is_afe2_row_at_every_point(self):
        rows, _ = report.afe2_scan_rows(DEFAULT_SETTINGS)
        grid = report.afe2_grid()
        assert len(rows) == len(grid) == 50
        for point, row in zip(grid, rows):
            assert report.afe2_rows([point], DEFAULT_SETTINGS)[0] == [row]

    def test_smooth_point_matches_scan(self, capsys):
        rows, _ = report.smooth_scan_rows(DEFAULT_SETTINGS)
        argv = ["zeta", "smooth", "--sigma", "0.75", "--t", "20", "--Y", "1000"]
        assert self._row(capsys, argv) == ",".join(rows[1])

    def test_smooth_residual_belongs_to_printed_value(self, capsys):
        argv = ["zeta", "smooth", "--sigma", "0.75", "--t", "20", "--Y", "100"]
        cells = self._row(capsys, argv).split(",")
        s = complex(0.75, 20)
        value = smoothed_sum(s, 100.0)
        assert cells[3:5] == [report.fmt_float(value.real), report.fmt_float(value.imag)]
        residual = report.smooth_residual(s, 100.0, DEFAULT_SETTINGS, value)
        assert cells[5] == report.fmt_float(residual)


# the flags of `moment watt` whose numbers leave the float range, and
# the cause the refusal names
WATT_OUT_OF_RANGE = {
    "--T 100 --coeffs 1e200": "rhs = inf",
    "--T 100 --coeffs 1e-200": "rhs = 0.0",
    "--T 2000 --coeffs 1e152": "is not finite",
    "--T 30 --coeffs power:3:1e308": "power coeffs",
}


class TestMoment:
    def test_integrate(self, capsys):
        assert main(["moment", "integrate", "--T", "50"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == MOMENT_CSV_HEADER
        assert float(lines[1].split(",")[3]) > 0

    def test_integrate_resource_limit(self, capsys):
        assert main(["moment", "integrate", "--T", "50000"]) == 4

    @pytest.mark.parametrize(
        "argv", [["moment", "split", "--T", "nan"], ["moment", "watt", "--T", "nan", "--coeffs", "1"]]
    )
    def test_nan_t_is_a_domain_error(self, argv, capsys):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "T must be finite, got nan" in captured.err

    def test_scan(self, capsys):
        assert main(["moment", "scan", "--j", "0", "--T-list", "32,64,128"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["samples"]) == 3
        # log^4 factors inflate the local slope well above 1 at small T
        assert 1.0 < payload["exponent"] < 2.5

    def test_scan_unordered(self, capsys):
        assert main(["moment", "scan", "--T-list", "64,32,128"]) == 3

    def test_scan_unparseable(self, capsys):
        assert main(["moment", "scan", "--T-list", "a,b,c"]) == 1

    def test_split(self, capsys):
        assert main(["moment", "split", "--T", "40"]) == 0
        row = out_line(capsys, 1).split(",")
        assert float(row[3]) > 0 and float(row[4]) > 0

    def test_watt_power_coeffs(self, capsys):
        assert main(["moment", "watt", "--T", "30", "--coeffs", "power:4:-0.5"]) == 0
        row = out_line(capsys, 1).split(",")
        assert row[1] == "4"
        assert float(row[4]) > 0

    def test_watt_explicit_coeffs(self, capsys):
        assert main(["moment", "watt", "--T", "30", "--coeffs", "1,0,0.5"]) == 0

    def test_watt_bad_coeffs(self, capsys):
        assert main(["moment", "watt", "--T", "30", "--coeffs", "power:0:1"]) == 1
        assert main(["moment", "watt", "--T", "30", "--coeffs", "one,two"]) == 1

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("flags", sorted(WATT_OUT_OF_RANGE))
    def test_watt_outside_the_float_range_is_a_domain_error(self, flags, capsys):
        # each of these printed inf, nan or a zero ratio, or raised
        # OverflowError
        assert main(["moment", "watt"] + flags.split()) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("zetalab: ")
        assert WATT_OUT_OF_RANGE[flags] in captured.err
        assert "Traceback" not in captured.err


NON_FINITE_ARGVS = [
    ["zeta", "afe", "--sigma", "0.75", "--t", "10", "--cutoff", "nan"],
    ["zeta", "afe", "--sigma", "0.75", "--t", "10", "--cutoff", "inf"],
    ["zeta", "afe2", "--sigma", "0.75", "--t", "nan"],
    ["zeta", "afe2", "--sigma", "0.75", "--t", "inf"],
    ["zeta", "afe2", "--sigma", "0.75", "--t", "50", "--x", "nan"],
    ["zeta", "smooth", "--sigma", "0.75", "--t", "20", "--Y", "nan"],
    ["zeta", "smooth", "--sigma", "0.75", "--t", "20", "--Y", "inf"],
    ["moment", "split", "--T", "40", "--Y", "nan"],
    ["moment", "watt", "--T", "30", "--coeffs", "nan"],
    ["moment", "watt", "--T", "30", "--coeffs", "power:3:nan"],
]


@pytest.mark.parametrize("argv", NON_FINITE_ARGVS, ids=" ".join)
def test_non_finite_input_is_a_domain_error(argv, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("zetalab: ")
    assert "Traceback" not in captured.err


PARSE_ERROR_ARGVS = [
    ["pairs", "thresholds", "--pair", "x,1"],
    ["pairs", "thresholds", "--pair", "1,2,3"],
    ["moment", "watt", "--T", "10", "--coeffs", "power:3"],
    ["zeta", "afe2", "--sigma", "0.75"],
]


@pytest.mark.parametrize("argv", PARSE_ERROR_ARGVS, ids=" ".join)
def test_malformed_value_is_a_parse_error(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("zetalab: parse error: ")


def _refuse_series(monkeypatch):
    """Make every finite-sum harness fail the test if it reaches a sum or
    a divisor sieve."""

    def reached(*args, **kwargs):
        raise AssertionError("a series was summed or a divisor table sieved")

    monkeypatch.setattr(zeta_module, "_direct_sums", reached)
    monkeypatch.setattr(zeta_module, "DivisorTable", reached)
    monkeypatch.setattr(report, "smoothed_sum", reached)


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "eval", "--sigma", "nan"],
        ["zeta", "eval", "--sigma", "0.5", "--t", "nan"],
        ["zeta", "afe", "--sigma", "nan", "--t", "10", "--cutoff", "5"],
        ["zeta", "afe", "--sigma", "0.75", "--t", "inf", "--cutoff", "10"],
        ["zeta", "afe2", "--sigma", "0.75", "--t", "nan"],
        ["zeta", "smooth", "--sigma", "0.75", "--t", "inf", "--Y", "100"],
    ],
    ids=" ".join,
)
def test_non_finite_s_names_the_cause(argv, capsys, monkeypatch):
    _refuse_series(monkeypatch)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("zetalab: s must be finite, got ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "afe", "--sigma", "0.75", "--t", "2e6", "--cutoff", "1000000"],
        ["zeta", "afe2", "--sigma", "0.75", "--t", "2e6", "--x", "3000000"],
        ["zeta", "smooth", "--sigma", "0.75", "--t", "2e6", "--Y", "10000"],
    ],
    ids=" ".join,
)
def test_harness_refuses_large_t_before_summing(argv, capsys, monkeypatch):
    # each would sum or sieve a million terms or more
    _refuse_series(monkeypatch)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "zetalab: |t| > 1e+06 unsupported, got 2000000.0\n"


# one past the cap on an exactly summed series (the smoothed series at
# t = 10 has 40 Y terms), or far past and one past the 2^17-term cap on a
# weight; each is refused before its terms are allocated
_SPLIT_Y = (2**24 + 1.5) / math.log(96.0) ** 2
TERM_CAP_ARGVS = [
    ["zeta", "afe", "--sigma", "0.75", "--t", "10", "--cutoff", str(_MAX_TERMS + 1)],
    ["zeta", "smooth", "--sigma", "0.75", "--t", "10", "--Y", repr((_MAX_TERMS + 1.5) / 40)],
    ["moment", "split", "--T", "96", "--Y", repr(_SPLIT_Y)],
    ["moment", "watt", "--T", "30", "--coeffs", "power:16777217:-0.5"],
    ["moment", "split", "--T", "96", "--Y", repr((2**17 + 1.5) / math.log(96.0) ** 2)],
    ["moment", "watt", "--T", "30", "--coeffs", "power:131073:-0.5"],
]


@pytest.mark.parametrize("argv", TERM_CAP_ARGVS, ids=" ".join)
def test_length_beyond_term_cap_is_a_resource_limit(argv, capsys, monkeypatch):
    def no_kernel(*args, **kwargs):
        raise AssertionError("a zeta or Dirichlet-polynomial kernel was reached")

    monkeypatch.setattr(moments, "_dirichlet_sum", no_kernel)
    monkeypatch.setattr(moments, "zeta_grid_multi", no_kernel)
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("zetalab: resource limit: ")


def test_power_coeffs_outside_the_float_range():
    with pytest.raises(zetalab.DomainError, match="overflow"):
        cli._parse_coeffs("power:3:1e308")
    assert cli._parse_coeffs("power:3:-1e308") == [1.0, 0.0, 0.0]  # underflow is exact zero


def test_weight_at_cap_is_accepted_by_the_parser():
    coeffs = cli._parse_coeffs("power:131072:-0.5")
    assert len(coeffs) == 2**17 and coeffs[-1] == 131072.0**-0.5


class TestConfigPlumbing:
    def test_config_file_and_env(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "lab.cfg"
        path.write_text("threads = 2\n")
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert main(["--config", str(path), "zeta", "eval", "--sigma", "2"]) == 0
        direct = capsys.readouterr().out
        monkeypatch.setenv(ENV_VAR, str(path))
        assert main(["zeta", "eval", "--sigma", "2"]) == 0
        assert capsys.readouterr().out == direct

    def test_bad_config_path(self, capsys):
        assert main(["--config", "/nonexistent.cfg", "zeta", "eval", "--sigma", "2"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--output-dir", "out", "moment", "report"],
            ["zeta", "smooth", "--sigma", "0.75", "--t", "20", "--Y", "100", "--multiplier", "50"],
        ],
        ids=" ".join,
    )
    def test_removed_flag_is_a_usage_error(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "zetalab: error: " in captured.err

    def test_report_writes_to_the_working_directory_by_default(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["moment", "report"]) == 0
        out = capsys.readouterr().out
        for name in ("regression_report.txt", "regression_report.json"):
            assert f"written: {os.path.join('.', name)}\n" in out
            assert (tmp_path / name).is_file()

    @pytest.mark.parametrize(
        "key", ["afe_residual_limit", "afe2_ratio_limit", "smooth_residual_limit"]
    )
    def test_removed_limit_key_is_refused(self, tmp_path, capsys, key):
        path = tmp_path / "lab.cfg"
        path.write_text(f"# limits\n{key} = 10\n")
        assert main(["--config", str(path), "zeta", "afe", "--grid"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unknown config key {key!r} (at position 2)" in captured.err

    @pytest.mark.parametrize(
        "key", ["euler_maclaurin_terms", "bernoulli_order", "divisor_table_size", "output_dir"]
    )
    def test_removed_zeta_key_is_refused(self, tmp_path, capsys, key):
        path = tmp_path / "lab.cfg"
        path.write_text(f"target_abs_error = 1e-13\n{key} = 12\n")
        assert main(["--config", str(path), "zeta", "eval", "--sigma", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unknown config key {key!r} (at position 2)" in captured.err

    @pytest.mark.parametrize("key", ["points_per_panel", "width_scale"])
    def test_removed_panel_key_is_refused(self, tmp_path, capsys, key):
        # the panel rule is a constant of the quadrature, not a setting
        path = tmp_path / "lab.cfg"
        path.write_text(f"threads = 2\n{key} = 1\n")
        assert main(["--config", str(path), "moment", "integrate", "--T", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unknown config key {key!r} (at position 2)" in captured.err

    def test_infinite_target_is_a_domain_error(self, tmp_path, capsys):
        # an infinite target collapses the Euler-Maclaurin length to
        # garbage values (-1520.76+574.12i here, |zeta| ~ 1e-7)
        path = tmp_path / "lab.cfg"
        path.write_text("target_abs_error = inf\n")
        argv = ["zeta", "eval", "--sigma", "0.5", "--t", "14.134725"]
        assert main(["--config", str(path), *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "target_abs_error must be finite" in captured.err

    def test_thread_override_rejects_zero(self, capsys):
        assert main(["--threads", "0", "zeta", "eval", "--sigma", "2"]) == 3

    def test_thread_override_above_the_cap(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(quadrature, "ThreadPoolExecutor", no_pool)
        assert main(["--threads", "100000", "zeta", "eval", "--sigma", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("zetalab: resource limit: ")


class TestDeterminism:
    def test_report_bytes_stable_across_runs_and_threads(self, tmp_path, capsys):
        outs = []
        files = []
        for i, extra in enumerate(([], [], ["--threads", "4"])):
            out_dir = tmp_path / f"run{i}"
            code = main(extra + ["moment", "report", "--out", str(out_dir)])
            assert code == 0
            stdout = capsys.readouterr().out
            outs.append(stdout.split("written:")[0])
            blobs = []
            for name in ("regression_report.txt", "regression_report.json"):
                with open(out_dir / name, "rb") as fh:
                    blobs.append(fh.read())
            files.append(blobs)
        assert outs[0] == outs[1] == outs[2]
        assert files[0] == files[1] == files[2]

    def test_console_script_matches_in_process(self, capsys):
        argv = ["pairs", "thresholds", "--pair", "huxley32", "--pair", "1/6,2/3"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        proc = subprocess.run(
            [sys.executable, "-m", "zetalab.cli"] + argv,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == expected


def test_import_leaves_out_scipy_and_mpmath():
    """No source file of the package names scipy, and a fresh interpreter
    that imports zetalab.cli and integrates one moment has no scipy,
    mpmath or numpy.polynomial module loaded: each import would add to
    every command's start-up time and resident memory, and the panel
    rule is a table that needs none of them."""
    package = Path(zetalab.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        assert "scipy" not in path.read_text(encoding="utf-8"), path.name
    code = (
        "import sys, zetalab.cli; "
        "from zetalab.moments import MomentSpec, integrate_moment; "
        "integrate_moment(MomentSpec(0.5, 0, 0.0, 10.0)); "
        "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath') "
        "or m.startswith('numpy.polynomial')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def out_line(capsys, index: int) -> str:
    return capsys.readouterr().out.splitlines()[index]
