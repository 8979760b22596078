"""Acceptance checklist: one test per contract criterion.

Each test prints a criterion line in the terminal summary (see
conftest).  Tolerances and runtime budgets are pinned in the asserts;
recorded-only quantities carry a note in the summary line instead of a
tight assertion.
"""

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from zetalab import (
    DivisorTable,
    MomentSpec,
    QuadratureSettings,
    SEED_PAIRS,
    b_process,
    chi_grid,
    consistency_check_mu_equals_pair,
    divisor_phase_sum_hyperbola,
    dyadic_scan,
    enumerate_pairs,
    integrate_moment,
    mu_threshold,
    q_family_pair,
    theorem1_pair_sigma,
    theorem1_sigma,
    theorem2_sigma,
    zeta,
)
from zetalab.cli import main
from zetalab.report import (
    afe2_scan_rows,
    afe_scan_rows,
    fe_check_rows,
    smooth_scan_rows,
)
from zetalab.zeta import DEFAULT_SETTINGS


def best_of_three(fn) -> float:
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return min(timings)


@pytest.mark.criterion(1, "second-power-weight threshold is exactly 589/666 and 5/6, under 1 ms")
def test_criterion_1_exact_sigma_thresholds():
    pair = SEED_PAIRS["huxley32"]
    assert pair.k == F(32, 205) and pair.l == F(32, 205) + F(1, 2)

    def run():
        assert theorem1_pair_sigma(pair) == F(589, 666)
        assert theorem1_sigma(pair) == F(5, 6)

    run()  # warm
    assert best_of_three(run) < 1e-3


@pytest.mark.criterion(2, "fourth-power-weight family: q=3 pair reduces consistently, sigma 1953/1984 = 63/64, scan over q in [2,10] selects q=3, under 1 ms")
def test_criterion_2_family_threshold_and_scan():
    def run():
        p = q_family_pair(3)
        assert p.k == F(16, 928) == F(1, 58)
        assert p.l == F(849, 928)
        sigma = theorem2_sigma(p)
        assert sigma == F(1953, 1984) == F(63, 64)
        best_sigma, best_q = min(
            (theorem2_sigma(q_family_pair(q)), q) for q in range(2, 11)
        )
        assert best_q == 3 and best_sigma == F(63, 64)

    run()  # warm
    assert best_of_three(run) < 1e-3


@pytest.mark.criterion(3, "mu route: mu_threshold(1, 32/205) = 589/666 exactly; pair consistency for 100 rational k in [0, 1/2); feasibility flips exactly at 1/(4j)")
def test_criterion_3_mu_consistency():
    result = mu_threshold(1, F(32, 205))
    assert result.value == F(589, 666) and result.feasible

    for i in range(100):
        assert consistency_check_mu_equals_pair(F(i, 201))

    bump = F(1, 10**12)
    for j in (1, 2, 3):
        edge = F(1, 4 * j)
        assert mu_threshold(j, edge).feasible
        assert not mu_threshold(j, edge + bump).feasible


@pytest.mark.criterion(4, "pair algebra: B involution on 500 enumerated pairs, closure validity invariants, depth-2 closure from (0,1) is exactly three pairs")
def test_criterion_4_pair_algebra():
    closure = list(enumerate_pairs([SEED_PAIRS["trivial"]], 14))
    assert len(closure) >= 500
    for p in closure[:500]:
        assert b_process(b_process(p)).key() == p.key()
    for p in closure:
        assert 0 <= p.k <= F(1, 2) <= p.l <= 1
        assert p.k <= p.l

    depth2 = enumerate_pairs([SEED_PAIRS["trivial"]], 2)
    assert set(depth2.keys()) == {
        (F(0), F(1)),
        (F(1, 2), F(1, 2)),
        (F(1, 6), F(2, 3)),
    }


@pytest.mark.criterion(5, "zeta engine: zeta(2) and zeta(0) to 1e-12, functional equation to 1e-8 on the 1000-point grid, |chi| - 1 to 1e-10 at 10^4 points, under 60 s")
def test_criterion_5_zeta_engine():
    start = time.perf_counter()
    assert abs(zeta(2.0) - math.pi**2 / 6) <= 1e-12
    assert abs(zeta(0.0) - (-0.5)) <= 1e-12

    _, fe_worst = fe_check_rows("fine", DEFAULT_SETTINGS)
    assert fe_worst <= 1e-8

    ts = np.linspace(0.0, 1000.0, 10**4)
    chi_dev = float(np.max(np.abs(np.abs(chi_grid(0.5 + 1j * ts)) - 1.0)))
    assert chi_dev <= 1e-10
    assert time.perf_counter() - start < 60.0


@pytest.mark.criterion(6, "hyperbola identity matches the direct divisor phase sum to 1e-9 relative for every u <= 10^4 at four t values, under 30 s")
def test_criterion_6_hyperbola_equivalence():
    start = time.perf_counter()
    upper = 10**4
    table = DivisorTable(upper)
    ns = np.arange(1, upper + 1, dtype=np.float64)
    weights = table.d[1:].astype(np.float64)
    worst = 0.0
    for t in (0.0, 1.3, 17.77, 123.456):
        terms = weights * np.exp(1j * t * np.log(ns))
        # Neumaier-compensated prefix sums give the direct side for
        # every u in one pass, exact to working precision.
        re, im = terms.real, terms.imag
        sr = si = cr = ci = 0.0
        for u in range(1, upper + 1):
            x = re[u - 1]
            total = sr + x
            cr += (sr - total) + x if abs(sr) >= abs(x) else (x - total) + sr
            sr = total
            y = im[u - 1]
            total = si + y
            ci += (si - total) + y if abs(si) >= abs(y) else (y - total) + si
            si = total
            direct = complex(sr + cr, si + ci)
            hyper = divisor_phase_sum_hyperbola(u, t)
            worst = max(worst, abs(hyper - direct) / (1 + abs(direct)))
    assert worst <= 1e-9
    assert time.perf_counter() - start < 30.0


@pytest.mark.criterion(7, "smoothed-sum residue identity at s = 3/4 + 20i: residual decreases over Y in {1e2, 1e3, 1e4} and stays within 10 * Y^(1/2 - sigma)")
def test_criterion_7_smoothed_residue_identity():
    s = 0.75 + 20j
    rows, residuals = smooth_scan_rows(DEFAULT_SETTINGS)
    assert residuals[0] > residuals[1] > residuals[2]
    for y, residual in zip((1e2, 1e3, 1e4), residuals):
        assert residual <= 10.0 * y ** (0.5 - s.real)
    assert len(rows) == 3


@pytest.mark.criterion(8, "truncated-series residual <= 10 on t in [T, 2T] for T in {100, 1000}; two-sum residual/bound <= 50 on the 50-point grid")
def test_criterion_8_afe_contracts():
    _, afe_worst = afe_scan_rows(DEFAULT_SETTINGS)
    assert afe_worst <= 10.0
    _, afe2_worst = afe2_scan_rows(DEFAULT_SETTINGS)
    assert afe2_worst <= 50.0


BATTERY = [
    MomentSpec(0.5, 0, 0.0, 120.0),
    MomentSpec(0.6, 1, 0.0, 100.0),
    MomentSpec(0.75, 1, 0.0, 150.0),
    MomentSpec(0.9, 2, 0.0, 80.0),
    MomentSpec(1.0, 1, 50.0, 150.0),
    MomentSpec(0.5, 2, 10.0, 90.0),
    MomentSpec(0.75, 0, 30.0, 160.0),
    MomentSpec(0.9, 1, 0.0, 200.0),
    MomentSpec(0.6, 2, 20.0, 100.0),
    MomentSpec(1.0, 0, 0.0, 100.0),
]


@pytest.mark.criterion(9, "moment integrator: additivity and refinement on the 10-spec battery, exact j=0 sigma-independence; dyadic exponent recorded as illustrative, under 10 min")
def test_criterion_9_moment_battery(acceptance_note):
    start = time.perf_counter()
    for spec in BATTERY:
        whole = integrate_moment(spec)
        mid = (spec.t_min + spec.t_max) / 2
        left = integrate_moment(
            MomentSpec(spec.sigma, spec.j, spec.t_min, mid, spec.quadrature)
        )
        right = integrate_moment(
            MomentSpec(spec.sigma, spec.j, mid, spec.t_max, spec.quadrature)
        )
        budget = whole.error_estimate + left.error_estimate + right.error_estimate
        assert abs(whole.value - (left.value + right.value)) <= budget
        finer = integrate_moment(
            MomentSpec(
                spec.sigma, spec.j, spec.t_min, spec.t_max, spec.quadrature.halved()
            )
        )
        assert abs(finer.value - whole.value) <= whole.error_estimate
        assert whole.value >= 0

    for sigma in (0.5, 0.75, 1.0):
        assert (
            integrate_moment(MomentSpec(sigma, 0, 0.0, 60.0)).value
            == integrate_moment(MomentSpec(0.9, 0, 0.0, 60.0)).value
        )

    # The T^(1+eps) growth claim is not reproducible at desk scale: the
    # fourth moment grows like T * P4(log T), and over T in [256, 2048]
    # the log^4 factor inflates the local slope to ~1.8.  The fitted
    # exponent is therefore recorded, and pinned only loosely so a
    # change in the integrator would surface here.
    fit = dyadic_scan(0.9, 1, [256.0, 512.0, 1024.0, 2048.0])
    assert math.isfinite(fit.exponent) and fit.exponent > 0
    assert fit.exponent == pytest.approx(1.8414, abs=0.02)
    acceptance_note(9, f"dyadic exponent {fit.exponent:.4f} recorded, not asserted")
    assert time.perf_counter() - start < 600.0


CLI_COMMANDS = [
    ["pairs", "enumerate", "--depth", "3"],
    ["pairs", "enumerate", "--depth", "2", "--format", "json"],
    ["pairs", "optimize", "--objective", "(5k + l)/(4k + 1)", "--constraint", "k + l < 1"],
    ["pairs", "optimize", "--theorem", "2", "--q-range", "2:10"],
    ["pairs", "thresholds", "--pair", "huxley32", "--pair", "1/6,2/3"],
    ["zeta", "eval", "--sigma", "0.5", "--t", "14.134725"],
    ["zeta", "afe", "--sigma", "0.75", "--t", "100", "--cutoff", "200"],
    ["zeta", "afe2", "--sigma", "0.75", "--t", "50"],
    ["zeta", "smooth", "--sigma", "0.75", "--t", "20", "--Y", "100"],
    ["zeta", "fe-check", "--grid", "coarse"],
    ["moment", "integrate", "--T", "50"],
    ["moment", "scan", "--j", "0", "--T-list", "32,64,128"],
    ["moment", "split", "--T", "40"],
    ["moment", "watt", "--T", "30", "--coeffs", "power:4:-0.5"],
]


@pytest.mark.criterion(10, "determinism: parallel quadrature bit-identical to serial; every CLI command byte-identical across two runs")
def test_criterion_10_determinism(tmp_path, capsys):
    serial = integrate_moment(
        MomentSpec(0.75, 1, 0.0, 60.0, QuadratureSettings(threads=1))
    )
    parallel = integrate_moment(
        MomentSpec(0.75, 1, 0.0, 60.0, QuadratureSettings(threads=4))
    )
    assert parallel.value == serial.value  # bit identity
    assert parallel.panel_count == serial.panel_count

    for argv in CLI_COMMANDS:
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], argv

    report_dir = str(tmp_path / "report")
    report_argv = ["moment", "report", "--out", report_dir]
    stdout_runs = []
    file_runs = []
    for _ in range(2):
        assert main(report_argv) == 0
        stdout_runs.append(capsys.readouterr().out)
        blobs = []
        for name in ("regression_report.txt", "regression_report.json"):
            with open(f"{report_dir}/{name}", "rb") as fh:
                blobs.append(fh.read())
        file_runs.append(blobs)
    assert stdout_runs[0] == stdout_runs[1]
    assert file_runs[0] == file_runs[1]
