"""Named scan grids, CSV row builders, and the regression report.

The CSV schemas here are the stable external interface of the package;
every builder returns rows of preformatted strings so the CLI and the
report writer emit byte-identical output for identical inputs.  Floats
print with 15 significant digits, exact rationals as num/den, and
nothing here reads clocks, hostnames, or thread counts, so two runs of
any command produce the same bytes.

zeta_row is the one builder of ZETA_CSV_HEADER rows.  Each zeta harness
has one point function returning (row, figure): afe_row, afe2_row and
smooth_row serve the single-point CLI command and, for smooth, the scan.
fe_check_rows, afe_scan_rows and afe2_scan_rows evaluate their whole grid
in one call of the zeta module's array path, whose values at a point
do not depend on the batch, so a scan row equals its point function's
row.  The afe and smooth bound columns are fixed shapes, AFE_BOUND and
SMOOTH_BOUND * Y^{1/2 - sigma}; nothing here compares them with a residual.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import pairs as pairs_mod
from . import thresholds
from .config import Config
from .dirichlet import (
    DivisorTable,
    divisor_phase_sum_direct,
    divisor_phase_sum_hyperbola,
)
from .errors import DomainError
from .moments import MomentSpec, integrate_moment, sixth_moment_probe, watt_ratio
from .zeta import (
    EvalSettings,
    _afe2_points,
    _afe_points,
    _choose_terms,
    _fe_residuals,
    _log_gamma,
    _zeta_at,
    afe_simple,
    afe_zeta_squared,
    chi_grid,
    smoothed_sum,
    zeta,
)

ZETA_CSV_HEADER = "sigma,t,x_or_Y,value_re,value_im,residual,bound,ratio"
PAIR_CSV_HEADER = pairs_mod.PAIR_CSV_HEADER
MOMENT_CSV_HEADER = "sigma,j,T,value,error_estimate,panels"

AFE_BOUND = 10.0
SMOOTH_BOUND = 10.0


def fmt_float(x: float) -> str:
    return f"{x:.15g}"


def fmt_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def emit_csv(header: str, rows: Iterable[Sequence[str]]) -> str:
    lines = [header]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def fe_check_grid(name: str) -> list[complex]:
    """Deterministic s-grids for the functional-equation identity.

    "coarse" is a quick 36-point smoke grid; "fine" is the 1000-point
    grid (0 < sigma < 1, |t| <= 100) the identity contract is judged
    on.  Points within 1e-3 of s = 0 or s = 1 are excluded.
    """
    if name == "coarse":
        sigmas = [0.25, 0.5, 0.75]
        ts = [-100.0, -25.0, -5.0, -1.5, -0.5, 0.5, 1.5, 5.0, 14.134725, 25.0,
              50.0, 100.0]
    elif name == "fine":
        sigmas = list(np.linspace(0.05, 0.95, 10))
        ts = list(np.linspace(-100.0, 100.0, 100))
    else:
        raise DomainError(f"unknown grid {name!r}; use coarse or fine")
    grid = []
    for sig in sigmas:
        for t in ts:
            s = complex(sig, t)
            if abs(s) < 1e-3 or abs(s - 1) < 1e-3:
                continue
            grid.append(s)
    return grid


def zeta_row(sigma, t, x_or_y, value, residual=None, bound=None) -> list[str]:
    """One ZETA_CSV_HEADER row; a cell given as None is left empty, and
    the ratio is residual / bound when both are given."""
    ratio = None if residual is None or bound is None else residual / bound
    cells = (sigma, t, x_or_y, value.real, value.imag, residual, bound, ratio)
    return ["" if cell is None else fmt_float(cell) for cell in cells]


def fe_check_rows(
    name: str, settings: EvalSettings
) -> tuple[list[list[str]], float]:
    """Residual rows over a named grid, the whole grid in one array
    evaluation; returns (rows, max residual)."""
    grid = fe_check_grid(name)
    values, residuals = _fe_residuals(grid, settings)
    rows = [
        zeta_row(s.real, s.imag, None, z, residual, 1e-8)
        for s, z, residual in zip(grid, values, residuals)
    ]
    return rows, max(residuals, default=0.0)


def afe_row(
    sigma: float, t: float, cutoff: float, settings: EvalSettings
) -> tuple[list[str], float]:
    """The truncated series sum_{n <= cutoff} n^{-s} at s = sigma + it;
    returns (row, residual), the bound column being AFE_BOUND."""
    value, residual = afe_simple(complex(sigma, t), cutoff, settings)
    return zeta_row(sigma, t, cutoff, value, residual, AFE_BOUND), residual


def afe_grid() -> list[tuple[float, float, float]]:
    """42 points (sigma, t, cutoff): for T in {100, 1000} and three
    sigmas, seven t in [T, 2T] with cutoff 2T."""
    return [
        (sigma, float(t), 2 * big_t)
        for big_t in (100.0, 1000.0)
        for sigma in (0.5, 0.75, 1.0)
        for t in np.linspace(big_t, 2 * big_t, 7)
    ]


def afe_scan_rows(settings: EvalSettings) -> tuple[list[list[str]], float]:
    """Truncated-series residuals over afe_grid, the whole grid in one
    array evaluation; each row is afe_row's at its point.

    The residual contract is O(1) with an unspecified constant; rows
    carry residual/AFE_BOUND, and the returned worst residual is what
    acceptance holds to 10, nothing sharper.
    """
    grid = afe_grid()
    scan = _afe_points([complex(s, t) for s, t, _ in grid], [c for *_, c in grid], settings)
    rows = [
        zeta_row(sigma, t, cutoff, value, residual, AFE_BOUND)
        for (sigma, t, cutoff), (value, residual) in zip(grid, scan)
    ]
    return rows, max((residual for _, residual in scan), default=0.0)


def afe2_grid() -> list[tuple[float, float, float]]:
    """50 points (sigma, t, x): five sigmas, five t <= 500, and per
    (sigma, t) the balanced cutoff x = t/(2 pi) plus the stretched
    x = t."""
    grid = []
    for sigma in (0.3, 0.45, 0.6, 0.75, 0.9):
        for t in (50.0, 100.0, 200.0, 350.0, 500.0):
            for x in (t / (2 * math.pi), t):
                grid.append((sigma, t, x))
    return grid


def afe2_row(
    sigma: float, t: float, x: float, table: DivisorTable, settings: EvalSettings
) -> tuple[list[str], float]:
    """The two-sum representation of zeta(s)^2 at s = sigma + it with
    cutoff x; returns (row, residual/bound)."""
    value, residual, bound = afe_zeta_squared(complex(sigma, t), x, table, settings)
    return zeta_row(sigma, t, x, value, residual, bound), residual / bound


def afe2_scan_rows(settings: EvalSettings) -> tuple[list[list[str]], float]:
    """Two-sum representation residuals over the 50-point grid, the whole
    grid in one array evaluation; each row is afe2_row's at its point.

    Returns (rows, worst residual/bound ratio), which acceptance holds
    to 50.
    """
    grid = afe2_grid()
    table = DivisorTable(int(max(x for _, _, x in grid)) + 1)
    scan = _afe2_points([complex(s, t) for s, t, _ in grid], [x for *_, x in grid], table, settings)
    rows = [
        zeta_row(sigma, t, x, value, residual, bound)
        for (sigma, t, x), (value, residual, bound) in zip(grid, scan)
    ]
    return rows, max((residual / bound for _, residual, bound in scan), default=0.0)


def _check_residue_range(s: complex):
    if s.real > 1.5:
        raise DomainError(f"the residue identity needs sigma <= 3/2, got {s.real}")


def smooth_residual(s: complex, smoothing: float, settings: EvalSettings, value: complex) -> float:
    """|value - zeta(s) - Gamma(1-s) Y^{1-s}|, the leftover after the two
    residues of the Mellin representation; value is the smoothed series
    at Y = smoothing.  DomainError for sigma > 3/2, where a third residue
    enters (see smoothed_sum)."""
    s = complex(s)
    _check_residue_range(s)
    residue = cmath.exp(_log_gamma(1 - s) + (1 - s) * math.log(smoothing))
    return abs(value - zeta(s, settings) - residue)


def smooth_row(s: complex, smoothing: float, settings: EvalSettings) -> tuple[list[str], float]:
    """The smoothed series at Y = smoothing and its residual; the bound
    column is SMOOTH_BOUND * Y^{1/2 - sigma}.  Returns (row, residual).
    sigma > 3/2 is refused before the series is summed."""
    s = complex(s)
    _check_residue_range(s)
    value = smoothed_sum(s, smoothing)
    residual = smooth_residual(s, smoothing, settings, value)
    bound = SMOOTH_BOUND * smoothing ** (0.5 - s.real)
    return zeta_row(s.real, s.imag, smoothing, value, residual, bound), residual


def smooth_scan_rows(settings: EvalSettings) -> tuple[list[list[str]], list[float]]:
    """Residue-identity residuals at s = 3/4 + 20i for Y in {1e2, 1e3, 1e4}."""
    scan = [smooth_row(0.75 + 20j, y, settings) for y in (1e2, 1e3, 1e4)]
    return [row for row, _ in scan], [residual for _, residual in scan]


def _hyperbola_spot_max(us: Sequence[int], ts: Sequence[float]) -> float:
    table = DivisorTable(max(us))
    worst = 0.0
    for u in us:
        for t in ts:
            direct = divisor_phase_sum_direct(u, t, table)
            hyper = divisor_phase_sum_hyperbola(u, t)
            worst = max(worst, abs(hyper - direct) / (1 + abs(direct)))
    return worst


def regression_data(config: Config) -> dict:
    """Everything the regression report shows, as plain data."""
    es = config.eval_settings()
    qs = config.quadrature_settings()

    reference = pairs_mod.SEED_PAIRS["huxley32"]
    superseded = pairs_mod.SEED_PAIRS["huxley89"]
    family, (best_q, best_pair, best_sigma) = thresholds.q_family_optimum(
        thresholds.theorem2_sigma, range(2, 11)
    )
    family_rows = [
        {"q": q, "k": fmt_rational(p.k), "l": fmt_rational(p.l), "sigma": fmt_rational(sigma)}
        for q, p, sigma in family
    ]

    enumerated = pairs_mod.enumerate_pairs([pairs_mod.SEED_PAIRS["trivial"]], 4)
    involution_ok = all(
        pairs_mod.b_process(pairs_mod.b_process(p)).key() == p.key()
        for p in enumerated
    )
    depth2 = pairs_mod.enumerate_pairs([pairs_mod.SEED_PAIRS["trivial"]], 2)
    # lists, not tuples, so the JSON form renders identically after a round trip
    depth2_keys = [
        [fmt_rational(k), fmt_rational(l)] for k, l in sorted(depth2.keys())
    ]

    ts = np.linspace(0.0, 1000.0, 64)
    chi_dev = float(
        np.max(np.abs(np.abs(chi_grid(0.5 + 1j * ts)) - 1.0))
    )
    _, fe_worst = fe_check_rows("coarse", es)
    hyper_worst = _hyperbola_spot_max(
        [1, 10, 97, 360, 1024, 2000], [0.0, 1.3, 17.77, 123.456]
    )
    s_stab = complex(0.75, 50.0)
    auto = zeta(s_stab, es)
    em_delta = abs(auto - _zeta_at(s_stab, 2 * _choose_terms(s_stab, es)))

    moment = integrate_moment(MomentSpec(0.75, 1, 0.0, 100.0, qs), es)
    probe = sixth_moment_probe(256.0, qs, es)
    watt_coeffs = [m ** (-0.75) for m in range(1, 9)]
    lhs, rhs, ratio = watt_ratio(200.0, watt_coeffs, qs, es)

    return {
        "thresholds": {
            "reference_pair": {
                "k": fmt_rational(reference.k),
                "l": fmt_rational(reference.l),
                "sigma_pair": fmt_rational(thresholds.theorem1_pair_sigma(reference)),
                "sigma_full": fmt_rational(thresholds.theorem1_sigma(reference)),
            },
            "superseded_pair": {
                "k": fmt_rational(superseded.k),
                "l": fmt_rational(superseded.l),
                "sigma_pair": fmt_rational(thresholds.theorem1_pair_sigma(superseded)),
                "sigma_full": fmt_rational(thresholds.theorem1_sigma(superseded)),
            },
            "q_family": family_rows,
            "q_family_optimum": {
                "q": best_q,
                "k": fmt_rational(best_pair.k),
                "l": fmt_rational(best_pair.l),
                "sigma": fmt_rational(best_sigma),
            },
            "mu_route_sigma": fmt_rational(
                thresholds.mu_threshold(1, Fraction(32, 205)).value
            ),
            "cutoff_exponent_at_5_6": fmt_rational(
                thresholds.y_cutoff_exponent(Fraction(5, 6))
            ),
        },
        "properties": {
            "b_involution_pairs_checked": len(enumerated),
            "b_involution_ok": involution_ok,
            "depth2_closure": depth2_keys,
            "chi_modulus_max_deviation": chi_dev,
            "fe_residual_max_coarse": fe_worst,
            "hyperbola_max_relative": hyper_worst,
            "em_stability_delta": em_delta,
        },
        "moments": {
            "spot": {
                "sigma": 0.75,
                "j": 1,
                "t_max": 100.0,
                "value": moment.value,
                "error_estimate": moment.error_estimate,
                "panels": moment.panel_count,
            },
            "sixth_probe_T256": probe.value,
            "sixth_probe_T256_error_estimate": probe.error_estimate,
            "watt_T200_M8": {
                "lhs": lhs.value,
                "lhs_error_estimate": lhs.error_estimate,
                "rhs": rhs,
                "ratio": ratio,
            },
        },
    }


def render_report(data: dict) -> str:
    """Human-readable regression table from regression_data output."""
    th = data["thresholds"]
    pr = data["properties"]
    mo = data["moments"]
    lines = [
        "regression report: hybrid fourth-moment laboratory",
        "",
        "exact rational thresholds",
        (
            f"  second-power weight, pair ({th['reference_pair']['k']}, "
            f"{th['reference_pair']['l']}): sigma_pair "
            f"{th['reference_pair']['sigma_pair']}, sigma_full "
            f"{th['reference_pair']['sigma_full']}"
        ),
        (
            f"  second-power weight, superseded pair ({th['superseded_pair']['k']}, "
            f"{th['superseded_pair']['l']}): sigma_pair "
            f"{th['superseded_pair']['sigma_pair']}, sigma_full "
            f"{th['superseded_pair']['sigma_full']}"
        ),
        (
            f"  fourth-power weight, family optimum: q = {th['q_family_optimum']['q']}, "
            f"pair ({th['q_family_optimum']['k']}, {th['q_family_optimum']['l']}), "
            f"sigma {th['q_family_optimum']['sigma']}"
        ),
        f"  mu route at mu = 32/205: sigma {th['mu_route_sigma']}",
        f"  cutoff exponent at sigma = 5/6: {th['cutoff_exponent_at_5_6']}",
        "",
        "property suite",
        (
            f"  B involution on {pr['b_involution_pairs_checked']} pairs: "
            f"{'pass' if pr['b_involution_ok'] else 'FAIL'}"
        ),
        f"  depth-2 closure of (0, 1): {pr['depth2_closure']}",
        f"  chi modulus max deviation (64 spots, t <= 1000): {fmt_float(pr['chi_modulus_max_deviation'])}",
        f"  functional-equation residual max (coarse grid): {fmt_float(pr['fe_residual_max_coarse'])}",
        f"  hyperbola vs direct max relative: {fmt_float(pr['hyperbola_max_relative'])}",
        f"  euler-maclaurin doubling delta at 3/4+50i: {fmt_float(pr['em_stability_delta'])}",
        "",
        "moment spot checks",
        (
            f"  sigma 3/4, j 1, T 100: value {fmt_float(mo['spot']['value'])}, "
            f"error {fmt_float(mo['spot']['error_estimate'])}, "
            f"panels {mo['spot']['panels']}"
        ),
        f"  sixth-moment probe at T 256: {fmt_float(mo['sixth_probe_T256'])}",
        f"  sixth-moment probe error estimate: {fmt_float(mo['sixth_probe_T256_error_estimate'])}",
        (
            f"  watt ratio T 200, M 8, a_m = m^(-3/4): lhs {fmt_float(mo['watt_T200_M8']['lhs'])}, "
            f"rhs {fmt_float(mo['watt_T200_M8']['rhs'])}, "
            f"ratio {fmt_float(mo['watt_T200_M8']['ratio'])}"
        ),
        f"  watt lhs error estimate: {fmt_float(mo['watt_T200_M8']['lhs_error_estimate'])}",
    ]
    return "\n".join(lines) + "\n"


def write_regression_report(data: dict, out_dir: str) -> list[str]:
    """Write the text and JSON forms of regression_data output; returns
    the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    text = render_report(data)
    txt_path = os.path.join(out_dir, "regression_report.txt")
    json_path = os.path.join(out_dir, "regression_report.json")
    with open(txt_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True))
        fh.write("\n")
    return [txt_path, json_path]
