"""Command-line surface: pairs / zeta / moment subcommands.

Exit codes: 0 ok, 1 usage or parse error, 2 empty result, 3 domain
error, 4 resource limit.  Output is CSV or JSON on stdout, UTF-8 with
LF endings, rationals as num/den, floats at 15 significant digits, and
no timestamps, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from fractions import Fraction
from typing import Optional, Sequence

from . import report
from .config import Config, load_config
from .dirichlet import _term_count
from .errors import (
    DomainError,
    EmptyResultError,
    ParseError,
    ResourceLimitError,
    ZetalabError,
)
from .moments import (
    MomentSpec,
    dyadic_scan,
    integrate_moment,
    split_i1_i2,
    watt_ratio,
)
from .objectives import (
    OBJECTIVE_GRAMMAR,
    parse_constraint,
    parse_objective,
    optimize,
)
from .pairs import SEED_PAIRS, ExponentPair, enumerate_pairs, pair_cells
from .thresholds import (
    q_family_optimum,
    theorem1_pair_sigma,
    theorem1_sigma,
    theorem2_sigma,
)
from .zeta import _MAX_WEIGHT_TERMS, zeta

_ff = report.fmt_float
_fr = report.fmt_rational
# member q of the q-family has rationals of about 0.3 q digits, so time
# and output grow like the square of the range's top (2:1000 prints
# 0.78 MB in 0.06 s, 2:2000 prints 3.1 MB)
_MAX_Q = 1000


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(text: str):
    sys.stdout.write(text)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not a rational number: {text!r}", 0) from None


def _parse_pair_arg(text: str) -> ExponentPair:
    """A seed name ("huxley32") or an explicit "k,l" with rationals."""
    name = text.strip()
    if name in SEED_PAIRS:
        return SEED_PAIRS[name]
    parts = name.split(",")
    if len(parts) != 2:
        raise ParseError(
            f"pair must be a seed name {sorted(SEED_PAIRS)} or 'k,l': {text!r}", 0
        )
    return ExponentPair(_parse_rational(parts[0]), _parse_rational(parts[1]))


def _parse_seeds(text: str) -> list[ExponentPair]:
    seeds = []
    for name in text.split(","):
        name = name.strip()
        if name not in SEED_PAIRS:
            raise ParseError(
                f"unknown seed {name!r}; choose from {sorted(SEED_PAIRS)}", 0
            )
        seeds.append(SEED_PAIRS[name])
    return seeds


def _parse_q_range(text: str) -> range:
    try:
        lo_text, _, hi_text = text.partition(":")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ParseError(f"q-range must look like 2:10, got {text!r}", 0) from None
    if hi > _MAX_Q:
        raise ResourceLimitError(f"q-range top {hi} beyond the limit {_MAX_Q}")
    return range(lo, hi + 1)


def _parse_t_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise ParseError(f"T-list must be comma-separated numbers: {text!r}", 0) from None


def _parse_coeffs(text: str) -> list[complex]:
    """Either explicit complex values "1,0.5,2j" or "power:M:e" meaning
    a_m = m^e for m = 1..M."""
    if text.startswith("power:"):
        try:
            _, m_text, e_text = text.split(":")
            m, e = int(m_text), float(e_text)
        except ValueError:
            raise ParseError(f"power coeffs must be power:M:exponent, got {text!r}", 0) from None
        if m < 1:
            raise ParseError("power coeffs need M >= 1", 0)
        m = _term_count(m, "power coeffs", _MAX_WEIGHT_TERMS)
        try:
            return [float(v) ** e for v in range(1, m + 1)]
        except OverflowError:
            raise DomainError(f"power coeffs m^{e!r} overflow for m <= {m}") from None
    try:
        return [complex(part.strip()) for part in text.split(",")]
    except ValueError:
        raise ParseError(f"bad coefficient list: {text!r}", 0) from None


def _threshold_fn(theorem: int):
    if theorem == 1:
        return theorem1_pair_sigma, theorem1_sigma
    return theorem2_sigma, theorem2_sigma


def cmd_pairs_enumerate(args, config: Config) -> int:
    seeds = _parse_seeds(args.seeds)
    pair_set = enumerate_pairs(seeds, args.depth)
    if args.format == "json":
        _emit(pair_set.to_json() + "\n")
    else:
        _emit(pair_set.to_csv())
    return 0


def cmd_pairs_optimize(args, config: Config) -> int:
    if args.objective and args.q_range:
        raise ParseError("choose either --objective or --theorem/--q-range", 0)
    if args.q_range:
        pair_fn, _ = _threshold_fn(args.theorem)
        rows, best = q_family_optimum(pair_fn, _parse_q_range(args.q_range))
        out = [
            [str(q), _fr(p.k), _fr(p.l), _fr(sigma), "true" if q == best[0] else "false"]
            for q, p, sigma in rows
        ]
        _emit(report.emit_csv("q,k,l,sigma,selected", out))
        return 0
    if not args.objective:
        raise ParseError("optimize needs --objective or --theorem with --q-range", 0)
    try:
        objective = parse_objective(args.objective)
        constraint = parse_constraint(args.constraint) if args.constraint else None
    except ParseError:
        sys.stderr.write(OBJECTIVE_GRAMMAR)
        raise
    pair_set = enumerate_pairs(_parse_seeds(args.seeds), args.depth)
    best_pair, value = optimize(objective, pair_set, constraint)
    row = pair_cells(best_pair) + [_fr(value)]
    _emit(report.emit_csv(report.PAIR_CSV_HEADER + ",value", [row]))
    return 0


def cmd_pairs_thresholds(args, config: Config) -> int:
    pair_fn, full_fn = _threshold_fn(args.theorem)
    rows = []
    for text in args.pair:
        p = _parse_pair_arg(text)
        rows.append([_fr(p.k), _fr(p.l), _fr(pair_fn(p)), _fr(full_fn(p))])
    _emit(report.emit_csv("k,l,sigma_pair,sigma_full", rows))
    return 0


def cmd_zeta_eval(args, config: Config) -> int:
    value = zeta(complex(args.sigma, args.t), config.eval_settings())
    row = report.zeta_row(args.sigma, args.t, None, value)
    _emit(report.emit_csv(report.ZETA_CSV_HEADER, [row]))
    return 0


def cmd_zeta_afe(args, config: Config) -> int:
    es = config.eval_settings()
    if args.grid:
        rows, _ = report.afe_scan_rows(es)
    elif args.sigma is None or args.cutoff is None:
        raise ParseError("afe needs --sigma and --cutoff (or --grid scan)", 0)
    else:
        rows, _ = report.afe_rows([(args.sigma, args.t, args.cutoff)], es)
    _emit(report.emit_csv(report.ZETA_CSV_HEADER, rows))
    return 0


def cmd_zeta_afe2(args, config: Config) -> int:
    es = config.eval_settings()
    if args.grid:
        rows, _ = report.afe2_scan_rows(es)
        _emit(report.emit_csv(report.ZETA_CSV_HEADER, rows))
        return 0
    if args.sigma is None or args.t is None:
        raise ParseError("afe2 needs --sigma and --t (or --grid scan)", 0)
    if args.x == "balanced":
        x = args.t / (2 * math.pi)
    else:
        try:
            x = float(args.x)
        except ValueError:
            raise ParseError(f"--x must be a number or 'balanced', got {args.x!r}", 0) from None
    rows, _ = report.afe2_rows([(args.sigma, args.t, x)], es)
    _emit(report.emit_csv(report.ZETA_CSV_HEADER, rows))
    return 0


def cmd_zeta_smooth(args, config: Config) -> int:
    row, _ = report.smooth_row(complex(args.sigma, args.t), args.Y, config.eval_settings())
    _emit(report.emit_csv(report.ZETA_CSV_HEADER, [row]))
    return 0


def cmd_zeta_fe_check(args, config: Config) -> int:
    es = config.eval_settings()
    rows, _ = report.fe_check_rows(args.grid, es)
    _emit(report.emit_csv(report.ZETA_CSV_HEADER, rows))
    return 0


def cmd_moment_integrate(args, config: Config) -> int:
    spec = MomentSpec(args.sigma, args.j, args.t_min, args.T, config.quadrature_settings())
    result = integrate_moment(spec, config.eval_settings())
    row = [
        _ff(args.sigma),
        str(args.j),
        _ff(args.T),
        _ff(result.value),
        _ff(result.error_estimate),
        str(result.panel_count),
    ]
    _emit(report.emit_csv(report.MOMENT_CSV_HEADER, [row]))
    return 0


def cmd_moment_scan(args, config: Config) -> int:
    t_list = _parse_t_list(args.T_list)
    fit = dyadic_scan(
        args.sigma, args.j, t_list, config.quadrature_settings(), config.eval_settings()
    )
    payload = {
        "samples": [[t, v] for t, v in fit.samples],
        "exponent": fit.exponent,
        "intercept": fit.intercept,
        "residual_rms": fit.residual_rms,
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_moment_split(args, config: Config) -> int:
    smoothing = args.Y if args.Y is not None else args.T ** 0.375
    i1, i2 = split_i1_i2(
        args.T, args.sigma, smoothing, config.quadrature_settings(), config.eval_settings()
    )
    row = [_ff(args.T), _ff(args.sigma), _ff(smoothing), _ff(i1.value), _ff(i2.value)]
    _emit(report.emit_csv("T,sigma,Y,i1,i2", [row]))
    return 0


def cmd_moment_watt(args, config: Config) -> int:
    coeffs = _parse_coeffs(args.coeffs)
    lhs, rhs, ratio = watt_ratio(
        args.T, coeffs, config.quadrature_settings(), config.eval_settings()
    )
    row = [_ff(args.T), str(len(coeffs)), _ff(lhs.value), _ff(rhs), _ff(ratio)]
    _emit(report.emit_csv("T,M,lhs,rhs,ratio", [row]))
    return 0


def cmd_moment_report(args, config: Config) -> int:
    data = report.regression_data(config)
    _emit(report.render_report(data))
    for path in report.write_regression_report(data, args.out):
        _emit(f"written: {path}\n")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="zetalab", description=__doc__)
    parser.add_argument("--config", help="config file path (else $ZETALAB_CONFIG)")
    parser.add_argument("--threads", type=int, help="override configured thread count")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    pairs = subs.add_parser("pairs", help="exact exponent-pair calculus")
    pairs_subs = pairs.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    enum_p = pairs_subs.add_parser("enumerate", help="A/B closure of seed pairs")
    enum_p.add_argument("--seeds", default="trivial", help="comma list of seed names")
    enum_p.add_argument("--depth", type=int, default=3, help="max process-word length")
    enum_p.add_argument("--format", choices=("csv", "json"), default="csv")
    enum_p.set_defaults(func=cmd_pairs_enumerate)

    opt_p = pairs_subs.add_parser("optimize", help="minimize an objective exactly")
    opt_p.add_argument("--objective", help="e.g. '(5k + l)/(4k + 1)'")
    opt_p.add_argument("--constraint", help="e.g. 'k + l < 1'")
    opt_p.add_argument("--seeds", default="trivial", help="comma list of seed names")
    opt_p.add_argument("--depth", type=int, default=3)
    opt_p.add_argument("--theorem", type=int, choices=(1, 2), default=2)
    opt_p.add_argument("--q-range", dest="q_range", help="family scan, e.g. 2:10")
    opt_p.set_defaults(func=cmd_pairs_optimize)

    thr_p = pairs_subs.add_parser("thresholds", help="sigma thresholds for pairs")
    thr_p.add_argument("--theorem", type=int, choices=(1, 2), default=1)
    thr_p.add_argument(
        "--pair", action="append", required=True,
        help="seed name or 'k,l' rationals; repeatable",
    )
    thr_p.set_defaults(func=cmd_pairs_thresholds)

    zeta_p = subs.add_parser("zeta", help="zeta engine evaluations")
    zeta_subs = zeta_p.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    eval_p = zeta_subs.add_parser("eval", help="zeta(sigma + it)")
    eval_p.add_argument("--sigma", type=float, required=True)
    eval_p.add_argument("--t", type=float, default=0.0)
    eval_p.set_defaults(func=cmd_zeta_eval)

    afe_p = zeta_subs.add_parser("afe", help="truncated Dirichlet series residual")
    afe_p.add_argument("--sigma", type=float)
    afe_p.add_argument("--t", type=float, default=0.0)
    afe_p.add_argument("--cutoff", type=float)
    afe_p.add_argument("--grid", action="store_true", help="run the contract scan")
    afe_p.set_defaults(func=cmd_zeta_afe)

    afe2_p = zeta_subs.add_parser("afe2", help="two-sum representation of zeta^2")
    afe2_p.add_argument("--sigma", type=float)
    afe2_p.add_argument("--t", type=float)
    afe2_p.add_argument("--x", default="balanced", help="cutoff or 'balanced'")
    afe2_p.add_argument("--grid", action="store_true", help="run the 50-point scan")
    afe2_p.set_defaults(func=cmd_zeta_afe2)

    smooth_p = zeta_subs.add_parser("smooth", help="exponentially smoothed series")
    smooth_p.add_argument("--sigma", type=float, required=True)
    smooth_p.add_argument("--t", type=float, default=0.0)
    smooth_p.add_argument("--Y", type=float, required=True)
    smooth_p.set_defaults(func=cmd_zeta_smooth)

    fe_p = zeta_subs.add_parser("fe-check", help="functional-equation residuals")
    fe_p.add_argument("--grid", choices=("coarse", "fine"), default="coarse")
    fe_p.set_defaults(func=cmd_zeta_fe_check)

    moment = subs.add_parser("moment", help="moment integrals and harnesses")
    moment_subs = moment.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    int_p = moment_subs.add_parser("integrate", help="hybrid moment over [t_min, T]")
    int_p.add_argument("--sigma", type=float, default=0.75)
    int_p.add_argument("--j", type=int, default=1, choices=(0, 1, 2))
    int_p.add_argument("--T", type=float, required=True)
    int_p.add_argument("--t-min", dest="t_min", type=float, default=0.0)
    int_p.set_defaults(func=cmd_moment_integrate)

    scan_p = moment_subs.add_parser("scan", help="growth-exponent fit over T list")
    scan_p.add_argument("--sigma", type=float, default=0.75)
    scan_p.add_argument("--j", type=int, default=1, choices=(0, 1, 2))
    scan_p.add_argument("--T-list", dest="T_list", required=True)
    scan_p.set_defaults(func=cmd_moment_scan)

    split_p = moment_subs.add_parser("split", help="smoothed/short-average split")
    split_p.add_argument("--T", type=float, required=True)
    split_p.add_argument("--sigma", type=float, default=0.75)
    split_p.add_argument("--Y", type=float, help="smoothing scale; default T^(3/8)")
    split_p.set_defaults(func=cmd_moment_split)

    watt_p = moment_subs.add_parser("watt", help="weighted fourth-moment ratio")
    watt_p.add_argument("--T", type=float, required=True)
    watt_p.add_argument("--coeffs", required=True, help="'1,0.5,...' or power:M:e")
    watt_p.set_defaults(func=cmd_moment_watt)

    rep_p = moment_subs.add_parser("report", help="write the regression table")
    rep_p.add_argument("--out", default=".", help="output directory")
    rep_p.set_defaults(func=cmd_moment_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = load_config(args.config)
        if args.threads is not None:
            config = replace(config, threads=args.threads)  # validates again
        return args.func(args, config)
    except ParseError as exc:
        sys.stderr.write(f"zetalab: parse error: {exc}\n")
        return 1
    except EmptyResultError as exc:
        sys.stderr.write(f"zetalab: empty result: {exc}\n")
        return 2
    except ResourceLimitError as exc:
        sys.stderr.write(f"zetalab: resource limit: {exc}\n")
        return 4
    except ZetalabError as exc:
        sys.stderr.write(f"zetalab: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
