"""Workload generators and the operations they run.

A generator maps a seed to a fixed list of operations; the benchmark
repeats that list as passes for as long as a run lasts.  Every numeric
input is drawn from a small lattice so that the value each operation
returns at the commit that defined the benchmark could be recorded
(``reference.json``, written by ``record.py``): the seed chooses
*which* lattice points and in what order, the program only ever sees
the chosen inputs.

Each pass has the same shape whatever the seed (the same number of
operations of each kind, at matched cost), so wall time and the median
operation time move with the program, not with the seed.  Why each
workload exists is in README.md.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import checks
import probes

WORKLOADS = ("hybrid-high", "scan-low", "lab-session")

# hybrid-high: window starts 1000, 1250, ..., 4750 in four strata of
# 1000; the window length makes (t0 log t0) * L the same for every t0,
# so every window costs about the same (the EM length grows like 2t and
# the panel density like 2 log t).
HYBRID_T0 = tuple(1000 + 250 * k for k in range(16))
HYBRID_SIGMAS = (0.6, 0.7, 0.8, 0.9, 1.0)
HYBRID_WORK = 97_000.0


def hybrid_length(t0: float) -> float:
    return round(8 * HYBRID_WORK / (t0 * math.log(t0))) / 8


# scan-low: four-point dyadic T lists [T/8, T/4, T/2, T].  The j = 0
# pair runs at T = 176; j = 1 and j = 2 (which cost the same) split
# {168, 184} between them, so a pass costs the same for every seed.
# sigma stays below 1, where |zeta(sigma + it)|^(2j) is integrable at 0.
SCAN_J0_TOP = 176
SCAN_TOPS = (168, 184)
SCAN_SIGMAS = (0.6, 0.7, 0.8, 0.9)


def scan_list(top: int) -> tuple[float, ...]:
    return tuple(float(top // d) for d in (8, 4, 2, 1))


# lab-session: the seed varies what does not change an operation's
# cost (sigma, j in {1, 2}, coefficients), so every pass costs the same.
SPLIT_T = 96.0
SPLIT_SIGMAS = (0.6, 0.7, 0.8)
WATT_T = 150.0
WATT_M = (4, 8, 16)
WATT_E = (-0.5, -0.75)
THREAD_T = 80.0
THREAD_SIGMAS = (0.6, 0.7, 0.8)
SWEEP_PAIRS = 300
SWEEP_U = 10_000


@dataclass(frozen=True)
class Op:
    """One operation: a kind, a label unique within its list, parameters."""

    kind: str
    label: str
    params: tuple


@dataclass
class Outcome:
    """What an operation produced: a fingerprint compared across passes
    for determinism, values compared against the recorded ones, and the
    problems its own checks found."""

    fingerprint: object
    values: dict
    problems: list


def generate(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "hybrid-high":
        return _hybrid_ops(rng)
    if workload == "scan-low":
        return _scan_ops(rng)
    if workload == "lab-session":
        return _lab_ops(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _window_ops(t0: float, j: int, sigma: float, group: str) -> list[Op]:
    """Left half, right half and whole of the window starting at t0."""
    length = hybrid_length(t0)
    mid, end = t0 + length / 2, t0 + length
    return [
        Op("window", f"{group}:{part}", (sigma, j, a, b, group))
        for part, (a, b) in (("left", (t0, mid)), ("right", (mid, end)), ("whole", (t0, end)))
    ]


def _hybrid_ops(rng: random.Random) -> list[Op]:
    js = [1, 1, 2, 2]
    rng.shuffle(js)
    strata = list(range(4))
    rng.shuffle(strata)
    ops = []
    for stratum in strata:
        t0 = float(HYBRID_T0[4 * stratum + rng.randrange(4)])
        ops += _window_ops(t0, js[stratum], rng.choice(HYBRID_SIGMAS), f"w{t0:g}")
    return ops


def _scan_ops(rng: random.Random) -> list[Op]:
    sig_a, sig_b = rng.sample(SCAN_SIGMAS, 2)
    top_1, top_2 = rng.sample(SCAN_TOPS, 2)
    ops = [
        Op("scan", "j0:a", (sig_a, 0, scan_list(SCAN_J0_TOP), None)),
        Op("scan", "j0:b", (sig_b, 0, scan_list(SCAN_J0_TOP), "j0:a")),
        Op("scan", "j1", (rng.choice(SCAN_SIGMAS), 1, scan_list(top_1), None)),
        Op("scan", "j2", (rng.choice(SCAN_SIGMAS), 2, scan_list(top_2), None)),
    ]
    rng.shuffle(ops)
    # the sigma-identity check needs the first j=0 scan to run first
    ops.sort(key=lambda op: op.label == "j0:b")
    return ops


def _q_pair_arg(q: int) -> str:
    den = 120 * 2**q - 32
    k, l = Fraction(16, den), Fraction(120 * 2**q - 16 * q - 63, den)
    return f"{k},{l}"


def _lab_ops(rng: random.Random) -> list[Op]:
    depth = rng.choice((3, 4))
    cli = [
        ("thresholds", ["pairs", "thresholds", "--pair", "huxley32",
                        "--pair", _q_pair_arg(rng.randrange(2, 11))]),
        ("optimize-objective", ["pairs", "optimize", "--objective", "(5k + l)/(4k + 1)",
                                "--constraint", "k + l < 1", "--depth", str(depth),
                                "--seeds", rng.choice(("trivial", "trivial,huxley32"))]),
        ("optimize-theorem2", ["pairs", "optimize", "--theorem", "2",
                               "--q-range", f"2:{rng.randrange(4, 13)}"]),
        ("enumerate", ["pairs", "enumerate", "--depth", str(rng.choice((3, 4, 5))),
                       "--seeds", rng.choice(("trivial", "trivial,huxley89")),
                       "--format", rng.choice(("csv", "json"))]),
        ("fe-check", ["zeta", "fe-check", "--grid", "fine"]),
        ("afe", ["zeta", "afe", "--grid"]),
        ("afe2", ["zeta", "afe2", "--grid"]),
        ("smooth", ["zeta", "smooth", "--sigma", str(rng.choice((0.6, 0.75, 0.9))),
                    "--t", str(rng.choice((10.0, 20.0, 30.0, 50.0))),
                    "--Y", str(rng.choice((100.0, 300.0, 1000.0)))]),
        ("split", ["moment", "split", "--T", str(SPLIT_T),
                   "--sigma", str(rng.choice(SPLIT_SIGMAS))]),
        ("watt", ["moment", "watt", "--T", str(WATT_T),
                  "--coeffs", f"power:{rng.choice(WATT_M)}:{rng.choice(WATT_E)}"]),
        ("report", ["moment", "report", "--out", None]),
    ]
    ops = [Op("cli", label, tuple(argv)) for label, argv in cli]
    sweep_rng = random.Random(rng.random())
    pairs = tuple(
        (sweep_rng.randrange(1, SWEEP_U + 1), round(sweep_rng.uniform(0.0, 200.0), 3))
        for _ in range(SWEEP_PAIRS)
    )
    ops.append(Op("sweep", "divisor-sweep", pairs))
    ops.append(Op("threads", "threads", (rng.choice(THREAD_SIGMAS), rng.choice((1, 2)),
                                         THREAD_T)))
    rng.shuffle(ops)
    return ops


# -- reference keys ---------------------------------------------------------


def moment_key(sigma: float, j: int, a: float, b: float) -> str:
    if j == 0:
        sigma = 0.5  # the j = 0 moment does not depend on sigma
    return f"moment|{sigma!r}|{j}|{a!r}|{b!r}"


def scan_key(sigma: float, j: int, t_list) -> str:
    if j == 0:
        sigma = 0.5
    return f"scan|{sigma!r}|{j}|{','.join(repr(t) for t in t_list)}"


# -- execution --------------------------------------------------------------

LAYER_MODULES = ("zeta", "quadrature", "moments", "dirichlet", "report", "cli",
                 "config", "pairs", "objectives", "thresholds")


def load_zetalab() -> SimpleNamespace:
    """The zetalab modules by name.  (``zetalab.zeta`` on the package is
    the function, which shadows the module of the same name.)"""
    return SimpleNamespace(
        **{name: importlib.import_module(f"zetalab.{name}") for name in LAYER_MODULES}
    )


class Runner:
    """Runs operations against the zetalab modules, always through module
    attributes so that tracing wrappers, when installed, see the calls."""

    def __init__(self, zl, workdir: str):
        self.zl = zl
        self.workdir = workdir

    def run(self, op: Op, done: dict) -> Outcome:
        """done maps labels of this pass's earlier operations to outcomes."""
        return getattr(self, "_" + op.kind)(op, done)

    def _window(self, op: Op, done: dict) -> Outcome:
        sigma, j, a, b, group = op.params
        moments = self.zl.moments
        result = moments.integrate_moment(moments.MomentSpec(sigma, j, a, b))
        pair = (result.value, result.error_estimate)
        problems = []
        if op.label.endswith(":whole"):
            left, right = done[f"{group}:left"], done[f"{group}:right"]
            problems += checks.check_additivity(
                left.fingerprint, right.fingerprint, pair, b, j
            )
        return Outcome(pair, {moment_key(sigma, j, a, b): result.value}, problems)

    def _scan(self, op: Op, done: dict) -> Outcome:
        sigma, j, t_list, twin = op.params
        fit = self.zl.moments.dyadic_scan(sigma, j, list(t_list))
        values = {moment_key(sigma, j, 0.0, t): v for t, v in fit.samples}
        values[scan_key(sigma, j, t_list)] = fit.exponent
        problems = []
        if twin is not None:
            problems += checks.check_identical(
                "j=0 across sigma", done[twin].fingerprint, fit.samples
            )
        return Outcome(fit.samples, values, problems)

    def _threads(self, op: Op, done: dict) -> Outcome:
        sigma, j, big_t = op.params
        moments, quadrature = self.zl.moments, self.zl.quadrature
        results = [
            moments.integrate_moment(
                moments.MomentSpec(sigma, j, 0.0, big_t, quadrature.QuadratureSettings(threads=n))
            )
            for n in (1, 2)
        ]
        problems = checks.check_identical(
            "threads=2 vs serial",
            (results[0].value, results[0].error_estimate, results[0].panel_count),
            (results[1].value, results[1].error_estimate, results[1].panel_count),
        )
        value = results[0].value
        return Outcome(value, {moment_key(sigma, j, 0.0, big_t): value}, problems)

    def _probe(self, op: Op, done: dict) -> Outcome:
        probes.layer_probe(self.zl)
        return Outcome(None, {}, [])

    def _sweep(self, op: Op, done: dict) -> Outcome:
        dirichlet = self.zl.dirichlet
        table = dirichlet.DivisorTable(SWEEP_U)
        problems = []
        for u, t in op.params:
            direct = dirichlet.divisor_phase_sum_direct(u, t, table)
            hyper = dirichlet.divisor_phase_sum_hyperbola(u, t)
            problems += checks.check_hyperbola(hyper, direct, u, t)
        return Outcome(None, {}, problems)

    def _cli(self, op: Op, done: dict) -> Outcome:
        argv = list(op.params)
        out_dir = None
        if None in argv:
            out_dir = os.path.join(self.workdir, "report")
            argv[argv.index(None)] = out_dir
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.zl.cli.main(argv)
        text = buf.getvalue()
        problems = [] if code == 0 else [f"{' '.join(argv)}: exit code {code}"]
        values: dict = {}
        fingerprint: object = text
        if code == 0:
            parse = getattr(self, "_parse_" + op.label.replace("-", "_"), None)
            if parse is not None:
                problems += parse(argv, text, values)
            if out_dir is not None:
                blobs = []
                for name in ("regression_report.txt", "regression_report.json"):
                    with open(os.path.join(out_dir, name), "rb") as fh:
                        blobs.append(fh.read())
                fingerprint = (text, tuple(blobs))
                problems += self._report_values(blobs[1], values)
        return Outcome(fingerprint, values, problems)

    @staticmethod
    def _parse_thresholds(argv, text, values) -> list[str]:
        row = text.splitlines()[1].split(",")
        return checks.check_thresholds({"sigma_pair": row[2], "sigma_full": row[3]})

    @staticmethod
    def _parse_optimize_theorem2(argv, text, values) -> list[str]:
        selected = [r.split(",") for r in text.splitlines()[1:] if r.endswith(",true")]
        found = selected[0][3] if len(selected) == 1 else None
        return checks.check_thresholds({"family_sigma": found})

    @staticmethod
    def _parse_fe_check(argv, text, values) -> list[str]:
        return checks.check_fe_residual(text)

    @staticmethod
    def _parse_split(argv, text, values) -> list[str]:
        big_t, sigma, _, i1, i2 = (float(x) for x in text.splitlines()[1].split(","))
        values[f"split|{big_t!r}|{sigma!r}|i1"] = i1
        values[f"split|{big_t!r}|{sigma!r}|i2"] = i2
        return []

    @staticmethod
    def _parse_watt(argv, text, values) -> list[str]:
        big_t, _, lhs, rhs, ratio = text.splitlines()[1].split(",")
        values[f"watt|{float(big_t)!r}|{argv[-1]}|lhs"] = float(lhs)
        values[f"watt|{float(big_t)!r}|{argv[-1]}|ratio"] = float(ratio)
        return []

    @staticmethod
    def _report_values(json_bytes: bytes, values: dict) -> list[str]:
        data = json.loads(json_bytes)
        mo = data["moments"]
        values["report|spot"] = mo["spot"]["value"]
        values["report|sixth_probe_T256"] = mo["sixth_probe_T256"]
        for name in ("lhs", "rhs", "ratio"):
            values[f"report|watt|{name}"] = mo["watt_T200_M8"][name]
        th = data["thresholds"]
        return checks.check_thresholds({
            "sigma_pair": th["reference_pair"]["sigma_pair"],
            "sigma_full": th["reference_pair"]["sigma_full"],
            "family_sigma": th["q_family_optimum"]["sigma"],
        })


def lattice_ops(workload: str) -> list[Op]:
    """Every operation any seed can generate, for recording the values."""
    if workload == "hybrid-high":
        return [
            op
            for t0 in HYBRID_T0
            for j in (1, 2)
            for sigma in HYBRID_SIGMAS
            for op in _window_ops(float(t0), j, sigma, f"w{t0}|{j}|{sigma}")
        ]
    if workload == "scan-low":
        ops = [Op("scan", "j0", (0.5, 0, scan_list(SCAN_J0_TOP), None))]
        for top in SCAN_TOPS:
            for j in (1, 2):
                for sigma in SCAN_SIGMAS:
                    ops.append(Op("scan", f"{top}|{j}|{sigma}", (sigma, j, scan_list(top), None)))
        return ops
    if workload == "lab-session":
        ops = [Op("cli", "report", ("moment", "report", "--out", None))]
        for sigma in SPLIT_SIGMAS:
            ops.append(Op("cli", "split", ("moment", "split", "--T", str(SPLIT_T),
                                           "--sigma", str(sigma))))
        for m in WATT_M:
            for e in WATT_E:
                ops.append(Op("cli", "watt", ("moment", "watt", "--T", str(WATT_T),
                                              "--coeffs", f"power:{m}:{e}")))
        for j in (1, 2):
            for sigma in THREAD_SIGMAS:
                ops.append(Op("threads", f"threads|{sigma}|{j}", (sigma, j, THREAD_T)))
        return ops
    raise ValueError(f"unknown workload {workload!r}")
