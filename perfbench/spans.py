"""In-memory spans around zetalab's public functions.

The benchmark does not change the program.  It wraps public functions
in its own process, on every module binding that holds them: zetalab
modules import each other's functions by name (``from .zeta import
zeta_grid_multi``), so wrapping ``zetalab.zeta.zeta_grid_multi`` alone
would miss the call made through ``zetalab.moments.zeta_grid_multi``.
``Tracer.install`` therefore replaces the function on every loaded
``zetalab`` module whose attribute *is* the original object, and
``uninstall`` puts every binding back.

A span is (id, name, layer, start, end, parent, op, attrs).  Spans of
one benchmark operation share ``op``.  A layer's self time is the
span's duration minus the part of it that child spans cover (the union
of the child intervals, so overlapping children in worker threads are
not counted twice).
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    worker: bool = False  # opened on a thread other than the operation's
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _grid_attrs(args, kwargs, result):
    rows, nodes = result.shape
    return {"rows": rows, "nodes": nodes}


def _integrate_attrs(args, kwargs, result):
    t_min, t_max = args[1], args[2]
    settings = args[3] if len(args) > 3 else kwargs.get("settings")
    points = settings.points_per_panel if settings is not None else 16
    return {"t_span": t_max - t_min, "panels": result[1], "points": points}


def _moment_attrs(args, kwargs, result):
    spec = args[0]
    return {"asked": spec.t_max - spec.t_min}


def _scan_attrs(args, kwargs, result):
    return {"asked": max(args[2])}


def _sieve_attrs(args, kwargs, result):
    return {"n": args[1]}


def _size_attrs(args, kwargs, result):
    return {"size": len(result)}


# (module, attribute, layer, span name, attrs hook).  A dotted attribute
# names a method on a class, which has a single binding.
LAYER_FUNCTIONS: tuple = (
    ("zetalab.zeta", "zeta_grid_multi", "zeta", "zeta.grid", _grid_attrs),
    ("zetalab.zeta", "zeta", "zeta", "zeta.scalar", None),
    ("zetalab.zeta", "chi", "zeta", "zeta.chi", None),
    ("zetalab.zeta", "chi_grid", "zeta", "zeta.chi_grid", None),
    ("zetalab.zeta", "functional_equation_residual", "zeta", "zeta.fe_residual", None),
    ("zetalab.zeta", "afe_simple", "zeta", "zeta.afe_simple", None),
    ("zetalab.zeta", "afe_zeta_squared", "zeta", "zeta.afe_zeta_squared", None),
    ("zetalab.zeta", "smoothed_sum", "zeta", "zeta.smoothed_sum", None),
    ("zetalab.quadrature", "integrate", "quadrature", "quadrature.integrate", _integrate_attrs),
    ("zetalab.quadrature", "panel_edges", "quadrature", "quadrature.partition", None),
    ("zetalab.moments", "integrate_moment", "moments", "moments.integrate_moment", _moment_attrs),
    ("zetalab.moments", "dyadic_scan", "moments", "moments.dyadic_scan", _scan_attrs),
    ("zetalab.moments", "fit_growth", "moments", "moments.fit_growth", None),
    ("zetalab.moments", "split_i1_i2", "moments", "moments.split", None),
    ("zetalab.moments", "watt_ratio", "moments", "moments.watt", None),
    ("zetalab.moments", "sixth_moment_probe", "moments", "moments.sixth", None),
    ("zetalab.dirichlet", "DivisorTable.__init__", "dirichlet", "dirichlet.sieve", _sieve_attrs),
    ("zetalab.dirichlet", "divisor_phase_sum_direct", "dirichlet", "dirichlet.direct", None),
    ("zetalab.dirichlet", "divisor_phase_sum_hyperbola", "dirichlet", "dirichlet.hyperbola", None),
    ("zetalab.report", "regression_data", "report", "report.regression_data", None),
    ("zetalab.report", "render_report", "report", "report.render", None),
    ("zetalab.report", "write_regression_report", "report", "report.write", None),
    ("zetalab.report", "fe_check_rows", "report", "report.fe_check_rows", None),
    ("zetalab.report", "afe_scan_rows", "report", "report.afe_scan_rows", None),
    ("zetalab.report", "afe2_scan_rows", "report", "report.afe2_scan_rows", None),
    ("zetalab.report", "smooth_residual", "report", "report.smooth_residual", None),
    ("zetalab.cli", "main", "cli", "cli.main", None),
    ("zetalab.cli", "cmd_pairs_enumerate", "cli", "cli.pairs_enumerate", None),
    ("zetalab.cli", "cmd_pairs_optimize", "cli", "cli.pairs_optimize", None),
    ("zetalab.cli", "cmd_pairs_thresholds", "cli", "cli.pairs_thresholds", None),
    ("zetalab.cli", "cmd_zeta_afe", "cli", "cli.zeta_afe", None),
    ("zetalab.cli", "cmd_zeta_afe2", "cli", "cli.zeta_afe2", None),
    ("zetalab.cli", "cmd_zeta_smooth", "cli", "cli.zeta_smooth", None),
    ("zetalab.cli", "cmd_zeta_fe_check", "cli", "cli.zeta_fe_check", None),
    ("zetalab.cli", "cmd_moment_split", "cli", "cli.moment_split", None),
    ("zetalab.cli", "cmd_moment_watt", "cli", "cli.moment_watt", None),
    ("zetalab.cli", "cmd_moment_report", "cli", "cli.moment_report", None),
    ("zetalab.config", "load_config", "config", "config.load", None),
    ("zetalab.pairs", "enumerate_pairs", "pairs", "pairs.enumerate", _size_attrs),
    ("zetalab.objectives", "parse_objective", "objectives", "objectives.parse", None),
    ("zetalab.objectives", "parse_constraint", "objectives", "objectives.parse", None),
    ("zetalab.objectives", "optimize", "objectives", "objectives.optimize", None),
    ("zetalab.thresholds", "theorem1_pair_sigma", "thresholds", "thresholds.calls", None),
    ("zetalab.thresholds", "theorem1_sigma", "thresholds", "thresholds.calls", None),
    ("zetalab.thresholds", "theorem2_sigma", "thresholds", "thresholds.calls", None),
    ("zetalab.thresholds", "mu_threshold", "thresholds", "thresholds.calls", None),
)


class Tracer:
    """Collects spans while installed; ``op`` scopes them to one operation.

    Each thread keeps its own stack of open spans.  A worker thread with
    an empty stack (a quadrature chunk run by the thread pool) takes as
    parent the innermost open span of the thread running the operation,
    which is blocked in the pool at that moment.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        self._op = 0
        self._op_thread: Optional[int] = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, layer: str) -> tuple[Span, list[int]]:
        ident = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(ident, [])
            parent = stack[-1] if stack else None
            worker = self._op_thread is not None and ident != self._op_thread
            if parent is None and worker:
                owner = self._stacks.get(self._op_thread) or [None]
                parent = owner[-1]
            span = Span(len(self.spans), name, layer, 0.0, 0.0, parent, self._op, worker)
            self.spans.append(span)
            stack.append(span.id)
        span.start = time.perf_counter()
        return span, stack

    def _close(self, span: Span, stack: list[int]):
        span.end = time.perf_counter()
        with self._lock:
            stack.pop()

    def run_op(self, op_id: int, name: str, fn: Callable):
        """Run fn() as operation op_id under a root span of layer 'bench'."""
        self._op = op_id
        self._op_thread = threading.get_ident()
        span, stack = self._open(name, "bench")
        try:
            return fn()
        finally:
            self._close(span, stack)
            self._op_thread = None

    def _wrap(self, fn: Callable, name: str, layer: str, attrs_hook) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, stack = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, stack)
            if attrs_hook is not None:
                span.attrs = attrs_hook(args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, functions=LAYER_FUNCTIONS):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "zetalab" or n.startswith("zetalab."))]
        for module_name, attr, layer, name, hook in functions:
            home = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._set(cls, method, self._wrap(original, name, layer, hook))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, name, layer, hook)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, binding, wrapper)

    def _set(self, owner, attr: str, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def layer_self(layer):
        return sum(own[s.id] for s in spans if s.layer == layer)

    grid = named("zeta.grid")
    grid_nodes = sum(s.attrs["rows"] * s.attrs["nodes"] for s in grid)
    grid_s = total("zeta.grid")

    quad = named("quadrature.integrate")
    moment_spans = named("moments.integrate_moment")
    integrals = [s for s in moment_spans if s.attrs["asked"] > 0]
    passes = sum(1 for s in quad if s.parent is not None
                 and by_id[s.parent].name == "moments.integrate_moment")

    # t-length integrated below each outermost moment operation
    # (integrate_moment or dyadic_scan) over the length it asked for
    roots = {"moments.integrate_moment", "moments.dyadic_scan"}

    def outermost(span):
        found = None
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name in roots:
                found = span
        return found

    asked = sum(s.attrs["asked"] for s in spans
                if s.name in roots and outermost(s) is None)
    spent = sum(s.attrs["t_span"] for s in quad if outermost(s) is not None)

    sums = [s for s in spans if s.layer == "dirichlet" and s.name != "dirichlet.sieve"]
    reports = len(named("cli.moment_report"))
    return {
        "zeta.grid_calls": len(grid),
        "zeta.grid_nodes": grid_nodes,
        "zeta.grid_s": grid_s,
        "zeta.grid_us_per_node": grid_s / grid_nodes * 1e6 if grid_nodes else 0.0,
        "zeta.scalar_calls": len(named("zeta.scalar")),
        "zeta.scalar_s": total("zeta.scalar"),
        "quadrature.passes_per_integral": passes / len(integrals) if integrals else 0.0,
        "quadrature.panels": sum(s.attrs["panels"] for s in quad),
        "quadrature.nodes": sum(s.attrs["panels"] * s.attrs["points"] for s in quad),
        "quadrature.partition_s": total("quadrature.partition"),
        "quadrature.self_s": layer_self("quadrature"),
        "moments.integrals": len(moment_spans),
        "moments.self_s": layer_self("moments"),
        "moments.t_span_ratio": spent / asked if asked else 0.0,
        "dirichlet.sieve_s": total("dirichlet.sieve"),
        "dirichlet.sieve_n": sum(s.attrs["n"] for s in named("dirichlet.sieve")),
        "dirichlet.calls": len(sums),
        "dirichlet.s": sum(own[s.id] for s in sums),
        "report.regression_data_calls_per_report":
            len(named("report.regression_data")) / reports if reports else 0.0,
        "report.s": layer_self("report"),
        "cli.self_s": layer_self("cli"),
        "config.s": layer_self("config"),
        "pairs.enumerate_s": total("pairs.enumerate"),
        "pairs.closure_size": sum(s.attrs["size"] for s in named("pairs.enumerate")),
        "objectives.optimize_s": total("objectives.optimize"),
        "thresholds.calls": len(named("thresholds.calls")),
        "bench.self_s": layer_self("bench"),
        "trace.spans": len(spans),
    }

