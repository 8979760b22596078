"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

import math
import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import onethread  # noqa: E402,F401  (before numpy)
import calibrate  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import typical_pass  # noqa: E402
from spans import Span  # noqa: E402


# -- generators ---------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert any(workloads.generate(workload, 7) != workloads.generate(workload, s)
               for s in range(8, 12))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pass_shape_does_not_depend_on_seed(workload):
    shapes = {
        tuple(sorted(Counter(op.kind for op in workloads.generate(workload, s)).items()))
        for s in range(30)
    }
    assert len(shapes) == 1


def _recorded_inputs(op):
    """The inputs an operation's recorded values are keyed by."""
    if op.kind == "window":
        return op.params[:4]
    if op.kind == "scan":
        sigma, j, t_list, _ = op.params
        return (0.5 if j == 0 else sigma, j, t_list)
    return op.params


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_seed_stays_on_the_recorded_lattice(workload):
    lattice = {(op.kind, _recorded_inputs(op)) for op in workloads.lattice_ops(workload)}
    for seed in range(200):
        for op in workloads.generate(workload, seed):
            if op.kind in ("window", "scan", "threads") or op.label in ("split", "watt", "report"):
                assert (op.kind, _recorded_inputs(op)) in lattice, (seed, op)


def test_hybrid_windows_cost_about_the_same():
    work = [t0 * math.log(t0) * workloads.hybrid_length(t0) for t0 in workloads.HYBRID_T0]
    assert max(work) / min(work) < 1.05


# -- self-time arithmetic -----------------------------------------------------


def _span(i, name, start, end, parent, op=0, layer=None, attrs=None, worker=False):
    return Span(i, name, layer or name.split(".")[0], start, end, parent, op, worker,
                attrs or {})


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(0, "bench.op", 0.0, 10.0, None),
        _span(1, "a.x", 1.0, 4.0, 0),
        _span(2, "b.y", 3.0, 6.0, 0),  # overlaps a.x: 1..6 covered, not 6
        _span(3, "c.z", 2.0, 3.0, 1),
        _span(4, "d.w", 9.5, 11.0, 0),  # clipped to the parent's end
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 10.0 - 5.0 - 0.5, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.5})


def test_layer_metrics_ratios():
    tree = [_span(0, "bench.op", 0.0, 100.0, None)]

    def add(name, start, end, parent, **attrs):
        tree.append(_span(len(tree), name, start, end, parent, attrs=attrs))
        return len(tree) - 1

    # one integral over [10, 20]: two passes of length 10
    m = add("moments.integrate_moment", 1, 3, 0, asked=10.0)
    for k in range(2):
        add("quadrature.integrate", 1 + k, 2 + k, m, t_span=10.0, panels=5, points=16)
    # a scan to T = 8 over [0, 1], [0, 2], [0, 4], [0, 8], two passes each
    scan = add("moments.dyadic_scan", 4, 20, 0, asked=8.0)
    for i, big_t in enumerate((1.0, 2.0, 4.0, 8.0)):
        m = add("moments.integrate_moment", 4 + 4 * i, 8 + 4 * i, scan, asked=big_t)
        for k in range(2):
            add("quadrature.integrate", 4 + 4 * i + 2 * k, 6 + 4 * i + 2 * k, m,
                t_span=big_t, panels=1, points=16)
    add("report.regression_data", 30, 31, 0)
    add("report.regression_data", 31, 32, 0)
    add("cli.moment_report", 29, 33, 0)
    metrics = spans.layer_metrics(tree)
    assert metrics["quadrature.passes_per_integral"] == 2
    assert metrics["moments.integrals"] == 5
    assert metrics["moments.t_span_ratio"] == pytest.approx((20 + 30) / (10 + 8))
    assert metrics["quadrature.panels"] == 18
    assert metrics["quadrature.nodes"] == 18 * 16
    assert metrics["report.regression_data_calls_per_report"] == 2


def test_tracer_wraps_every_binding_and_restores_them():
    zl = workloads.load_zetalab()
    original = zl.zeta.zeta_grid_multi
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert zl.moments.zeta_grid_multi is zl.zeta.zeta_grid_multi is not original
        tracer.run_op(0, "probe", lambda: zl.moments.integrate_moment(
            zl.moments.MomentSpec(0.75, 1, 10.0, 12.0)))
    finally:
        tracer.uninstall()
    assert zl.moments.zeta_grid_multi is zl.zeta.zeta_grid_multi is original
    by_id = {s.id: s for s in tracer.spans}
    names = Counter(s.name for s in tracer.spans)
    assert names["moments.integrate_moment"] == 1
    assert names["quadrature.integrate"] == 2
    assert names["quadrature.partition"] == 2
    for s in tracer.spans:
        if s.name == "zeta.grid":
            assert by_id[s.parent].name == "quadrature.integrate"
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["quadrature.passes_per_integral"] == 2
    assert metrics["moments.t_span_ratio"] == 2
    # the layers' self times account for the operation's traced wall time
    root = tracer.spans[0]
    assert sum(spans.self_times(tracer.spans).values()) == pytest.approx(root.duration)


# -- timing arithmetic -----------------------------------------------------------


def test_typical_pass_sums_each_operations_median():
    # three passes of two operations, (wall, CPU); the third pass has one slow operation
    passes = [[(1.0, 0.9), (2.0, 1.8)], [(1.2, 1.1), (2.2, 2.0)], [(9.0, 8.0), (2.1, 1.9)]]
    assert typical_pass(passes, 0) == pytest.approx(1.2 + 2.1)
    assert typical_pass(passes, 1) == pytest.approx(1.1 + 1.9)


def test_calibration_slices_cover_their_share():
    assert len(calibrate.slices_for(0.0)) == 1
    budget = 40 * calibrate.slice_cpu() / calibrate.SHARE
    assert sum(calibrate.slices_for(budget)) >= calibrate.SHARE * budget


# -- output checks fail on perturbed values -------------------------------------


def _bump(x, rel=1e-8):
    return x * (1 + rel)


def test_check_additivity():
    left, right = (1.0, 1e-12), (2.0, 1e-12)
    whole = (3.0, 3e-12)
    assert checks.check_additivity(left, right, whole, 100.0, 1) == []
    assert checks.check_additivity(left, right, (_bump(3.0), 3e-12), 100.0, 1)


def test_check_identical():
    samples = ((32.0, 1.5), (64.0, 7.25))
    assert checks.check_identical("j0", samples, tuple(samples)) == []
    nudged = ((32.0, 1.5), (64.0, math.nextafter(7.25, 8.0)))
    assert checks.check_identical("j0", samples, nudged)
    assert checks.check_identical("stdout", "a,b\n1\n", "a,b\n2\n")


def test_check_fe_residual():
    header = "sigma,t,x_or_Y,value_re,value_im,residual,bound,ratio\n"
    good = header + "0.5,1,,0.1,0.2,3e-15,1e-08,3e-07\n"
    assert checks.check_fe_residual(good) == []
    assert checks.check_fe_residual(good.replace("3e-15", "2e-08"))
    assert checks.check_fe_residual(header)


def test_check_hyperbola():
    direct = complex(12.5, -3.0)
    assert checks.check_hyperbola(direct, direct, 100, 1.3) == []
    assert checks.check_hyperbola(direct + 1e-7, direct, 100, 1.3)


def test_check_thresholds():
    good = {"sigma_pair": "589/666", "sigma_full": "5/6", "family_sigma": "63/64"}
    assert checks.check_thresholds(good) == []
    for key, wrong in (("sigma_pair", "589/667"), ("sigma_full", "0.8333"),
                       ("family_sigma", None)):
        assert checks.check_thresholds({**good, key: wrong})


def test_check_drift():
    assert checks.check_drift("k", 2.0, 2.0) == []
    assert checks.check_drift("k", _bump(2.0, 1e-9), 2.0) == []
    assert checks.check_drift("k", _bump(2.0, 1e-5), 2.0)
    assert checks.check_drift("k", 2.0, None)
