"""Output checks.  Each returns a list of problems; empty means it passed.

None of them compares against frozen output bytes: a kernel change
that moves the last digits passes every check here and shows up in
``value_drift_max`` instead.  The one comparison against recorded
values, ``check_drift``, allows 1e-6 relative, the tolerance the
repository's own pinned-value test uses, so only a wrong answer fails.
"""

from __future__ import annotations

import math

EPS = 2.0**-52
DRIFT_LIMIT = 1e-6
FE_RESIDUAL_LIMIT = 1e-8
HYPERBOLA_LIMIT = 1e-9
THRESHOLD_STRINGS = {"sigma_pair": "589/666", "sigma_full": "5/6", "family_sigma": "63/64"}


def kernel_rounding(t_max: float, j: int) -> float:
    """Relative rounding level of the moment integrand near height t_max.

    The phases t log n carry an absolute error of about eps t log N, with
    N = 2 t_max the Euler-Maclaurin length, and the integrand raises
    |zeta| to the power 4 + 2j.
    """
    return (4 + 2 * j) * EPS * max(t_max, 1.0) * math.log(max(2.0 * t_max, 50.0))


def check_additivity(left, right, whole, t_max: float, j: int) -> list[str]:
    """Adjacent windows add up to the joined one within the three reported
    errors plus the integrand's rounding level."""
    gap = abs(left[0] + right[0] - whole[0])
    allowed = left[1] + right[1] + whole[1]
    allowed += kernel_rounding(t_max, j) * (abs(left[0]) + abs(right[0]) + abs(whole[0]))
    if not gap <= allowed:
        return [f"additivity: left + right - whole = {gap!r} > {allowed!r}"]
    return []


def check_identical(label: str, first, second) -> list[str]:
    """Bit identity (floats compared with ==, text byte for byte)."""
    if first != second:
        return [f"{label}: {first!r} != {second!r}"]
    return []


def check_fe_residual(csv_text: str) -> list[str]:
    """Every residual column of a fe-check CSV is <= 1e-8."""
    rows = csv_text.strip().splitlines()[1:]
    if not rows:
        return ["fe-check: no rows"]
    worst = max(float(row.split(",")[5]) for row in rows)
    if not worst <= FE_RESIDUAL_LIMIT:
        return [f"fe-check: residual {worst!r} > {FE_RESIDUAL_LIMIT}"]
    return []


def check_hyperbola(hyper: complex, direct: complex, u: int, t: float) -> list[str]:
    """Hyperbola and direct divisor sums agree to 1e-9, relative to
    1 + |direct| as in the repository's own criterion."""
    rel = abs(hyper - direct) / (1 + abs(direct))
    if not rel <= HYPERBOLA_LIMIT:
        return [f"hyperbola at u={u} t={t!r}: relative {rel!r} > {HYPERBOLA_LIMIT}"]
    return []


def check_thresholds(found: dict) -> list[str]:
    """Exact thresholds as strings: 589/666, 5/6 and 63/64."""
    return [
        f"threshold {key}: {found.get(key)!r} != {want!r}"
        for key, want in THRESHOLD_STRINGS.items()
        if key in found and found[key] != want
    ]


def drift(value: float, reference: float) -> float:
    """Relative deviation from a recorded value."""
    if reference == 0:
        return abs(value)
    return abs(value - reference) / abs(reference)


def check_drift(key: str, value: float, reference) -> list[str]:
    if reference is None:
        return [f"drift: no recorded value for {key}"]
    d = drift(value, reference)
    if not d <= DRIFT_LIMIT:
        return [f"drift: {key} = {value!r}, recorded {reference!r} (relative {d:.3g})"]
    return []
