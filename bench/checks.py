"""Output checks for the benchmark workloads, against independent references.

Every checker returns a list of failure strings, empty when the output is
correct; each string starts with the name of the check that failed.  The
references are computed here from first principles (closed forms and
per-mode sums), never by calling the code under test.  The discrete
checkers read only ``ResultRow`` fields, so they stay valid when the
optimizers stop storing iterates.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

#: Pointwise bound on the flow as a multiple of the integrator tolerance
#: (criterion 5 of the acceptance suite: 10 * tol).
FLOW_POINTWISE_FACTOR = 10.0
#: Relative agreement of DP5 arc + tail with the quadrature length.
FLOW_ARC_REL = 1e-6

#: Stop threshold of the quad-lower-gd run and the zeta agreement.
GEOM_STOP = 1e-2
GEOM_ZETA_REL = 1e-9

#: The seed commit's pkl-lower-gd point at d = 2000.
PKL_DIM = 2000
PKL_STEPS = 19_993
PKL_STEPS_SLACK = 1
PKL_RATIO = 7.141335237773594
PKL_RATIO_REL = 1e-9
#: Criterion 1's window for ratio / (kappa_eff^(1/4) / log kappa_eff).
PKL_WINDOW = (2.0, 4.0)

#: Slack of the bound sandwich (the harness's own SANDWICH_SLACK).
SANDWICH_SLACK = 1e-9
#: ratio must equal zeta / dist0 up to rounding.
RATIO_CONSISTENCY_REL = 1e-12


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def flow_oracle(sigma, basis, projection, alpha, times) -> np.ndarray:
    """Closed-form gradient-flow points p + B (alpha * exp(-sigma t)) at ``times``."""
    decay = np.asarray(alpha) * np.exp(-np.outer(np.asarray(times, float), sigma))
    return np.asarray(projection) + decay @ np.asarray(basis).T


def check_flow(spec, times, points, arc_length, tail, total, tol: float) -> list[str]:
    """DP5 trajectory against the closed form, and arc + tail against quadrature."""
    failures = []
    exact = flow_oracle(spec.sigma, spec.basis, spec.projection, spec.alpha, times)
    pointwise = float(np.max(np.linalg.norm(np.asarray(points) - exact, axis=1)))
    if not pointwise <= FLOW_POINTWISE_FACTOR * tol:
        failures.append(
            f"flow.pointwise: max |x(t) - closed form| = {pointwise:.3e} > {FLOW_POINTWISE_FACTOR * tol:.0e}"
        )
    rel = abs(arc_length + tail - total) / total
    if not rel <= FLOW_ARC_REL:
        failures.append(f"flow.arc-vs-quadrature: |arc + tail - quadrature| / quadrature = {rel:.3e} > {FLOW_ARC_REL:.0e}")
    return failures


def geom_steps(d: int, omega: float, stop: float = GEOM_STOP) -> int:
    """Closed-form step count ceil(log stop / log(1 - eta omega)), eta = 1 / (2 omega^(d-1))."""
    eta = 1.0 / (2.0 * omega ** (d - 1))
    return math.ceil(math.log(stop) / math.log(1.0 - eta * omega))


def geom_zeta(d: int, omega: float, steps: int, chunk: int = 8192) -> float:
    """Per-mode path length sum_k ||eta a (1 - eta a)^k x0|| for k < steps, plus the tail ||x_steps||.

    The spectrum is a_i = omega^(d-i), x0 is all ones and eta = 1 / (2 a_1).
    """
    a = np.power(float(omega), np.arange(d - 1, -1, -1, dtype=float))
    eta = 1.0 / (2.0 * a[0])
    rate = 1.0 - eta * a
    total = 0.0
    for k0 in range(0, steps, chunk):
        k = np.arange(k0, min(steps, k0 + chunk), dtype=float)
        modes = eta * a * np.power(rate, k[:, None])
        total += float(np.linalg.norm(modes, axis=1).sum())
    return total + float(np.linalg.norm(np.power(rate, float(steps))))


def _ratio_consistent(row) -> list[str]:
    if row.zeta is None or row.ratio is None or not row.dist0 > 0:
        return [f"row.missing: zeta={row.zeta!r} ratio={row.ratio!r} dist0={row.dist0!r}"]
    if not _rel(row.ratio, row.zeta / row.dist0) <= RATIO_CONSISTENCY_REL:
        return [f"row.ratio-vs-zeta: ratio {row.ratio!r} != zeta / dist0 = {row.zeta / row.dist0!r}"]
    return []


def check_geom(row, d: int, omega: float) -> list[str]:
    """quad-lower-gd row against the closed-form step count and per-mode zeta."""
    if (row.d, row.omega) != (d, omega):
        return [f"geom.point: row is (d={row.d}, omega={row.omega}), expected ({d}, {omega})"]
    failures = []
    if row.stop_reason != "coords_below_except_last":
        failures.append(f"geom.stop_reason: {row.stop_reason!r} != 'coords_below_except_last'")
    expected_steps = geom_steps(d, omega)
    if row.steps != expected_steps:
        failures.append(f"geom.steps: {row.steps} != closed form {expected_steps}")
    failures += _ratio_consistent(row)
    if not failures:
        zeta = geom_zeta(d, omega, expected_steps)
        if not _rel(row.zeta, zeta) <= GEOM_ZETA_REL:
            failures.append(f"geom.zeta: {row.zeta!r} vs per-mode sum {zeta!r} (rel {_rel(row.zeta, zeta):.2e})")
    return [f"d={d} omega={omega}: {f}" for f in failures]


def check_pkl(row) -> list[str]:
    """pkl-lower-gd row at d = 2000: stop reason, sandwich, criterion 1 window, seed values."""
    failures = []
    if row.d != PKL_DIM:
        return [f"pkl.point: row has d={row.d}, expected {PKL_DIM}"]
    if row.stop_reason != "norm_below":
        failures.append(f"pkl.stop_reason: {row.stop_reason!r} != 'norm_below'")
    failures += _ratio_consistent(row)
    if failures:
        return failures
    lo, hi = row.bound_lower, row.bound_upper
    if not (lo * (1 - SANDWICH_SLACK) <= row.ratio <= hi * (1 + SANDWICH_SLACK)):
        failures.append(f"pkl.sandwich: ratio {row.ratio!r} outside [{lo!r}, {hi!r}]")
    k_eff = row.kappa_effective
    window = row.ratio / (k_eff**0.25 / math.log(k_eff)) if k_eff and k_eff > 1 else float("nan")
    if not PKL_WINDOW[0] <= window <= PKL_WINDOW[1]:
        failures.append(f"pkl.window: ratio / (kappa_eff^(1/4) / log kappa_eff) = {window!r} outside {PKL_WINDOW}")
    if abs(row.steps - PKL_STEPS) > PKL_STEPS_SLACK:
        failures.append(f"pkl.steps: {row.steps} differs from the seed's {PKL_STEPS} by more than {PKL_STEPS_SLACK}")
    if not _rel(row.ratio, PKL_RATIO) <= PKL_RATIO_REL:
        failures.append(f"pkl.ratio: {row.ratio!r} vs the seed's {PKL_RATIO!r} (rel {_rel(row.ratio, PKL_RATIO):.2e})")
    return failures


def check_csv(text: str, rows) -> list[str]:
    """The rendered CSV holds one record per row with the row's steps, zeta and stop reason."""
    records = list(csv.DictReader(io.StringIO(text)))
    if len(records) != len(rows):
        return [f"csv.rows: {len(records)} records for {len(rows)} rows"]
    failures = []
    for rec, row in zip(records, rows):
        got = (int(rec["steps"]), float(rec["zeta"]) if rec["zeta"] else None, rec["stop_reason"])
        want = (row.steps, row.zeta, row.stop_reason)
        if got != want:
            failures.append(f"csv.fields: (steps, zeta, stop_reason) {got!r} != row {want!r}")
    return failures
