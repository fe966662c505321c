"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from conftest import run_observed
from gradpath import (
    PklConstruction,
    QuadraticSpec,
    StopRule,
    bound_hb,
    bound_linconv_gf,
    bound_pkl,
    bound_quadratic,
    bound_separable,
    build_pkl_gd_instance,
    build_quad_lower,
    build_quad_random,
    gd_run,
    gd_step,
    gf_integrate,
    gf_quadratic,
    hb_params,
    heavy_ball_run,
    lower_bound_quadratic,
    make_instance,
    path_length_discrete,
    path_length_quadratic_gf,
    pgd_step_factor,
    self_contracted_check,
    spectral_gap_term,
)
from gradpath.harness import ExperimentConfig, default_config, run_experiment


def report(num: int, ok: bool, desc: str, detail: str = ""):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_pl_lower_bound_reproduction():
    """Scaled descent sweep of the PL instance: ratio ~ 3 kappa^(1/4)/log kappa.

    The published protocol words the effective constant as a max over
    iterates, but that aggregate provably degenerates (the final
    iterates sit on the quadratic branch where the ratio equals the
    smoothness constant, giving kappa = 1), so the reproduction uses the
    min aggregate, which is also the one consistent with the reported
    effective-kappa range.  See the decisions ledger.
    """
    start = time.time()
    cfg = default_config("pkl-lower-gd")  # 15 log-spaced dims in [e^2, e^5]
    rows = run_experiment(cfg)
    assert cfg.mu_mode == "min"

    windows = {}
    for row in rows:
        k_eff = row.kappa_effective
        windows[row.d] = row.ratio / (k_eff**0.25 / math.log(k_eff))
    bad = {d: w for d, w in windows.items() if not 2.0 <= w <= 4.0}
    elapsed = time.time() - start

    # the verbatim max aggregate collapses to kappa = 1 (documented)
    degenerate = run_experiment(
        ExperimentConfig("pkl-lower-gd", dims=(6,), mu_mode="paper_max")
    )[0].kappa_effective
    assert degenerate == pytest.approx(1.0, rel=1e-9)

    report(
        1, not bad and elapsed < 300,
        "descent ratio / (kappa_eff^(1/4)/log kappa_eff) in [2, 4] on the default grid",
        f"window range [{min(windows.values()):.3f}, {max(windows.values()):.3f}], "
        f"kappa_eff up to {max(r.kappa_effective for r in rows):.3g}, {elapsed:.1f}s"
        + (f", violations {bad}" if bad else ""),
    )


def test_criterion_2_quadratic_sandwich_desk_scale():
    start = time.time()
    slack = 1e-6
    spec = build_quad_lower(6, 11.0)
    kappa = spec.kappa  # 11^5

    rep_gf = path_length_quadratic_gf(spec, abs_tol=1e-12)
    lower_gf = min(0.7 * math.sqrt(6), 0.45 * math.sqrt(math.log(kappa)))
    assert lower_gf == pytest.approx(lower_bound_quadratic(6, kappa, "gf"), rel=1e-12)
    upper_gf = bound_quadratic(spec.sigma, "gf")

    traj = gd_run(spec.to_objective(), spec.x0, gd_step(spec), StopRule.coords_below_except_last(1e-2))
    rep_gd = path_length_discrete(traj, spec.optimal_set())
    lower_gd = min(0.5 * math.sqrt(6), 0.3 * math.sqrt(math.log(kappa)))
    upper_gd = bound_quadratic(spec.sigma, "gd")
    elapsed = time.time() - start

    ok = (
        rep_gf.ratio >= lower_gf - slack
        and rep_gf.ratio <= upper_gf + slack
        and rep_gd.ratio >= lower_gd - slack
        and rep_gd.ratio <= upper_gd + slack
        and elapsed < 60
    )
    report(
        2, ok,
        "geometric-spectrum (d, omega) = (6, 11): lower <= ratio <= upper for flow and descent",
        f"GF {lower_gf:.3f} <= {rep_gf.ratio:.4f} <= {upper_gf:.3f}; "
        f"GD {lower_gd:.3f} <= {rep_gd.ratio:.4f} <= {upper_gd:.3f}; {elapsed:.1f}s",
    )


def test_criterion_3_flow_curve_shape():
    start = time.time()
    ratios = {}
    ok = True
    details = []
    for omega in (1.1, 1.3, 1.6, 2.0):
        rep = path_length_quadratic_gf(build_quad_lower(20, omega), abs_tol=1e-12)
        log_kappa = 19 * math.log(omega)
        lower = min(0.7 * math.sqrt(20), 0.45 * math.sqrt(log_kappa))
        upper = 1 + 2.5 * math.sqrt(log_kappa)
        ratios[omega] = rep.ratio
        ok &= lower - 1e-9 <= rep.ratio <= upper + 1e-9
        details.append(f"omega={omega}: {lower:.3f} <= {rep.ratio:.3f} <= {upper:.3f}")
    vals = [ratios[w] for w in sorted(ratios)]
    ok &= all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    elapsed = time.time() - start
    ok &= elapsed < 60
    report(3, ok, "d=20 flow ratio non-decreasing in omega and inside the proven bounds",
           "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_4_randomized_separation():
    omega = 10 ** (6 / 19)  # kappa = 1e6 at d = 20
    geo = build_quad_lower(20, omega)
    geo_ratio = path_length_quadratic_gf(geo, 1e-12).ratio
    random_ratios = [
        path_length_quadratic_gf(build_quad_random(20, 1e6, seed), 1e-12).ratio
        for seed in range(10)
    ]
    mean_random = float(np.mean(random_ratios))
    report(
        4, geo_ratio > mean_random,
        "geometric construction out-lengthens the mean random-spectrum flow at d=20, kappa=1e6",
        f"geometric {geo_ratio:.4f} vs random mean {mean_random:.4f} "
        f"(max {max(random_ratios):.4f})",
    )


def _random_spec(rng):
    d = int(rng.integers(2, 11))
    kappa = 10 ** rng.uniform(0.0, 4.0)
    interior = 10 ** rng.uniform(-math.log10(kappa), 0.0, d - 2) if d > 2 else []
    sigma = np.sort(np.concatenate([[1.0, 1.0 / kappa], interior]))[::-1]
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    alpha = rng.standard_normal(d)
    alpha *= rng.uniform(1.0, 3.0) / np.linalg.norm(alpha)
    projection = rng.standard_normal(d)
    x0 = projection + basis @ alpha
    return QuadraticSpec(
        dim=d, sigma=sigma, basis=basis, projection=projection,
        alpha=basis.T @ (x0 - projection), x0=x0,
    )


def test_criterion_5_integrator_matches_oracle():
    tol = 1e-10
    rng = np.random.default_rng(20250501)
    worst_pointwise = 0.0
    worst_arc = 0.0
    for _ in range(50):
        spec = _random_spec(rng)
        traj = gf_integrate(spec.to_objective(), spec.x0, tol, StopRule.grad_below(1e-9))
        exact = gf_quadratic(spec, traj.times)
        worst_pointwise = max(
            worst_pointwise, float(np.max(np.linalg.norm(traj.points - exact, axis=1)))
        )
        total = path_length_quadratic_gf(spec, abs_tol=1e-12).length
        remaining = QuadraticSpec(
            dim=spec.dim, sigma=spec.sigma, basis=spec.basis,
            projection=spec.projection,
            alpha=spec.alpha * np.exp(-spec.sigma * traj.final_time),
            x0=np.asarray(gf_quadratic(spec, traj.final_time)),
        )
        tail = path_length_quadratic_gf(remaining, abs_tol=1e-13).length
        worst_arc = max(worst_arc, abs(traj.arc_length + tail - total) / total)
    report(
        5, worst_pointwise <= 10 * tol and worst_arc <= 1e-6,
        "flow integrator matches the closed form on 50 random quadratics",
        f"max pointwise {worst_pointwise:.2e} (<= {10 * tol:.0e}), "
        f"max arc rel err {worst_arc:.2e} (<= 1e-06)",
    )


def test_criterion_6_self_contracted_property():
    rng = np.random.default_rng(607)
    failures = []
    for trial in range(100):
        d = int(rng.integers(2, 6))
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        sigma = np.sort(rng.uniform(0.1, 4.0, d))[::-1]
        p = rng.standard_normal(d)
        x0 = p + basis @ (rng.standard_normal(d) * 2)
        spec = QuadraticSpec(
            dim=d, sigma=sigma, basis=basis, projection=p,
            alpha=basis.T @ (x0 - p), x0=x0,
        )
        obj = spec.to_objective()
        _, points = run_observed(gd_run, obj, x0, 1.0 / obj.L, StopRule.max_steps(49))
        if not self_contracted_check(points).holds:
            failures.append(trial)

    import gradpath

    counter = gradpath.ObjectiveSpec(
        dim=1, value=lambda x: float(x[0] ** 2), gradient=lambda x: 2.0 * np.asarray(x)
    )
    _, points = run_observed(gd_run, counter, [8.0], 7 / 8, StopRule.max_steps(2))
    verdict = self_contracted_check(points)
    counter_ok = (
        not verdict.holds
        and verdict.witness == (0, 1, 2)
        and verdict.dist_mid == 10.5
        and verdict.dist_far == 3.5
    )
    report(
        6, not failures and counter_ok,
        "descent at eta=1/L is self-contracted on 100 random convex quadratics; "
        "the eta=7/8 overshoot fails with witness 10.5 > 3.5",
        f"failures={failures or 'none'}, witness={verdict.witness}, "
        f"{verdict.dist_mid} > {verdict.dist_far}",
    )


def test_criterion_7_bound_unit_values():
    tol = 1e-12
    checks = {
        "pgd step factor at eta*L=1": abs(pgd_step_factor(1.0, 1.0) - (1 + math.sqrt(2.0))) <= tol,
        "heavy-ball params at kappa=1": hb_params(1.0, 1.0) == (1.0, 0.0),
        "flow bound collapses to kappa": all(
            abs(bound_linconv_gf(1.0, 1.0 - math.exp(-mu), L) - L / mu) <= tol
            for mu, L in ((1.0, 1.0), (0.7, 2.9), (2.0, 64.0))
        ),
        "spectral gap term at 6 at least 0.5": spectral_gap_term(6.0) >= 0.5,
    }
    bad = [name for name, ok in checks.items() if not ok]
    report(7, not bad, "bound-formula unit values exact to 1e-12",
           f"violations: {bad or 'none'}")


def test_criterion_8_pl_construction_well_formed():
    bad = []
    for d in (6, 20, 100, 1000):
        kind = PklConstruction.build(d)
        for b in kind.breakpoints:
            right = float(np.nextafter(b, math.inf))
            if abs(float(kind.g(b)) - float(kind.g(right))) > 1e-12:
                bad.append(f"g jump at {b} (d={d})")
            if abs(float(kind.g_deriv(b)) - float(kind.g_deriv(right))) > 1e-12:
                bad.append(f"g' jump at {b} (d={d})")
        xs = np.linspace(1e-9, kind.gamma, 5001)
        ratios = kind.g_deriv(xs) ** 2 / (2.0 * kind.g(xs))
        if float(ratios.min()) < kind.mu * (1 - 1e-9):
            bad.append(f"grid PL ratio below mu at d={d}")

    inst = build_pkl_gd_instance(6)
    traj = gd_run(inst.objective, inst.x0, inst.eta, StopRule.max_steps(inst.k1))
    checkpoint = abs(traj.points[-1][1] - 0.5)
    if checkpoint > 1e-10:
        bad.append(f"descent checkpoint missed by {checkpoint:.2e}")
    report(8, not bad,
           "piecewise component is C^1 at its breakpoints and grid-PL with mu=2/(3d^2); "
           "d=6 descent hits 0.5 at the predicted stage",
           f"violations: {bad or 'none'}; checkpoint error {checkpoint:.2e}")


def _measured_ratio(obj, x0, eta, stop, optimal_set):
    traj = gd_run(obj, x0, eta, stop)
    rep = path_length_discrete(traj, optimal_set)
    return rep.length, rep.dist0


def test_criterion_9a_pl_descent_upper_bound():
    slack = 1 + 1e-9
    details = []
    ok = True
    cases = []
    for d in (6, 12):
        inst = make_instance("pkl-lower-gd", d=d)
        cases.append((inst.objective.name, inst.objective, inst.x0, inst.eta, StopRule.norm_below(1e-6)))
    for d in (3, 8):
        inst = make_instance("fsep-quartic", d=d)
        cases.append((inst.objective.name, inst.objective, inst.x0, inst.eta, StopRule.grad_below(1e-9)))
    inst = make_instance("quad-geom", d=6, omega=3.0)
    cases.append((inst.objective.name, inst.objective, inst.x0, inst.eta, StopRule.grad_below(1e-8)))
    inst = make_instance("quad-random", d=10, kappa=100.0, seed=0)
    cases.append((inst.objective.name, inst.objective, inst.x0, inst.eta, StopRule.grad_below(1e-8)))

    for label, obj, x0, eta, stop in cases:
        assert eta <= 1.0 / obj.L * (1 + 1e-12)
        length, dist0 = _measured_ratio(obj, x0, eta, stop, obj.optimal_set)
        bound = bound_pkl(obj.mu, obj.L, "gd") * dist0
        ok &= length <= bound * slack
        details.append(f"{label}: {length:.3f} <= {bound:.3f}")
    report(9, ok, "PL descent bound 2 sqrt(kappa) holds on the declared zoo", "; ".join(details))


def test_criterion_9b_separable_upper_bound():
    slack = 1 + 1e-9
    details = []
    ok = True
    cases = []
    inst = make_instance("pkl-lower-gf", d=6)
    cases.append((inst.objective.name, inst.objective, inst.x0, 0.5, StopRule.norm_below(1e-6)))
    inst = make_instance("pkl-lower-gd", d=9)
    cases.append((inst.objective.name, inst.objective, inst.x0, inst.eta, StopRule.norm_below(1e-6)))
    inst = make_instance("quad-geom", d=6, omega=3.0)
    cases.append((inst.objective.name, inst.objective, inst.x0, inst.eta, StopRule.grad_below(1e-8)))
    inst = make_instance("quad-geom", d=20, omega=1.3)
    cases.append((inst.objective.name, inst.objective, inst.x0, inst.eta,
                  StopRule.coords_below_except_last(1e-4)))
    inst = make_instance("fsep-quartic", d=5)
    cases.append((inst.objective.name, inst.objective, inst.x0, inst.eta, StopRule.grad_below(1e-9)))

    for label, obj, x0, eta, stop in cases:
        assert eta <= 1.0 / obj.L * (1 + 1e-12)
        length, dist0 = _measured_ratio(obj, x0, eta, stop, obj.optimal_set)
        bound = bound_separable(obj.dim) * dist0
        ok &= length <= bound * slack
        details.append(f"{label}: {length:.3f} <= {bound:.3f}")
    report(9, ok, "separable descent bound sqrt(d) holds on the declared zoo", "; ".join(details))


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the heavy-ball sqrt(kappa) path bound is empirically violated on "
        "ill-conditioned quadratics: the extreme eigenmodes of the tuned "
        "iteration are defective (double roots of modulus 1 - c), so the "
        "per-mode amplitude carries a factor k that makes the measured path "
        "Theta(kappa) rather than O(sqrt(kappa)); see the decisions ledger"
    ),
)
def test_criterion_9c_heavy_ball_upper_bound():
    slack = 1 + 1e-9
    details = []
    ok = True
    cases = [
        make_instance("fsep-quartic", d=3),
        make_instance("fsep-quartic", d=8),
        make_instance("quad-geom", d=6, omega=11.0),
        make_instance("quad-geom", d=2, omega=4.0),
        make_instance("quad-random", d=10, kappa=100.0, seed=0),
    ]
    for inst in cases:
        obj = inst.objective
        alpha, beta = hb_params(obj.mu, obj.L)
        traj = heavy_ball_run(obj, inst.x0, alpha, beta, StopRule.norm_below(1e-10))
        rep = path_length_discrete(traj, obj.optimal_set)
        x_star = obj.optimal_set.project(inst.x0)
        bound = bound_hb(obj.mu, obj.L) * float(np.linalg.norm(inst.x0 - x_star))
        ok &= rep.length <= bound * slack
        details.append(f"{inst.objective.name}: {rep.length:.2f} vs {bound:.2f}")
    report(9, ok, "heavy-ball bound sqrt(kappa)||x0 - x*|| on the strongly convex zoo",
           "; ".join(details))
