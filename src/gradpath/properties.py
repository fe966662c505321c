"""Aggregated invariant suite runnable from the CLI.

Each check either returns None (pass) or a witness string (fail);
exceptions are reported as failures with their message.  The suite is
parameterized by a grid of dimensions and passes vacuously when the grid
is empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, constructions, registry
from .analysis import (
    DistanceEnvelope,
    PlRatio,
    path_length_discrete,
    path_length_quadratic_gf,
    self_contracted_check,
)
from .errors import positive_number
from .objectives import (
    ObjectiveSpec,
    QuadraticSpec,
    check_gradient,
    quadratic_from_data,
)
from .optimizers import (
    StopRule,
    box_projector,
    gd_run,
    gf_integrate,
    gf_quadratic,
    heavy_ball_run,
    pgd_run,
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class SuiteReport:
    results: list

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def render(self) -> str:
        lines = []
        for r in self.results:
            status = "PASS" if r.ok else "FAIL"
            suffix = f": {r.detail}" if r.detail and not r.ok else ""
            lines.append(f"{status} {r.name}{suffix}")
        lines.append(f"{'OK' if self.ok else 'FAILED'} ({sum(r.ok for r in self.results)}/{len(self.results)} checks)")
        return "\n".join(lines)


def _random_convex_quadratic(rng, d_max: int = 5):
    d = int(rng.integers(2, d_max + 1))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    sig = np.sort(rng.uniform(0.2, 5.0, d))[::-1]
    p = rng.standard_normal(d)
    x0 = p + q @ rng.standard_normal(d)
    alpha = q.T @ (x0 - p)
    return QuadraticSpec(dim=d, sigma=sig, basis=q, projection=p, alpha=alpha, x0=x0)


def _observed(run, *args, **options):
    """The iterates x_0 ... x_N of a discrete run, as its ``observe`` sees them."""
    points = []
    run(*args, observe=lambda x, f, g: points.append(x.copy()), **options)
    return np.array(points)


def _zoo(dims):
    members = []
    for d in dims:
        members.append(registry.make_instance("quad-geom", d=d, omega=3.0))
        members.append(registry.make_instance("fsep-quartic", d=d))
        if d >= 6:
            members.append(registry.make_instance("pkl-lower-gf", d=d))
            members.append(registry.make_instance("pkl-lower-gd", d=d))
        members.append(registry.make_instance("quad-random", d=max(2, d), kappa=50.0, seed=d))
    return members


# --- individual checks ------------------------------------------------------


def _check_zoo_gradients(dims):
    rng = np.random.default_rng(2024)
    for inst in _zoo(dims):
        pts = [inst.x0 * rng.uniform(0.2, 0.9) for _ in range(8)]
        pts += [rng.uniform(0.05, 0.45, inst.objective.dim) for _ in range(8)]
        check_gradient(inst.objective, pts, rel_tol=1e-5)


def _check_quadratic_eigen_vs_data(dims):
    rng = np.random.default_rng(7)
    n, d = int(rng.integers(2, 8)), int(rng.integers(1, 6))
    a = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    x0 = rng.standard_normal(d)
    spec = quadratic_from_data(a, y, x0)
    for _ in range(10):
        x = rng.standard_normal(d)
        lhs, rhs = spec.value(x), spec.value_from_data(x)
        if abs(lhs - rhs) > 1e-10 * max(1.0, abs(rhs)):
            return f"eigen/matrix value mismatch {lhs!r} vs {rhs!r}"


def _check_projection_idempotent(dims):
    rng = np.random.default_rng(11)
    for inst in _zoo(dims):
        opt = inst.objective.optimal_set
        if opt is None:
            continue
        for _ in range(5):
            x = rng.standard_normal(inst.objective.dim) * 3
            p1 = opt.project(x)
            p2 = opt.project(p1)
            if float(np.linalg.norm(p2 - p1)) > 1e-12 * max(1.0, float(np.linalg.norm(p1))):
                return f"projection not idempotent for {inst.objective.name}"


def _check_separable_pkl_mediant(dims):
    rng = np.random.default_rng(13)
    for d in dims:
        inst = registry.make_instance("fsep-quartic", d=d)
        obj = inst.objective
        weights = np.arange(1, d + 1, dtype=float)
        for _ in range(20):
            x = rng.uniform(-1, 1, d)
            g = obj.gradient_at(x)
            f = obj.value_at(x)
            if f <= 1e-300:
                continue
            total = float(g @ g) / (2 * f)
            piece_vals = weights * x**2 + 0.1 * x**4
            piece_grads = 2 * weights * x + 0.4 * x**3
            mask = piece_vals > 1e-300
            if not mask.any():
                continue
            per_piece = piece_grads[mask] ** 2 / (2 * piece_vals[mask])
            if total < per_piece.min() * (1 - 1e-9):
                return f"aggregate ratio {total} below per-piece min {per_piece.min()}"


def _check_gd_descent(dims):
    for inst in _zoo(dims):
        obj = inst.objective
        if obj.L is None or obj.optimal_set is None:
            continue
        if obj.name.startswith("pkl-lower"):
            continue  # not convex
        eta = 1.0 / obj.L
        seen = []  # (f, ||g||^2) at each iterate
        gd_run(obj, inst.x0, eta, StopRule.max_steps(60),
               observe=lambda x, f, g: seen.append((f, float(g @ g))))
        for k, ((fx, gsq), (fn, _)) in enumerate(zip(seen, seen[1:])):
            if fn > fx - 0.5 * eta * gsq + 1e-12 * max(1.0, abs(fx)):
                return f"descent inequality violated on {inst.objective.name} at step {k}"
        envelope = DistanceEnvelope(obj.optimal_set)
        gd_run(obj, inst.x0, 2.0 / obj.L, StopRule.max_steps(60), observe=envelope)
        dists = envelope.dists
        if any(b > a * (1 + 1e-12) for a, b in zip(dists, dists[1:])):
            return f"distance descent at eta=2/L violated on {inst.objective.name} (d0={dists[0]})"


def _check_gf_closed_form(dims):
    rng = np.random.default_rng(17)
    tol = 1e-10
    spec = _random_convex_quadratic(rng)
    traj = gf_integrate(spec.to_objective(), spec.x0, tol, StopRule.grad_below(1e-8))
    exact = gf_quadratic(spec, traj.times)
    err = float(np.max(np.linalg.norm(traj.points - exact, axis=1)))
    if err > 10 * tol:
        return f"flow deviates from closed form by {err:.3e}"


def _check_pgd_feasible(dims):
    rng = np.random.default_rng(19)
    spec = _random_convex_quadratic(rng)
    proj = box_projector(np.full(spec.dim, -0.5), np.full(spec.dim, 0.5))
    x0 = np.zeros(spec.dim)
    eta = 0.3 / float(spec.sigma[0])
    points = _observed(pgd_run, spec.to_objective(), proj, x0, eta, StopRule.max_steps(40))
    for k, p in enumerate(points):
        if float(np.linalg.norm(proj(p) - p)) > 1e-12:
            return f"iterate {k} left the constraint box"


def _check_hb_beta_zero(dims):
    rng = np.random.default_rng(23)
    spec = _random_convex_quadratic(rng)
    obj = spec.to_objective()
    eta = 0.4 / float(spec.sigma[0])
    a = _observed(gd_run, obj, spec.x0, eta, StopRule.max_steps(30))
    b = _observed(heavy_ball_run, obj, spec.x0, eta, 0.0, StopRule.max_steps(30))
    if not np.array_equal(a, b):
        return "beta=0 heavy ball differs bitwise from gradient descent"


def _check_path_triangle(dims):
    rng = np.random.default_rng(29)
    for _ in range(10):
        spec = _random_convex_quadratic(rng)
        obj = spec.to_objective()
        traj = gd_run(obj, spec.x0, 1.0 / float(spec.sigma[0]), StopRule.max_steps(50))
        rep = path_length_discrete(traj)
        chord = float(np.linalg.norm(traj.points[-1] - traj.points[0]))
        if rep.raw_length < chord * (1 - 1e-12):
            return f"path {rep.raw_length} shorter than chord {chord}"


def _check_quad_arc_brackets(dims):
    rng = np.random.default_rng(31)
    for _ in range(10):
        spec = _random_convex_quadratic(rng)
        rep = path_length_quadratic_gf(spec, 1e-10)
        lo = float(np.linalg.norm(spec.alpha))
        hi = float(np.abs(spec.alpha).sum())
        if not (lo - 1e-8 <= rep.length <= hi + 1e-8):
            return f"arc {rep.length} outside [{lo}, {hi}]"


def _check_gd_self_contracted(dims):
    rng = np.random.default_rng(37)
    for _ in range(25):
        spec = _random_convex_quadratic(rng)
        obj = spec.to_objective()
        points = _observed(gd_run, obj, spec.x0, 1.0 / float(spec.sigma[0]), StopRule.max_steps(40))
        verdict = self_contracted_check(points)
        if not verdict.holds:
            return f"GD at eta=1/L not self-contracted, witness {verdict.witness}"
    # step size 7/8 on x^2 from 8 must fail with the documented witness
    counter = ObjectiveSpec(dim=1, value=lambda x: float(x[0] ** 2), gradient=lambda x: 2 * x)
    verdict = self_contracted_check(_observed(gd_run, counter, [8.0], 7 / 8, StopRule.max_steps(2)))
    if verdict.holds or verdict.witness != (0, 1, 2):
        return "overshooting counterexample was not caught"
    if not (verdict.dist_mid == 10.5 and verdict.dist_far == 3.5):
        return f"unexpected witness distances {verdict.dist_mid}, {verdict.dist_far}"


def _check_effective_mu_floor(dims):
    for d in dims:
        if d < 6:
            continue
        inst = registry.make_instance("pkl-lower-gd", d=d)
        pl = PlRatio(inst.objective)
        gd_run(inst.objective, inst.x0, inst.eta, StopRule.norm_below(1e-6), observe=pl)
        mu = pl.aggregate("min")
        if mu < inst.objective.mu * (1 - 1e-9):
            return f"effective mu {mu} below declared {inst.objective.mu} at d={d}"


def _check_linear_fit(dims):
    rng = np.random.default_rng(41)
    spec = _random_convex_quadratic(rng)
    obj = spec.to_objective()
    dists = DistanceEnvelope(obj.optimal_set)
    gd_run(obj, spec.x0, 1.0 / float(spec.sigma[0]), StopRule.max_steps(60), observe=dists)
    a, c = dists.fit()
    envelope = dists.dists[0]
    for k, dist in enumerate(dists.dists[1:], start=1):
        envelope *= 1 - c
        if dist > a * envelope * (1 + 1e-9) + 1e-250:
            return f"(A, c)=({a}, {c}) fails at step {k}"


def _check_bound_monotonicity(dims):
    kappas = np.linspace(1.0, 1e6, 40)
    prev_pkl = prev_fsep = prev_hb = -math.inf
    for k in kappas:
        v1, v2, v3 = bounds.bound_pkl(1.0, k, "gf"), bounds.bound_fsep(1.0, k), bounds.bound_hb(1.0, k)
        if v1 < prev_pkl or v2 < prev_fsep or v3 < prev_hb:
            return "bounds not monotone in kappa"
        prev_pkl, prev_fsep, prev_hb = v1, v2, v3
    cs = np.linspace(1e-4, 0.999, 40)
    prev = math.inf
    for c in cs:
        v = bounds.bound_linconv_gf(1.0, float(c), 1.0)
        if v > prev * (1 + 1e-12):
            return "flow bound not non-increasing in c"
        prev = v


def _check_gap_term(dims):
    grid = np.exp(np.linspace(0.0, math.log(1e6), 400))
    for k in grid:
        val = bounds.spectral_gap_term(float(k))
        if not (0.0 <= val <= math.log(k) / math.e + 1e-12):
            return f"gap term {val} outside [0, log(k)/e] at k={k}"
    if bounds.spectral_gap_term(1 + 1e-9) >= 1e-8:
        return "gap term not continuous at 1"
    if bounds.spectral_gap_term(6.0) < 0.5:
        return "gap term at 6 below 0.5"


def _check_pkl_breakpoints(dims):
    for d in sorted(set(dims) | {6, 20, 63, 200, 632, 2000}):
        if d < 6:
            continue
        kind = constructions.PklConstruction.build(d)
        for b in kind.breakpoints:
            for half in kind.g_and_deriv(np.array([b, np.nextafter(b, math.inf)])):
                if abs(float(half[0]) - float(half[1])) > 1e-12:
                    return f"branch discontinuity at breakpoint {b} (d={d})"
        value, deriv = kind.g_and_deriv(np.linspace(1e-9, kind.gamma, 4001))
        ratios = deriv**2 / (2.0 * value)
        if ratios.min() < kind.mu * (1 - 1e-9):
            return f"grid PL ratio {ratios.min()} below mu={kind.mu} (d={d})"


def _check_pkl_checkpoints(dims):
    for d in dims:
        if d < 6:
            continue
        gf = constructions.build_pkl_gf_instance(d)
        traj = gf_integrate(gf.objective, gf.x0, 1e-10, StopRule.horizon(gf.stage_time))
        if abs(traj.points[-1][1] - 0.5) > 1e-6:
            return f"flow checkpoint missed: {traj.points[-1][1]!r} (d={d})"
        gd = constructions.build_pkl_gd_instance(d)
        traj = gd_run(gd.objective, gd.x0, gd.eta, StopRule.max_steps(gd.k1))
        if abs(traj.points[-1][1] - 0.5) > 1e-10:
            return f"descent checkpoint missed: {traj.points[-1][1]!r} (d={d})"


def _check_construction_dist_bounds(dims):
    for d in dims:
        if d < 6:
            continue
        gf = constructions.build_pkl_gf_instance(d)
        if float(np.linalg.norm(gf.x0)) > math.sqrt(2 * d) * math.log(d):
            return f"flow init distance exceeds sqrt(2d) log d at d={d}"
        gd = constructions.build_pkl_gd_instance(d)
        if float(np.linalg.norm(gd.x0)) > 4 * math.sqrt(d) * math.log(d):
            return f"descent init distance exceeds 4 sqrt(d) log d at d={d}"


def _check_quad_checkpoints_integer(dims):
    for omega in (2, 3, 11):
        sigma = constructions.build_quad_lower(5, float(omega)).sigma
        ks = sigma[0] * math.log(1.0 / constructions.QUAD_GD_DELTA) / sigma
        if not np.allclose(ks, np.round(ks), atol=1e-9):
            return f"descent checkpoints not integral for omega={omega}"


_CHECKS = [
    ("objectives.gradient-consistency", _check_zoo_gradients),
    ("objectives.quadratic-eigen-vs-data", _check_quadratic_eigen_vs_data),
    ("objectives.projection-idempotent", _check_projection_idempotent),
    ("objectives.separable-pl-mediant", _check_separable_pkl_mediant),
    ("optimizers.gd-descent", _check_gd_descent),
    ("optimizers.gf-closed-form", _check_gf_closed_form),
    ("optimizers.pgd-feasible", _check_pgd_feasible),
    ("optimizers.hb-beta-zero-bitwise", _check_hb_beta_zero),
    ("analysis.path-triangle", _check_path_triangle),
    ("analysis.quad-arc-brackets", _check_quad_arc_brackets),
    ("analysis.gd-self-contracted", _check_gd_self_contracted),
    ("analysis.effective-mu-floor", _check_effective_mu_floor),
    ("analysis.linear-fit-certifies", _check_linear_fit),
    ("bounds.monotonicity", _check_bound_monotonicity),
    ("bounds.spectral-gap-term", _check_gap_term),
    ("constructions.pkl-breakpoints", _check_pkl_breakpoints),
    ("constructions.pkl-checkpoints", _check_pkl_checkpoints),
    ("constructions.init-distance-bounds", _check_construction_dist_bounds),
    ("constructions.integer-checkpoints", _check_quad_checkpoints_integer),
]


def run_property_suite(dims=(6, 20)) -> SuiteReport:
    """Run every module invariant over the dimensions ``dims`` (positive
    integers); an empty grid makes the suite pass vacuously."""
    dims = tuple(positive_number(d, "dims", int) for d in dims)
    if not dims:
        return SuiteReport(results=[])
    results = []
    for name, fn in _CHECKS:
        try:
            detail = fn(dims)
        except Exception as exc:  # noqa: BLE001 - a failing check must not kill the suite
            results.append(SuiteResult(name, False, f"{type(exc).__name__}: {exc}"))
            continue
        results.append(SuiteResult(name, detail is None, detail or ""))
    return SuiteReport(results=results)
