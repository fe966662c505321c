import math

import numpy as np
import pytest

from conftest import random_convex_quadratic, scalar_objective
from gradpath import (
    DivergenceError,
    InputError,
    NonFiniteError,
    ObjectiveSpec,
    QuadraticSpec,
    StopRule,
    box_projector,
    build_fsep_quartic,
    gd_run,
    gf_integrate,
    gf_quadratic,
    hb_params,
    heavy_ball_run,
    parse_stop_rule,
    pgd_run,
)


def half_square():
    return scalar_objective(lambda x: 0.5 * x * x, lambda x: x)


def square():
    return scalar_objective(lambda x: x * x, lambda x: 2 * x)


class TestStopRule:
    def test_factories_and_parse(self):
        assert parse_stop_rule("grad_below:1e-8") == StopRule.grad_below(1e-8)
        assert parse_stop_rule("max_steps:100") == StopRule.max_steps(100)
        with pytest.raises(InputError):
            parse_stop_rule("grad_below")
        with pytest.raises(InputError):
            parse_stop_rule("nonsense:1.0")
        with pytest.raises(InputError):
            StopRule.norm_below(-1.0)
        with pytest.raises(InputError):
            StopRule.max_steps(2.5)

    @pytest.mark.parametrize("text", ["norm_below:nan", "grad_below:inf", "max_steps:inf", "norm_below:abc"])
    def test_non_finite_threshold_rejected(self, text):
        # norm_below:nan would never stop before the 1e8-step cap
        with pytest.raises(InputError, match="stop threshold"):
            parse_stop_rule(text)
        with pytest.raises(InputError, match="finite"):
            StopRule.norm_below(float("nan"))

    def test_coords_rule_trivial_in_one_dim(self):
        rule = StopRule.coords_below_except_last(1e-2)
        assert rule.point_satisfied(np.array([7.0]))
        assert not rule.point_satisfied(np.array([7.0, 0.0]))


class TestGdRun:
    def test_one_step_to_stationary(self):
        traj = gd_run(half_square(), [1.0], 1.0, StopRule.max_steps(100))
        assert traj.points[:, 0].tolist() == [1.0, 0.0]
        assert traj.stop_reason == "stationary"

    def test_overshooting_step(self):
        traj = gd_run(square(), [8.0], 7 / 8, StopRule.max_steps(2))
        assert traj.points[:, 0].tolist() == [8.0, -6.0, 4.5]
        assert traj.stop_reason == "max_steps"

    def test_two_dim_hand_steps(self):
        obj = ObjectiveSpec(
            dim=2,
            value=lambda x: float(x[0] ** 2 + 0.5 * x[1] ** 2),
            gradient=lambda x: np.array([2 * x[0], x[1]]),
        )
        traj = gd_run(obj, [1.0, 1.0], 0.5, StopRule.max_steps(2))
        assert np.allclose(traj.points[1], [0.0, 0.5])
        assert np.allclose(traj.points[2], [0.0, 0.25])

    def test_update_rule_recomputable(self, rng):
        spec = random_convex_quadratic(rng)
        obj = spec.to_objective()
        eta = 0.7 / float(spec.sigma[0])
        traj = gd_run(obj, spec.x0, eta, StopRule.max_steps(25))
        for k in range(len(traj.points) - 1):
            recomputed = traj.points[k] - eta * obj.gradient_at(traj.points[k])
            assert np.linalg.norm(recomputed - traj.points[k + 1]) <= 1e-12

    def test_descent_inequality_small_step(self, rng):
        spec = random_convex_quadratic(rng)
        obj = spec.to_objective()
        eta = 1.0 / obj.L
        traj = gd_run(obj, spec.x0, eta, StopRule.max_steps(40))
        for k in range(len(traj.points) - 1):
            g = obj.gradient_at(traj.points[k])
            drop = obj.value_at(traj.points[k]) - 0.5 * eta * float(g @ g)
            assert obj.value_at(traj.points[k + 1]) <= drop + 1e-10

    def test_distance_descent_two_over_L(self, rng):
        spec = random_convex_quadratic(rng)
        obj = spec.to_objective()
        traj = gd_run(obj, spec.x0, 2.0 / obj.L, StopRule.max_steps(40))
        dists = [obj.optimal_set.distance(p) for p in traj.points]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(dists, dists[1:]))

    def test_norm_stop_and_indices(self):
        traj = gd_run(half_square(), [1.0], 0.5, StopRule.norm_below(1e-3))
        assert traj.stop_reason == "norm_below"
        assert abs(traj.points[-1][0]) <= 1e-3
        assert np.all(np.diff(traj.times) > 0)

    def test_grad_stop(self):
        traj = gd_run(half_square(), [1.0], 0.5, StopRule.grad_below(1e-4))
        assert traj.stop_reason == "grad_below"
        assert abs(traj.points[-1][0]) <= 1e-4

    def test_safety_cap(self):
        traj = gd_run(half_square(), [1.0], 1e-6, StopRule.norm_below(1e-12), safety_cap=50)
        assert traj.stop_reason == "cap"
        assert traj.n_steps == 50

    def test_horizon_rejected_for_discrete(self):
        with pytest.raises(InputError):
            gd_run(half_square(), [1.0], 0.5, StopRule.horizon(1.0))

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_gradient_reports_iterate(self):
        obj = scalar_objective(lambda x: x, lambda x: float(np.sqrt(x)))
        with pytest.raises(NonFiniteError, match="iterate 1"):
            gd_run(obj, [4.0], 3.0, StopRule.max_steps(10))

    def test_divergence_guard(self):
        obj = scalar_objective(lambda x: -0.5 * x * x, lambda x: -x)
        with pytest.raises(DivergenceError):
            gd_run(obj, [1.0], 1.0, StopRule.max_steps(10**6))

    def test_bad_step_size(self):
        with pytest.raises(InputError):
            gd_run(half_square(), [1.0], 0.0, StopRule.max_steps(1))


class TestHeavyBall:
    def test_params_table(self):
        assert hb_params(1.0, 1.0) == (1.0, 0.0)
        alpha, beta = hb_params(1.0, 9.0)
        assert alpha == pytest.approx(0.25, abs=1e-15)
        assert beta == pytest.approx(0.25, abs=1e-15)
        alpha, beta = hb_params(1.0, 4.0)
        assert alpha == pytest.approx(4.0 / 9.0, abs=1e-15)
        assert beta == pytest.approx(1.0 / 9.0, abs=1e-15)
        with pytest.raises(InputError):
            hb_params(4.0, 1.0)

    def test_zero_momentum_bitwise_equals_gd(self, rng):
        spec = random_convex_quadratic(rng)
        obj = spec.to_objective()
        eta = 0.6 / obj.L
        a = gd_run(obj, spec.x0, eta, StopRule.max_steps(30))
        b = heavy_ball_run(obj, spec.x0, eta, 0.0, StopRule.max_steps(30))
        assert np.array_equal(a.points, b.points)

    def test_hand_steps(self):
        traj = heavy_ball_run(half_square(), [1.0], 1.0, 0.5, StopRule.max_steps(2))
        assert traj.points[:, 0].tolist() == [1.0, 0.0, -0.5]

    def test_asymptotic_rate_matches_design(self):
        # per-step contraction tends to 1 - c with c = 2/(sqrt(kappa)+1)
        obj = QuadraticSpec.diagonal([4.0, 1.0], [1.0, 1.0]).to_objective()
        alpha, beta = hb_params(1.0, 4.0)
        c = 2.0 / (math.sqrt(4.0) + 1.0)
        traj = heavy_ball_run(obj, [1.0, 1.0], alpha, beta, StopRule.max_steps(220))
        d0 = float(np.linalg.norm(traj.points[0]))
        dk = float(np.linalg.norm(traj.points[200]))
        assert (dk / d0) ** (1 / 200) == pytest.approx(1 - c, abs=0.02)
        # distances respect the defective-mode envelope (k+1)(1-c)^k but not
        # the bare geometric envelope: the first step is a plain gradient step
        for k, p in enumerate(traj.points):
            assert np.linalg.norm(p) <= 2.5 * (k + 1) * (1 - c) ** k * d0 + 1e-12
        assert np.linalg.norm(traj.points[1]) > (1 - c) * d0

    def test_divergence_guard(self):
        obj = scalar_objective(lambda x: 0.5 * x * x, lambda x: x)
        with pytest.raises(DivergenceError):
            heavy_ball_run(obj, [1.0], 5.0, 0.5, StopRule.max_steps(10**6))

    def test_update_rule_recomputable(self, rng):
        spec = random_convex_quadratic(rng)
        obj = spec.to_objective()
        alpha, beta = hb_params(float(spec.sigma[-1]), float(spec.sigma[0]))
        traj = heavy_ball_run(obj, spec.x0, alpha, beta, StopRule.max_steps(25))
        assert traj.rule == {"rule": "hb", "alpha": alpha, "beta": beta}
        prev = traj.points[0]
        for k in range(len(traj.points) - 1):
            x = traj.points[k]
            recomputed = x - alpha * obj.gradient_at(x) + beta * (x - prev)
            assert np.linalg.norm(recomputed - traj.points[k + 1]) <= 1e-12
            prev = x

    def test_param_validation(self):
        with pytest.raises(InputError):
            heavy_ball_run(half_square(), [1.0], -1.0, 0.0, StopRule.max_steps(1))
        with pytest.raises(InputError):
            heavy_ball_run(half_square(), [1.0], 1.0, 1.0, StopRule.max_steps(1))


class TestPgd:
    def test_identity_projector_matches_gd(self, rng):
        spec = random_convex_quadratic(rng)
        obj = spec.to_objective()
        eta = 0.8 / obj.L
        a = gd_run(obj, spec.x0, eta, StopRule.max_steps(25))
        b = pgd_run(obj, lambda x: x, spec.x0, eta, StopRule.max_steps(25))
        assert np.array_equal(a.points, b.points)

    def test_box_fixed_point(self):
        obj = scalar_objective(lambda x: 0.5 * (x - 2.0) ** 2, lambda x: x - 2.0)
        proj = box_projector([-1.0], [1.0])
        traj = pgd_run(obj, proj, [0.0], 1.0, StopRule.max_steps(10))
        assert traj.points[:, 0].tolist() == [0.0, 1.0]
        assert traj.stop_reason == "stationary"
        # the recorded final point is a fixed point of the update
        x = traj.points[-1]
        assert np.array_equal(proj(x - 1.0 * obj.gradient_at(x)), x)

    def test_two_dim_box_step(self):
        obj = ObjectiveSpec(
            dim=2,
            value=lambda x: 0.5 * float(x @ x),
            gradient=lambda x: np.asarray(x, dtype=float),
        )
        proj = box_projector([0.5, 0.5], [1.0, 1.0])
        traj = pgd_run(obj, proj, [1.0, 1.0], 0.5, StopRule.max_steps(1))
        assert np.allclose(traj.points[1], [0.5, 0.5])

    def test_iterates_stay_feasible(self, rng):
        spec = random_convex_quadratic(rng)
        obj = spec.to_objective()
        proj = box_projector(np.full(spec.dim, -0.25), np.full(spec.dim, 0.25))
        traj = pgd_run(obj, proj, np.zeros(spec.dim), 0.5 / obj.L, StopRule.max_steps(30))
        for p in traj.points:
            assert np.linalg.norm(proj(p) - p) <= 1e-12

    def test_bad_projector_rejected(self):
        obj = half_square()
        with pytest.raises(InputError, match="idempotence"):
            pgd_run(obj, lambda x: x / 2.0, [0.0], 0.5, StopRule.max_steps(1))

    def test_infeasible_start_rejected(self):
        obj = half_square()
        proj = box_projector([-1.0], [1.0])
        with pytest.raises(InputError, match="constraint"):
            pgd_run(obj, proj, [5.0], 0.5, StopRule.max_steps(1))


class TestEndpointsOnly:
    """``keep_iterates=False`` keeps x_0 and x_N; ``observe`` sees every iterate."""

    @staticmethod
    def run(method, spec, **options):
        obj = spec.to_objective()
        if method == "gd":
            return gd_run(obj, spec.x0, 1.0 / obj.L, StopRule.grad_below(1e-9), **options)
        if method == "hb":
            alpha, beta = hb_params(obj.mu, obj.L)
            return heavy_ball_run(obj, spec.x0, alpha, beta, StopRule.grad_below(1e-9), **options)
        lo, hi = float(spec.x0.min()), float(spec.x0.max())
        proj = box_projector(np.full(spec.dim, lo), np.full(spec.dim, hi))
        return pgd_run(obj, proj, spec.x0, 0.5 / obj.L, StopRule.max_steps(200), **options)

    @pytest.mark.parametrize("method", ["gd", "hb", "pgd"])
    def test_same_run_as_full_record(self, rng, method):
        spec = random_convex_quadratic(rng)
        full = self.run(method, spec)
        ends = self.run(method, spec, keep_iterates=False)
        assert ends.points.shape == (2, spec.dim)
        assert ends.times.tolist() == [0, full.n_steps]
        assert np.array_equal(ends.points[0], full.points[0])
        assert np.array_equal(ends.final_point, full.final_point)
        assert ends.n_steps == full.n_steps > 1
        assert ends.path_sum == full.path_sum
        assert ends.stop_reason == full.stop_reason

    @pytest.mark.parametrize("method", ["gd", "hb", "pgd"])
    def test_observe_sees_every_recorded_point(self, rng, method):
        spec = random_convex_quadratic(rng)
        seen = []
        self.run(method, spec, keep_iterates=False, observe=lambda x, g: seen.append((x.copy(), g.copy())))
        full = self.run(method, spec)
        assert np.array_equal(np.array([x for x, _ in seen]), full.points)
        obj = spec.to_objective()
        assert all(np.array_equal(g, obj.gradient_at(x)) for x, g in seen)

    def test_observe_at_stationary_stop(self):
        seen = []
        traj = gd_run(half_square(), [1.0], 1.0, StopRule.max_steps(5),
                      observe=lambda x, g: seen.append((float(x[0]), float(g[0]))))
        assert traj.stop_reason == "stationary"
        assert seen == [(1.0, 1.0), (0.0, 0.0)]


class TestGfQuadratic:
    def test_scalar_decay(self):
        spec = QuadraticSpec.diagonal([1.0], [5.0])
        assert gf_quadratic(spec, math.log(2.0))[0] == pytest.approx(2.5, rel=1e-14)

    def test_time_zero_returns_start_exactly(self, rng):
        spec = random_convex_quadratic(rng)
        out = gf_quadratic(spec, 0.0)
        assert np.array_equal(out, spec.x0)
        out[0] += 1.0  # returned array is a copy
        assert out[0] != spec.x0[0]

    def test_two_mode_decay(self):
        spec = QuadraticSpec.diagonal([2.0, 0.5], [1.0, 1.0])
        x = gf_quadratic(spec, 1.0)
        assert x[0] == pytest.approx(math.exp(-2.0), rel=1e-14)
        assert x[1] == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_limit_is_projection(self, rng):
        spec = random_convex_quadratic(rng)
        assert np.allclose(gf_quadratic(spec, 1e6), spec.projection, atol=1e-12)

    def test_vectorized_times(self, rng):
        spec = random_convex_quadratic(rng)
        ts = np.array([0.1, 0.5, 2.0])
        batch = gf_quadratic(spec, ts)
        for i, t in enumerate(ts):
            assert np.allclose(batch[i], gf_quadratic(spec, float(t)), atol=1e-14)

    def test_negative_time_rejected(self, rng):
        spec = random_convex_quadratic(rng)
        with pytest.raises(InputError):
            gf_quadratic(spec, -0.5)


class TestGfIntegrate:
    def test_one_dim_arc_equals_distance(self):
        traj = gf_integrate(half_square(), [1.0], 1e-10, StopRule.grad_below(1e-8))
        assert traj.arc_length == pytest.approx(1.0, abs=1e-6)
        assert traj.stop_reason == "grad_below"

    def test_one_dim_quartic_arc(self):
        obj = build_fsep_quartic(1, 0.1, 1.0)
        traj = gf_integrate(obj, [1.0], 1e-10, StopRule.grad_below(1e-8))
        assert traj.arc_length == pytest.approx(1.0, abs=1e-6)

    def test_matches_closed_form_at_accepted_times(self, rng):
        tol = 1e-10
        spec = random_convex_quadratic(rng)
        traj = gf_integrate(spec.to_objective(), spec.x0, tol, StopRule.grad_below(1e-9))
        exact = gf_quadratic(spec, traj.times)
        assert float(np.max(np.linalg.norm(traj.points - exact, axis=1))) <= 10 * tol

    def test_dense_output_interpolates(self, rng):
        spec = random_convex_quadratic(rng)
        traj = gf_integrate(spec.to_objective(), spec.x0, 1e-10, StopRule.horizon(2.0))
        for t in rng.uniform(0.0, traj.final_time, 12):
            err = np.linalg.norm(traj.interpolate(float(t)) - gf_quadratic(spec, float(t)))
            assert err <= 1e-8

    def test_horizon_stop_is_exact(self, rng):
        spec = random_convex_quadratic(rng)
        traj = gf_integrate(spec.to_objective(), spec.x0, 1e-10, StopRule.horizon(1.5))
        assert traj.final_time == pytest.approx(1.5, abs=1e-12)
        assert traj.stop_reason == "horizon"

    def test_chord_cross_check_close_to_arc(self, rng):
        spec = random_convex_quadratic(rng)
        traj = gf_integrate(spec.to_objective(), spec.x0, 1e-10, StopRule.grad_below(1e-9))
        assert traj.chord_sum <= traj.arc_length * (1 + 1e-9)
        assert traj.chord_sum == pytest.approx(traj.arc_length, rel=1e-4)

    def test_max_steps_reported(self):
        traj = gf_integrate(half_square(), [1.0], 1e-10, StopRule.max_steps(3))
        assert traj.stop_reason == "max_steps"
        assert traj.n_steps == 3

    def test_stationary_start(self):
        traj = gf_integrate(half_square(), [0.0], 1e-10, StopRule.grad_below(1e-8))
        assert traj.stop_reason in ("stationary", "grad_below")
        assert traj.n_steps == 0

    def test_non_finite_field_raises_with_time(self):
        obj = scalar_objective(lambda x: x, lambda x: math.sqrt(x) if x > 0 else float("nan"))
        with pytest.raises(NonFiniteError, match="t="):
            gf_integrate(obj, [1.0], 1e-8, StopRule.horizon(10.0))

    def test_local_errors_below_one(self, rng):
        spec = random_convex_quadratic(rng)
        traj = gf_integrate(spec.to_objective(), spec.x0, 1e-10, StopRule.horizon(3.0))
        assert np.all(traj.local_errors <= 1.0)
        assert len(traj.dense) == traj.n_steps

    def test_divergence_guard(self):
        obj = scalar_objective(lambda x: -0.5 * x * x, lambda x: -x)
        with pytest.raises(DivergenceError):
            gf_integrate(obj, [1.0], 1e-8, StopRule.horizon(50.0))

    def test_times_strictly_increasing(self, rng):
        spec = random_convex_quadratic(rng)
        traj = gf_integrate(spec.to_objective(), spec.x0, 1e-10, StopRule.horizon(2.0))
        assert np.all(np.diff(traj.times) > 0)
