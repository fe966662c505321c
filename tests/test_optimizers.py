import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest

from conftest import random_convex_quadratic, run_observed, scalar_objective
from gradpath import (
    DivergenceError,
    InputError,
    NonFiniteError,
    ObjectiveSpec,
    QuadraticSpec,
    StopRule,
    box_projector,
    build_pkl_gd_instance,
    build_pkl_gf_instance,
    build_fsep_quartic,
    build_quad_lower,
    gd_run,
    gd_step,
    gf_integrate,
    gf_quadratic,
    hb_params,
    heavy_ball_run,
    parse_stop_rule,
    pgd_run,
)
from gradpath.optimizers import RECORD_ROWS


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
        with pytest.raises(InputError, match="integer"):
            parse_stop_rule("max_steps:2.5")  # used to truncate to 2

    @pytest.mark.parametrize("text", ["norm_below:nan", "grad_below:inf", "max_steps:inf", "norm_below:abc"])
    def test_non_finite_threshold_rejected(self, text):
        # norm_below:nan would never stop before the 1e8-step cap
        with pytest.raises(InputError, match="stop threshold"):
            parse_stop_rule(text)
        with pytest.raises(InputError, match="finite"):
            StopRule.norm_below(float("nan"))

    @pytest.mark.parametrize("rule", [
        StopRule.grad_below(1e-8), StopRule.max_steps(3), StopRule.horizon(1.0),
    ])
    def test_rules_without_a_point_condition_build_no_test(self, rule):
        assert rule.point_test(4) is None

    def test_coords_rule_trivial_in_one_dim(self):
        rule = StopRule.coords_below_except_last(1e-2)
        assert rule.point_test(1)(np.array([7.0]), 49.0)
        assert not rule.point_test(2)(np.array([7.0, 0.0]), 49.0)

    @staticmethod
    def _coords_reference(x, eps):
        return x.size <= 1 or float(np.abs(x[:-1]).max()) < eps

    @classmethod
    def _fresh_test(cls, rule, x):
        """The verdict of a new per-run test on its first point."""
        return rule.point_test(x.size)(x, cls._xsq(x))

    @staticmethod
    def _xsq(x):
        """The loops' squared norm of ``x``; inf where it overflows."""
        with np.errstate(over="ignore"):
            return float(x.dot(x))

    # the commented rows sit where a test through squares (eps^2, the head's dot) would
    # underflow, round or overflow
    @pytest.mark.parametrize("eps, head", [
        (1e-200, [0.0] * 5),  # 2 (d-1) eps^2 underflows to 0
        (1e-151, [0.0] * 5),
        (1.7e-162, [np.nextafter(1.7e-162, 0.0)]),  # eps^2 rounds to one subnormal ulp
        (1e-2, [0.0, 1e-2, 0.0]),
        (1e-2, [0.0, -np.nextafter(1e-2, 0.0), 0.0]),
        (1e-2, [np.nextafter(1e-2, 0.0)] * 7),
        (175942642.13182044, [np.nextafter(175942642.13182044, 0.0)] * 38),  # the dot rounds up to (d-1) eps^2
        (1e-2, [0.0, np.nan]),
        (1e-2, [np.inf, 0.0]),
        (1e-2, [0.0, -np.inf]),
        (1e200, [1e155, 0.0]),  # the head's square overflows below eps
        (0.0, [0.0, 0.0]),
        (0.5, []),
        (0.5, [0.25]),
        (0.5, [0.75]),
    ])
    @pytest.mark.parametrize("last", [0.0, 3.0, np.nan])
    def test_coords_rule_matches_abs_max(self, eps, head, last):
        x = np.array(head + [last])
        rule = StopRule.coords_below_except_last(eps)
        assert self._fresh_test(rule, x) == self._coords_reference(x, eps)

    def test_coords_rule_matches_abs_max_on_random_heads(self):
        rng = np.random.default_rng(20240918)
        specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])
        for _ in range(5000):
            d = int(rng.integers(1, 9))
            eps = float(10.0 ** rng.uniform(-320.0, 300.0))
            x = eps * rng.uniform(-2.0, 2.0, d)
            kind = rng.integers(0, 4, d)
            x[kind == 1] = np.copysign(eps, x[kind == 1])
            x[kind == 2] = np.nextafter(eps, 0.0)
            hit = rng.random(d) < 0.05
            x[hit] = rng.choice(specials, int(hit.sum()))
            rule = StopRule.coords_below_except_last(eps)
            assert self._fresh_test(rule, x) == self._coords_reference(x, eps), (eps, x)

    def test_norm_rule_matches_linalg_norm(self):
        rng = np.random.default_rng(20261018)
        for _ in range(200):
            x = rng.standard_normal(int(rng.integers(1, 9))) * 10.0 ** rng.uniform(-5.0, 5.0)
            eps = float(np.linalg.norm(x)) * float(rng.choice([np.nextafter(1.0, 0.0), 1.0, 2.0]))
            rule = StopRule.norm_below(eps)
            assert self._fresh_test(rule, x) == (float(np.linalg.norm(x)) <= eps)

    @pytest.mark.parametrize("eps", [1e-2, 0.0])
    def test_one_coords_test_follows_a_moving_witness(self, eps):
        # one test object sees a whole sequence, as in a run: the witness
        # moves across the head, then meets NaN, inf and signed zero heads
        below = np.nextafter(1e-2, 0.0)
        points = [
            [0.5, 0.3, 0.2, 0.1, 9.0],  # witness 0
            [0.5, 0.3, 0.2, 0.1, 9.0],
            [0.005, 0.3, 0.2, 0.1, 9.0],  # moves to 1
            [0.005, 0.001, 0.02, 0.1, 9.0],  # moves to 3
            [0.005, 0.001, 0.02, -0.1, 9.0],
            [0.005, 0.001, 0.02, below, 9.0],  # moves to 2
            [0.005, 0.001, -1e-2, below, 9.0],  # |x_2| = eps still rules it out
            [0.005, 0.001, -below, below, 9.0],  # stop
            [0.005, 0.001, -below, below, np.nan],  # the last coordinate is free
            [0.001, 0.5, 0.0, 0.0, 9.0],  # after a stop, moves to 1
            [np.nan, 0.001, 0.0, 0.0, 0.0],  # NaN heads never stop
            [0.001, np.nan, 0.5, 0.0, 0.0],
            [0.0, np.nan, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -np.inf, 0.0],
            [0.0, 0.0, 0.0, np.inf, 0.0],
            [0.0, np.inf, np.nan, -np.inf, 0.0],
            [0.0, -0.0, 0.0, -0.0, 1.0],
            [-0.0, -0.0, -0.0, -0.0, -0.0],
            [1e-300, -5e-324, 0.0, below, np.inf],
            [0.5, 0.3, 0.2, 0.1, 9.0],
        ]
        test = StopRule.coords_below_except_last(eps).point_test(5)
        verdicts = []
        for point in points:
            x = np.array(point)
            verdicts.append(test(x, self._xsq(x)))
            assert verdicts[-1] == self._coords_reference(x, eps), (eps, point)
        assert any(verdicts) == (eps > 0)

    def test_one_coords_test_on_a_random_sequence(self):
        rng = np.random.default_rng(20261019)
        eps = 1e-3
        test = StopRule.coords_below_except_last(eps).point_test(6)
        x = rng.uniform(-1.0, 1.0, 6)
        for _ in range(5000):
            # each coordinate shrinks at its own rate, with rare restarts and specials
            x = x * rng.uniform(0.5, 1.0, 6)
            restart = rng.random(6) < 0.01
            x[restart] = rng.uniform(-1.0, 1.0, int(restart.sum()))
            y = x.copy()
            hit = rng.random(6) < 0.01
            y[hit] = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0, eps, -eps], int(hit.sum()))
            assert test(y, self._xsq(y)) == self._coords_reference(y, eps), y


class TestGdRun:
    def test_one_step_to_stationary(self):
        traj = gd_run(half_square(), [1.0], 1.0, StopRule.max_steps(100))
        assert traj.points[:, 0].tolist() == [1.0, 0.0]
        assert traj.stop_reason == "stationary"

    def test_overshooting_step(self):
        traj, points = run_observed(gd_run, square(), [8.0], 7 / 8, StopRule.max_steps(2))
        assert points[:, 0].tolist() == [8.0, -6.0, 4.5]
        assert traj.stop_reason == "max_steps"

    def test_two_dim_hand_steps(self):
        obj = ObjectiveSpec(
            dim=2,
            value=lambda x: float(x[0] ** 2 + 0.5 * x[1] ** 2),
            gradient=lambda x: np.array([2 * x[0], x[1]]),
        )
        _, points = run_observed(gd_run, obj, [1.0, 1.0], 0.5, StopRule.max_steps(2))
        assert np.allclose(points[1], [0.0, 0.5])
        assert np.allclose(points[2], [0.0, 0.25])

    def test_update_rule_recomputable(self, rng):
        spec = random_convex_quadratic(rng)
        obj = spec.to_objective()
        eta = 0.7 / float(spec.sigma[0])
        _, points = run_observed(gd_run, obj, spec.x0, eta, StopRule.max_steps(25))
        for k in range(len(points) - 1):
            recomputed = points[k] - eta * obj.gradient_at(points[k])
            assert np.linalg.norm(recomputed - points[k + 1]) <= 1e-12

    def test_descent_inequality_small_step(self, rng):
        spec = random_convex_quadratic(rng)
        obj = spec.to_objective()
        eta = 1.0 / obj.L
        _, points = run_observed(gd_run, obj, spec.x0, eta, StopRule.max_steps(40))
        for k in range(len(points) - 1):
            g = obj.gradient_at(points[k])
            drop = obj.value_at(points[k]) - 0.5 * eta * float(g @ g)
            assert obj.value_at(points[k + 1]) <= drop + 1e-10

    def test_distance_descent_two_over_L(self, rng):
        spec = random_convex_quadratic(rng)
        obj = spec.to_objective()
        _, points = run_observed(gd_run, obj, spec.x0, 2.0 / obj.L, StopRule.max_steps(40))
        dists = [obj.optimal_set.distance(p) for p in points]
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


def vector_objective(dim, gradient):
    return ObjectiveSpec(dim=dim, value=lambda x: 0.0, gradient=gradient)


class TestLoopChecks:
    """The loop's checks share one squared norm per vector; the errors,
    their iterate indices and the stop reasons stay those of exact
    per-vector checks."""

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nan_gradient_reported_at_its_iterate(self):
        # x: 1, 0.5, 0.25; the gradient is NaN below 0.3
        obj = vector_objective(1, lambda x: np.where(x > 0.3, x, np.nan))
        with pytest.raises(NonFiniteError, match="^non-finite gradient at iterate 2$"):
            gd_run(obj, [1.0], 0.5, StopRule.max_steps(10))
        with pytest.raises(NonFiniteError, match="^non-finite gradient at iterate 2$"):
            heavy_ball_run(obj, [1.0], 0.5, 0.0, StopRule.max_steps(10))
        # x_2 also meets the stop rule; its gradient is evaluated all the
        # same, so an observer cannot decide whether the run fails
        for options in ({}, {"observe": lambda x, f, g: None}):
            with pytest.raises(NonFiniteError, match="^non-finite gradient at iterate 2$"):
                gd_run(obj, [1.0], 0.5, StopRule.norm_below(0.3), **options)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_iterate_reported_as_iterate(self):
        # x0 and g are finite, but their squares overflow: the exact
        # check must pass them and then catch the infinite x_1
        obj = vector_objective(2, lambda x: np.array([-1e308, 0.0]))
        with pytest.raises(NonFiniteError, match="^non-finite iterate at iterate 1$"):
            gd_run(obj, [1e308, 1.0], 1.0, StopRule.max_steps(10))

    def test_infinite_coordinate_of_pkl_start(self):
        # g' is 0 at -inf, so the loop would first see the infinity in x_1;
        # a non-finite start is bad input and is rejected before any step
        # (the loop's own check: test_overflowing_iterate_reported_as_iterate)
        inst = build_pkl_gd_instance(6)
        x0 = inst.x0.copy()
        x0[3] = -math.inf
        with pytest.raises(InputError, match="^x0 must be finite$"):
            gd_run(inst.objective, x0, inst.eta, StopRule.norm_below(1e-6))

    def test_projector_clipping_an_infinite_step(self):
        # x_1 = 0.4, where the gradient is infinite; the box would clip
        # the step to a finite point, so the gradient check must catch it
        obj = vector_objective(1, lambda x: np.where(x < 0.5, np.inf, 1.0))
        with pytest.raises(NonFiniteError, match="^non-finite gradient at iterate 1$"):
            pgd_run(obj, box_projector([-1.0], [1.0]), [1.0], 0.6, StopRule.max_steps(10))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_finite_gradient_with_overflowing_square_runs(self):
        obj = vector_objective(2, lambda x: np.full(2, 1e200))
        box = box_projector([-1.0, -1.0], [1.0, 1.0])
        traj = pgd_run(obj, box, [0.0, 0.0], 1.0, StopRule.grad_below(1e-8))
        assert traj.stop_reason == "stationary"
        assert traj.n_steps == 1
        assert traj.path_sum == math.sqrt(2.0)
        assert traj.final_point.tolist() == [-1.0, -1.0]

    def test_divergence_reported_at_its_iterate(self):
        # x_k = 2^k; the first k with 2^k > 1e12
        first = next(k for k in range(1, 100) if 2.0**k > 1e12)
        obj = scalar_objective(lambda x: -0.5 * x * x, lambda x: -x)
        with pytest.raises(DivergenceError, match=f"at iterate {first}$"):
            gd_run(obj, [1.0], 1.0, StopRule.max_steps(10**6))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_finite_iterate_with_overflowing_square_diverges(self):
        obj = vector_objective(1, lambda x: np.array([-1e200]))
        with pytest.raises(DivergenceError, match="at iterate 1$"):
            gd_run(obj, [0.0], 1.0, StopRule.max_steps(10))

    @pytest.mark.parametrize("limit, cap, reason", [(3, 2, "cap"), (2, 2, "max_steps"), (2, 3, "max_steps")])
    def test_step_limit_reason(self, limit, cap, reason):
        traj = gd_run(half_square(), [1.0], 0.5, StopRule.max_steps(limit), safety_cap=cap)
        assert (traj.stop_reason, traj.n_steps, traj.path_sum) == (reason, 2, 0.75)

    def test_grad_and_norm_stops_at_exact_threshold(self):
        # ||g(x_1)|| = ||x_1|| = 0.5 exactly; "<=" stops there
        for stop in (StopRule.grad_below(0.5), StopRule.norm_below(0.5)):
            traj = gd_run(half_square(), [1.0], 0.5, stop)
            assert (traj.stop_reason, traj.n_steps) == (stop.kind, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, "abc"])
    def test_non_finite_parameters_rejected_at_entry(self, bad):
        stop = StopRule.max_steps(3)
        with pytest.raises(InputError, match="step size"):
            gd_run(half_square(), [1.0], bad, stop)
        with pytest.raises(InputError, match="alpha"):
            heavy_ball_run(half_square(), [1.0], bad, 0.1, stop)
        with pytest.raises(InputError, match="step size"):
            pgd_run(half_square(), box_projector([-2.0], [2.0]), [1.0], bad, stop)
        with pytest.raises(InputError, match="tol"):
            gf_integrate(half_square(), [1.0], bad)

    @pytest.mark.parametrize("runner", ["gd", "heavy-ball", "pgd"])
    def test_gradient_of_wrong_shape_rejected(self, runner):
        # a (1,)-gradient used to broadcast over the 3-vector: [0.7, 0.7, 0.7] after 3 steps
        obj = vector_objective(3, lambda x: np.array([1.0]))
        stop = StopRule.max_steps(3)
        with pytest.raises(InputError, match=r"^gradient returned shape \(1,\) at a point of shape \(3,\)$"):
            if runner == "gd":
                gd_run(obj, np.ones(3), 0.1, stop)
            elif runner == "heavy-ball":
                heavy_ball_run(obj, np.ones(3), 0.1, 0.5, stop)
            else:
                pgd_run(obj, box_projector([-2.0] * 3, [2.0] * 3), np.ones(3), 0.1, stop)


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
        _, a = run_observed(gd_run, obj, spec.x0, eta, StopRule.max_steps(30))
        _, b = run_observed(heavy_ball_run, obj, spec.x0, eta, 0.0, StopRule.max_steps(30))
        assert np.array_equal(a, b)

    def test_hand_steps(self):
        _, points = run_observed(heavy_ball_run, half_square(), [1.0], 1.0, 0.5, StopRule.max_steps(2))
        assert points[:, 0].tolist() == [1.0, 0.0, -0.5]

    def test_asymptotic_rate_matches_design(self):
        # per-step contraction tends to 1 - c with c = 2/(sqrt(kappa)+1)
        obj = QuadraticSpec.diagonal([4.0, 1.0], [1.0, 1.0]).to_objective()
        alpha, beta = hb_params(1.0, 4.0)
        c = 2.0 / (math.sqrt(4.0) + 1.0)
        _, points = run_observed(heavy_ball_run, obj, [1.0, 1.0], alpha, beta, StopRule.max_steps(220))
        d0 = float(np.linalg.norm(points[0]))
        dk = float(np.linalg.norm(points[200]))
        assert (dk / d0) ** (1 / 200) == pytest.approx(1 - c, abs=0.02)
        # distances respect the defective-mode envelope (k+1)(1-c)^k but not
        # the bare geometric envelope: the first step is a plain gradient step
        for k, p in enumerate(points):
            assert np.linalg.norm(p) <= 2.5 * (k + 1) * (1 - c) ** k * d0 + 1e-12
        assert np.linalg.norm(points[1]) > (1 - c) * d0

    def test_divergence_guard(self):
        obj = scalar_objective(lambda x: 0.5 * x * x, lambda x: x)
        with pytest.raises(DivergenceError):
            heavy_ball_run(obj, [1.0], 5.0, 0.5, StopRule.max_steps(10**6))

    def test_update_rule_recomputable(self, rng):
        spec = random_convex_quadratic(rng)
        obj = spec.to_objective()
        alpha, beta = hb_params(float(spec.sigma[-1]), float(spec.sigma[0]))
        _, points = run_observed(heavy_ball_run, obj, spec.x0, alpha, beta, StopRule.max_steps(25))
        prev = points[0]
        for k in range(len(points) - 1):
            x = points[k]
            recomputed = x - alpha * obj.gradient_at(x) + beta * (x - prev)
            assert np.linalg.norm(recomputed - points[k + 1]) <= 1e-12
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
        _, a = run_observed(gd_run, obj, spec.x0, eta, StopRule.max_steps(25))
        _, b = run_observed(pgd_run, obj, lambda x: x, spec.x0, eta, StopRule.max_steps(25))
        assert np.array_equal(a, b)

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
        _, points = run_observed(pgd_run, obj, proj, np.zeros(spec.dim), 0.5 / obj.L, StopRule.max_steps(30))
        for p in points:
            assert np.linalg.norm(proj(p) - p) <= 1e-12

    def test_projector_writing_one_buffer_matches_box_projector(self):
        # every output of this projector is the same array; the run must
        # not see x and x_new alias each other
        buf = np.empty(2)
        in_place = lambda z: np.clip(z, -1.0, 1.0, out=buf)
        obj = QuadraticSpec.diagonal([1.0, 2.0], [0.9, 0.9]).to_objective()
        stop = StopRule.norm_below(1e-6)
        a, a_points = run_observed(pgd_run, obj, box_projector(-1.0, 1.0), [0.9, 0.9], 0.1, stop)
        b, b_points = run_observed(pgd_run, obj, in_place, [0.9, 0.9], 0.1, stop)
        assert (a.stop_reason, a.n_steps) == ("norm_below", 131)
        assert (b.stop_reason, b.n_steps, b.path_sum.hex()) == (a.stop_reason, a.n_steps, a.path_sum.hex())
        assert a_points.tobytes() == b_points.tobytes()

    def test_bad_projector_rejected(self):
        obj = half_square()
        with pytest.raises(InputError, match="idempotence"):
            pgd_run(obj, lambda x: x / 2.0, [0.0], 0.5, StopRule.max_steps(1))

    def test_bad_projector_writing_one_buffer_rejected(self):
        # this used to pass: each spot check compared the buffer with itself
        buf = np.empty(1)
        with pytest.raises(InputError, match="idempotence"):
            pgd_run(half_square(), lambda x: np.multiply(x, 0.5, out=buf), [0.0], 0.5, StopRule.max_steps(1))

    def test_infeasible_start_rejected(self):
        obj = half_square()
        proj = box_projector([-1.0], [1.0])
        with pytest.raises(InputError, match="constraint"):
            pgd_run(obj, proj, [5.0], 0.5, StopRule.max_steps(1))


class TestEndpointsOnly:
    """A discrete run keeps x_0 and x_N; ``observe`` sees every iterate."""

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
        ends = self.run(method, spec)
        observed, points = run_observed(self.run, method, spec)
        _assert_owned_rows(ends.points, (2, spec.dim), np.float64)
        _assert_owned_rows(ends.times, (2,), np.int64)
        assert ends.times.tolist() == [0, observed.n_steps]
        assert ends.points.tobytes() == points[[0, -1]].tobytes() == observed.points.tobytes()
        assert ends.n_steps == observed.n_steps == len(points) - 1 > 1
        assert ends.path_sum == observed.path_sum
        assert ends.stop_reason == observed.stop_reason

    @pytest.mark.parametrize("method", ["gd", "hb", "pgd"])
    def test_observe_sees_every_recorded_point(self, rng, method):
        spec = random_convex_quadratic(rng)
        seen = []
        traj = self.run(method, spec, observe=lambda x, f, g: seen.append((x.copy(), f, g.copy())))
        points = np.array([x for x, _, _ in seen])
        assert len(points) == traj.n_steps + 1
        assert np.array_equal(points[[0, -1]], traj.points)
        # the loop's step norms, sqrt(d . d), summed in its order: the
        # observed points are the ones the run stepped through, to the bit
        path_sum = 0.0
        for step in np.diff(points, axis=0):
            path_sum += math.sqrt(float(step.dot(step)))
        assert path_sum.hex() == traj.path_sum.hex()
        obj = spec.to_objective()
        assert all(np.array_equal(g, obj.gradient_at(x)) for x, _, g in seen)
        # the value handed over is value_at's, to the bit
        assert all(f.hex() == obj.value_at(x).hex() for x, f, _ in seen)

    def test_observe_at_stationary_stop(self):
        seen = []
        traj = gd_run(half_square(), [1.0], 1.0, StopRule.max_steps(5),
                      observe=lambda x, f, g: seen.append((float(x[0]), f, float(g[0]))))
        assert traj.stop_reason == "stationary"
        assert seen == [(1.0, 0.5, 1.0), (0.0, 0.0, 0.0)]


def _assert_owned_rows(a, shape, dtype):
    """A trimmed C-contiguous array that holds no spare rows of a buffer."""
    assert a.shape == shape and a.dtype == dtype
    assert a.flags.c_contiguous and a.base is None


class TestRecord:
    """A flow's accepted points below, at and just above the record's first
    capacity, and past several doublings of it; a discrete run's x_0 and x_N."""

    ROWS = [RECORD_ROWS - 1, RECORD_ROWS, RECORD_ROWS + 1, 5 * RECORD_ROWS]

    @pytest.mark.parametrize("m", ROWS)
    def test_flow_rows_follow_the_closed_form(self, m):
        tol = 1e-10
        spec = _dense_quadratic(7, 4, 1e3)
        traj = gf_integrate(spec.to_objective(), spec.x0, tol, StopRule.max_steps(m - 1))
        assert (traj.stop_reason, traj.n_steps) == ("max_steps", m - 1)
        _assert_owned_rows(traj.points, (m, 4), np.float64)
        _assert_owned_rows(traj.times, (m,), np.float64)
        _assert_owned_rows(traj.local_errors, (m,), np.float64)
        assert traj.times[0] == 0.0 and traj.local_errors[0] == 0.0
        assert np.array_equal(traj.points[0], spec.x0)
        assert np.all(np.diff(traj.times) > 0) and np.all(traj.local_errors <= 1.0)
        exact = gf_quadratic(spec, traj.times)
        assert float(np.max(np.linalg.norm(traj.points - exact, axis=1))) <= 10 * tol

    def test_endpoints_only_record(self):
        traj = gd_run(half_square(), [1.0], 0.5, StopRule.max_steps(0))
        _assert_owned_rows(traj.points, (1, 1), np.float64)
        _assert_owned_rows(traj.times, (1,), np.int64)
        assert traj.points[:, 0].tolist() == [1.0] and traj.times.tolist() == [0]
        traj = gd_run(half_square(), [1.0], 0.5, StopRule.max_steps(3))
        _assert_owned_rows(traj.points, (2, 1), np.float64)
        _assert_owned_rows(traj.times, (2,), np.int64)
        assert traj.points[:, 0].tolist() == [1.0, 0.125] and traj.times.tolist() == [0, 3]


class TestRecordMemory:
    """Traced bytes of a run, bounded from what it keeps.

    A flow's record of rows of w bytes doubles when full, so after keeping
    m > RECORD_ROWS rows its capacity C is below 2m.  While it grows it
    holds the old and the new buffer, 1.5 C w < 3 m w bytes; at return it
    holds C w bytes and the trimmed copies, which take at most w + 8 bytes
    per row (a row of x, t and local error splits into its three arrays).
    So the peak is below (3 w + 8) m bytes plus the run's working set,
    which does not grow with m.  Lists of per-step arrays and floats took
    about 300 bytes per step here.  A discrete run keeps only x_0 and x_N,
    so its peak is the working set however long it runs.
    """

    M = 32 * RECORD_ROWS + 1  # just past a doubling: the growth peak is the largest
    WORKING_SET = 32 * 1024

    @staticmethod
    def traced_peak(run):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            traj = run()
            return traj, tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    def test_flow(self):
        spec = _dense_quadratic(20261018, 4, 3e3)
        traj, peak = self.traced_peak(
            lambda: gf_integrate(spec.to_objective(), spec.x0, 1e-10, StopRule.max_steps(self.M - 1)))
        assert len(traj.points) == self.M
        w = (4 + 2) * 8
        assert peak <= (3 * w + 8) * self.M + self.WORKING_SET

    def test_gradient_descent(self):
        # the peak does not grow with the step count: a record of every
        # iterate would take 8 d bytes a step, 96 KiB at M steps
        c = build_quad_lower(6, 5.0)
        for steps in (self.M, 8 * self.M):
            traj, peak = self.traced_peak(
                lambda: gd_run(c.to_objective(), c.x0, gd_step(c), StopRule.max_steps(steps)))
            assert (traj.stop_reason, traj.n_steps, len(traj.points)) == ("max_steps", steps, 2)
            assert peak <= self.WORKING_SET, steps


def _counted(obj):
    """``obj`` with its gradient calls counted in the returned list."""
    calls = [0]

    def gradient(x):
        calls[0] += 1
        return obj.gradient(x)

    return ObjectiveSpec(dim=obj.dim, value=obj.value, gradient=gradient), calls


class TestDiscreteGradientCalls:
    """``n_feval`` of a discrete run counts its gradient calls: one per
    iterate x_0 ... x_N, observed or not, whatever stopped the run."""

    # half_square from x = 1: eta 0.5 halves x, eta 1 reaches 0, eta 2 flips its sign
    @pytest.mark.parametrize("eta, stop, cap, reason, steps, calls", [
        (0.5, StopRule.norm_below(0.1), None, "norm_below", 4, 5),
        (0.5, StopRule.grad_below(0.1), None, "grad_below", 4, 5),
        (1.0, StopRule.max_steps(5), None, "stationary", 1, 2),
        (2.0, StopRule.norm_below(1e-3), None, "cycle", 4, 5),
        (0.5, StopRule.norm_below(1e-3), 3, "cap", 3, 4),
        (0.5, StopRule.max_steps(0), None, "max_steps", 0, 1),
    ])
    @pytest.mark.parametrize("observed", [False, True])
    def test_counts_by_stop_reason(self, eta, stop, cap, reason, steps, calls, observed):
        obj, counted = _counted(half_square())
        options = {"observe": lambda x, f, g: None} if observed else {}
        if cap is not None:
            options["safety_cap"] = cap
        traj = gd_run(obj, [1.0], eta, stop, **options)
        assert (traj.stop_reason, traj.n_steps, traj.n_feval) == (reason, steps, calls)
        assert counted[0] == calls

    def test_fused_value_and_gradient_counts_once(self):
        inst = build_pkl_gd_instance(9)
        obj, counted = _counted(inst.objective)
        fused = [0]

        def value_and_gradient(x):
            fused[0] += 1
            return inst.objective.value_and_gradient(x)

        obj = dataclasses.replace(obj, value_and_gradient=value_and_gradient)
        traj = gd_run(obj, inst.x0, inst.eta, StopRule.norm_below(1e-6), observe=lambda x, f, g: None)
        assert traj.stop_reason == "norm_below"
        assert (counted[0], fused[0], traj.n_feval) == (0, traj.n_steps + 1, traj.n_steps + 1)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, rng, bad):
        spec = random_convex_quadratic(rng)
        with pytest.raises(InputError, match="finite"):
            gf_quadratic(spec, bad)
        with pytest.raises(InputError, match="finite"):
            gf_quadratic(spec, np.array([0.0, 1.0, bad]))


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

    def test_horizon_stop_is_exact(self, rng):
        spec = random_convex_quadratic(rng)
        traj = gf_integrate(spec.to_objective(), spec.x0, 1e-10, StopRule.horizon(1.5))
        assert traj.final_time == pytest.approx(1.5, abs=1e-12)
        assert traj.stop_reason == "horizon"

    def test_chord_cross_check_close_to_arc(self, rng):
        spec = random_convex_quadratic(rng)
        traj = gf_integrate(spec.to_objective(), spec.x0, 1e-10, StopRule.grad_below(1e-9))
        assert traj.path_sum <= traj.arc_length * (1 + 1e-9)
        assert traj.path_sum == pytest.approx(traj.arc_length, rel=1e-4)

    @pytest.mark.parametrize("case", ["quadratic", "pkl-flow-d20"])
    def test_chord_is_the_step_norm_sum(self, rng, case):
        if case == "quadratic":
            spec = random_convex_quadratic(rng)
            obj, x0, stop = spec.to_objective(), spec.x0, StopRule.grad_below(1e-9)
        else:
            inst = build_pkl_gf_instance(20)
            obj, x0, stop = inst.objective, inst.x0, StopRule.norm_below(1e-6)
        traj = gf_integrate(obj, x0, 1e-10, stop)
        # the loop's terms, sqrt(dx . dx), recomputed from the stored points
        norms = [math.sqrt(float(v.dot(v))) for v in np.diff(traj.points, axis=0)]
        exact = math.fsum(norms)
        # recursive summation of n nonnegative terms is within gamma_{n-1} of
        # their exact sum (Higham, Accuracy and Stability, ch. 4) and fsum
        # within u of it; gamma_n = n u / (1 - n u) covers both
        u = np.finfo(float).eps / 2
        n = len(norms)
        assert n == traj.n_steps > 100
        gamma = n * u / (1 - n * u)
        assert abs(traj.path_sum - exact) <= gamma * exact

    def test_max_steps_reported(self):
        traj = gf_integrate(half_square(), [1.0], 1e-10, StopRule.max_steps(3))
        assert traj.stop_reason == "max_steps"
        assert traj.n_steps == 3

    def test_zero_step_limit_skips_the_step_size_probe(self):
        traj = gf_integrate(half_square(), [1.0], 1e-10, StopRule.max_steps(0))
        assert (traj.stop_reason, traj.n_steps, traj.n_feval) == ("max_steps", 0, 1)

    @pytest.mark.parametrize("horizon", [0.0, 1e-15, 1e-14, 1e-13])
    def test_horizon_within_rounding_of_zero_stops_at_start(self, horizon):
        # 1e-15 and 1e-14 used to fail the step floor (StepSizeUnderflowError)
        traj = gf_integrate(half_square(), [1.0], 1e-10, StopRule.horizon(horizon))
        assert (traj.stop_reason, traj.n_steps, traj.n_feval, traj.final_time) == ("horizon", 0, 1, 0.0)
        traj = gf_integrate(half_square(), [1.0], 1e-10, StopRule.horizon(horizon + 1e-11))
        assert (traj.stop_reason, traj.n_steps) == ("horizon", 1)
        assert traj.final_time == pytest.approx(horizon + 1e-11, rel=1e-12)

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

    def test_divergence_guard(self):
        obj = scalar_objective(lambda x: -0.5 * x * x, lambda x: -x)
        with pytest.raises(DivergenceError):
            gf_integrate(obj, [1.0], 1e-8, StopRule.horizon(50.0))

    def test_times_strictly_increasing(self, rng):
        spec = random_convex_quadratic(rng)
        traj = gf_integrate(spec.to_objective(), spec.x0, 1e-10, StopRule.horizon(2.0))
        assert np.all(np.diff(traj.times) > 0)


def _dense_quadratic(seed, d, kappa):
    """Rotated quadratic with extreme eigenvalues 1 and 1/kappa, log-uniform interior."""
    rng = np.random.default_rng(seed)
    interior = 10 ** rng.uniform(-math.log10(kappa), 0.0, d - 2)
    sigma = np.sort(np.concatenate([[1.0, 1.0 / kappa], interior]))[::-1]
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    x0 = rng.standard_normal(d) + basis @ rng.standard_normal(d)
    projection = rng.standard_normal(d)
    return QuadraticSpec(
        dim=d, sigma=sigma, basis=basis, projection=projection,
        alpha=basis.T @ (x0 - projection), x0=x0,
    )


def _failing_gradient(first_bad_call, bad):
    """Gradient of ||x||^2 on R^3 that returns ``bad`` from call ``first_bad_call`` on."""
    calls = [0]

    def gradient(x):
        calls[0] += 1
        return np.array(bad, dtype=float) if calls[0] >= first_bad_call else 2.0 * x

    return ObjectiveSpec(dim=3, value=lambda x: float(x @ x), gradient=gradient)


class TestCycleStop:
    """A run whose state (x_{k-1}, x_k) repeats exactly stops with ``cycle``."""

    def test_heavy_ball_cycle_ends_the_run(self):
        # the iterates enter an exact cycle of period 14 at ||x|| = 1.42, so
        # norm_below(1e-3) never fires and no step is exactly 0: the run
        # used to go on to the 1e8-step cap
        spec = _dense_quadratic(1, 5, 1e2)
        obj = spec.to_objective()
        alpha, beta = hb_params(obj.mu, obj.L)
        start = time.perf_counter()
        traj, points = run_observed(heavy_ball_run, obj, spec.x0, alpha, beta, StopRule.norm_below(1e-3))
        assert time.perf_counter() - start < 1.0
        assert (traj.stop_reason, traj.n_steps) == ("cycle", 526)
        assert math.isclose(float(np.linalg.norm(traj.final_point)), 1.42, abs_tol=0.01)
        # the last state is the one 14 steps earlier, bit for bit
        assert np.array_equal(points[-2:], points[-16:-14])
        assert not np.array_equal(points[-2:], points[-15:-13])

    def test_period_two_cycle_of_gradient_descent(self):
        # eta * L = 2 on 0.5 x^2 flips the sign of x every step: 1, -1, 1, ...
        traj, points = run_observed(gd_run, half_square(), [1.0], 2.0, StopRule.norm_below(1e-3))
        assert (traj.stop_reason, traj.n_steps) == ("cycle", 4)
        assert points[:, 0].tolist() == [1.0, -1.0, 1.0, -1.0, 1.0]
        assert traj.path_sum == 8.0


class TestDiscreteStopStep:
    """The stop step of an observed run, checked against the rule's own
    definition: every iterate before the last fails it, the last passes."""

    @pytest.mark.parametrize("omega", [3.0, 4.0])
    def test_coords_rule_on_quad_lower(self, omega):
        c = build_quad_lower(6, omega)
        eps = 1e-4
        traj, points = run_observed(gd_run, c.to_objective(), c.x0, gd_step(c), StopRule.coords_below_except_last(eps))
        assert traj.stop_reason == "coords_below_except_last"
        assert points.shape == (traj.n_steps + 1, 6)
        below = np.abs(points[:, :-1]).max(axis=1) < eps
        assert not below[:-1].any() and below[-1]

    def test_norm_rule_on_pkl_lower_gd(self):
        inst = build_pkl_gd_instance(9)
        eps = 1e-6
        traj, points = run_observed(gd_run, inst.objective, inst.x0, inst.eta, StopRule.norm_below(eps))
        assert traj.stop_reason == "norm_below"
        assert points.shape == (traj.n_steps + 1, 9)
        below = np.linalg.norm(points, axis=1) <= eps
        assert not below[:-1].any() and below[-1]


class TestDiscreteBitsPinned:
    """Heavy-ball and PGD outputs pinned to the bit: the discrete loop's arithmetic is fixed."""

    # (n_steps, stop_reason, path_sum.hex(), final_point bytes as hex)
    PINNED = {
        "hb": (
            137, "grad_below", "0x1.4050f9375cb3ap+8",
            "0fa7a6aa5e45f13ff61c611b03bedfbf216a03017c08dc3f"
            "3135b2c89463f3bf10f53520bdf2e53f67e35770b48b02c0",
        ),
        "pgd": (
            200, "max_steps", "0x1.5f34c932c898ep+2",
            "c3ffe8fceed1ef3f8e554b6d63aae1bf3ba91419a04fe23f"
            "39e3dabc0db3f6bf691deba675b2e83f338e4e86a31901c0",
        ),
    }

    @pytest.mark.parametrize("method", sorted(PINNED))
    def test_run_matches_pinned_bits(self, method):
        spec = _dense_quadratic(20261018, 6, 1e2)
        obj = spec.to_objective()
        if method == "hb":
            alpha, beta = hb_params(obj.mu, obj.L)
            traj = heavy_ball_run(obj, spec.x0, alpha, beta, StopRule.grad_below(1e-9))
        else:
            lo, hi = float(spec.x0.min()), float(spec.x0.max())
            box = box_projector(np.full(spec.dim, lo), np.full(spec.dim, hi))
            traj = pgd_run(obj, box, spec.x0, 0.5 / obj.L, StopRule.max_steps(200))
        got = (traj.n_steps, traj.stop_reason, traj.path_sum.hex(), traj.final_point.tobytes().hex())
        assert got == self.PINNED[method]


def _stalling_gradient(first_zero_call):
    """Gradient of x on R^1 that returns exactly 0 from call ``first_zero_call`` on."""
    calls = [0]

    def gradient(x):
        calls[0] += 1
        return np.array([0.0 if calls[0] >= first_zero_call else 1.0])

    return ObjectiveSpec(dim=1, value=lambda x: float(x[0]), gradient=gradient)


class TestFlowStopOrder:
    """One order at t = 0 and after every accepted step: the rule, then a
    zero gradient (``stationary``), then the horizon, then the step limit."""

    @pytest.mark.parametrize("first_zero_call, stop, cap, expected", [
        # at t = 0 (call 1 is the field at x0): no step, one gradient call
        (1, StopRule.grad_below(1e-8), None, ("grad_below", 0, 1)),
        (1, StopRule.norm_below(2.0), None, ("norm_below", 0, 1)),
        (1, StopRule.horizon(0.0), None, ("stationary", 0, 1)),
        (1, StopRule.max_steps(0), None, ("stationary", 0, 1)),
        (math.inf, StopRule.horizon(0.0), 0, ("horizon", 0, 1)),
        # after the first accepted step (call 8 is its stage 7, the new point)
        (8, StopRule.grad_below(1e-8), None, ("grad_below", 1, 14)),  # one rejection first
        (8, StopRule.horizon(1e-6), None, ("stationary", 1, 8)),  # reported "horizon" before
        (8, StopRule.max_steps(1), None, ("stationary", 1, 14)),
        (math.inf, StopRule.horizon(1e-6), 1, ("horizon", 1, 8)),
    ])
    def test_first_test_that_holds_names_the_stop(self, monkeypatch, first_zero_call, stop, cap, expected):
        if cap is not None:
            monkeypatch.setattr("gradpath.optimizers.MAX_ODE_STEPS", cap)
        traj = gf_integrate(_stalling_gradient(first_zero_call), [1.0], 1e-3, stop)
        assert (traj.stop_reason, traj.n_steps, traj.n_feval) == expected


class TestFlowBitsPinned:
    """Integrator outputs pinned under ``repr``: the step loop's arithmetic is fixed."""

    # (arc_length, final_time, final_point, n_steps, n_rejected, n_feval,
    #  local_errors.sum(), stop_reason)
    PINNED = {
        "quadratic-d4-kappa3e3": (
            5.865385271478231, 39590.56540150654,
            [1.9206712322228352, 1.3068921799032676, -1.4366631976747057, -0.038184002331584664],
            12158, 2, 72962, 5389.7384536073405, "grad_below",
        ),
        "quadratic-d10-kappa1e3": (
            8.067324203970022, 14423.02149874675,
            [0.43365570739775333, 0.306161240421154, 1.1070800457422598, 0.3228757421755491,
             0.6228146482843302, 0.466707762348768, -0.38618675487864007, -1.7215417216243758,
             1.696509454961826, -1.422433438936351],
            4530, 1, 27188, 1998.8062006059627, "grad_below",
        ),
        "pkl-flow-d20": (
            15.927794974291457, 28.454189655948593,
            [9.638097472604428e-26, 9.638097552745718e-25, 9.638097702265822e-24,
             9.638097438182289e-23, 9.638097325377481e-22, 9.638097882135812e-21,
             9.638097423308705e-20, 9.638097545905265e-19, 9.63809771332355e-18,
             9.638097042576515e-17, 9.638097635723284e-16, 9.63809761769354e-15,
             9.63809771947658e-14, 9.638097088132808e-13, 9.638097663040692e-12,
             9.638097539424999e-11, 9.638097417582523e-10, 9.638097695962432e-09,
             9.638097136996673e-08, 9.638097311955556e-07],
            989, 255, 7466, 350.6436820648976, "norm_below",
        ),
        "quad-geom-d6-omega3-coords": (
            3.6014887386702985, 3.0824623033066256,
            [1.272737539416818e-10, 5.542883745968118e-106, 7.180101170453875e-37,
             8.948151435501774e-13, 9.636312904283058e-05, 0.045846230229289374],
            389, 3, 2354, 156.17126256158662, "coords_below_except_last",
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_run_matches_pinned_bits(self, case):
        if case == "pkl-flow-d20":
            inst = build_pkl_gf_instance(20)
            obj, x0, stop = inst.objective, inst.x0, StopRule.norm_below(1e-6)
        elif case == "quad-geom-d6-omega3-coords":
            c = build_quad_lower(6, 3.0)
            obj, x0, stop = c.to_objective(), c.x0, StopRule.coords_below_except_last(1e-4)
        else:
            d, kappa = {"quadratic-d4-kappa3e3": (4, 3e3), "quadratic-d10-kappa1e3": (10, 1e3)}[case]
            spec = _dense_quadratic(20261018, d, kappa)
            obj, x0, stop = spec.to_objective(), spec.x0, StopRule.grad_below(1e-9)
        traj = gf_integrate(obj, x0, 1e-10, stop)
        got = (
            traj.arc_length, traj.final_time, traj.final_point.tolist(), traj.n_steps,
            traj.n_rejected, traj.n_feval, float(traj.local_errors.sum()), traj.stop_reason,
        )
        assert repr(got) == repr(self.PINNED[case])

    @pytest.mark.parametrize("call", range(3, 9))
    def test_nan_in_any_stage_of_the_first_step(self, call):
        # calls 1 and 2 are the field at t = 0 and the step-size probe;
        # 3..8 are the six stages of the first step, which ends at t + h below
        with pytest.raises(NonFiniteError, match=r"near t=.*0\.002739523756969637\b"):
            gf_integrate(_failing_gradient(call, [math.nan] * 3), [1.0, -2.0, 0.5],
                         1e-10, StopRule.grad_below(1e-8))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("call", [1, 3, 8, 9])
    def test_finite_gradient_with_overflowing_stage_sum(self, call):
        # every entry is finite, but the squared norm and the stage sums
        # overflow; the run ends with the same error and time as before the
        # one-reduction finiteness check
        where = "at t=0.0" if call == 1 else (
            r"near t=.*0\.002739523756969637\b" if call < 9 else r"near t=.*0\.011528523812079647\b"
        )
        with pytest.raises(NonFiniteError, match=where):
            gf_integrate(_failing_gradient(call, [1e308, -1e308, 1e308]), [1.0, -2.0, 0.5],
                         1e-10, StopRule.grad_below(1e-8))

    def test_gradient_of_wrong_shape_rejected(self):
        obj = ObjectiveSpec(dim=3, value=lambda x: float(x @ x), gradient=lambda x: 2.0 * x[:1])
        with pytest.raises(InputError, match="shape"):
            gf_integrate(obj, [1.0, -2.0, 0.5], 1e-10, StopRule.grad_below(1e-8))


class TestFlowGradientWriter:
    """A flow writes each stage's gradient through one writer: the
    objective's ``gradient_into``, else a copy of ``gradient_at``."""

    @pytest.mark.parametrize("case", ["dense", "elementwise", "staircase"])
    def test_adapter_gives_the_same_bits(self, case):
        if case == "dense":
            spec, stop = _dense_quadratic(7, 4, 1e2), StopRule.grad_below(1e-9)
        elif case == "elementwise":
            spec, stop = build_quad_lower(6, 3.0), StopRule.coords_below_except_last(1e-4)
        else:
            spec, stop = build_pkl_gf_instance(20), StopRule.norm_below(1e-6)
        obj = spec.objective if case == "staircase" else spec.to_objective()
        assert obj.gradient_into is not None
        runs = [gf_integrate(o, spec.x0, 1e-10, stop)
                for o in (obj, dataclasses.replace(obj, gradient_into=None))]
        got = [
            (t.points.tobytes(), t.times.tobytes(), t.local_errors.tobytes(), t.arc_length, t.path_sum,
             t.n_steps, t.n_rejected, t.n_feval, t.stop_reason)
            for t in runs
        ]
        assert got[0] == got[1]
        assert runs[0].n_steps > 100

    def test_column_gradient_rejected(self):
        # a (3, 1) gradient does not fit a stage row; the adapter's check names it
        obj = ObjectiveSpec(dim=3, value=lambda x: float(x @ x), gradient=lambda x: 2.0 * x[:, None])
        with pytest.raises(InputError, match=r"^gradient returned shape \(3, 1\) at a point of shape \(3,\)$"):
            gf_integrate(obj, [1.0, -2.0, 0.5], 1e-10, StopRule.grad_below(1e-8))
