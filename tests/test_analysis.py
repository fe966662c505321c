import math

import numpy as np
import pytest

from conftest import random_convex_quadratic, scalar_objective
from gradpath import (
    InputError,
    IntervalProductSet,
    ObjectiveSpec,
    PlRatio,
    QuadraticSpec,
    SingletonSet,
    StopRule,
    Trajectory,
    build_pkl_gd_instance,
    effective_lipschitz,
    effective_pkl_mu,
    gd_run,
    linear_convergence_fit,
    path_length_discrete,
    path_length_quadratic_gf,
    self_contracted_check,
    separable_no_overshoot_check,
)

#: frozen by an independent high-precision quadrature of the two-mode
#: speed integrand with spectrum (100, 1) and unit eigen displacements
TWO_MODE_ARC = 1.9516717538510267


def discrete_traj(points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 1 and pts.shape[1] > 1 and np.ndim(points) == 1:
        pts = pts.T
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1).sum() if len(pts) > 1 else 0.0
    return Trajectory(
        kind="discrete",
        times=np.arange(len(pts)),
        points=pts,
        stop_reason="max_steps",
        n_steps=len(pts) - 1,
        path_sum=float(steps),
    )


class TestPathLengthDiscrete:
    def test_single_segment(self):
        rep = path_length_discrete(discrete_traj([[0.0, 0.0], [3.0, 4.0]]))
        assert rep.raw_length == pytest.approx(5.0)

    def test_overshoot_sum(self):
        rep = path_length_discrete(discrete_traj([8.0, -6.0, 4.5]))
        assert rep.raw_length == pytest.approx(24.5)

    def test_start_at_optimum(self):
        rep = path_length_discrete(discrete_traj([0.0]), SingletonSet(point=np.zeros(1)))
        assert rep.length == 0.0
        assert rep.tail == 0.0

    def test_tail_correction_reported_separately(self):
        rep = path_length_discrete(discrete_traj([4.0, 2.0]), SingletonSet(point=np.zeros(1)))
        assert rep.raw_length == pytest.approx(2.0)
        assert rep.tail == pytest.approx(2.0)
        assert rep.length == pytest.approx(4.0)
        assert rep.dist0 == pytest.approx(4.0)
        assert rep.ratio == pytest.approx(1.0)

    def test_path_at_least_chord(self, rng):
        for _ in range(10):
            spec = random_convex_quadratic(rng)
            obj = spec.to_objective()
            traj = gd_run(obj, spec.x0, 1.0 / obj.L, StopRule.max_steps(30))
            rep = path_length_discrete(traj, obj.optimal_set)
            chord = float(np.linalg.norm(traj.points[-1] - traj.points[0]))
            assert rep.raw_length >= chord * (1 - 1e-12)
            assert rep.ratio >= 1 - 1e-9

    def test_requires_discrete(self, rng):
        spec = random_convex_quadratic(rng)
        from gradpath import gf_integrate

        flow = gf_integrate(spec.to_objective(), spec.x0, 1e-8, StopRule.horizon(0.5))
        with pytest.raises(InputError):
            path_length_discrete(flow)


class TestPathLengthQuadraticGf:
    def test_one_mode_is_distance(self):
        # truncation leaves exactly abs_tol of tail, so the value is 5 - abs_tol
        spec = QuadraticSpec.diagonal([2.0], [5.0])
        rep = path_length_quadratic_gf(spec, abs_tol=1e-10)
        assert rep.length == pytest.approx(5.0, abs=2.5e-10)
        assert rep.length <= 5.0
        assert rep.error_budget <= 2e-10

    def test_isotropic_straight_line(self):
        spec = QuadraticSpec.diagonal([1.0, 1.0], [1.0, 1.0])
        rep = path_length_quadratic_gf(spec, abs_tol=1e-12)
        assert rep.length == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_two_mode_frozen_value(self):
        spec = QuadraticSpec.diagonal([100.0, 1.0], [1.0, 1.0])
        rep = path_length_quadratic_gf(spec, abs_tol=1e-12)
        assert math.sqrt(2.0) < rep.length <= 2.0
        assert rep.length == pytest.approx(TWO_MODE_ARC, abs=2e-12)

    def test_bracketed_by_norms(self, rng):
        for _ in range(10):
            spec = random_convex_quadratic(rng)
            rep = path_length_quadratic_gf(spec, abs_tol=1e-10)
            lo = float(np.linalg.norm(spec.alpha))
            hi = float(np.abs(spec.alpha).sum())
            assert lo - 1e-8 <= rep.length <= hi + 1e-8

    def test_zero_displacement(self):
        spec = QuadraticSpec.diagonal([1.0, 3.0], [0.0, 0.0])
        rep = path_length_quadratic_gf(spec)
        assert rep.length == 0.0

    def test_bad_tolerance(self):
        spec = QuadraticSpec.diagonal([1.0], [1.0])
        with pytest.raises(InputError):
            path_length_quadratic_gf(spec, abs_tol=0.0)


class TestSelfContracted:
    def test_monotone_scalar_holds(self):
        verdict = self_contracted_check([[1.0], [0.5], [0.25]])
        assert verdict.holds
        assert verdict.slack > 0

    def test_overshoot_witness(self):
        verdict = self_contracted_check([[8.0], [-6.0], [4.5]])
        assert not verdict.holds
        assert verdict.witness == (0, 1, 2)
        assert verdict.dist_mid == 10.5
        assert verdict.dist_far == 3.5

    def test_short_sequences_trivially_hold(self):
        assert self_contracted_check([[1.0], [5.0]]).holds
        assert self_contracted_check([[1.0, 2.0]]).holds

    def test_gd_small_step_always_holds(self, rng):
        for _ in range(20):
            spec = random_convex_quadratic(rng)
            obj = spec.to_objective()
            traj = gd_run(obj, spec.x0, 1.0 / obj.L, StopRule.max_steps(40))
            assert self_contracted_check(traj.points).holds

    def test_refuses_oversized_input(self, rng):
        pts = rng.standard_normal((2001, 2))
        with pytest.raises(InputError, match="2000"):
            self_contracted_check(pts)

    def test_tolerance_absorbs_rounding(self):
        base = np.array([[1.0, 0.0], [0.4, 0.0], [0.0, 0.3]])
        verdict = self_contracted_check(base)
        assert verdict.holds
        # nudging the middle point slightly outside still holds within tol
        nudged = base.copy()
        nudged[1, 0] += 1e-14
        assert self_contracted_check(nudged).holds


class TestEffectiveConstants:
    def test_constant_ratio_one_mode(self):
        sigma = 3.0
        obj = scalar_objective(lambda x: 0.5 * sigma * x * x, lambda x: sigma * x)
        obj = ObjectiveSpec(dim=1, value=obj.value, gradient=obj.gradient, f_star=0.0)
        traj = discrete_traj([2.0, 1.0, 0.25])
        assert effective_pkl_mu(traj, obj, "min") == pytest.approx(sigma, rel=1e-12)
        assert effective_pkl_mu(traj, obj, "paper_max") == pytest.approx(sigma, rel=1e-12)

    def test_two_point_modes_disagree(self):
        obj = ObjectiveSpec(
            dim=2,
            value=lambda x: 0.5 * float(4 * x[0] ** 2 + x[1] ** 2),
            gradient=lambda x: np.array([4.0 * x[0], x[1]]),
            f_star=0.0,
        )
        traj = discrete_traj([[1.0, 0.0], [0.0, 1.0]])
        assert effective_pkl_mu(traj, obj, "min") == pytest.approx(1.0, rel=1e-12)
        assert effective_pkl_mu(traj, obj, "paper_max") == pytest.approx(4.0, rel=1e-12)

    def test_mu_requires_off_optimum_iterates(self):
        obj = ObjectiveSpec(
            dim=1, value=lambda x: float(x[0] ** 2), gradient=lambda x: 2 * x, f_star=0.0
        )
        with pytest.raises(InputError, match="undefined"):
            effective_pkl_mu(discrete_traj([0.0, 0.0]), obj)

    def test_unknown_mode_rejected(self):
        obj = ObjectiveSpec(
            dim=1, value=lambda x: float(x[0] ** 2), gradient=lambda x: 2 * x, f_star=0.0
        )
        with pytest.raises(InputError):
            effective_pkl_mu(discrete_traj([1.0]), obj, mode="median")

    def test_lipschitz_constant_one_mode(self):
        sigma = 3.0
        obj = ObjectiveSpec(
            dim=1,
            value=lambda x: 0.5 * sigma * float(x[0] ** 2),
            gradient=lambda x: sigma * np.asarray(x, dtype=float),
        )
        assert effective_lipschitz(discrete_traj([2.0, 0.5]), obj) == pytest.approx(sigma)

    def test_lipschitz_two_dim_hand_value(self):
        obj = ObjectiveSpec(
            dim=2,
            value=lambda x: 0.5 * float(4 * x[0] ** 2 + x[1] ** 2),
            gradient=lambda x: np.array([4.0 * x[0], x[1]]),
        )
        got = effective_lipschitz(discrete_traj([[1.0, 1.0], [0.0, 0.0]]), obj)
        assert got == pytest.approx(math.sqrt(17.0) / math.sqrt(2.0), rel=1e-12)

    def test_lipschitz_below_declared(self, rng):
        spec = random_convex_quadratic(rng)
        obj = spec.to_objective()
        traj = gd_run(obj, spec.x0, 0.5 / obj.L, StopRule.max_steps(30))
        assert effective_lipschitz(traj, obj) <= obj.L * (1 + 1e-9)

    def test_lipschitz_needs_moving_pair(self):
        obj = ObjectiveSpec(dim=1, value=lambda x: 0.0, gradient=lambda x: np.zeros(1))
        with pytest.raises(InputError):
            effective_lipschitz(discrete_traj([1.0, 1.0]), obj)


class TestLinearConvergenceFit:
    def test_exact_geometric(self):
        a, c = linear_convergence_fit(
            discrete_traj([1.0, 0.5, 0.25]), SingletonSet(point=np.zeros(1))
        )
        assert (a, c) == (1.0, 0.5)

    def test_single_step_to_optimum(self):
        a, c = linear_convergence_fit(
            discrete_traj([1.0, 0.0]), SingletonSet(point=np.zeros(1))
        )
        assert (a, c) == (1.0, 1.0)

    def test_uneven_decay(self):
        a, c = linear_convergence_fit(
            discrete_traj([1.0, 0.9, 0.45]), SingletonSet(point=np.zeros(1))
        )
        assert c == pytest.approx(0.1, rel=1e-12)
        assert a == pytest.approx(1.0, abs=1e-12)

    def test_envelope_certified_on_gd(self, rng):
        spec = random_convex_quadratic(rng)
        obj = spec.to_objective()
        traj = gd_run(obj, spec.x0, 1.0 / obj.L, StopRule.max_steps(60))
        a, c = linear_convergence_fit(traj, obj.optimal_set)
        assert a >= 1.0 and 0 < c <= 1.0
        envelope = obj.optimal_set.distance(traj.points[0])
        for k in range(1, len(traj.points)):
            envelope *= 1 - c
            assert obj.optimal_set.distance(traj.points[k]) <= a * envelope * (1 + 1e-9) + 1e-250

    def test_non_monotone_rejected(self):
        with pytest.raises(InputError, match="envelope"):
            linear_convergence_fit(
                discrete_traj([1.0, 1.2, 0.5]), SingletonSet(point=np.zeros(1))
            )


class TestNoOvershoot:
    def test_gd_on_separable_quadratic(self, rng):
        sigma = np.sort(rng.uniform(0.5, 4.0, 4))[::-1]
        spec = QuadraticSpec.diagonal(sigma, rng.standard_normal(4))
        obj = spec.to_objective()
        traj = gd_run(obj, spec.x0, 1.0 / obj.L, StopRule.max_steps(50))
        intervals = IntervalProductSet(lo=np.zeros(4), hi=np.zeros(4))
        assert separable_no_overshoot_check(traj, intervals)

    def test_overshooting_counterexample(self):
        traj = discrete_traj([8.0, -6.0, 4.5])
        intervals = IntervalProductSet(lo=np.zeros(1), hi=np.zeros(1))
        assert not separable_no_overshoot_check(traj, intervals)

    def test_constant_at_optimum(self):
        traj = discrete_traj([0.0, 0.0, 0.0])
        intervals = IntervalProductSet(lo=np.zeros(1), hi=np.zeros(1))
        assert separable_no_overshoot_check(traj, intervals)

    def test_requires_interval_set(self):
        traj = discrete_traj([1.0, 0.5])
        with pytest.raises(InputError):
            separable_no_overshoot_check(traj, SingletonSet(point=np.zeros(1)))


class TestPlRatio:
    @pytest.mark.parametrize("d", [6, 148])
    def test_streamed_equals_stored(self, d):
        inst = build_pkl_gd_instance(d)
        stop = StopRule.norm_below(1e-6)
        pl = PlRatio(inst.objective)
        streamed = gd_run(inst.objective, inst.x0, inst.eta, stop, keep_iterates=False, observe=pl)
        stored = gd_run(inst.objective, inst.x0, inst.eta, stop)
        assert streamed.n_steps == stored.n_steps
        assert pl.count == len(stored.points)
        for mode in ("min", "paper_max"):
            assert pl.aggregate(mode) == effective_pkl_mu(stored, inst.objective, mode)

    def test_skips_points_at_the_optimum(self):
        obj = ObjectiveSpec(
            dim=1, value=lambda x: float(x[0] ** 2), gradient=lambda x: 2 * x, f_star=0.0
        )
        pl = PlRatio(obj)
        pl(np.zeros(1), np.zeros(1))
        with pytest.raises(InputError, match="undefined"):
            pl.aggregate("min")
        pl(np.ones(1), 2 * np.ones(1))
        assert (pl.count, pl.aggregate("min"), pl.aggregate("paper_max")) == (1, 2.0, 2.0)
        with pytest.raises(InputError, match="mode"):
            pl.aggregate("median")

    def test_requires_declared_minimum(self):
        obj = ObjectiveSpec(dim=1, value=lambda x: float(x[0] ** 2), gradient=lambda x: 2 * x)
        with pytest.raises(InputError, match="minimum value"):
            PlRatio(obj)


#: Analyses that need every iterate, called on the PL instance's objective.
FULL_RECORD_ANALYSES = {
    "effective_pkl_mu": lambda traj, obj: effective_pkl_mu(traj, obj),
    "effective_lipschitz": lambda traj, obj: effective_lipschitz(traj, obj),
    "linear_convergence_fit": lambda traj, obj: linear_convergence_fit(traj, obj.optimal_set),
    "separable_no_overshoot_check": lambda traj, obj: separable_no_overshoot_check(traj, obj.optimal_set),
}


@pytest.mark.parametrize("name", sorted(FULL_RECORD_ANALYSES))
def test_thinned_trajectory_refused(name):
    # an endpoints-only record would take a min over a subset (overstating
    # mu) or read a multi-step gap as one step; the analyses refuse it instead
    inst = build_pkl_gd_instance(6)
    analysis = FULL_RECORD_ANALYSES[name]
    stop = StopRule.max_steps(12)
    analysis(gd_run(inst.objective, inst.x0, inst.eta, stop), inst.objective)
    ends = gd_run(inst.objective, inst.x0, inst.eta, stop, keep_iterates=False)
    with pytest.raises(InputError, match="every iterate"):
        analysis(ends, inst.objective)


@pytest.mark.parametrize("steps", [0, 1])
@pytest.mark.parametrize("name", sorted(FULL_RECORD_ANALYSES))
def test_short_endpoints_record_accepted(name, steps):
    # with at most one step, x_0 and x_N are every iterate, so an
    # endpoints-only record gives the full record's result (or its error)
    inst = build_pkl_gd_instance(6)
    analysis = FULL_RECORD_ANALYSES[name]

    def outcome(keep):
        traj = gd_run(inst.objective, inst.x0, inst.eta, StopRule.max_steps(steps), keep_iterates=keep)
        assert len(traj.points) == steps + 1
        try:
            return analysis(traj, inst.objective)
        except InputError as exc:
            return str(exc)

    assert outcome(False) == outcome(True)
