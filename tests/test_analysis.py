import ast
import dataclasses
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gradpath.analysis

from conftest import random_convex_quadratic, run_observed, scalar_objective
from gradpath import (
    DistanceEnvelope,
    InputError,
    IntervalProductSet,
    NoOvershoot,
    ObjectiveSpec,
    PlRatio,
    QuadraticSpec,
    SingletonSet,
    StopRule,
    Trajectory,
    bound_linconv_gd,
    bound_quadratic,
    build_pkl_gd_instance,
    build_quad_lower,
    construction_linconv_constants,
    effective_pkl_mu,
    gd_run,
    lower_bound_linconv,
    lower_bound_quadratic,
    path_length_discrete,
    path_length_quadratic_gf,
    self_contracted_check,
)
from gradpath.harness import SANDWICH_SLACK
from gradpath.quadrature import adaptive_quadrature

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_tolerance(self, bad):
        spec = QuadraticSpec.diagonal([1.0], [1.0])
        with pytest.raises(InputError, match="abs_tol"):
            path_length_quadratic_gf(spec, abs_tol=bad)

    @pytest.mark.parametrize("j", [-40, 7, 100])
    @pytest.mark.parametrize("make", [
        lambda rng: build_quad_lower(20, 2.0),
        lambda rng: build_quad_lower(6, 11.0),
        random_convex_quadratic,
    ], ids=["quad-lower-20-2", "quad-lower-6-11", "dense"])
    def test_spectrum_scaled_by_a_power_of_two(self, make, j, rng):
        # sigma -> 2^j sigma stretches time by 2^-j and keeps the length;
        # the report keeps every bit
        spec = make(rng)
        scaled = dataclasses.replace(spec, sigma=np.ldexp(spec.sigma, j))
        assert repr(path_length_quadratic_gf(scaled, 1e-10)) == repr(path_length_quadratic_gf(spec, 1e-10))

    @pytest.mark.filterwarnings("error")
    def test_spectrum_above_two_to_the_512(self):
        # sigma_max = 11^149 > 2^515, so sigma^2 alpha^2 overflows unless scaled
        spec = build_quad_lower(150, 11.0)
        rep = path_length_quadratic_gf(spec)
        assert math.isfinite(rep.length) and rep.error_budget <= 2e-12
        assert lower_bound_quadratic(150, spec.kappa) <= rep.ratio <= bound_quadratic(spec.sigma)


class TestAdaptiveQuadrature:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance(self, bad):
        with pytest.raises(InputError, match="abs_tol"):
            adaptive_quadrature(np.exp, 0.0, 1.0, bad)

    @pytest.mark.parametrize("a, b, name", [
        (math.nan, 1.0, "a"), (0.0, math.nan, "b"), (-math.inf, 1.0, "a"), (0.0, math.inf, "b"),
    ])
    def test_non_finite_endpoint(self, a, b, name):
        with pytest.raises(InputError, match=f"^{name}"):
            adaptive_quadrature(np.exp, a, b, 1e-10)


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
            _, points = run_observed(gd_run, obj, spec.x0, 1.0 / obj.L, StopRule.max_steps(40))
            assert self_contracted_check(points).holds

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

    @pytest.mark.parametrize("tol", [-5.0, -1e-300, math.nan])
    def test_negative_or_nan_tolerance_rejected(self, tol):
        # tol = -5 used to report the straight line 0, 1, 2 as not self-contracted
        with pytest.raises(InputError, match="tol must be finite" if math.isnan(tol) else "tol must be nonnegative"):
            self_contracted_check([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], tol=tol)
        assert self_contracted_check([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], tol=0.0).holds


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


def replay(observer, points):
    """Feed an observer each point of a sequence; the distance and
    overshoot observers read only x, so f and g are placeholders."""
    for point in np.asarray(points, dtype=float).reshape(len(points), -1):
        observer(point, math.nan, None)
    return observer


def envelope_fit(points):
    return replay(DistanceEnvelope(SingletonSet(point=np.zeros(1))), points).fit()


def no_overshoot(points, optimal_set):
    return replay(NoOvershoot(optimal_set), points).holds


def full_record(traj, points):
    """``traj`` with every observed iterate as its record, for ``effective_pkl_mu``."""
    return dataclasses.replace(traj, points=points, times=np.arange(len(points)))


class TestLinearConvergenceFit:
    def test_exact_geometric(self):
        assert envelope_fit([1.0, 0.5, 0.25]) == (1.0, 0.5)

    def test_single_step_to_optimum(self):
        assert envelope_fit([1.0, 0.0]) == (1.0, 1.0)

    def test_uneven_decay(self):
        a, c = envelope_fit([1.0, 0.9, 0.45])
        assert c == pytest.approx(0.1, rel=1e-12)
        assert a == pytest.approx(1.0, abs=1e-12)

    def test_envelope_certified_on_gd(self, rng):
        spec = random_convex_quadratic(rng)
        obj = spec.to_objective()
        _, points = run_observed(gd_run, obj, spec.x0, 1.0 / obj.L, StopRule.max_steps(60))
        a, c = replay(DistanceEnvelope(obj.optimal_set), points).fit()
        assert a >= 1.0 and 0 < c <= 1.0
        envelope = obj.optimal_set.distance(points[0])
        for k in range(1, len(points)):
            envelope *= 1 - c
            assert obj.optimal_set.distance(points[k]) <= a * envelope * (1 + 1e-9) + 1e-250

    def test_non_monotone_rejected(self):
        with pytest.raises(InputError, match="envelope"):
            envelope_fit([1.0, 1.2, 0.5])

    def test_start_on_optimal_set_then_leave_rejected(self):
        # dist_0 = 0 has no contraction ratio; a run that then leaves the
        # set used to get the unverified envelope (1, 1)
        obj = ObjectiveSpec(
            dim=1, value=lambda x: float(x[0] ** 2 + x[0]), gradient=lambda x: 2 * x + 1,
            optimal_set=SingletonSet(point=np.zeros(1)),
        )
        dists = DistanceEnvelope(obj.optimal_set)
        gd_run(obj, [0.0], 0.1, StopRule.max_steps(5), observe=dists)
        assert dists.dists[:3] == pytest.approx([0.0, 0.1, 0.18])
        with pytest.raises(InputError, match="no linear envelope"):
            dists.fit()
        with pytest.raises(InputError, match="no linear envelope"):
            envelope_fit([0.0, 1.0, 0.5])
        assert envelope_fit([0.0, 0.0, 0.0]) == (1.0, 1.0)


class TestNoOvershoot:
    def test_gd_on_separable_quadratic(self, rng):
        sigma = np.sort(rng.uniform(0.5, 4.0, 4))[::-1]
        spec = QuadraticSpec.diagonal(sigma, rng.standard_normal(4))
        obj = spec.to_objective()
        _, points = run_observed(gd_run, obj, spec.x0, 1.0 / obj.L, StopRule.max_steps(50))
        intervals = IntervalProductSet(lo=np.zeros(4), hi=np.zeros(4))
        assert no_overshoot(points, intervals)

    def test_overshooting_counterexample(self):
        intervals = IntervalProductSet(lo=np.zeros(1), hi=np.zeros(1))
        assert not no_overshoot([8.0, -6.0, 4.5], intervals)

    def test_constant_at_optimum(self):
        intervals = IntervalProductSet(lo=np.zeros(1), hi=np.zeros(1))
        assert no_overshoot([0.0, 0.0, 0.0], intervals)

    def test_requires_interval_set(self):
        with pytest.raises(InputError):
            no_overshoot([1.0, 0.5], SingletonSet(point=np.zeros(1)))


class TestPlRatio:
    @pytest.mark.parametrize("d", [6, 148])
    def test_streamed_equals_stored(self, d):
        inst = build_pkl_gd_instance(d)
        stop = StopRule.norm_below(1e-6)
        pl = PlRatio(inst.objective)
        streamed = gd_run(inst.objective, inst.x0, inst.eta, stop, observe=pl)
        stored = full_record(*run_observed(gd_run, inst.objective, inst.x0, inst.eta, stop))
        assert streamed.n_steps == stored.n_steps
        assert pl.count == len(stored.points)
        for mode in ("min", "paper_max"):
            assert pl.aggregate(mode) == effective_pkl_mu(stored, inst.objective, mode)

    def test_skips_points_at_the_optimum(self):
        obj = ObjectiveSpec(
            dim=1, value=lambda x: float(x[0] ** 2), gradient=lambda x: 2 * x, f_star=0.0
        )
        pl = PlRatio(obj)
        pl(np.zeros(1), 0.0, np.zeros(1))
        with pytest.raises(InputError, match="undefined"):
            pl.aggregate("min")
        pl(np.ones(1), 1.0, 2 * np.ones(1))
        assert (pl.count, pl.aggregate("min"), pl.aggregate("paper_max")) == (1, 2.0, 2.0)
        with pytest.raises(InputError, match="mode"):
            pl.aggregate("median")

    def test_nan_ratio_leaves_the_extremes(self):
        # inf / inf: the running min and max keep what min() and max() keep
        obj = ObjectiveSpec(dim=1, value=lambda x: float(x[0] ** 2), gradient=lambda x: 2 * x, f_star=0.0)
        pl = PlRatio(obj)
        pl(np.ones(1), math.inf, np.full(1, math.inf))
        assert (pl.lo, pl.hi) == (math.inf, -math.inf)
        pl(np.ones(1), 1.0, 2 * np.ones(1))
        pl(np.ones(1), math.inf, np.full(1, math.inf))
        assert (pl.count, pl.lo, pl.hi) == (3, 2.0, 2.0)

    def test_requires_declared_minimum(self):
        obj = ObjectiveSpec(dim=1, value=lambda x: float(x[0] ** 2), gradient=lambda x: 2 * x)
        with pytest.raises(InputError, match="minimum value"):
            PlRatio(obj)


@pytest.fixture(scope="module", params=[8, 148, 2000])
def pkl_row(request):
    """A streamed pkl-lower-gd run with three observers combined by a lambda."""
    inst = build_pkl_gd_instance(request.param)
    opt = inst.objective.optimal_set
    pl, no, dists = PlRatio(inst.objective), NoOvershoot(opt), DistanceEnvelope(opt)
    traj = gd_run(
        inst.objective, inst.x0, inst.eta, StopRule.norm_below(1e-6),
        observe=lambda x, f, g: (pl(x, f, g), no(x, f, g), dists(x, f, g)),
    )
    assert len(dists.dists) == traj.n_steps + 1
    return SimpleNamespace(
        d=request.param, inst=inst, traj=traj, report=path_length_discrete(traj, opt),
        pl=pl, no=no, dists=dists,
    )


class TestPklRows:
    def test_effective_mu_above_declared(self, pkl_row):
        assert pkl_row.pl.aggregate("min") >= pkl_row.inst.objective.mu * (1 - SANDWICH_SLACK)

    def test_result_e_separable_no_overshoot(self, pkl_row):
        # without overshoot each coordinate moves monotonically to its
        # interval, so the path is at most the l1 distance it covers
        assert pkl_row.no.holds
        x0, xn = pkl_row.traj.points[0], pkl_row.traj.points[-1]
        rep = pkl_row.report
        chord_l1 = float(np.abs(x0 - xn).sum())
        dist0_l1 = float(np.abs(x0 - pkl_row.inst.objective.optimal_set.project(x0)).sum())
        assert rep.raw_length <= chord_l1 * (1 + SANDWICH_SLACK)
        assert rep.length <= dist0_l1 * (1 + SANDWICH_SLACK)
        assert dist0_l1 <= math.sqrt(pkl_row.d) * rep.dist0 * (1 + SANDWICH_SLACK)

    def test_result_a_linear_envelope(self, pkl_row):
        a_fit, c_fit = pkl_row.dists.fit()
        _, c_cert = construction_linconv_constants(pkl_row.d, "gd")
        assert c_fit >= c_cert
        inst, ratio = pkl_row.inst, pkl_row.report.ratio
        assert ratio <= bound_linconv_gd(a_fit, c_fit, inst.eta, inst.objective.L) * (1 + SANDWICH_SLACK)
        assert ratio >= lower_bound_linconv(c_cert, "gd") * (1 - SANDWICH_SLACK)


#: The one analysis that still reads a record's stored iterates.
FULL_RECORD_ANALYSES = {"effective_pkl_mu": effective_pkl_mu}


@pytest.mark.parametrize("name", sorted(FULL_RECORD_ANALYSES))
def test_thinned_trajectory_refused(name):
    # an endpoints-only record would take a min over a subset (overstating
    # mu); the analysis refuses it instead
    inst = build_pkl_gd_instance(6)
    analysis = FULL_RECORD_ANALYSES[name]
    stop = StopRule.max_steps(12)
    analysis(full_record(*run_observed(gd_run, inst.objective, inst.x0, inst.eta, stop)), inst.objective)
    ends = gd_run(inst.objective, inst.x0, inst.eta, stop)
    with pytest.raises(InputError, match="^this analysis needs every iterate; the record holds 2 of 13$"):
        analysis(ends, inst.objective)


@pytest.mark.parametrize("steps", [0, 1])
@pytest.mark.parametrize("name", sorted(FULL_RECORD_ANALYSES))
def test_short_endpoints_record_accepted(name, steps):
    # with at most one step, x_0 and x_N are every iterate, so an
    # endpoints-only record gives the full record's result (or its error)
    inst = build_pkl_gd_instance(6)
    analysis = FULL_RECORD_ANALYSES[name]

    def outcome(observed):
        stop = StopRule.max_steps(steps)
        if observed:
            traj = full_record(*run_observed(gd_run, inst.objective, inst.x0, inst.eta, stop))
        else:
            traj = gd_run(inst.objective, inst.x0, inst.eta, stop)
        assert len(traj.points) == steps + 1
        try:
            return analysis(traj, inst.objective)
        except InputError as exc:
            return str(exc)

    assert outcome(False) == outcome(True)


def _verdict(observer):
    try:
        return observer.holds if isinstance(observer, NoOvershoot) else observer.fit()
    except InputError as exc:
        return str(exc)


@pytest.mark.parametrize("steps", [0, 1, 12])
@pytest.mark.parametrize("observer", [NoOvershoot, DistanceEnvelope], ids=lambda cls: cls.__name__)
def test_streamed_equals_replay(observer, steps):
    # an observer sees every iterate inside the loop, so it gives the
    # verdict, the pair or the error text of a replay over the iterates
    inst = build_pkl_gd_instance(6)
    stop = StopRule.max_steps(steps)
    streamed = observer(inst.objective.optimal_set)
    gd_run(inst.objective, inst.x0, inst.eta, stop, observe=streamed)
    _, points = run_observed(gd_run, inst.objective, inst.x0, inst.eta, stop)
    assert len(points) == steps + 1
    assert _verdict(streamed) == _verdict(replay(observer(inst.objective.optimal_set), points))


def test_analyses_read_only_trajectory_endpoints():
    # a trajectory analysis is an observer; only effective_pkl_mu (and
    # self_contracted_check, which takes points, not a trajectory) may
    # read more of a record than x_0, x_N and its length
    tree = ast.parse(Path(gradpath.analysis.__file__).read_text())
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def endpoint_read(node):
        up = parent[node]
        if isinstance(up, ast.Subscript) and up.value is node:
            return ast.unparse(up.slice) in ("0", "-1")
        return isinstance(up, ast.Call) and ast.unparse(up.func) == "len" and up.args == [node]

    offenders = [
        f"{fn.name}:{node.lineno}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name != "effective_pkl_mu"
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr == "points" and not endpoint_read(node)
    ]
    assert offenders == []
