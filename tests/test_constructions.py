import contextlib
import math

import numpy as np
import pytest

from conftest import dense_reference
from gradpath import (
    InputError,
    PklConstruction,
    StopRule,
    build_pkl_gd_instance,
    build_pkl_gf_instance,
    build_quad_lower,
    build_quad_random,
    check_gradient,
    construction_linconv_constants,
    gd_run,
    gd_step,
    gf_integrate,
)
from gradpath.constructions import QUAD_GD_DELTA


class TestPklConstruction:
    def test_parameters_for_six(self):
        kind = PklConstruction.build(6)
        assert kind.delta == pytest.approx(1 / 6)
        assert kind.gamma == pytest.approx(5 / 6 + 6 * math.log(3.0), rel=1e-12)
        assert kind.quad_coeff == pytest.approx(kind.delta / kind.gamma, rel=1e-15)
        assert kind.mu == pytest.approx(2.0 / 108.0, rel=1e-15)
        assert kind.L == 2.0

    def test_quadratic_cap_value(self):
        kind = PklConstruction.build(6)
        assert float(kind.g(0.5)) == pytest.approx(0.25, abs=1e-15)
        just_above = float(np.nextafter(0.5, math.inf))
        assert float(kind.g(just_above)) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("d", [6, 20, 100, 1000])
    def test_branch_continuity(self, d):
        kind = PklConstruction.build(d)
        for b in kind.breakpoints:
            right = float(np.nextafter(b, math.inf))
            assert abs(float(kind.g(b)) - float(kind.g(right))) <= 1e-12
            assert abs(float(kind.g_deriv(b)) - float(kind.g_deriv(right))) <= 1e-12

    @pytest.mark.parametrize("d", [6, 20, 100, 1000])
    def test_grid_pl_ratio(self, d):
        kind = PklConstruction.build(d)
        xs = np.linspace(1e-9, kind.gamma, 5001)
        ratios = kind.g_deriv(xs) ** 2 / (2.0 * kind.g(xs))
        assert ratios.min() >= kind.mu * (1 - 1e-9)

    def test_tail_keeps_pl_beyond_gamma(self):
        kind = PklConstruction.build(8)
        xs = np.linspace(kind.gamma, 10 * kind.gamma, 500)
        ratios = kind.g_deriv(xs) ** 2 / (2.0 * kind.g(xs))
        assert ratios.min() >= kind.mu * (1 - 1e-9)

    def test_objective_gradient_consistent(self, rng):
        obj = PklConstruction.build(6).to_objective("pl-test")
        pts = [rng.uniform(0.03, 0.45, 6) for _ in range(10)]
        pts += [rng.uniform(0.55, 0.8, 6) for _ in range(5)]
        check_gradient(obj, pts, rel_tol=1e-5)

    def test_small_dimension_rejected(self):
        with pytest.raises(InputError, match=">= 6"):
            PklConstruction.build(5)


def _select_g(kind, x):
    """g as a 4-way np.select over the unchanged piece formulas (reference)."""
    x = np.asarray(x, dtype=float)
    return np.select(
        [x <= 0.0, x <= 0.5, x <= 1.0 - kind.delta, x <= kind.gamma],
        [0.0,
         x**2,
         0.5 - (1.0 - x) ** 2,
         (0.5 - kind.delta**2) + 2.0 * kind.delta * (x - (1.0 - kind.delta))],
        default=kind.quad_offset + kind.quad_coeff * x**2,
    )


def _select_g_deriv(kind, x):
    x = np.asarray(x, dtype=float)
    return np.select(
        [x <= 0.0, x <= 0.5, x <= 1.0 - kind.delta, x <= kind.gamma],
        [0.0, 2.0 * x, 2.0 * (1.0 - x), 2.0 * kind.delta],
        default=2.0 * kind.quad_coeff * x,
    )


@contextlib.contextmanager
def _recorded_selection(monkeypatch):
    """Lists of the stable sorts taken and of the arrays ``_write`` gets,
    filled while the context is open."""
    sorts, writes = [], []
    argsort, write = np.argsort, PklConstruction._write

    def counted_argsort(*args, **kwargs):
        sorts.append(1)
        return argsort(*args, **kwargs)

    def recorded_write(kind, xs, value, deriv):
        writes.append(xs)
        return write(kind, xs, value, deriv)

    with monkeypatch.context() as m:
        m.setattr(np, "argsort", counted_argsort)
        m.setattr(PklConstruction, "_write", recorded_write)
        yield sorts, writes


class TestPklIntervalLookup:
    """g and g' select each piece once, as index runs of an ascending vector;
    any other input is written in one stable sort order.  Their bits must
    equal the select's."""

    @staticmethod
    def _assert_same_bits(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @staticmethod
    def _selection(monkeypatch, kind, xs):
        """(stable sorts, [whether ``_write`` got ``xs`` itself, per call]) of
        one ``g_and_deriv(xs)``."""
        with _recorded_selection(monkeypatch) as (sorts, writes):
            kind.g_and_deriv(xs)
        return len(sorts), [ys is xs for ys in writes]

    def _assert_matches_select(self, kind, xs):
        value, deriv = kind.g_and_deriv(xs)
        self._assert_same_bits(value, _select_g(kind, xs))
        self._assert_same_bits(deriv, _select_g_deriv(kind, xs))
        self._assert_same_bits(kind.g(xs), value)
        self._assert_same_bits(kind.g_deriv(xs), deriv)

    @staticmethod
    def _edge_values(kind):
        xs = [0.0, -0.0, math.inf, -math.inf, -1.0, 1e300]
        for b in kind.breakpoints:
            xs += [b, float(np.nextafter(b, -math.inf)), float(np.nextafter(b, math.inf))]
        return np.array(xs)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("d", [6, 148, 2000])
    def test_edges_and_special_values(self, d):
        kind = PklConstruction.build(d)
        self._assert_matches_select(kind, np.append(self._edge_values(kind), math.nan))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("d", [6, 148, 2000])
    def test_sorted_edges_and_special_values(self, d, monkeypatch):
        kind = PklConstruction.build(d)
        xs = np.sort(self._edge_values(kind))
        assert self._selection(monkeypatch, kind, xs) == (0, [True])
        self._assert_matches_select(kind, xs)

    @pytest.mark.parametrize("d", [6, 148, 2000])
    def test_seeded_uniforms(self, d):
        kind = PklConstruction.build(d)
        xs = np.random.default_rng(d).uniform(-1.0, 40.0, 10**5)
        self._assert_matches_select(kind, xs)
        # batches of points (value sums over the last axis) see the same bits
        self._assert_matches_select(kind, xs.reshape(100, -1))

    @pytest.mark.parametrize("d", [6, 148, 2000])
    def test_sorted_seeded_uniforms(self, d, monkeypatch):
        kind = PklConstruction.build(d)
        xs = np.sort(np.random.default_rng(d).uniform(-1.0, 40.0, 10**5))
        assert self._selection(monkeypatch, kind, xs) == (0, [True])
        self._assert_matches_select(kind, xs)

    @pytest.mark.parametrize("case", ["unsorted", "nan", "batched"])
    def test_near_sorted_input_takes_one_permutation(self, case, monkeypatch):
        # one swap, a trailing NaN, or a second axis sends an otherwise
        # ascending input through one stable sort, with the same bits
        kind = PklConstruction.build(148)
        xs = np.sort(np.random.default_rng(1).uniform(-1.0, 40.0, 1000))
        if case == "unsorted":
            xs[[400, 600]] = xs[[600, 400]]
        elif case == "nan":
            xs[-1] = math.nan
        else:
            xs = xs.reshape(10, -1)
        assert self._selection(monkeypatch, kind, xs) == (1, [False])
        self._assert_matches_select(kind, xs)

    def test_zero_dimensional_input(self):
        kind = PklConstruction.build(6)
        for x in (-0.5, 0.3, 0.7, 1.0, 5.0, 20.0, math.nan):
            self._assert_matches_select(kind, np.asarray(x))
            assert float(kind.g(x)) == float(kind.g(np.asarray(x))) or math.isnan(x)

    @pytest.mark.parametrize("order", ["sorted", "shuffled"])
    def test_fresh_outputs(self, order):
        # nothing is cached: each call returns arrays of its own
        kind = PklConstruction.build(148)
        x = build_pkl_gd_instance(148).x0
        if order == "shuffled":
            x = np.random.default_rng(3).permutation(x)
        first, second = kind.g_and_deriv(x), kind.g_and_deriv(x)
        arrays = [*first, *second]
        assert all(a.flags.owndata for a in arrays)
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:] + [x])
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))

    def test_descent_iterates_stay_sorted(self):
        # every iterate of the staircase descent takes the index-run path,
        # and the fused evaluation hands over value_at's and gradient_at's bits
        inst = build_pkl_gd_instance(148)
        obj, seen = inst.objective, []

        def observe(x, f, g):
            assert (x[:-1] <= x[1:]).all()
            assert f.hex() == obj.value_at(x).hex()
            assert np.array_equal(g, obj.gradient_at(x))
            seen.append(x.size)

        traj = gd_run(obj, inst.x0, inst.eta, StopRule.norm_below(1e-6), observe=observe)
        assert traj.n_steps == 1036
        assert len(seen) == traj.n_steps + 1

    def test_one_piece_selection_per_observed_iterate(self, monkeypatch):
        # the loop takes f and g for its observer from one evaluation, so
        # the pieces of each iterate are selected once, not once for g and
        # once more for g', and no iterate needs a sort
        inst = build_pkl_gd_instance(148)
        with _recorded_selection(monkeypatch) as (sorts, writes):
            traj = gd_run(inst.objective, inst.x0, inst.eta, StopRule.norm_below(1e-6),
                          observe=lambda x, f, g: None)
        assert len(writes) == traj.n_steps + 1 == 1037
        assert not sorts


class TestFlowInstance:
    def test_staggered_start_for_six(self):
        inst = build_pkl_gf_instance(6)
        x0 = inst.x0
        assert x0[0] == pytest.approx(0.5)
        assert x0[1] == pytest.approx(5 / 6, rel=1e-14)
        assert x0[2] == pytest.approx(5 / 6 + math.log(3.0) / 6, rel=1e-12)
        assert x0[3] == pytest.approx(5 / 6 + 2 * math.log(3.0) / 6, rel=1e-12)
        assert np.all(x0 < inst.construction.gamma)

    def test_metadata(self):
        inst = build_pkl_gf_instance(6)
        obj = inst.objective
        assert obj.L == 2.0
        assert obj.mu == pytest.approx(2.0 / 108.0)
        assert obj.kappa == pytest.approx(108.0)
        assert obj.f_star == 0.0

    def test_distance_bound(self):
        for d in (6, 20, 63):
            inst = build_pkl_gf_instance(d)
            assert np.linalg.norm(inst.x0) <= math.sqrt(2 * d) * math.log(d)

    def test_flow_checkpoint_second_coordinate(self):
        inst = build_pkl_gf_instance(6)
        traj = gf_integrate(inst.objective, inst.x0, 1e-10, StopRule.horizon(inst.stage_time))
        assert traj.points[-1][1] == pytest.approx(0.5, abs=1e-6)

    def test_rejects_small_dimension(self):
        with pytest.raises(InputError, match=">= 6"):
            build_pkl_gf_instance(5)


class TestDescentInstance:
    def test_stage_selection_for_six(self):
        inst = build_pkl_gd_instance(6)
        assert inst.k1 == 2
        assert inst.eta == pytest.approx((math.sqrt(3.0) - 1.0) / 2.0, rel=1e-14)
        assert 0.25 <= inst.eta <= 0.5

    def test_stage_exactness_and_bound(self):
        for d in (6, 9, 17, 50, 148):
            inst = build_pkl_gd_instance(d)
            ratio = (1.0 + 2.0 * inst.eta) ** inst.k1
            assert abs(ratio - d / 2.0) <= 1e-10 * d
            assert inst.k1 <= 3 * math.log(d / 2.0)

    def test_staggered_start_values(self):
        inst = build_pkl_gd_instance(6)
        assert inst.x0[0] == pytest.approx(0.5)
        assert inst.x0[1] == pytest.approx(5 / 6, rel=1e-14)
        spacing = 2 * inst.eta * inst.k1 / 6
        assert spacing == pytest.approx(0.244017, abs=1e-6)
        assert inst.x0[2] == pytest.approx(5 / 6 + spacing, rel=1e-12)
        assert inst.x0[2] == pytest.approx(1.07735, abs=1e-5)

    def test_descent_checkpoint_exact(self):
        inst = build_pkl_gd_instance(6)
        traj = gd_run(inst.objective, inst.x0, inst.eta, StopRule.max_steps(inst.k1))
        assert abs(traj.points[-1][1] - 0.5) <= 1e-10

    def test_distance_bound(self):
        for d in (6, 20, 63):
            inst = build_pkl_gd_instance(d)
            assert np.linalg.norm(inst.x0) <= 4 * math.sqrt(d) * math.log(d)

    def test_rejects_small_dimension(self):
        with pytest.raises(InputError, match=">= 6"):
            build_pkl_gd_instance(5)


class TestTargetKappaReduction:
    def test_reduces_active_components(self):
        inst = build_pkl_gd_instance(50, target_kappa=216.0)
        # largest d' with 3 d'^2 <= 216 is 8
        assert inst.construction.d == 8
        assert inst.objective.dim == 50
        assert inst.objective.mu == pytest.approx(2.0 / (3 * 64))
        assert np.all(inst.x0[8:] == 0.0)
        assert inst.x0[0] == 0.5

    def test_no_reduction_when_budget_large(self):
        inst = build_pkl_gf_instance(10, target_kappa=1e9)
        assert inst.construction.d == 10

    def test_small_budget_rejected(self):
        with pytest.raises(InputError, match="216"):
            build_pkl_gf_instance(10, target_kappa=100.0)

    @pytest.mark.parametrize("budget", [math.nan, math.inf, "abc"])
    def test_non_finite_budget_rejected(self, budget):
        for build in (build_pkl_gd_instance, build_pkl_gf_instance):
            with pytest.raises(InputError, match="target_kappa"):
                build(50, target_kappa=budget)

    def test_lifted_objective_keeps_extra_coordinates_idle(self, rng):
        kind = PklConstruction.build(8)
        small, lifted = kind.to_objective("small"), kind.to_objective("lifted", dim=12)
        assert (small.dim, lifted.dim) == (8, 12)
        assert (lifted.L, lifted.mu, lifted.f_star) == (small.L, small.mu, 0.0)
        x = np.concatenate([rng.uniform(0.1, 2.0, 8), np.zeros(4)])
        assert lifted.value_at(x) == pytest.approx(small.value_at(x[:8]), rel=1e-15)
        assert np.array_equal(lifted.gradient_at(x), np.concatenate([small.gradient_at(x[:8]), np.zeros(4)]))
        with pytest.raises(InputError, match="embed"):
            kind.to_objective("too-small", dim=7)


class TestQuadLower:
    def test_geometric_spectrum(self):
        c = build_quad_lower(3, 11.0)
        assert np.allclose(c.sigma, [121.0, 11.0, 1.0])
        assert c.kappa == pytest.approx(121.0)
        assert c.dist0 == pytest.approx(math.sqrt(3.0))
        assert gd_step(c) == pytest.approx(1.0 / 242.0)

    def test_single_dimension(self):
        c = build_quad_lower(1, 7.0)
        assert c.sigma.tolist() == [1.0]
        assert c.kappa == 1.0

    def test_integer_descent_checkpoints(self):
        for omega in (2.0, 3.0, 11.0):
            c = build_quad_lower(5, omega)
            ks = c.sigma[0] * math.log(1.0 / QUAD_GD_DELTA) / c.sigma
            assert np.allclose(ks, 3.0 * omega ** np.arange(5), rtol=1e-12)
            assert np.allclose(ks, np.round(ks), atol=1e-6)

    def test_quadratic_evaluation(self):
        c = build_quad_lower(3, 11.0)
        obj = c.to_objective()
        # f(x) = 0.5 * (121 x1^2 + 11 x2^2 + x3^2)
        assert obj.value_at([1.0, 1.0, 1.0]) == pytest.approx(0.5 * 133.0)
        assert np.allclose(obj.gradient_at([1.0, 1.0, 1.0]), [121.0, 11.0, 1.0])

    @pytest.mark.parametrize("d, omega", [(1, 2.0), (6, 10.0), (6, 11.0), (20, 2.0)])
    def test_elementwise_gradient_matches_eigen_form(self, d, omega):
        # the spec's own value and gradient gather and scatter; the dense
        # reference of coordinate axes evaluates the eigen form's products
        spec = build_quad_lower(d, omega)
        ref = dense_reference(spec)
        obj = spec.to_objective()
        rng = np.random.default_rng(20240917)
        points = [spec.x0] + [
            rng.choice([-1.0, 1.0], d) * 10.0 ** rng.uniform(-150.0, 150.0, d) for _ in range(200)
        ]
        for x in points:
            assert np.array_equal(obj.gradient_at(x), ref.gradient(x))
            assert np.array_equal(spec.gradient(x), ref.gradient(x))
            assert obj.value_at(x).hex() == float(ref.value(x)).hex()
        for bad in (np.nan, np.inf, -np.inf):
            x = np.ones(d)
            x[-1] = bad
            assert not np.all(np.isfinite(obj.gradient_at(x)))
            with np.errstate(invalid="ignore"):  # the eigen form's 0 * inf
                assert not np.all(np.isfinite(ref.gradient(x)))
        assert (obj.L, obj.mu, obj.f_star) == (spec.sigma[0], spec.sigma[-1], 0.0)
        assert np.array_equal(obj.optimal_set.point, np.zeros(d))

    def test_validation(self):
        with pytest.raises(InputError):
            build_quad_lower(0, 2.0)
        with pytest.raises(InputError):
            build_quad_lower(3, 1.0)
        for omega in (math.nan, math.inf):  # nan used to build a NaN spectrum
            with pytest.raises(InputError, match="finite"):
                build_quad_lower(3, omega)


class TestQuadRandom:
    def test_two_dims_has_no_random_spectrum(self):
        inst = build_quad_random(2, 100.0, seed=5)
        assert inst.sigma.tolist() == [1.0, 0.01]

    def test_deterministic_for_fixed_seed(self):
        a = build_quad_random(10, 1e4, seed=3)
        b = build_quad_random(10, 1e4, seed=3)
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.x0, b.x0)
        c = build_quad_random(10, 1e4, seed=4)
        assert not np.array_equal(a.x0, c.x0)

    def test_sampled_ranges_and_normalisation(self):
        inst = build_quad_random(10, 100.0, seed=7)
        assert np.all(inst.sigma >= 0.01 - 1e-15)
        assert np.all(inst.sigma <= 1.0)
        assert np.linalg.norm(inst.x0) == pytest.approx(math.sqrt(10.0), abs=1e-12)

    def test_validation(self):
        with pytest.raises(InputError):
            build_quad_random(1, 100.0, 0)
        with pytest.raises(InputError):
            build_quad_random(5, 1.0, 0)
        for kappa in (math.nan, math.inf):
            with pytest.raises(InputError, match="finite"):
                build_quad_random(5, kappa, 0)
        for seed, match in ((-1, "seed must be a nonnegative integer"), (1.5, "seed: expected an integer")):
            with pytest.raises(InputError, match=match):
                build_quad_random(5, 100.0, seed)
        # an integral float is the integer it spells, as for every integer input
        integral, exact = build_quad_random(5, 100.0, 2.0), build_quad_random(5, 100.0, 2)
        assert np.array_equal(integral.x0, exact.x0)


class TestLinConvConstants:
    def test_flow_value(self):
        a, c = construction_linconv_constants(6, "gf")
        assert a == 1.0
        assert c == pytest.approx(1.0 / (24 * math.log(6.0)), rel=1e-14)
        assert c == pytest.approx(0.023256, abs=1e-5)

    def test_descent_value(self):
        a, c = construction_linconv_constants(6, "gd")
        assert c == pytest.approx(1.0 / (96 * math.log(6.0)), rel=1e-14)
        assert c == pytest.approx(0.005814, abs=1e-5)

    def test_large_dimension(self):
        _, c = construction_linconv_constants(100, "gf")
        assert c == pytest.approx(1.0 / (400 * math.log(100.0)), rel=1e-14)

    def test_validation(self):
        with pytest.raises(InputError):
            construction_linconv_constants(5, "gf")
        with pytest.raises(InputError):
            construction_linconv_constants(6, "both")


def test_flow_instance_capture_progression():
    # after one stage the staggered coordinates have shifted down one slot
    inst = build_pkl_gf_instance(7)
    traj = gf_integrate(inst.objective, inst.x0, 1e-10, StopRule.horizon(inst.stage_time))
    final = traj.points[-1]
    assert final[0] == pytest.approx(inst.construction.delta, abs=1e-6)
    for i in range(1, 6):
        assert final[i + 1] == pytest.approx(inst.x0[i], abs=1e-6)


def test_descent_instance_capture_progression():
    inst = build_pkl_gd_instance(8)
    k1 = inst.k1
    traj = gd_run(inst.objective, inst.x0, inst.eta, StopRule.max_steps(k1))
    final = traj.points[-1]
    assert final[1] == pytest.approx(0.5, abs=1e-10)
    for i in range(1, 7):
        assert final[i + 1] == pytest.approx(inst.x0[i], abs=1e-9)


@pytest.mark.parametrize("d", [6, 148, 2000])
def test_staggered_x0_matches_per_coordinate_formula(d):
    # both PL instances share one x0 helper; each coordinate must keep
    # the bits of (1 - delta) + spacing * (i - 2), i = 2 .. d
    gf, gd = build_pkl_gf_instance(d), build_pkl_gd_instance(d)
    delta = 1.0 / d
    spacings = (delta * math.log(1.0 / (2.0 * delta)), 2.0 * gd.eta * gd.k1 * delta)
    for inst, spacing in zip((gf, gd), spacings):
        expected = [0.5] + [(1.0 - delta) + spacing * (i - 2) for i in range(2, d + 1)]
        assert inst.x0.tolist() == expected
