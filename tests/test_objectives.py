import math
import tracemalloc

import numpy as np
import pytest

from conftest import dense_reference, random_convex_quadratic
from gradpath import (
    AffineSet,
    InputError,
    IntervalProductSet,
    ObjectiveSpec,
    PklConstruction,
    QuadraticSpec,
    SingletonSet,
    StopRule,
    build_fsep_quartic,
    build_pkl_gd_instance,
    build_quad_lower,
    build_quad_random,
    check_gradient,
    gd_run,
    gf_quadratic,
    quadratic_from_data,
)
from gradpath.objectives import as_vector


class TestQuadraticFromData:
    def test_identity_design(self):
        # Gram matrix is A^T A / n, so the 2x2 identity design has spectrum (1/2, 1/2).
        spec = quadratic_from_data(np.eye(2), [0.0, 0.0], [3.0, 4.0])
        assert np.allclose(spec.sigma, [0.5, 0.5])
        assert np.allclose(spec.projection, [0.0, 0.0])
        assert spec.dist0 == pytest.approx(5.0, abs=1e-12)

    def test_rank_one_row(self):
        # Hand pseudoinverse of the rank-1 system [[1, 1]]: Gram spectrum (2,).
        spec = quadratic_from_data([[1.0, 1.0]], [0.0], [1.0, 1.0])
        assert spec.dplus == 1
        assert np.allclose(spec.projection, [0.0, 0.0], atol=1e-12)
        assert spec.sigma[0] == pytest.approx(2.0, rel=1e-12)

    def test_diagonal_design(self):
        spec = quadratic_from_data(np.diag([2.0, 1.0]), [0.0, 0.0], [1.0, 1.0])
        assert np.allclose(spec.sigma, [2.0, 0.5])
        assert spec.kappa == pytest.approx(4.0, rel=1e-12)
        assert np.allclose(np.abs(spec.alpha), [1.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("where", ["A", "y"])
    def test_non_finite_data_rejected(self, where, bad):
        # a NaN in A used to end in LinAlgError (SVD did not converge), an inf
        # in "spectrum must be nonempty and strictly positive"
        a, y = np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([1.0, 2.0])
        (a if where == "A" else y).flat[0] = bad
        with pytest.raises(InputError, match=f"^{where} must be finite$"):
            quadratic_from_data(a, y, [0.0, 0.0])

    def test_zero_design_rejected(self):
        with pytest.raises(InputError, match="constant"):
            quadratic_from_data(np.zeros((2, 2)), [0.0, 0.0], [1.0, 1.0])

    def test_offset_target_and_projection(self, rng):
        a = rng.standard_normal((7, 4))
        y = rng.standard_normal(7)
        x0 = rng.standard_normal(4)
        spec = quadratic_from_data(a, y, x0)
        # the projection point minimises the objective
        assert np.linalg.norm(spec.gradient(spec.projection)) < 1e-10
        assert spec.value(spec.projection) == pytest.approx(spec.f_star, abs=1e-12)

    def test_eigen_matches_matrix_form(self, rng):
        for _ in range(20):
            n, d = int(rng.integers(1, 8)), int(rng.integers(1, 6))
            a = rng.standard_normal((n, d))
            if not np.any(a):
                continue
            y = rng.standard_normal(n)
            x0 = rng.standard_normal(d)
            spec = quadratic_from_data(a, y, x0)
            for _ in range(5):
                x = rng.standard_normal(d)
                expected = spec.value_from_data(x)
                assert spec.value(x) == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_overparameterized_limit_point(self, rng):
        # d > n: the optimal set is affine; x0's null-space component is kept.
        a = rng.standard_normal((2, 5))
        spec = quadratic_from_data(a, rng.standard_normal(2), rng.standard_normal(5))
        assert spec.dplus <= 2
        opt = spec.optimal_set()
        assert isinstance(opt, AffineSet)
        assert opt.distance(spec.projection) < 1e-10


class TestQuadraticSpec:
    def test_spectrum_validation(self):
        with pytest.raises(InputError):
            QuadraticSpec.diagonal([1.0, -2.0], [0.0, 0.0])
        with pytest.raises(InputError, match="descending"):
            QuadraticSpec(
                dim=2, sigma=[1.0, 2.0], basis=np.eye(2),
                projection=[0.0, 0.0], alpha=[1.0, 1.0], x0=[1.0, 1.0],
            )

    def test_diagonal_rejects_nan_coefficient(self):
        with pytest.raises(InputError, match="spectrum must be finite"):
            QuadraticSpec.diagonal([math.nan, 1.0], [0.0, 0.0])

    @pytest.mark.parametrize("field", ["sigma", "basis", "projection", "alpha", "x0", "f_star"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, field, bad):
        fields = dict(
            dim=2, sigma=np.array([2.0, 1.0]), basis=np.eye(2), projection=np.zeros(2),
            alpha=np.ones(2), x0=np.ones(2), f_star=0.0,
        )
        if field == "f_star":
            fields[field] = bad
        else:
            fields[field] = fields[field].copy()
            fields[field].flat[0] = bad
        with pytest.raises(InputError, match="must be finite"):
            QuadraticSpec(**fields)

    @pytest.mark.parametrize("basis, projection", [
        (np.array([2.0, 0.0, 1.0]), np.zeros(3)),
        (np.array([2, 0, 0]), np.zeros(3)),
        (np.array([3, 0, 1]), np.zeros(3)),
        (np.array([-1, 0, 1]), np.zeros(3)),
        (np.array([1, 0]), np.zeros(3)),
        (np.array([2, 0, 1, 3]), np.zeros(3)),
        (np.array([2, 0, 1, 1]), np.zeros(3)),
        (np.array([2**40, 0, 1]), np.zeros(3)),
        (np.array([2, 0, 1]), np.array([0.0, 0.5, 0.0])),
    ], ids=["float", "repeated", "out-of-range", "negative", "short", "long", "long-covering", "huge",
            "nonzero-projection"])
    def test_bad_permutation_basis_rejected(self, basis, projection):
        with pytest.raises(InputError, match="permutation"):
            QuadraticSpec(dim=3, sigma=[3.0, 2.0, 1.0], basis=basis, projection=projection,
                          alpha=np.ones(3), x0=np.ones(3))

    def test_permutation_basis_needs_full_rank(self):
        # a permutation of range(d+) with d+ < dim is not a (dim, d+) basis
        with pytest.raises(InputError, match="permutation"):
            QuadraticSpec(dim=3, sigma=[2.0, 1.0], basis=np.array([1, 0]), projection=np.zeros(3),
                          alpha=np.ones(2), x0=np.ones(3))

    @pytest.mark.parametrize("basis", [np.array(0), np.array(1.0), np.ones((1, 1, 1))], ids=["0-d-int", "0-d", "3-D"])
    def test_basis_rank_rejected(self, basis):
        with pytest.raises(InputError, match=r"shape \(dim, d\+\)"):
            QuadraticSpec(dim=1, sigma=[1.0], basis=basis, projection=np.zeros(1), alpha=np.ones(1), x0=np.ones(1))

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.uint64])
    def test_permutation_basis_kept_as_given(self, dtype):
        order = np.array([1, 2, 0], dtype=dtype)
        spec = QuadraticSpec(dim=3, sigma=[3.0, 2.0, 1.0], basis=order, projection=np.zeros(3),
                             alpha=np.ones(3), x0=np.ones(3))
        assert spec.basis is order
        assert spec.to_objective().gradient_at([1.0, 1.0, 1.0]).tolist() == [1.0, 3.0, 2.0]

    def test_gradient_at_validates_the_point(self):
        obj = QuadraticSpec.diagonal([2.0, 1.0], [1.0, 1.0]).to_objective()
        assert obj.gradient_at([1, 1]).tolist() == [2.0, 1.0]
        with pytest.raises(InputError, match="dimension 2"):
            obj.gradient_at(np.zeros(3))
        with pytest.raises(InputError, match="dimension 2"):
            obj.value_at([1.0])

    def test_alpha_norm_is_distance(self, rng):
        from conftest import dense_reference, random_convex_quadratic

        spec = random_convex_quadratic(rng)
        assert spec.dist0 == pytest.approx(
            float(np.linalg.norm(spec.x0 - spec.projection)), rel=1e-12
        )

    def test_kappa_is_product_of_gaps(self, rng):
        sigma = np.sort(rng.uniform(0.1, 50.0, 6))[::-1]
        spec = QuadraticSpec.diagonal(sigma, np.ones(6))
        assert spec.kappa == pytest.approx(float(np.prod(spec.sigma[:-1] / spec.sigma[1:])), rel=1e-10)

    def test_projection_idempotent(self, rng):
        a = rng.standard_normal((2, 4))
        spec = quadratic_from_data(a, rng.standard_normal(2), rng.standard_normal(4))
        opt = spec.optimal_set()
        x = rng.standard_normal(4) * 3
        p1 = opt.project(x)
        assert np.allclose(opt.project(p1), p1, atol=1e-12)


def _wide_points(d, rng):
    """All-ones and 200 points with entries +-10^u, u uniform in [-150, 150]."""
    return [np.ones(d)] + [rng.choice([-1.0, 1.0], d) * 10.0 ** rng.uniform(-150.0, 150.0, d) for _ in range(200)]


class TestGradientChoice:
    """``to_objective`` evaluates the gradient elementwise exactly when the
    basis is a permutation; the dense reference (the same spec with its
    basis written out as coordinate axes) checks the bits."""

    @pytest.mark.parametrize("make", [
        lambda rng: QuadraticSpec.diagonal(np.sort(rng.uniform(0.1, 50.0, 6))[::-1], np.ones(6)),
        lambda rng: build_quad_random(6, 100.0, 0),
        lambda rng: build_quad_random(40, 1e4, 3),
        lambda rng: build_quad_lower(6, 11.0),
    ], ids=["descending", "quad-random", "quad-random-40", "quad-lower"])
    def test_diagonal_spec_is_elementwise(self, make, rng):
        spec = make(rng)
        ref = dense_reference(spec)
        obj, out = spec.to_objective(), np.empty(spec.dim)
        for x in [spec.x0] + _wide_points(spec.dim, rng):
            want = ref.gradient(x)
            assert np.array_equal(spec.gradient(x), want)
            assert np.array_equal(obj.gradient_at(x), want)
            obj.gradient_into(x, out)
            assert np.array_equal(out, want)
            assert float(spec.value(x)).hex() == float(ref.value(x)).hex()
            assert obj.value_at(x).hex() == float(ref.value(x)).hex()
        # elementwise, an infinite coordinate leaves the others as they are;
        # the eigen form's 0 * inf would make them NaN
        coefficients = ref.gradient(np.ones(spec.dim))
        for bad in (math.inf, -math.inf, math.nan):
            x = np.ones(spec.dim)
            x[0] = bad
            for g in (obj.gradient_at(x), spec.gradient(x)):
                assert np.array_equal(g[1:], coefficients[1:])
                assert not math.isfinite(g[0])
            with np.errstate(invalid="ignore"):
                assert not np.all(np.isfinite(ref.gradient(x)))

    def test_nonzero_projection_keeps_eigen_form(self):
        p = np.array([1.0, -2.0, 0.5])
        spec = QuadraticSpec(dim=3, sigma=np.array([3.0, 2.0, 1.0]), basis=np.eye(3), projection=p,
                             alpha=-p, x0=np.zeros(3))
        assert spec.to_objective().gradient_at(p).tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("make", [random_convex_quadratic], ids=["dense"])
    def test_other_specs_keep_eigen_form(self, make, rng):
        spec = make(rng)
        obj = spec.to_objective()
        for x in _wide_points(spec.dim, rng):
            assert np.array_equal(obj.gradient_at(x), spec.gradient(x))


def _flow_quadratic(rng, d=10, kappa=3e3):
    """Dense spec built as the flow benchmark builds its instances: extreme
    eigenvalues 1 and 1/kappa with a log-uniform interior, a random rotation
    and a random projection."""
    interior = 10 ** rng.uniform(-math.log10(kappa), 0.0, d - 2)
    sigma = np.sort(np.concatenate([[1.0, 1.0 / kappa], interior]))[::-1]
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    projection = rng.standard_normal(d)
    x0 = projection + basis @ rng.standard_normal(d)
    return QuadraticSpec(dim=d, sigma=sigma, basis=basis, projection=projection,
                         alpha=basis.T @ (x0 - projection), x0=x0)


class TestGradientInto:
    """``to_objective``'s ``gradient_into`` writes the bits of its ``gradient``."""

    @pytest.mark.parametrize("make", [
        _flow_quadratic,
        random_convex_quadratic,
        lambda rng: build_quad_random(6, 100.0, 0),
        lambda rng: build_quad_lower(6, 11.0),
    ], ids=["flow-dense", "dense", "quad-random", "quad-lower"])
    def test_bits_equal_gradient(self, make, rng):
        spec = make(rng)
        # a diagonal spec's own gradient is elementwise too; the dense
        # reference evaluates the eigen form
        ref = dense_reference(spec) if spec.basis.ndim == 1 else spec
        obj = spec.to_objective()
        out = np.empty(spec.dim)
        points = [rng.standard_normal(spec.dim) for _ in range(50)] + _wide_points(spec.dim, rng)
        for x in points:
            before = x.tobytes()
            obj.gradient_into(x, out)
            assert out.tobytes() == obj.gradient(x).tobytes()
            assert np.array_equal(out, ref.gradient(x))
            assert x.tobytes() == before

    def test_permutation_basis_allocates_no_square_matrix(self):
        # a dense basis of coordinate axes would take 525 MB at d = 8103
        tracemalloc.start()
        try:
            spec = build_quad_lower(8103, 1.09)
            obj = spec.to_objective()
            spec.optimal_set()
            gf_quadratic(spec, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # elementwise: an infinite coordinate leaves the others finite
        x = np.ones(8103)
        x[0] = math.inf
        assert np.array_equal(obj.gradient(x)[1:], spec.sigma[1:])


class TestStaircaseGradientInto:
    """The PL staircase's ``gradient_into`` writes the bits of its ``gradient``
    into the caller's row and nothing else."""

    @staticmethod
    def _assert_writes_gradient(obj, x):
        # out is a row view with sentinels on both sides and rows around it
        before = x.tobytes()
        rows = np.full((3, obj.dim + 2), -7.25)
        out = rows[1, 1:-1]
        obj.gradient_into(x, out)
        assert out.tobytes() == obj.gradient(x).tobytes()
        out[:] = -7.25
        assert (rows == -7.25).all()
        assert x.tobytes() == before

    @pytest.mark.parametrize("d", [148, 2000])
    def test_descent_iterates(self, d):
        inst = build_pkl_gd_instance(d)
        obj, seen = inst.objective, []

        def observe(x, f, g):
            self._assert_writes_gradient(obj, x)
            seen.append(1)

        traj = gd_run(obj, inst.x0, inst.eta, StopRule.norm_below(1e-6), observe=observe)
        assert len(seen) == traj.n_steps + 1 > 1000

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_special_and_shuffled_values(self, rng):
        kind = PklConstruction.build(148)
        values = [0.0, -0.0, math.inf, -math.inf, math.nan]
        for b in kind.breakpoints:
            values += [b, float(np.nextafter(b, -math.inf)), float(np.nextafter(b, math.inf))]
        obj = kind.to_objective("staircase")
        x = rng.choice(values, 148)
        for point in (np.sort(x), x, rng.permutation(build_pkl_gd_instance(148).x0)):
            self._assert_writes_gradient(obj, point)


class TestOptimalSets:
    def test_singleton(self):
        s = SingletonSet(point=np.array([1.0, 2.0]))
        assert s.distance([4.0, 6.0]) == pytest.approx(5.0)
        assert np.allclose(s.project([9.0, 9.0]), [1.0, 2.0])

    def test_interval_product(self):
        s = IntervalProductSet(lo=[-math.inf, -math.inf], hi=[0.0, 0.0])
        assert s.distance([3.0, 4.0]) == pytest.approx(5.0)
        assert np.allclose(s.project([-5.0, -1.0]), [-5.0, -1.0])
        p = s.project([2.0, 2.0])
        assert np.allclose(s.project(p), p)

    def test_interval_validation(self):
        with pytest.raises(InputError):
            IntervalProductSet(lo=[1.0], hi=[0.0])


class TestSeparable:
    def test_pl_ratio_dominated_by_worst_piece(self, rng):
        obj = build_fsep_quartic(4, 0.1, 1.0)
        weights = np.arange(1, 5, dtype=float)
        for _ in range(25):
            x = rng.uniform(-1, 1, 4)
            f = obj.value_at(x)
            if f <= 1e-300:
                continue
            total = float(obj.gradient_at(x) @ obj.gradient_at(x)) / (2 * f)
            piece_vals = weights * x**2 + 0.1 * x**4
            piece_grads = 2 * weights * x + 0.4 * x**3
            mask = piece_vals > 1e-300
            per_piece = piece_grads[mask] ** 2 / (2 * piece_vals[mask])
            assert total >= per_piece.min() * (1 - 1e-9)


class TestFsepQuartic:
    def test_pure_quadratic(self):
        obj = build_fsep_quartic(1, 0.0, 1.0)
        assert obj.mu == 2.0
        assert obj.L == 2.0
        assert obj.value_at([2.0]) == pytest.approx(4.0)

    def test_declared_smoothness_three_dims(self):
        obj = build_fsep_quartic(3, 0.1, 1.0)
        assert obj.L == pytest.approx(9.6, rel=1e-12)
        assert obj.mu == 2.0
        assert obj.kappa == pytest.approx(4.8, rel=1e-12)

    def test_declared_smoothness_wide_box(self):
        obj = build_fsep_quartic(2, 0.1, 2.0)
        assert obj.L == pytest.approx(13.6, rel=1e-12)

    def test_box_membership(self):
        obj = build_fsep_quartic(2, 0.1, 1.0)
        assert obj.in_declared_box([0.5, -0.5])
        assert not obj.in_declared_box([1.5, 0.0])

    def test_gradient_consistent(self, rng):
        obj = build_fsep_quartic(4, 0.1, 1.0)
        pts = [rng.uniform(-1, 1, 4) for _ in range(30)]
        check_gradient(obj, pts, rel_tol=1e-5)

    def test_validation(self):
        with pytest.raises(InputError):
            build_fsep_quartic(0, 0.1, 1.0)
        with pytest.raises(InputError):
            build_fsep_quartic(2, -0.1, 1.0)
        with pytest.raises(InputError):
            build_fsep_quartic(2, 0.1, 0.0)


class TestAsVector:
    def test_float64_vector_returned_as_is(self):
        x = np.array([1.0, 2.0, 3.0])
        assert as_vector(x) is x
        assert as_vector(x, 3) is x
        view = np.arange(6.0)[::2]
        assert as_vector(view, 3) is view

    def test_converts_lists_ints_and_other_dtypes(self):
        for raw in ([1, 2], (1.0, 2.0), np.array([1, 2]), np.array([1.0, 2.0], dtype=np.float32)):
            x = as_vector(raw, 2)
            assert x is not raw
            assert x.dtype == np.float64 and x.tolist() == [1.0, 2.0]
        assert as_vector(3).tolist() == [3.0]
        assert as_vector(np.float64(3.0), 1).tolist() == [3.0]

    def test_rejects_matrices_and_wrong_sizes(self):
        with pytest.raises(InputError, match="vector"):
            as_vector(np.zeros((2, 2)))
        with pytest.raises(InputError, match="dimension 3"):
            as_vector(np.zeros(2), 3)
        with pytest.raises(InputError, match="dimension 3"):
            as_vector([1.0, 2.0], 3)

    def test_gradient_at_validates(self):
        obj = build_fsep_quartic(3, 0.1, 1.0)
        assert obj.gradient_at([0.5, 0.5, 0.5]).tolist() == obj.gradient_at(np.full(3, 0.5)).tolist()
        with pytest.raises(InputError, match="dimension 3"):
            obj.gradient_at(np.zeros(2))
        with pytest.raises(InputError, match="dimension 3"):
            obj.value_at(np.zeros(4))


class TestObjectiveSpec:
    def test_metadata_validation(self):
        with pytest.raises(InputError):
            ObjectiveSpec(dim=0, value=lambda x: 0.0, gradient=lambda x: x)
        with pytest.raises(InputError):
            ObjectiveSpec(dim=1, value=lambda x: 0.0, gradient=lambda x: x, L=-1.0)

    def test_kappa_property(self):
        obj = build_fsep_quartic(2, 0.0, 1.0)
        assert obj.kappa == pytest.approx(2.0)

    def test_declared_floor(self, rng):
        obj = build_fsep_quartic(3, 0.1, 1.0)
        for _ in range(20):
            x = rng.uniform(-1, 1, 3)
            assert obj.value_at(x) >= obj.f_star - 1e-12


def test_declared_lipschitz_holds_on_sampled_pairs(rng):
    obj = build_fsep_quartic(3, 0.1, 1.0)
    for _ in range(50):
        x = rng.uniform(-1, 1, 3)
        y = rng.uniform(-1, 1, 3)
        lhs = np.linalg.norm(obj.gradient_at(x) - obj.gradient_at(y))
        assert lhs <= obj.L * np.linalg.norm(x - y) * (1 + 1e-9)


def test_declared_pl_holds_on_sampled_points(rng):
    obj = build_fsep_quartic(3, 0.1, 1.0)
    for _ in range(50):
        x = rng.uniform(-1, 1, 3)
        g = obj.gradient_at(x)
        assert float(g @ g) >= 2 * obj.mu * (obj.value_at(x) - obj.f_star) * (1 - 1e-9)
