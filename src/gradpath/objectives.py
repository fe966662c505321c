"""Objective-function abstraction and the built-in objective zoo.

An :class:`ObjectiveSpec` bundles a value/gradient pair with optional
smoothness metadata (gradient Lipschitz constant ``L``, Polyak-
Lojasiewicz constant ``mu``, minimum value, optimal-set descriptor).
Quadratics get a dedicated eigen-form representation because every
flow and bound computation for them works per eigencomponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, finite_number, positive_number

Array = np.ndarray

#: Singular values of the scaled Gram matrix below RANK_RTOL * sigma_max
#: are treated as zero; this defines the rank d+.
RANK_RTOL = 1e-10


def as_vector(x, dim: int | None = None) -> Array:
    """``x`` as a 1-D float64 array of size ``dim`` (any size if None).

    A float64 vector of the right size is returned as is (the same object
    the conversion below would give), so the repeated calls inside a
    descent loop convert nothing.
    """
    if type(x) is np.ndarray and x.dtype == np.float64 and x.ndim == 1 and (dim is None or x.size == dim):
        return x
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1:
        raise InputError(f"expected a vector, got shape {x.shape}")
    if dim is not None and x.size != dim:
        raise InputError(f"expected dimension {dim}, got {x.size}")
    return x


def _finite(x: Array, name: str) -> Array:
    """``x`` itself if every entry is finite, else InputError naming ``name``."""
    if not np.all(np.isfinite(x)):
        raise InputError(f"{name} must be finite")
    return x


def finite_vector(x, name: str, dim: int | None = None) -> Array:
    """:func:`as_vector` of ``x`` if it converts and every entry is finite,
    else InputError naming ``name``."""
    try:
        x = as_vector(x, dim)
    except (TypeError, ValueError, OverflowError) as exc:  # InputError is a ValueError
        raise InputError(f"{name}: {exc}") from None
    return _finite(x, name)


# ---------------------------------------------------------------------------
# Optimal-set descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingletonSet:
    """Optimal set consisting of a single point."""

    point: Array

    def project(self, x: Array) -> Array:
        return np.array(self.point, dtype=float, copy=True)

    def distance(self, x: Array) -> float:
        return float(np.linalg.norm(np.asarray(x, float) - self.point))


@dataclass(frozen=True)
class AffineSet:
    """Affine optimal set given by its (idempotent) projection operation."""

    projector: Callable[[Array], Array]

    def project(self, x: Array) -> Array:
        return np.asarray(self.projector(np.asarray(x, float)), dtype=float)

    def distance(self, x: Array) -> float:
        x = np.asarray(x, float)
        return float(np.linalg.norm(x - self.project(x)))


@dataclass(frozen=True)
class IntervalProductSet:
    """Per-coordinate interval optimal set [lo_i, hi_i] (for separable objectives)."""

    lo: Array
    hi: Array

    def __post_init__(self):
        lo, hi = as_vector(self.lo), as_vector(self.hi)
        if lo.size != hi.size or np.any(lo > hi):
            raise InputError("interval set requires lo <= hi per coordinate")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def project(self, x: Array) -> Array:
        return np.clip(np.asarray(x, float), self.lo, self.hi)

    def distance(self, x: Array) -> float:
        x = np.asarray(x, float)
        return float(np.linalg.norm(x - self.project(x)))


OptimalSet = SingletonSet | AffineSet | IntervalProductSet


# ---------------------------------------------------------------------------
# ObjectiveSpec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObjectiveSpec:
    """An evaluatable objective with declared smoothness/curvature metadata.

    ``value`` maps a point of shape ``(dim,)`` to a float and ``gradient``
    to a vector of the same shape, which :meth:`gradient_at` checks.  The
    optional ``value_and_gradient`` returns both from one evaluation, for
    :meth:`value_and_gradient_at`.  The optional ``gradient_into(x, out)``
    writes ``gradient(x)``, bit for bit, into a caller's float64 vector
    ``out`` of shape ``(dim,)``; it takes a float64 point of size ``dim``
    as is and writes nothing but ``out``.  Evaluations are pure, so
    instances may be shared freely.
    """

    dim: int
    value: Callable[[Array], float]
    gradient: Callable[[Array], Array]
    L: float | None = None
    mu: float | None = None
    f_star: float | None = None
    optimal_set: OptimalSet | None = None
    name: str = ""
    box_halfwidth: float | None = None  # domain on which L was certified
    value_and_gradient: Callable[[Array], tuple[float, Array]] | None = None
    gradient_into: Callable[[Array, Array], None] | None = None

    def __post_init__(self):
        object.__setattr__(self, "dim", positive_number(self.dim, "dimension", int))
        for name in ("L", "mu"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, positive_number(getattr(self, name), name))

    @property
    def kappa(self) -> float | None:
        """Condition number L/mu when both constants are declared."""
        if self.L is None or self.mu is None:
            return None
        return self.L / self.mu

    def value_at(self, x) -> float:
        return float(self.value(as_vector(x, self.dim)))

    def gradient_at(self, x) -> Array:
        return self._checked_gradient(self.gradient(as_vector(x, self.dim)))

    def value_and_gradient_at(self, x) -> tuple[float, Array]:
        """``(value_at(x), gradient_at(x))``, from one evaluation when the
        objective declares ``value_and_gradient``."""
        if self.value_and_gradient is None:
            return self.value_at(x), self.gradient_at(x)
        f, g = self.value_and_gradient(as_vector(x, self.dim))
        return float(f), self._checked_gradient(g)

    def _checked_gradient(self, g) -> Array:
        g = np.asarray(g, dtype=float)
        if g.shape != (self.dim,):
            raise InputError(f"gradient returned shape {g.shape} at a point of shape {(self.dim,)}")
        return g

    def in_declared_box(self, x) -> bool:
        """True when x lies in the box on which L was certified (if any)."""
        if self.box_halfwidth is None:
            return True
        return bool(np.max(np.abs(as_vector(x, self.dim))) <= self.box_halfwidth)


def finite_difference_gradient(obj: ObjectiveSpec, x: Array, h: float = 1e-6) -> Array:
    """Central finite differences of ``obj.value`` at ``x``."""
    x = as_vector(x, obj.dim)
    g = np.empty(obj.dim)
    for i in range(obj.dim):
        step = h * max(1.0, abs(x[i]))
        e = np.zeros(obj.dim)
        e[i] = step
        g[i] = (obj.value_at(x + e) - obj.value_at(x - e)) / (2 * step)
    return g


def check_gradient(
    obj: ObjectiveSpec,
    points: Sequence[Array],
    rel_tol: float = 1e-5,
) -> float:
    """Largest relative finite-difference error of the gradient over ``points``.

    Raises :class:`InputError` when the error exceeds ``rel_tol``.
    """
    worst = 0.0
    for x in points:
        exact = obj.gradient_at(x)
        approx = finite_difference_gradient(obj, x)
        err = float(np.linalg.norm(approx - exact)) / max(float(np.linalg.norm(exact)), 1e-8)
        worst = max(worst, err)
    if worst > rel_tol:
        raise InputError(f"gradient check failed: relative error {worst:.3e} > {rel_tol:.1e}")
    return worst


# ---------------------------------------------------------------------------
# Quadratics in eigen form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticSpec:
    """Convex quadratic objective normalised to eigen coordinates.

    The objective is f(x) = f* + 0.5 (x-p)^T H (x-p) with
    H = basis @ diag(sigma) @ basis.T, where ``sigma`` holds the nonzero
    spectrum in descending order, ``basis`` the corresponding orthonormal
    eigenvectors and ``p = projection`` the projection of the designated
    initial point onto the optimal set.  ``alpha`` are the eigen
    coordinates of ``x0 - p``, so ``||alpha|| = dist(x0, X*)``.
    """

    dim: int
    sigma: Array
    basis: Array
    projection: Array
    alpha: Array
    x0: Array
    f_star: float = 0.0
    source: tuple[Array, Array] | None = None  # (A, y) when built from data

    def __post_init__(self):
        sigma = finite_vector(self.sigma, "spectrum")
        if sigma.size == 0 or np.any(sigma <= 0):
            raise InputError("spectrum must be nonempty and strictly positive")
        if np.any(np.diff(sigma) > 0):
            raise InputError("spectrum must be sorted in descending order")
        basis = _finite(np.asarray(self.basis, float), "basis")
        if basis.shape != (self.dim, sigma.size):
            raise InputError("basis must have shape (dim, d+)")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "projection", finite_vector(self.projection, "projection", self.dim))
        object.__setattr__(self, "alpha", finite_vector(self.alpha, "alpha", sigma.size))
        object.__setattr__(self, "x0", finite_vector(self.x0, "x0", self.dim))
        object.__setattr__(self, "f_star", finite_number(self.f_star, "f_star"))

    # -- derived quantities -------------------------------------------------

    @property
    def dplus(self) -> int:
        return int(self.sigma.size)

    @property
    def kappa(self) -> float:
        return float(self.sigma[0] / self.sigma[-1])

    @property
    def dist0(self) -> float:
        return float(np.linalg.norm(self.alpha))

    # -- evaluation ----------------------------------------------------------

    # ``value`` and ``gradient`` take a float64 vector of size ``dim`` as
    # is; ``to_objective``'s ``value_at`` / ``gradient_at`` validate it.
    # The flow calls ``gradient`` six times per step: ``ndarray.dot`` skips
    # the matmul ufunc's dispatch, which dominates at small d, and reaches
    # the same BLAS gemv as ``@``, so the bits are the same.

    def value(self, x: Array) -> float:
        z = self.basis.T @ (x - self.projection)
        return self.f_star + 0.5 * float(z @ (self.sigma * z))

    def gradient(self, x: Array) -> Array:
        z = self.basis.T.dot(x - self.projection)
        return self.basis.dot(self.sigma * z)

    def value_from_data(self, x) -> float:
        """Evaluate via the raw (A, y) data; available for cross-checks."""
        if self.source is None:
            raise InputError("quadratic was not built from data")
        a, y = self.source
        r = y - a @ as_vector(x, self.dim)
        return 0.5 * float(r @ r) / a.shape[0]

    def optimal_set(self) -> OptimalSet:
        if self.dplus == self.dim:
            return SingletonSet(point=self.projection.copy())
        basis, p = self.basis, self.projection
        return AffineSet(projector=lambda x: x - basis @ (basis.T @ (x - p)))

    def to_objective(self, name: str = "") -> ObjectiveSpec:
        """The spec as an objective.  With a zero projection and the identity
        basis the gradient is evaluated elementwise as ``sigma * x``: the
        eigen form's two products then multiply by exact 0s and 1s, so
        ``sigma * x`` equals :meth:`gradient` bit for bit at every finite x
        (a zero may differ in sign only).  The projection is tested first,
        as a dense spec fails that test at once; the basis is finite, so
        d nonzero entries, all on a unit diagonal, make it the identity.

        ``gradient_into`` writes the same bits as ``gradient``: the
        elementwise product, or the eigen form's two gemvs in the same
        order, the second one into ``out``."""
        sigma, basis, p, dim = self.sigma, self.basis, self.projection, self.dim
        elementwise = (
            not p.any()
            and basis.shape == (dim, dim)
            and np.count_nonzero(basis) == dim
            and (basis.diagonal() == 1.0).all()
        )
        if elementwise:
            def gradient_into(x, out):
                np.multiply(sigma, x, out)
        else:
            basis_dot, bt_dot = basis.dot, basis.T.dot

            def gradient_into(x, out):
                basis_dot(sigma * bt_dot(x - p), out)

        return ObjectiveSpec(
            dim=self.dim,
            value=self.value,
            gradient=(lambda x: sigma * x) if elementwise else self.gradient,
            gradient_into=gradient_into,
            L=float(self.sigma[0]),
            mu=float(self.sigma[-1]),
            f_star=self.f_star,
            optimal_set=self.optimal_set(),
            name=name or "quadratic",
        )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def diagonal(cls, coefficients, x0, f_star: float = 0.0) -> "QuadraticSpec":
        """Spec for f(x) = f* + 0.5 * sum_i a_i x_i^2 with all a_i > 0."""
        a = as_vector(coefficients)
        x0 = as_vector(x0, a.size)
        order = np.argsort(-a, kind="stable")
        return cls(
            dim=a.size,
            sigma=a[order],
            basis=np.eye(a.size)[:, order],
            projection=np.zeros(a.size),
            alpha=x0[order],
            x0=x0,
            f_star=f_star,
        )


def quadratic_from_data(A, y, x0) -> QuadraticSpec:
    """Eigen-form spec of the least-squares objective f(x) = ||y - Ax||^2 / (2n).

    The Gram matrix A^T A / n is diagonalised through the SVD of A;
    singular values of the Gram matrix below ``RANK_RTOL`` times its
    largest one are zeroed, which defines the rank d+.  The returned
    projection point is (I - V V^T) x0 + pinv(A) y, the limit of both
    the flow and the small-step iteration started at ``x0``.
    """
    A = _finite(np.atleast_2d(np.asarray(A, dtype=float)), "A")
    if A.ndim != 2:
        raise InputError("A must be a matrix")
    n, d = A.shape
    y = finite_vector(y, "y", n)
    x0 = finite_vector(x0, "x0", d)
    if not np.any(A):
        raise InputError("objective is constant")

    u, s, vt = np.linalg.svd(A, full_matrices=False)
    gram_sigma = s**2 / n
    keep = gram_sigma > RANK_RTOL * gram_sigma[0]
    basis = vt[keep].T
    sigma = gram_sigma[keep]

    pinv_y = basis @ ((u[:, keep].T @ y) / s[keep])
    projection = x0 - basis @ (basis.T @ x0) + pinv_y
    alpha = basis.T @ (x0 - projection)
    r = y - A @ projection
    f_star = 0.5 * float(r @ r) / n
    return QuadraticSpec(
        dim=d,
        sigma=sigma,
        basis=basis,
        projection=projection,
        alpha=alpha,
        x0=x0,
        f_star=f_star,
        source=(A, y),
    )


def build_fsep_quartic(d: int, quartic_coeff: float = 0.1, box_halfwidth: float = 1.0) -> ObjectiveSpec:
    """Strongly convex separable objective f(x) = sum_i (i x_i^2 + c x_i^4).

    The declared smoothness constant L = (2 + 12 c B^2) d holds on the box
    [-B, B]^d; the strong-convexity constant is mu = 2 globally.
    """
    d = positive_number(d, "dimension", int)
    c = finite_number(quartic_coeff, "quartic coefficient")
    if c < 0:
        raise InputError("quartic coefficient must be nonnegative")
    box = positive_number(box_halfwidth, "box halfwidth")
    weights = np.arange(1, d + 1, dtype=float)

    def value(x):
        x = np.asarray(x, dtype=float)
        return (weights * x**2 + c * x**4).sum(axis=-1)

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * weights * x + 4.0 * c * x**3

    return ObjectiveSpec(
        dim=d,
        value=value,
        gradient=gradient,
        L=(2.0 + 12.0 * c * box**2) * d,
        mu=2.0,
        f_star=0.0,
        optimal_set=SingletonSet(point=np.zeros(d)),
        name=f"fsep-quartic(d={d})",
        box_halfwidth=box,
    )
