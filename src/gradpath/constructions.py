"""Worst-case lower-bound instances with their initial points and step sizes.

The PL instance is a separable sum of copies of a piecewise scalar
function g that is quadratic near the origin, tapers through a concave
and then a linear stretch, and rejoins a shallow quadratic tail; the
initial point staggers the coordinates so that they are captured one
per stage, which makes the trajectory follow cube edges rather than the
diagonal.  The quadratic instance has a geometric spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, finite_number, positive_number
from .objectives import Array, IntervalProductSet, ObjectiveSpec, QuadraticSpec


#: Smallest dimension of the PL lower-bound construction.
PKL_MIN_DIM = 6

#: Capture threshold of the geometric-spectrum quadratic's checkpoint
#: schedule under the eta = 1/(2 a_1) descent.
QUAD_GD_DELTA = math.exp(-3.0)


def _require_dim(d: int) -> int:
    d = finite_number(d, "d", int)
    if d < PKL_MIN_DIM:
        raise InputError(f"the PL lower-bound construction requires an integer d >= {PKL_MIN_DIM}")
    return d


@dataclass(frozen=True)
class PklConstruction:
    """Scalar component of the PL lower-bound objective.

    Pieces of g (delta = 1/d):
      x <= 0             : 0
      0 <= x <= 0.5      : x^2
      0.5 <= x <= 1-delta: 0.5 - (1-x)^2
      1-delta <= x <= gam: (0.5 - delta^2) + 2 delta (x - (1-delta))
      x >= gam           : quad_offset + quad_coeff * x^2

    gamma = 1 - delta + 6 log(1/(2 delta)); the tail coefficients make g
    continuously differentiable at gamma.  Globally L = 2 and the PL
    constant is mu = 2/(3 d^2).

    :meth:`_values` and :meth:`_derivs` write each piece's formula once, on
    the coordinates :meth:`_pieces` selects; :meth:`g` and :meth:`g_deriv`
    each run one of them, and :meth:`g_and_deriv` both over one
    selection.  For a 1-D input in ascending order each piece is one
    contiguous index run, found with 4 binary searches instead of one
    lookup per coordinate.  Descent on the staircase stays on that path: the
    staggered x0 is ascending (unless a reduced construction is lifted,
    which appends zeros), and with eta * L <= 1 the scalar map
    x -> x - eta g'(x) is nondecreasing, so every iterate is ascending
    too.  The order test, not that argument, makes each call correct;
    any other input takes per-coordinate masks.
    """

    d: int
    delta: float
    gamma: float
    quad_coeff: float   # tail x^2 coefficient (delta/gamma)
    quad_offset: float  # tail additive constant
    L: float
    mu: float

    @classmethod
    def build(cls, d: int) -> "PklConstruction":
        d = _require_dim(d)
        delta = 1.0 / d
        gamma = 1.0 - delta + 6.0 * math.log(1.0 / (2.0 * delta))
        quad_coeff = delta / gamma
        quad_offset = (0.5 - delta**2) + 2.0 * delta * (gamma - (1.0 - delta)) - quad_coeff * gamma**2
        return cls(
            d=d, delta=delta, gamma=gamma,
            quad_coeff=quad_coeff, quad_offset=quad_offset,
            L=2.0, mu=2.0 / (3.0 * d**2),
        )

    def __post_init__(self):
        object.__setattr__(self, "_edges", np.array(self.breakpoints))

    @property
    def breakpoints(self) -> tuple[float, float, float, float]:
        return (0.0, 0.5, 1.0 - self.delta, self.gamma)

    def _pieces(self, x: Array) -> list:
        """Selectors of the five pieces of g at ``x``: piece i holds the x
        with b_(i-1) < x <= b_i (piece 4: x > gamma, and NaN).  Slices when
        ``x`` is a 1-D array in ascending order, else boolean masks."""
        if x.ndim == 1 and (x[:-1] <= x[1:]).all():
            e1, e2, e3, e4 = x.searchsorted(self._edges, "right").tolist()
            return [slice(0, e1), slice(e1, e2), slice(e2, e3), slice(e3, e4), slice(e4, x.size)]
        piece = np.searchsorted(self._edges, x)
        return [piece == i for i in range(5)]

    def _values(self, x: Array, pieces: list) -> Array:
        """g at ``x``, piece by selected piece; an empty piece (on the
        descent, always the tail) is not written."""
        value = np.empty(x.shape)
        zero, quad, cap, linear, tail = pieces
        if _occupied(zero):
            value[zero] = 0.0
        if _occupied(quad):
            value[quad] = x[quad] ** 2
        if _occupied(cap):
            value[cap] = 0.5 - (1.0 - x[cap]) ** 2
        if _occupied(linear):
            value[linear] = (0.5 - self.delta**2) + 2.0 * self.delta * (x[linear] - (1.0 - self.delta))
        if _occupied(tail):
            value[tail] = self.quad_offset + self.quad_coeff * x[tail] ** 2
        return value

    def _derivs(self, x: Array, pieces: list) -> Array:
        """g' at ``x``, piece by selected piece."""
        deriv = np.empty(x.shape)
        zero, quad, cap, linear, tail = pieces
        if _occupied(zero):
            deriv[zero] = 0.0
        if _occupied(quad):
            deriv[quad] = 2.0 * x[quad]
        if _occupied(cap):
            deriv[cap] = 2.0 * (1.0 - x[cap])
        if _occupied(linear):
            deriv[linear] = 2.0 * self.delta
        if _occupied(tail):
            deriv[tail] = (2.0 * self.quad_coeff) * x[tail]
        return deriv

    def g_and_deriv(self, x) -> tuple[Array, Array]:
        """``(g(x), g'(x))`` from one selection of the pieces."""
        x = np.asarray(x, dtype=float)
        pieces = self._pieces(x)
        return self._values(x, pieces), self._derivs(x, pieces)

    def g(self, x) -> Array:
        x = np.asarray(x, dtype=float)
        return self._values(x, self._pieces(x))

    def g_deriv(self, x) -> Array:
        x = np.asarray(x, dtype=float)
        return self._derivs(x, self._pieces(x))

    def to_objective(self, name: str, dim: int | None = None) -> ObjectiveSpec:
        """The separable objective sum_i g(x_i) in dimension ``dim``.

        ``dim`` defaults to ``d``; a larger ``dim`` lifts a reduced
        construction, whose extra coordinates then stay idle at 0.
        """
        dim = self.d if dim is None else finite_number(dim, "dimension", int)
        if dim < self.d:
            raise InputError(f"cannot embed the d={self.d} construction in dimension {dim}")

        def value_and_gradient(x):
            value, deriv = self.g_and_deriv(x)
            return value.sum(axis=-1), deriv

        return ObjectiveSpec(
            dim=dim,
            value=lambda x: self.g(x).sum(axis=-1),
            gradient=self.g_deriv,
            value_and_gradient=value_and_gradient,
            L=self.L,
            mu=self.mu,
            f_star=0.0,
            optimal_set=IntervalProductSet(
                lo=np.full(dim, -math.inf), hi=np.zeros(dim)
            ),
            name=name,
        )


def _occupied(piece) -> bool:
    """Whether a selector of :meth:`PklConstruction._pieces` selects anything."""
    return piece.start < piece.stop if type(piece) is slice else bool(piece.any())


def _active_dimension(d: int, target_kappa: float | None) -> int:
    """d (already checked), or with ``target_kappa`` the largest d' with
    3 d'^2 <= target_kappa (at least 6), capped at d.

    Implements the component-dropping reduction used when the requested
    condition number is below 3 d^2.
    """
    if target_kappa is None:
        return d
    target_kappa = finite_number(target_kappa, "target_kappa")
    if target_kappa < 216:
        raise InputError("target_kappa must be at least 216")
    d_prime = int(math.floor(math.sqrt(target_kappa / 3.0)))
    return max(PKL_MIN_DIM, min(d, d_prime))


def _staggered_x0(d: int, kind: PklConstruction, spacing: float) -> Array:
    """x0 in dimension d: 0.5, then the other active coordinates from
    1 - delta on, ``spacing`` apart; coordinates past ``kind.d`` stay 0."""
    x0 = np.zeros(d)
    x0[0] = 0.5
    x0[1:kind.d] = (1.0 - kind.delta) + spacing * np.arange(kind.d - 1)
    return x0


@dataclass(frozen=True)
class PklGfInstance:
    objective: ObjectiveSpec
    x0: Array
    construction: PklConstruction

    @property
    def stage_time(self) -> float:
        """Flow time for one component capture: log(1/(2 delta)) / 2."""
        return math.log(1.0 / (2.0 * self.construction.delta)) / 2.0


def build_pkl_gf_instance(d: int, target_kappa: float | None = None) -> PklGfInstance:
    """Flow instance: staggered x0 with spacing delta * log(1/(2 delta)).

    ``target_kappa`` (if given) shrinks the number of active components
    so the nominal condition number 3 d'^2 does not exceed it.
    """
    d = _require_dim(d)
    kind = PklConstruction.build(_active_dimension(d, target_kappa))
    x0 = _staggered_x0(d, kind, kind.delta * math.log(1.0 / (2.0 * kind.delta)))
    obj = kind.to_objective(name=f"pkl-lower-gf(d={d})", dim=d)
    return PklGfInstance(objective=obj, x0=x0, construction=kind)


@dataclass(frozen=True)
class PklGdInstance:
    """Descent instance with its admissible step and stage length.

    eta lies in [1/4, 1/2] and satisfies (1 + 2 eta)^k1 = 1/(2 delta)
    exactly, so a staged component reaches 0.5 after k1 steps.
    """

    objective: ObjectiveSpec
    x0: Array
    eta: float
    k1: int
    construction: PklConstruction

    def __post_init__(self):
        if not (0.25 <= self.eta <= 0.5):
            raise InputError("eta must lie in [1/4, 1/2]")


def select_gd_stage(d: int) -> tuple[float, int]:
    """Smallest k1 with eta = ((d/2)^(1/k1) - 1)/2 in [1/4, 1/2]."""
    d = _require_dim(d)
    ratio = d / 2.0
    for k1 in range(1, int(3.0 * math.log(ratio)) + 3):
        eta = (ratio ** (1.0 / k1) - 1.0) / 2.0
        if 0.25 <= eta <= 0.5:
            return eta, k1
    raise InputError(f"no admissible stage length for d={d}")  # pragma: no cover


def build_pkl_gd_instance(d: int, target_kappa: float | None = None) -> PklGdInstance:
    """Descent instance: staggered x0 with spacing 2 eta k1 delta."""
    d = _require_dim(d)
    kind = PklConstruction.build(_active_dimension(d, target_kappa))
    eta, k1 = select_gd_stage(kind.d)
    x0 = _staggered_x0(d, kind, 2.0 * eta * k1 * kind.delta)
    obj = kind.to_objective(name=f"pkl-lower-gd(d={d})", dim=d)
    return PklGdInstance(objective=obj, x0=x0, eta=eta, k1=k1, construction=kind)


# ---------------------------------------------------------------------------
# Quadratic lower-bound constructions
# ---------------------------------------------------------------------------


def build_quad_lower(d: int, omega: float) -> QuadraticSpec:
    """Geometric-spectrum quadratic 0.5 * sum_i a_i x_i^2, a_i = omega^(d-i),
    with x0 = all-ones and condition number omega^(d-1).  The spectrum is
    already descending, so the spec's basis is the identity and its
    objective evaluates the gradient elementwise.  The descent
    eta = 1/(2 a_1) (:func:`gd_step`) passes coordinate i after
    k_i = 3 omega^(i-1) steps (QUAD_GD_DELTA = e^-3), integers whenever
    omega is an integer."""
    d, omega = positive_number(d, "dimension", int), finite_number(omega, "omega")
    if omega <= 1:
        raise InputError("omega must be finite and exceed 1")
    powers = np.arange(d - 1, -1, -1, dtype=float)
    return QuadraticSpec.diagonal(np.power(omega, powers), np.ones(d))


def gd_step(spec: QuadraticSpec) -> float:
    """Descent step 1/(2 sigma_1) of the quadratic lower bounds."""
    return 1.0 / (2.0 * float(spec.sigma[0]))


def build_quad_random(d: int, kappa: float, seed: int) -> QuadraticSpec:
    """Random-spectrum comparison quadratic 0.5 * sum_i a_i x_i^2: a_1 = 1,
    a_d = 1/kappa, interior Unif(1/kappa, 1); x0 scaled to ||x0|| = sqrt(d).

    Draws come from a seeded counter-based generator (Philox), so a
    fixed seed reproduces the instance bit-for-bit across runs.
    """
    d, kappa = finite_number(d, "d", int), finite_number(kappa, "kappa")
    seed = finite_number(seed, "seed", int)
    if d < 2:
        raise InputError("random spectra need d >= 2")
    if kappa <= 1:
        raise InputError("kappa must be finite and exceed 1")
    if seed < 0:
        raise InputError(f"seed must be a nonnegative integer, got {seed!r}")
    rng = np.random.Generator(np.random.Philox(seed))
    a = np.empty(d)
    a[0] = 1.0
    a[-1] = 1.0 / kappa
    if d > 2:
        a[1:-1] = rng.uniform(1.0 / kappa, 1.0, d - 2)
    x0 = rng.uniform(0.0, 1.0, d)
    x0 *= math.sqrt(d) / float(np.linalg.norm(x0))
    return QuadraticSpec.diagonal(a, x0)


def construction_linconv_constants(d: int, which: str = "gf") -> tuple[float, float]:
    """Certified (A, c) of the PL instance: c = 1/(4 d log d) for the flow,
    1/(16 d log d) for descent, both with A = 1."""
    d = _require_dim(d)
    if which == "gf":
        return 1.0, 1.0 / (4.0 * d * math.log(d))
    if which == "gd":
        return 1.0, 1.0 / (16.0 * d * math.log(d))
    raise InputError(f"unknown variant {which!r}")
