"""Path-length bound formulas.

Every function returns the multiplicative factor in front of a distance
base (which base is recorded in the :class:`BoundReport` produced by
:func:`evaluate_bound`).  The convex/quasiconvex family is reported on a
log2 scale because the plain factor overflows floating point already in
moderate dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

from .errors import InputError, finite_number, positive_number

DIST_OPT = "dist(x0, X*)"
DIST_LIMIT = "||x0 - x_inf||"
DIST_STAR = "||x0 - x*||"


@dataclass(frozen=True)
class BoundReport:
    """A named bound factor together with the inputs it was built from."""

    name: str
    factor: float
    distance_base: str
    log2_scale: bool = False
    inputs: dict = field(default_factory=dict)


def _pick(which: str, gf, gd):
    """``gf`` for the flow variant ``"gf"``, ``gd`` for descent ``"gd"``."""
    if which == "gf":
        return gf
    if which == "gd":
        return gd
    raise InputError(f"unknown variant {which!r}")


def _check_linconv(a: float, c: float) -> tuple[float, float]:
    a, c = finite_number(a, "A"), finite_number(c, "c")
    if a < 1:
        raise InputError("linear-convergence prefactor A must be >= 1")
    if not 0 < c < 1:
        raise InputError("linear-convergence rate c must lie in (0, 1)")
    return a, c


def curvature_pair(mu: float, L: float) -> tuple[float, float]:
    """(mu, L), checked: both finite and 0 < mu <= L."""
    mu, L = finite_number(mu, "mu"), finite_number(L, "L")
    if not 0 < mu <= L:
        raise InputError("requires 0 < mu <= L")
    return mu, L


def bound_linconv_gd(a: float, c: float, eta: float, L: float) -> float:
    """Flow-free descent bound eta*A*L/c for linearly convergent iterates."""
    a, c = _check_linconv(a, c)
    eta, L = positive_number(eta, "eta"), positive_number(L, "L")
    return eta * a * L / c


def bound_linconv_gf(a: float, c: float, L: float) -> float:
    """Flow bound A*L / log(1/(1-c)) for linearly convergent dynamics."""
    a, c = _check_linconv(a, c)
    return a * positive_number(L, "L") / math.log(1.0 / (1.0 - c))

def bound_linconv_general(a: float, c: float) -> float:
    """Bound 2A/c for any update rule that descends towards all minimizers."""
    a, c = _check_linconv(a, c)
    return 2.0 * a / c


def bound_hb(mu: float, L: float) -> float:
    """Heavy-ball factor sqrt(kappa) for strongly convex objectives."""
    mu, L = curvature_pair(mu, L)
    return math.sqrt(L / mu)


def pgd_step_factor(eta: float, L: float) -> float:
    """Per-step contraction factor of projected gradient descent."""
    eta, L = finite_number(eta, "eta"), finite_number(L, "L")
    if eta < 0 or L < 0:
        raise InputError("eta and L must be nonnegative")
    half = (eta * L + 1.0) / 2.0
    return half + math.sqrt(eta * L + half * half)


def bound_pgd_factor(eta: float, L: float, a: float, c: float) -> float:
    """Projected-gradient bound: step factor times A/c."""
    a, c = _check_linconv(a, c)
    eta, L = positive_number(eta, "eta"), positive_number(L, "L")
    return pgd_step_factor(eta, L) * a / c


def bound_pkl(mu: float, L: float, which: str = "gf") -> float:
    """sqrt(kappa) (flow) or 2 sqrt(kappa) (descent, eta <= 1/L) under the PL inequality."""
    mu, L = curvature_pair(mu, L)
    root = math.sqrt(L / mu)
    return _pick(which, root, 2.0 * root)


def spectral_gap_term(kappa_j: float) -> float:
    """Per-gap contribution kappa_j^(-1/(kappa_j-1)) * (1 - 1/kappa_j).

    The limit value at kappa_j -> 1+ is 0; ratios within 1e-9 of 1 map
    to 0 to avoid catastrophic cancellation in the exponent.
    """
    kappa_j = finite_number(kappa_j, "spectral ratio")
    if kappa_j < 1:
        raise InputError("spectral ratios must be >= 1")
    if kappa_j < 1 + 1e-9:
        return 0.0
    return kappa_j ** (-1.0 / (kappa_j - 1.0)) * (1.0 - 1.0 / kappa_j)


def bound_quadratic(spectrum, which: str = "gf") -> float:
    """Quadratic-objective factor of the nonzero ``spectrum``, given in
    any order: min of the rank, spectral-gap and log-condition
    expressions; the descent variant adds 1."""
    extra = _pick(which, 0.0, 1.0)
    sigma = sorted((positive_number(s, "spectrum item") for s in spectrum), reverse=True)
    if not sigma:
        raise InputError("the spectrum must be nonempty")
    gap_sum = sum(spectral_gap_term(a / b) for a, b in zip(sigma, sigma[1:]))
    kappa = sigma[0] / sigma[-1]
    factor = min(
        math.sqrt(len(sigma)),
        1.0 + gap_sum,
        1.0 + 2.5 * math.sqrt(math.log(kappa)) if kappa > 1 else 1.0,
    )
    return factor + extra


def bound_fsep(mu: float, L: float) -> float:
    """Factor 2 + log(kappa) for separable strongly convex objectives
    with nondecreasing second derivative per coordinate."""
    mu, L = curvature_pair(mu, L)
    return 2.0 + math.log(L / mu)


def bound_convex_qc(d: int, which: str) -> float:
    """log2 of the convexity-only factors 2^(2d log d), 2^(10 d^2), 2^(4d log d).

    Returned on the log2 scale (the plain factor overflows for d >= 6);
    logs inside the exponents are natural.
    """
    d = finite_number(d, "d", int)
    if d < 2:
        raise InputError("the convexity-only analysis requires d >= 2")
    if which == "gf_quasiconvex":
        return 2.0 * d * math.log(d)
    if which == "gd_eta_invL":
        return 10.0 * d * d
    if which == "gd_eta_small":
        return 4.0 * d * math.log(d)
    raise InputError(f"unknown variant {which!r}")


def bound_separable(d: int) -> float:
    """Factor sqrt(d) for separable quasiconvex objectives."""
    return math.sqrt(positive_number(d, "d", int))


def lower_bound_pkl_dim(d: int, which: str = "gf") -> float:
    """Dimension branch sqrt(d)/(q log d) of the PL lower bound (d >= 6):
    the ratio the PL construction in dimension d forces on its own."""
    q = _pick(which, 6.0, 16.0)
    d = finite_number(d, "d", int)
    if d < 6:
        raise InputError("the PL lower bound is defined only for d >= 6")
    return math.sqrt(d) / (q * math.log(d))


def lower_bound_pkl(d: int, kappa: float, which: str = "gf") -> float:
    """Worst-case lower-bound factors for PL objectives: for d >= 6 and
    kappa >= 216, min(sqrt(d)/(q log d), kappa^(1/4)/(q log kappa)) with
    q = 6 (``gf``) resp. 16 (``gd``)."""
    kappa = finite_number(kappa, "kappa")
    if kappa < 216:
        raise InputError("the PL lower bound is defined only for kappa >= 216")
    return min(lower_bound_pkl_dim(d, which), kappa**0.25 / (_pick(which, 6.0, 16.0) * math.log(kappa)))


def lower_bound_linconv(c: float, which: str = "gf") -> float:
    """Worst-case lower-bound factors for linearly convergent dynamics:
    for c in (0, 5.8e-3), sqrt(1/c)/(q log^1.5(1/c)) with q = 12 (``gf``)
    resp. 64 (``gd``)."""
    q = _pick(which, 12.0, 64.0)
    c = finite_number(c, "c")
    if not 0 < c < 5.8e-3:
        raise InputError("the linear-convergence lower bound requires c in (0, 5.8e-3)")
    return math.sqrt(1.0 / c) / (q * math.log(1.0 / c) ** 1.5)


def lower_bound_quadratic(d: int, kappa: float, which: str = "gf") -> float:
    """Worst-case lower-bound factors for quadratics (kappa >= 5):
    min(0.7 sqrt(d), 0.45 sqrt(log kappa)) for the flow and
    min(0.5 sqrt(d), 0.3 sqrt(log kappa)) for descent at eta = 1/(2L)."""
    kappa = finite_number(kappa, "kappa")
    if kappa < 5:
        raise InputError("the quadratic lower bound requires kappa >= 5")
    d = positive_number(d, "d", int)
    root_log = math.sqrt(math.log(kappa))
    return _pick(which, min(0.7 * math.sqrt(d), 0.45 * root_log), min(0.5 * math.sqrt(d), 0.3 * root_log))


# ---------------------------------------------------------------------------
# Named evaluation for the CLI
# ---------------------------------------------------------------------------


#: name -> (factor function, its input names in call order, distance base).
#: Only the convexity-only family is measured against the limit point, and
#: only its factors are reported on the log2 scale.
BOUND_TABLE = {
    "linconv-gd": (bound_linconv_gd, ("A", "c", "eta", "L"), DIST_OPT),
    "linconv-gf": (bound_linconv_gf, ("A", "c", "L"), DIST_OPT),
    "linconv-general": (bound_linconv_general, ("A", "c"), DIST_OPT),
    "heavy-ball": (bound_hb, ("mu", "L"), DIST_STAR),
    "pgd": (bound_pgd_factor, ("eta", "L", "A", "c"), DIST_OPT),
    "pkl-gf": (partial(bound_pkl, which="gf"), ("mu", "L"), DIST_OPT),
    "pkl-gd": (partial(bound_pkl, which="gd"), ("mu", "L"), DIST_OPT),
    "quadratic-gf": (partial(bound_quadratic, which="gf"), ("spectrum",), DIST_OPT),
    "quadratic-gd": (partial(bound_quadratic, which="gd"), ("spectrum",), DIST_OPT),
    "fsep": (bound_fsep, ("mu", "L"), DIST_OPT),
    "convex-gf": (partial(bound_convex_qc, which="gf_quasiconvex"), ("d",), DIST_LIMIT),
    "convex-gd-std": (partial(bound_convex_qc, which="gd_eta_invL"), ("d",), DIST_LIMIT),
    "convex-gd-small-step": (partial(bound_convex_qc, which="gd_eta_small"), ("d",), DIST_LIMIT),
    "separable": (bound_separable, ("d",), DIST_OPT),
    "lower-pkl-gf": (partial(lower_bound_pkl, which="gf"), ("d", "kappa"), DIST_OPT),
    "lower-pkl-gd": (partial(lower_bound_pkl, which="gd"), ("d", "kappa"), DIST_OPT),
    "lower-linconv-gf": (partial(lower_bound_linconv, which="gf"), ("c",), DIST_OPT),
    "lower-linconv-gd": (partial(lower_bound_linconv, which="gd"), ("c",), DIST_OPT),
    "lower-quadratic-gf": (partial(lower_bound_quadratic, which="gf"), ("d", "kappa"), DIST_OPT),
    "lower-quadratic-gd": (partial(lower_bound_quadratic, which="gd"), ("d", "kappa"), DIST_OPT),
}

BOUND_NAMES = tuple(BOUND_TABLE)


def evaluate_bound(name: str, **inputs) -> BoundReport:
    """Evaluate a named bound from keyword inputs (A, c, eta, L, mu, d,
    kappa, spectrum, ...) and return a :class:`BoundReport`.

    Every given input must be finite (``d`` an integer, ``spectrum`` a
    sequence of numbers); anything else raises :class:`InputError`.
    """
    numbers = {
        key: [finite_number(v, "spectrum item") for v in value] if key == "spectrum"
        else finite_number(value, key, int if key == "d" else float)
        for key, value in inputs.items() if value is not None
    }
    if name not in BOUND_TABLE:
        raise InputError(f"unknown bound {name!r}; known: {', '.join(BOUND_NAMES)}")
    bound, keys, base = BOUND_TABLE[name]
    missing = [k for k in keys if k not in numbers]
    if missing:
        raise InputError(f"bound {name!r} requires inputs: {', '.join(missing)}")
    factor = bound(*(numbers[k] for k in keys))
    echoed = {k: v for k, v in inputs.items() if v is not None}
    return BoundReport(name=name, factor=float(factor), distance_base=base,
                       log2_scale=base == DIST_LIMIT, inputs=echoed)
