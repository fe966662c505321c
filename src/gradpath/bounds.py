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

import numpy as np

from .errors import InputError, finite_number
from .objectives import QuadraticSpec

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


def _check_linconv(a: float, c: float):
    if a < 1:
        raise InputError("linear-convergence prefactor A must be >= 1")
    if not (0 < c < 1):
        raise InputError("linear-convergence rate c must lie in (0, 1)")


def bound_linconv_gd(a: float, c: float, eta: float, L: float) -> float:
    """Flow-free descent bound eta*A*L/c for linearly convergent iterates."""
    _check_linconv(a, c)
    if eta <= 0 or L <= 0:
        raise InputError("eta and L must be positive")
    return eta * a * L / c


def bound_linconv_gf(a: float, c: float, L: float) -> float:
    """Flow bound A*L / log(1/(1-c)) for linearly convergent dynamics."""
    _check_linconv(a, c)
    if L <= 0:
        raise InputError("L must be positive")
    return a * L / math.log(1.0 / (1.0 - c))

def bound_linconv_general(a: float, c: float) -> float:
    """Bound 2A/c for any update rule that descends towards all minimizers."""
    _check_linconv(a, c)
    return 2.0 * a / c


def bound_hb(mu: float, L: float) -> float:
    """Heavy-ball factor sqrt(kappa) for strongly convex objectives."""
    if not (0 < mu <= L):
        raise InputError("requires 0 < mu <= L")
    return math.sqrt(L / mu)


def pgd_step_factor(eta: float, L: float) -> float:
    """Per-step contraction factor of projected gradient descent."""
    if eta < 0 or L < 0:
        raise InputError("eta and L must be nonnegative")
    half = (eta * L + 1.0) / 2.0
    return half + math.sqrt(eta * L + half * half)


def bound_pgd_factor(eta: float, L: float, a: float, c: float) -> float:
    """Projected-gradient bound: step factor times A/c."""
    _check_linconv(a, c)
    if eta <= 0 or L <= 0:
        raise InputError("eta and L must be positive")
    return pgd_step_factor(eta, L) * a / c


def bound_pkl(mu: float, L: float, which: str = "gf") -> float:
    """sqrt(kappa) (flow) or 2 sqrt(kappa) (descent, eta <= 1/L) under the PL inequality."""
    if not (0 < mu <= L):
        raise InputError("requires 0 < mu <= L")
    root = math.sqrt(L / mu)
    if which == "gf":
        return root
    if which == "gd":
        return 2.0 * root
    raise InputError(f"unknown variant {which!r}")


def spectral_gap_term(kappa_j: float) -> float:
    """Per-gap contribution kappa_j^(-1/(kappa_j-1)) * (1 - 1/kappa_j).

    The limit value at kappa_j -> 1+ is 0; ratios within 1e-9 of 1 map
    to 0 to avoid catastrophic cancellation in the exponent.
    """
    if kappa_j < 1:
        raise InputError("spectral ratios must be >= 1")
    if kappa_j < 1 + 1e-9:
        return 0.0
    return kappa_j ** (-1.0 / (kappa_j - 1.0)) * (1.0 - 1.0 / kappa_j)


def bound_quadratic(spec: QuadraticSpec, which: str = "gf") -> float:
    """Quadratic-objective factor: min of the rank, spectral-gap and
    log-condition expressions; the descent variant adds 1."""
    if which not in ("gf", "gd"):
        raise InputError(f"unknown variant {which!r}")
    gap_sum = sum(spectral_gap_term(float(k)) for k in spec.kappa_js)
    factor = min(
        math.sqrt(spec.dplus),
        1.0 + gap_sum,
        1.0 + 2.5 * math.sqrt(math.log(spec.kappa)) if spec.kappa > 1 else 1.0,
    )
    return factor + 1.0 if which == "gd" else factor


def bound_fsep(mu: float, L: float) -> float:
    """Factor 2 + log(kappa) for separable strongly convex objectives
    with nondecreasing second derivative per coordinate."""
    if not (0 < mu <= L):
        raise InputError("requires 0 < mu <= L")
    return 2.0 + math.log(L / mu)


def bound_convex_qc(d: int, which: str) -> float:
    """log2 of the convexity-only factors 2^(2d log d), 2^(10 d^2), 2^(4d log d).

    Returned on the log2 scale (the plain factor overflows for d >= 6);
    logs inside the exponents are natural.
    """
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
    if d < 1:
        raise InputError("dimension must be a positive integer")
    return math.sqrt(d)


def lower_bound_pkl(
    d: int | None = None,
    kappa: float | None = None,
    which: str = "gf",
    c: float | None = None,
) -> float:
    """Worst-case lower-bound factors for PL objectives.

    ``gf``/``gd`` need d >= 6 and kappa >= 216 and return
    min(sqrt(d)/(q log d), kappa^(1/4)/(q log kappa)) with q = 6 resp. 16.
    ``linconv_gf``/``linconv_gd`` need c in (0, 5.8e-3) and return
    sqrt(1/c)/(q log^1.5(1/c)) with q = 12 resp. 64.
    """
    if which in ("gf", "gd"):
        if d is None or kappa is None:
            raise InputError("d and kappa are required for the PL forms")
        if d < 6 or kappa < 216:
            raise InputError("the PL lower bound is defined only for d >= 6 and kappa >= 216")
        q = 6.0 if which == "gf" else 16.0
        return min(
            math.sqrt(d) / (q * math.log(d)),
            kappa**0.25 / (q * math.log(kappa)),
        )
    if which in ("linconv_gf", "linconv_gd"):
        if c is None:
            raise InputError("c is required for the linear-convergence forms")
        if not (0 < c < 5.8e-3):
            raise InputError("the linear-convergence lower bound requires c in (0, 5.8e-3)")
        q = 12.0 if which == "linconv_gf" else 64.0
        return math.sqrt(1.0 / c) / (q * math.log(1.0 / c) ** 1.5)
    raise InputError(f"unknown variant {which!r}")


def lower_bound_quadratic(d: int, kappa: float, which: str = "gf") -> float:
    """Worst-case lower-bound factors for quadratics (kappa >= 5):
    min(0.7 sqrt(d), 0.45 sqrt(log kappa)) for the flow and
    min(0.5 sqrt(d), 0.3 sqrt(log kappa)) for descent at eta = 1/(2L)."""
    if kappa < 5:
        raise InputError("the quadratic lower bound requires kappa >= 5")
    if d < 1:
        raise InputError("dimension must be a positive integer")
    root_log = math.sqrt(math.log(kappa))
    if which == "gf":
        return min(0.7 * math.sqrt(d), 0.45 * root_log)
    if which == "gd":
        return min(0.5 * math.sqrt(d), 0.3 * root_log)
    raise InputError(f"unknown variant {which!r}")


# ---------------------------------------------------------------------------
# Named evaluation for the CLI
# ---------------------------------------------------------------------------

BOUND_NAMES = (
    "linconv-gd", "linconv-gf", "linconv-general", "heavy-ball", "pgd",
    "pkl-gf", "pkl-gd", "quadratic-gf", "quadratic-gd", "fsep",
    "convex-gf", "convex-gd-std", "convex-gd-small-step", "separable",
    "lower-pkl-gf", "lower-pkl-gd", "lower-linconv-gf", "lower-linconv-gd",
    "lower-quadratic-gf", "lower-quadratic-gd",
)


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

    def need(*keys):
        missing = [k for k in keys if k not in numbers]
        if missing:
            raise InputError(f"bound {name!r} requires inputs: {', '.join(missing)}")
        return [numbers[k] for k in keys]

    base = DIST_OPT
    log2 = False
    if name == "linconv-gd":
        a, c, eta, L = need("A", "c", "eta", "L")
        factor = bound_linconv_gd(a, c, eta, L)
    elif name == "linconv-gf":
        a, c, L = need("A", "c", "L")
        factor = bound_linconv_gf(a, c, L)
    elif name == "linconv-general":
        a, c = need("A", "c")
        factor = bound_linconv_general(a, c)
    elif name == "heavy-ball":
        mu, L = need("mu", "L")
        factor = bound_hb(mu, L)
        base = DIST_STAR
    elif name == "pgd":
        eta, L, a, c = need("eta", "L", "A", "c")
        factor = bound_pgd_factor(eta, L, a, c)
    elif name in ("pkl-gf", "pkl-gd"):
        mu, L = need("mu", "L")
        factor = bound_pkl(mu, L, which=name[-2:])
    elif name in ("quadratic-gf", "quadratic-gd"):
        (spectrum,) = need("spectrum")
        spec = QuadraticSpec.diagonal(spectrum, np.zeros(len(spectrum)))
        factor = bound_quadratic(spec, which=name[-2:])
    elif name == "fsep":
        mu, L = need("mu", "L")
        factor = bound_fsep(mu, L)
    elif name in ("convex-gf", "convex-gd-std", "convex-gd-small-step"):
        (d,) = need("d")
        which = {"convex-gf": "gf_quasiconvex",
                 "convex-gd-std": "gd_eta_invL",
                 "convex-gd-small-step": "gd_eta_small"}[name]
        factor = bound_convex_qc(d, which)
        base = DIST_LIMIT
        log2 = True
    elif name == "separable":
        (d,) = need("d")
        factor = bound_separable(d)
    elif name in ("lower-pkl-gf", "lower-pkl-gd"):
        d, kappa = need("d", "kappa")
        factor = lower_bound_pkl(d, kappa, which=name[-2:])
    elif name in ("lower-linconv-gf", "lower-linconv-gd"):
        (c,) = need("c")
        factor = lower_bound_pkl(which="linconv_" + name[-2:], c=c)
    elif name in ("lower-quadratic-gf", "lower-quadratic-gd"):
        d, kappa = need("d", "kappa")
        factor = lower_bound_quadratic(d, kappa, which=name[-2:])
    else:
        raise InputError(f"unknown bound {name!r}; known: {', '.join(BOUND_NAMES)}")

    echoed = {k: v for k, v in inputs.items() if v is not None}
    return BoundReport(name=name, factor=float(factor), distance_base=base,
                       log2_scale=log2, inputs=echoed)
