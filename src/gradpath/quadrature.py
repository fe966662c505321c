"""Adaptive Gauss-Kronrod quadrature on a finite interval.

A 15-point Kronrod rule with embedded 7-point Gauss rule supplies the
per-segment error estimate; the segment with the largest estimate is
bisected until the summed estimate drops below the requested absolute
tolerance.  The integrand must accept a 1-D array of abscissae and
return the values as an array.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import InputError, QuadratureError, finite_number, positive_number

# 15-point Kronrod abscissae on [-1, 1] (positive half) and weights; the
# odd-indexed nodes form the embedded 7-point Gauss rule.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])          # 15 ascending nodes
_KRONROD_W = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS_IDX = np.arange(1, 15, 2)                            # Gauss subset
_GAUSS_W = np.concatenate([_WG[:-1], _WG[::-1]])

#: Segments from which an unconverged integration raises QuadratureError.
MAX_SEGMENTS = 50_000


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    """Kronrod estimate and conservative |K - G| error for one segment."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * _NODES), dtype=float)
    k = half * float(_KRONROD_W @ fx)
    g = half * float(_GAUSS_W @ fx[_GAUSS_IDX])
    return k, abs(k - g)


def adaptive_quadrature(
    f,
    a: float,
    b: float,
    abs_tol: float,
    breakpoints=None,
) -> tuple[float, float, int]:
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``abs_tol``.

    ``breakpoints`` (finite numbers; those outside ``(a, b)`` are ignored)
    seeds the initial subdivision (useful when the integrand has widely
    separated active scales).  Returns
    ``(value, error_estimate, n_evaluations)``.
    """
    abs_tol = positive_number(abs_tol, "abs_tol")
    a, b = finite_number(a, "a"), finite_number(b, "b")
    if b < a:
        raise InputError("empty integration interval")
    if b == a:
        return 0.0, 0.0, 0

    edges = {a, b}
    for p in breakpoints or ():
        p = finite_number(p, "breakpoint")
        if a < p < b:
            edges.add(p)
    edges = sorted(edges)

    heap: list[tuple[float, float, float, float]] = []  # (-err, lo, hi, val)
    n_eval = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _gk15(f, lo, hi)
        n_eval += 15
        heapq.heappush(heap, (-err, lo, hi, val))

    while True:
        total_err = -sum(item[0] for item in heap)
        if total_err <= abs_tol:
            break
        if len(heap) >= MAX_SEGMENTS:
            raise QuadratureError(
                f"quadrature did not converge within {MAX_SEGMENTS} segments "
                f"(error estimate {total_err:.2e} > {abs_tol:.2e})"
            )
        _, lo, hi, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise QuadratureError(f"segment [{lo}, {hi}] cannot be bisected")
        for seg in ((lo, mid), (mid, hi)):
            val, err = _gk15(f, *seg)
            n_eval += 15
            heapq.heappush(heap, (-err, seg[0], seg[1], val))

    value = sum(item[3] for item in heap)
    return value, total_err, n_eval
