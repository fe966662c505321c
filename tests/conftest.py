import dataclasses

import numpy as np
import pytest

from gradpath import ObjectiveSpec, QuadraticSpec


def random_convex_quadratic(rng, d_min=2, d_max=5, sigma_range=(0.2, 5.0)):
    """Rotated positive-definite quadratic with a random offset and start."""
    d = int(rng.integers(d_min, d_max + 1))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    sigma = np.sort(rng.uniform(*sigma_range, d))[::-1]
    p = rng.standard_normal(d)
    x0 = p + q @ rng.standard_normal(d)
    return QuadraticSpec(
        dim=d, sigma=sigma, basis=q, projection=p,
        alpha=q.T @ (x0 - p), x0=x0,
    )


def dense_reference(spec):
    """A diagonal ``spec`` with its permutation basis written out as the dense
    matrix of coordinate axes, so that it evaluates through the eigen form's
    products: an independent reference for the gather, scatter and
    elementwise paths."""
    return dataclasses.replace(spec, basis=np.eye(spec.dim)[:, spec.basis])


def scalar_objective(value, deriv):
    return ObjectiveSpec(
        dim=1,
        value=lambda x: float(value(x[0])),
        gradient=lambda x: np.array([deriv(x[0])]),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def run_observed(runner, *args, **kwargs):
    """A discrete run and its iterates x_0 ... x_N stacked into an (N + 1, d)
    array, each copied as the run's ``observe`` sees it."""
    points = []
    traj = runner(*args, observe=lambda x, f, g: points.append(x.copy()), **kwargs)
    return traj, np.array(points)
