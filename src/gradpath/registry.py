"""Named objective instances for the harness and CLI.

Instances are addressed by a registry string such as ``"quad-geom"`` or
``"quad-geom:d=6,omega=11"``; parameters not given fall back to the
instance defaults.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from . import constructions
from .errors import InputError, finite_number
from .objectives import Array, ObjectiveSpec, build_fsep_quartic


@dataclass(frozen=True)
class Instance:
    """A runnable zoo member: objective, initial point, suggested step."""

    objective: ObjectiveSpec
    x0: Array
    eta: float | None = None


def _quad_geom(d: int = 6, omega: float = 11.0) -> Instance:
    spec = constructions.build_quad_lower(d, omega)
    return Instance(
        objective=spec.to_objective(name=f"quad-geom(d={spec.dim},omega={float(omega)})"),
        x0=spec.x0,
        eta=constructions.gd_step(spec),
    )


def _quad_random(d: int = 10, kappa: float = 100.0, seed: int = 0) -> Instance:
    spec = constructions.build_quad_random(d, kappa, seed)
    return Instance(
        objective=spec.to_objective(name=f"quad-random(d={spec.dim},kappa={float(kappa):g},seed={int(seed)})"),
        x0=spec.x0,
        eta=constructions.gd_step(spec),
    )


def _pkl_lower_gf(d: int = 6) -> Instance:
    built = constructions.build_pkl_gf_instance(d)
    return Instance(
        objective=built.objective,
        x0=built.x0,
        eta=1.0 / built.objective.L,  # admissible for descent runs on the same instance
    )


def _pkl_lower_gd(d: int = 6) -> Instance:
    built = constructions.build_pkl_gd_instance(d)
    return Instance(
        objective=built.objective,
        x0=built.x0,
        eta=built.eta,
    )


def _fsep_quartic(d: int = 3, coeff: float = 0.1, box: float = 1.0) -> Instance:
    obj = build_fsep_quartic(d, coeff, box)
    return Instance(
        objective=obj,
        x0=np.full(obj.dim, min(1.0, obj.box_halfwidth)),
        eta=1.0 / obj.L,
    )


REGISTRY = {
    "quad-geom": _quad_geom,
    "quad-random": _quad_random,
    "pkl-lower": _pkl_lower_gf,  # short alias for the flow-flavored instance
    "pkl-lower-gf": _pkl_lower_gf,
    "pkl-lower-gd": _pkl_lower_gd,
    "fsep-quartic": _fsep_quartic,
}


def make_instance(name: str, **params) -> Instance:
    if name not in REGISTRY:
        raise InputError(f"unknown objective {name!r}; known: {', '.join(sorted(REGISTRY))}")
    factory = REGISTRY[name]
    known = inspect.signature(factory).parameters
    unknown = [key for key in params if key not in known]
    if unknown:
        raise InputError(f"bad parameters for {name!r}: {', '.join(unknown)}; known: {', '.join(known)}")
    return factory(**params)


def parse_instance(text: str) -> Instance:
    """Parse ``"name"`` or ``"name:key=value,key=value"`` registry strings."""
    name, sep, raw = text.partition(":")
    params: dict = {}
    if sep:
        for item in raw.split(","):
            if not item:
                continue
            key, eq, value = item.partition("=")
            if not eq:
                raise InputError(f"bad parameter {item!r} in {text!r}")
            key = key.strip()
            value = value.strip()
            params[key] = finite_number(value, f"{key} in {text!r}", int if key in ("d", "seed") else float)
    return make_instance(name.strip(), **params)
