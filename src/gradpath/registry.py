"""Named objective instances for the harness and CLI.

Instances are addressed by a registry string such as ``"quad-geom"`` or
``"quad-geom:d=6,omega=11"``; parameters not given fall back to the
instance defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constructions
from .errors import InputError, finite_number
from .objectives import Array, ObjectiveSpec, build_fsep_quartic


@dataclass(frozen=True)
class Instance:
    """A runnable zoo member: objective, initial point, suggested step."""

    label: str
    objective: ObjectiveSpec
    x0: Array
    eta: float | None = None


def _quad_geom(d: int = 6, omega: float = 11.0) -> Instance:
    built = constructions.build_quad_lower(int(d), float(omega))
    return Instance(
        label=f"quad-geom(d={int(d)},omega={omega:g})",
        objective=built.to_objective(),
        x0=built.x0,
        eta=built.eta,
    )


def _quad_random(d: int = 10, kappa: float = 100.0, seed: int = 0) -> Instance:
    built = constructions.build_quad_random(int(d), float(kappa), int(seed))
    obj = built.to_objective()
    return Instance(
        label=obj.name,
        objective=obj,
        x0=built.x0,
        eta=1.0 / (2.0 * float(built.coefficients.max())),
    )


def _pkl_lower_gf(d: int = 6) -> Instance:
    built = constructions.build_pkl_gf_instance(int(d))
    return Instance(
        label=built.objective.name,
        objective=built.objective,
        x0=built.x0,
        eta=0.5,  # 1/L, admissible for descent runs on the same instance
    )


def _pkl_lower_gd(d: int = 6) -> Instance:
    built = constructions.build_pkl_gd_instance(int(d))
    return Instance(
        label=built.objective.name,
        objective=built.objective,
        x0=built.x0,
        eta=built.eta,
    )


def _fsep_quartic(d: int = 3, coeff: float = 0.1, box: float = 1.0) -> Instance:
    obj = build_fsep_quartic(int(d), float(coeff), float(box))
    return Instance(
        label=obj.name,
        objective=obj,
        x0=np.full(int(d), min(1.0, float(box))),
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
    try:
        factory = REGISTRY[name]
    except KeyError:
        raise InputError(f"unknown objective {name!r}; known: {', '.join(sorted(REGISTRY))}")
    try:
        return factory(**params)
    except TypeError as exc:
        raise InputError(f"bad parameters for {name!r}: {exc}") from exc


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
