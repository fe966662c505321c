"""Experiment orchestration: configs, runs, CSV emission, plot scripts.

Experiments are driven by a flat key/value config; every run is a pure
function of the config and its seeds, so identical configs produce
identical CSV files up to the runtime column.  Each CSV experiment is a
grid of independent points.  A grid with at least two points projected
to take ``FORK_MIN_STEPS`` descent steps or more is spread over forked
workers (module ``workers``), one per CPU this process may use (POSIX
``os.fork`` and ``os.sched_getaffinity``); any other grid, or a platform
without them, runs in this process.  Each point is pure and the rows are sorted, so
the rows do not depend on the worker count.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import bounds, constructions
from .analysis import PlRatio, path_length_discrete, path_length_quadratic_gf
from .analysis import effective_pkl_mu  # noqa: F401  (re-exported; bench/workloads.py traces it)
from .errors import InputError, InvariantViolation, finite_number, positive_number
from .optimizers import StopRule, gd_run
from .properties import run_property_suite

#: Relative slack granted to the bound sandwich (quadrature error).
SANDWICH_SLACK = 1e-9

#: Projected gradient-descent steps (about 0.1 s of descent) from which a
#: grid point gets a forked worker of its own; a fork costs 40-60 ms.
FORK_MIN_STEPS = 10_000


def f1_dimension_grid(low: float = math.e**2, high: float = math.e**5, count: int = 15) -> tuple[int, ...]:
    """Log-spaced integer dimensions inside [low, high] (deduplicated)."""
    low, high = finite_number(low, "low"), finite_number(high, "high")
    count = finite_number(count, "count", int)
    if not (6 <= low < high) or count < 1:
        raise InputError("need 6 <= low < high and count >= 1")
    lo, hi = math.ceil(low), math.floor(high)
    points = np.exp(np.linspace(math.log(low), math.log(high), count))
    dims = sorted({min(hi, max(lo, int(round(p)))) for p in points})
    return tuple(dims)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    dims: tuple[int, ...] = ()
    omegas: tuple[float, ...] = ()
    kappas: tuple[float, ...] = ()
    seeds: tuple[int, ...] = (0,)
    mu_mode: str = "min"
    quad_abs_tol: float = 1e-12
    stop_norm: float = 1e-6
    stop_coords: float = 1e-2
    safety_cap: int = 5_000_000
    out: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise InputError(f"unknown experiment {self.experiment!r}; known: {', '.join(EXPERIMENTS)}")
        if self.mu_mode not in ("min", "paper_max"):
            raise InputError(f"unknown mu_mode {self.mu_mode!r}")
        object.__setattr__(self, "dims", tuple(positive_number(d, "dims", int) for d in self.dims))
        for name, kind in CONFIG_KEYS.items():
            if kind in (int, float):
                object.__setattr__(self, name, positive_number(getattr(self, name), name, kind))


def default_config(experiment: str) -> ExperimentConfig:
    cfg = ExperimentConfig(experiment)  # rejects an unknown id
    return replace(cfg, **EXPERIMENT_TABLE[experiment].grid)


#: How a config file's value is read, per key; ``(kind,)`` is a
#: comma-separated list.  The scalar number keys take positive values.
CONFIG_KEYS = {
    "experiment": str, "mu_mode": str, "out": str,
    "dims": (int,), "seeds": (int,), "omegas": (float,), "kappas": (float,),
    "safety_cap": int,
    "quad_abs_tol": float, "stop_norm": float, "stop_coords": float,
}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat ``key = value`` config format (unknown keys are errors)."""
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, value = stripped.partition("=")
        if not eq:
            raise InputError(f"config line {lineno}: expected 'key = value', got {stripped!r}")
        key, value = key.strip(), value.strip()
        where = f"config line {lineno}: {key}"
        kind = CONFIG_KEYS.get(key)
        if kind is None:
            raise InputError(f"config line {lineno}: unknown key {key!r}")
        if isinstance(kind, tuple):
            items = [v for v in (s.strip() for s in value.split(",")) if v]
            raw[key] = tuple(finite_number(v, where, kind[0]) for v in items)
        elif kind is str:
            raw[key] = value
        else:
            raw[key] = finite_number(value, where, kind)
    if "experiment" not in raw:
        raise InputError("config must set 'experiment'")
    cfg = default_config(raw.pop("experiment"))
    return replace(cfg, **raw)


def load_config(path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text())


# ---------------------------------------------------------------------------
# Result rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    d: int
    omega: float | None
    kappa_nominal: float
    kappa_effective: float | None
    mu_mode: str
    dist0: float
    zeta: float | None
    ratio: float | None
    bound_upper: float | None
    bound_lower: float | None
    steps: int
    runtime_s: float
    seed: int | None
    stop_reason: str

    def sort_key(self):
        return (
            self.experiment,
            self.d,
            self.omega if self.omega is not None else float("-inf"),
            self.seed if self.seed is not None else -1,
        )

    def csv_fields(self) -> list[str]:
        """One cell per CSV column: None is empty, a float its repr, anything else its str."""
        values = (getattr(self, column.name) for column in fields(self))
        return ["" if v is None else repr(v) if isinstance(v, float) else str(v) for v in values]


CSV_HEADER = ",".join(column.name for column in fields(ResultRow))


def _verify_sandwich(row: ResultRow):
    """Construction rows must satisfy bound_lower <= ratio <= bound_upper."""
    if row.stop_reason == "cap" or row.ratio is None:
        return
    if row.bound_lower is not None and row.ratio < row.bound_lower * (1 - SANDWICH_SLACK):
        raise InvariantViolation(
            f"{row.experiment} d={row.d} omega={row.omega}: "
            f"ratio {row.ratio!r} below lower bound {row.bound_lower!r}"
        )
    if row.bound_upper is not None and row.ratio > row.bound_upper * (1 + SANDWICH_SLACK):
        raise InvariantViolation(
            f"{row.experiment} d={row.d} omega={row.omega}: "
            f"ratio {row.ratio!r} above upper bound {row.bound_upper!r}"
        )


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------


def _pkl_point(point, cfg: ExperimentConfig) -> ResultRow:
    (d,) = point
    start = time.perf_counter()
    inst = constructions.build_pkl_gd_instance(d)
    pl = PlRatio(inst.objective)
    traj = gd_run(
        inst.objective, inst.x0, inst.eta,
        StopRule.norm_below(cfg.stop_norm), safety_cap=cfg.safety_cap,
        keep_iterates=False, observe=pl,
    )
    rep = path_length_discrete(traj, inst.objective.optimal_set)
    mu_eff = pl.aggregate(cfg.mu_mode)
    kappa_nom = 3.0 * d * d
    # the instance's own guarantee is the dimension branch of the PL
    # lower bound; the kappa branch only enters via dimension reduction
    lower = math.sqrt(d) / (16.0 * math.log(d))
    return ResultRow(
        experiment=cfg.experiment, d=d, omega=None,
        kappa_nominal=kappa_nom,
        kappa_effective=inst.objective.L / mu_eff,
        mu_mode=cfg.mu_mode,
        dist0=rep.dist0, zeta=rep.length, ratio=rep.ratio,
        bound_upper=bounds.bound_pkl(inst.objective.mu, inst.objective.L, "gd"),
        bound_lower=lower,
        steps=traj.n_steps, runtime_s=time.perf_counter() - start,
        seed=None, stop_reason=traj.stop_reason,
    )


def _projected_gd_steps(c: constructions.QuadLowerConstruction, stop_coords: float) -> int:
    """A priori step estimate for the geometric-spectrum descent run."""
    if c.d < 2:
        return 0
    slowest_checked = float(c.spectrum[-2])
    rate = -math.log1p(-c.eta * slowest_checked)
    return int(math.ceil(math.log(1.0 / stop_coords) / rate))


def _quad_gd_steps(point, cfg: ExperimentConfig) -> int:
    """Projected descent steps of a ``quad-lower-gd`` point; 0 if it is
    capped, or if the projection fails (the point then raises its own
    error in grid order)."""
    try:
        steps = _projected_gd_steps(constructions.build_quad_lower(*point), cfg.stop_coords)
    except (InputError, ArithmeticError):
        return 0
    return 0 if steps > cfg.safety_cap else steps


def _quad_point(point, cfg: ExperimentConfig) -> ResultRow:
    d, omega = point
    start = time.perf_counter()
    c = constructions.build_quad_lower(d, omega)
    spec = c.to_quadratic()
    kappa = c.kappa
    upper = bounds.bound_quadratic(spec, "gf" if cfg.experiment == "quad-lower-gf" else "gd")
    lower = None
    if kappa >= 5:
        lower = bounds.lower_bound_quadratic(
            d, kappa, "gf" if cfg.experiment == "quad-lower-gf" else "gd"
        )
    if cfg.experiment == "quad-lower-gf":
        rep = path_length_quadratic_gf(spec, cfg.quad_abs_tol)
        steps, stop_reason = rep.steps, rep.stop_reason
        zeta, ratio = rep.length, rep.ratio
    elif _projected_gd_steps(c, cfg.stop_coords) > cfg.safety_cap:
        steps, stop_reason = 0, "cap"
        zeta = ratio = None
    else:
        traj = gd_run(
            c.to_objective(), c.x0, c.eta,
            StopRule.coords_below_except_last(cfg.stop_coords),
            safety_cap=cfg.safety_cap, keep_iterates=False,
        )
        rep = path_length_discrete(traj, spec.optimal_set())
        steps, stop_reason = traj.n_steps, traj.stop_reason
        zeta, ratio = rep.length, rep.ratio
    return ResultRow(
        experiment=cfg.experiment, d=d, omega=omega, kappa_nominal=kappa,
        kappa_effective=spec.kappa, mu_mode="", dist0=c.dist0,
        zeta=zeta, ratio=ratio, bound_upper=upper, bound_lower=lower,
        steps=steps, runtime_s=time.perf_counter() - start, seed=None,
        stop_reason=stop_reason,
    )


def _random_point(point, cfg: ExperimentConfig) -> ResultRow:
    d, kappa, seed = point
    start = time.perf_counter()
    inst = constructions.build_quad_random(d, kappa, seed)
    spec = inst.to_quadratic()
    rep = path_length_quadratic_gf(spec, cfg.quad_abs_tol)
    return ResultRow(
        experiment=cfg.experiment, d=d, omega=None, kappa_nominal=kappa,
        kappa_effective=spec.kappa, mu_mode="", dist0=rep.dist0,
        zeta=rep.length, ratio=rep.ratio,
        bound_upper=bounds.bound_quadratic(spec, "gf"),
        bound_lower=None,  # the worst-case lower bound does not apply to random spectra
        steps=rep.steps, runtime_s=time.perf_counter() - start,
        seed=seed, stop_reason=rep.stop_reason,
    )


def _bound_point(point, cfg: ExperimentConfig) -> ResultRow:
    d, omega = point
    start = time.perf_counter()
    c = constructions.build_quad_lower(d, omega)
    spec = c.to_quadratic()
    kappa = c.kappa
    lower = bounds.lower_bound_quadratic(d, kappa, "gf") if kappa >= 5 else None
    return ResultRow(
        experiment=cfg.experiment, d=d, omega=omega, kappa_nominal=kappa,
        kappa_effective=None, mu_mode="", dist0=c.dist0,
        zeta=None, ratio=None,
        bound_upper=bounds.bound_quadratic(spec, "gf"),
        bound_lower=lower, steps=0,
        runtime_s=time.perf_counter() - start, seed=None, stop_reason="",
    )


@dataclass(frozen=True)
class Experiment:
    """One experiment id: its default grid fields, the function that turns
    one grid point into a CSV row, the figure its plot script draws and
    a point's projected descent steps (``None``: too cheap to fork for).
    The grid is the product of the grid fields, in this order; the
    property suite has no point function: it reports checks, not rows."""

    grid: dict
    point_row: Callable[[tuple, ExperimentConfig], ResultRow] | None = None
    figure: str | None = None
    projected_steps: Callable[[tuple, ExperimentConfig], int] | None = None


EXPERIMENT_TABLE = {
    "pkl-lower-gd": Experiment(dict(dims=f1_dimension_grid()), _pkl_point, "f1-ratio-vs-kappa"),
    "quad-lower-gf": Experiment(dict(dims=(20,), omegas=(1.1, 1.3, 1.6, 2.0)),
                                _quad_point, "f2-ratio-vs-logkappa"),
    "quad-lower-gd": Experiment(dict(dims=(6,), omegas=(11.0,)), _quad_point, "f2-ratio-vs-logkappa",
                                _quad_gd_steps),
    "quad-random": Experiment(dict(dims=(20,), kappas=(1e6,), seeds=tuple(range(10))),
                              _random_point, "f2-ratio-vs-logkappa"),
    "bound-sweep": Experiment(dict(dims=(6, 20, 150), omegas=(1.1, 2.0, 11.0)), _bound_point),
    "property-suite": Experiment(dict(dims=(6, 20))),
}

EXPERIMENTS = tuple(EXPERIMENT_TABLE)


def _worker_count(entry: Experiment, points, cfg) -> int:
    """One worker per usable CPU, at most one per point projected to take
    ``FORK_MIN_STEPS`` steps or more; 1 (nothing forked) where ``os``
    cannot fork or list the CPUs, and while other Python threads run,
    since a forked child inherits their held locks but not the threads.
    OpenBLAS's threads are no such risk: its fork handler stops them."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0))
    if entry.projected_steps is None or len(points) < 2 or cpus < 2:
        return 1
    heavy = sum(entry.projected_steps(point, cfg) >= FORK_MIN_STEPS for point in points)
    return max(1, min(heavy, cpus))


def run_experiment(cfg: ExperimentConfig):
    """Rows of a CSV experiment, sorted and sandwich-checked; the suite report for property-suite."""
    entry = EXPERIMENT_TABLE[cfg.experiment]
    if entry.point_row is None:
        return run_property_suite(cfg)
    points = list(itertools.product(*(getattr(cfg, name) for name in entry.grid)))
    if not points:
        raise InputError(f"experiment {cfg.experiment!r} has an empty grid")
    n = _worker_count(entry, points, cfg)
    if n == 1:
        rows = [entry.point_row(point, cfg) for point in points]
    else:
        # imported here, so that a grid run in-process never loads (or compiles) the fork code
        from .workers import grid_rows

        rows = grid_rows(entry.point_row, points, n, cfg)
    rows.sort(key=ResultRow.sort_key)
    for row in rows:
        _verify_sandwich(row)
    return rows


# ---------------------------------------------------------------------------
# CSV and plot-script emission
# ---------------------------------------------------------------------------


def render_csv(rows) -> str:
    lines = [CSV_HEADER]
    lines.extend(",".join(row.csv_fields()) for row in rows)
    return "\n".join(lines) + "\n"


def emit_csv(rows, path) -> str:
    text = render_csv(rows)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return text


PLOT_FIGURES = ("f1-ratio-vs-kappa", "f2-ratio-vs-logkappa")

_PLOT_TEMPLATE = '''\
#!/usr/bin/env python3
"""Standalone plot script generated by gradpath ({figure})."""
import csv
import math

import matplotlib.pyplot as plt

CSV_PATH = {csv_path!r}

rows = []
with open(CSV_PATH) as fh:
    for record in csv.DictReader(fh):
        rows.append(record)

{body}
plt.legend()
plt.tight_layout()
plt.savefig({out_png!r}, dpi=150)
print("wrote", {out_png!r})
'''

_F1_BODY = '''\
xs = [float(r["kappa_effective"]) for r in rows if r["ratio"]]
ys = [float(r["ratio"]) for r in rows if r["ratio"]]
plt.figure(figsize=(6, 4))
if xs:
    plt.plot(xs, ys, "o", label="measured ratio")
lo = min(xs) if xs else 10.0
hi = max(xs) if xs else 1e7
ref_x = [lo * (hi / lo) ** (i / 200) for i in range(201)]
ref_y = [3.0 * k ** 0.25 / math.log(k) for k in ref_x]
plt.plot(ref_x, ref_y, "-", label="3 k^(1/4) / log k")
plt.xscale("log")
plt.xlabel("effective condition number")
plt.ylabel("path length ratio")
'''

_F2_BODY = '''\
xs = [math.log(float(r["kappa_nominal"])) for r in rows if r["ratio"]]
ys = [float(r["ratio"]) for r in rows if r["ratio"]]
DIM = {dim}
plt.figure(figsize=(6, 4))
if xs:
    plt.plot(xs, ys, "o", label="measured ratio")
lo = min(xs) if xs else 1.0
hi = max(xs) if xs else 30.0
ref_x = [lo + (hi - lo) * i / 200 for i in range(201)]
plt.plot(ref_x, [1 + 2.5 * math.sqrt(v) for v in ref_x], "-", label="upper bound")
lower = [0.45 * math.sqrt(v) for v in ref_x]
if DIM is not None:
    lower = [min(v, 0.7 * math.sqrt(DIM)) for v in lower]
plt.plot(ref_x, lower, "--", label="lower bound")
plt.xlabel("log condition number")
plt.ylabel("path length ratio")
'''


def render_plot_script(rows, figure: str, csv_path: str) -> str:
    if figure not in PLOT_FIGURES:
        raise InputError(f"unknown figure {figure!r}; known: {', '.join(PLOT_FIGURES)}")
    out_png = str(Path(csv_path).with_suffix(".png"))
    if figure == "f1-ratio-vs-kappa":
        body = _F1_BODY
    else:
        dims = sorted({row.d for row in rows})
        dim = dims[0] if len(dims) == 1 else None
        body = _F2_BODY.format(dim=dim)
    return _PLOT_TEMPLATE.format(figure=figure, csv_path=str(csv_path), body=body, out_png=out_png)


def emit_plot_script(rows, figure: str, csv_path, out_path) -> str:
    text = render_plot_script(rows, figure, str(csv_path))
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="\n") as fh:
        fh.write(text)
    return text
