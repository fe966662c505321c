"""One run of one benchmark workload, in a fresh process.

Started by ``run.py`` as ``python3 bench/workloads.py <workload> <seed>
<spawned_at> <mode>``, where ``spawned_at`` is the CLOCK_MONOTONIC time
at which the parent started this process and ``mode`` is ``run``,
``trace`` (the same run with spans) or ``setup`` (stop before the first
solve call).  Prints one JSON object on its last stdout line:

* ``setup_s``: from ``spawned_at`` through ``import gradpath`` and the
  building of instances and configs, up to the first solve call;
* ``wall_s``: time in the calls into gradpath that produce the outputs;
  the output checks run outside it;
* ``calibration_s``: readings of :func:`calibrate` taken around the timed
  work, from which ``run.py`` scales ``wall_s`` to the reference host
  speed;
* ``peak_rss_mb``: this process's ``ru_maxrss``, read when the timed
  work ends;
* ``ops``, ``failed_ops`` and ``failures``: outputs checked, how many
  of them failed a check, and the failing checks by name;
* ``layers`` and ``trace`` (trace mode only): per-layer metrics and spans.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

import checks
from spans import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

WORKLOADS = ("flow-dp5", "gd-geom", "gd-pkl")
MODES = ("run", "trace", "setup")

#: flow-dp5: criterion 5's generator on a fixed (d, kappa) grid, so the
#: seed changes the instances while the work stays close (30.6k-33.3k
#: accepted steps over seeds 0-9).
FLOW_DIMS = (4, 10)
FLOW_KAPPAS = (1e2, 1e3, 3e3)
FLOW_TOL = 1e-10
FLOW_GRAD_STOP = 1e-9
FLOW_QUAD_TOL = 1e-12
FLOW_TAIL_QUAD_TOL = 1e-13

GEOM_DIM = 6
GEOM_OMEGAS = (10.0, 11.0)

#: Calibration loop: RK4 steps on a fixed 6-dimensional linear system,
#: then piecewise gradient steps on a 2000-vector; repeated
#: CALIBRATION_REPEATS times per reading.
CALIBRATION_STEPS = 600
CALIBRATION_VECTOR_STEPS = 150
CALIBRATION_REPEATS = 5
CALIBRATION_MATRIX = -np.array([[2.0 if i == j else 1.0 / (1 + i + j) for j in range(6)] for i in range(6)])
CALIBRATION_VECTOR = np.linspace(0.0, 1.0, 2000)

#: Layer metrics reported by every traced run; 0 where the workload does
#: not exercise the layer.
LAYER_METRICS = {
    "ode.accepted_steps": "count",
    "ode.rejected_steps": "count",
    "ode.grad_calls": "count",
    "ode.accept_ratio": "ratio",
    "ode.self_us_per_step": "us",
    "objectives.grad_calls": "count",
    "objectives.us_per_grad": "us",
    "optimizers.steps": "count",
    "optimizers.self_us_per_step": "us",
    "optimizers.stored_mb": "MB",
    "analysis.effective_mu_s": "s",
    "analysis.effective_mu_points": "count",
    "analysis.path_length_s": "s",
    "quadrature.evals": "count",
    "quadrature.s": "s",
    "constructions.build_s": "s",
    "harness.self_s": "s",
    "harness.csv_s": "s",
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def calibrate() -> float:
    """Seconds of one calibration loop, the median of CALIBRATION_REPEATS.

    A shared host's speed can drift by tens of percent over seconds to
    minutes.  The loop is the benchmark's own code, not gradpath's, with
    the workloads' mix of interpreter work, numpy calls on small arrays
    and piecewise maps over long vectors, so its readings track the
    host's speed and no change to gradpath moves them.  The checks on
    each step stand for the workloads' own finiteness checks.
    """
    readings = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        y, h = np.ones(6), 0.01
        for _ in range(CALIBRATION_STEPS):
            k1 = CALIBRATION_MATRIX @ y
            k2 = CALIBRATION_MATRIX @ (y + 0.5 * h * k1)
            k3 = CALIBRATION_MATRIX @ (y + 0.5 * h * k2)
            k4 = CALIBRATION_MATRIX @ (y + h * k3)
            y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            if not float(np.max(np.abs(k4 - k1))) < 1e9:
                raise RuntimeError("calibration loop diverged")
        x = CALIBRATION_VECTOR.copy()
        for _ in range(CALIBRATION_VECTOR_STEPS):
            g = np.select([x < 0.3, x < 0.7], [2.0 * x, x * x], 1.0 - x)
            x = x - 1e-3 * g
            if not float(np.linalg.norm(g)) < 1e9:
                raise RuntimeError("calibration loop diverged")
        readings.append(time.perf_counter() - start)
    return sorted(readings)[CALIBRATION_REPEATS // 2]


class Untraced:
    """Stand-in for :class:`spans.Tracer` that calls straight through."""

    @staticmethod
    def call(name, fn, *args, keep=True, on_result=None, **kwargs):
        return fn(*args, **kwargs)


def import_gradpath():
    import gradpath

    if Path(gradpath.__file__).resolve().parent != SRC / "gradpath":
        raise SystemExit(f"imported gradpath from {gradpath.__file__}, not from {SRC}")
    return gradpath


def flow_specs(gp, seed: int):
    """Criterion 5's random dense quadratics (L = 1, mu = 1/kappa) on the fixed grid."""
    rng = np.random.default_rng(seed)
    specs = []
    for d in FLOW_DIMS:
        for kappa in FLOW_KAPPAS:
            interior = 10 ** rng.uniform(-math.log10(kappa), 0.0, d - 2)
            sigma = np.sort(np.concatenate([[1.0, 1.0 / kappa], interior]))[::-1]
            basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
            alpha = rng.standard_normal(d)
            alpha *= rng.uniform(1.0, 3.0) / np.linalg.norm(alpha)
            projection = rng.standard_normal(d)
            x0 = projection + basis @ alpha
            spec = gp.QuadraticSpec(
                dim=d, sigma=sigma, basis=basis, projection=projection,
                alpha=basis.T @ (x0 - projection), x0=x0,
            )
            specs.append((spec, spec.to_objective()))
    return specs


def flow_case(gp, spec, obj, tracer):
    """Integrate one flow; return it with the quadrature lengths of the whole flow and of its tail."""
    quad = dict(on_result=lambda rep, *a: {"evals": rep.steps})
    traj = tracer.call(
        "optimizers.gf_integrate", gp.gf_integrate,
        obj, spec.x0, FLOW_TOL, gp.StopRule.grad_below(FLOW_GRAD_STOP),
    )
    total = tracer.call("analysis.path_length_quadratic_gf", gp.path_length_quadratic_gf,
                        spec, FLOW_QUAD_TOL, **quad).length
    remaining = gp.QuadraticSpec(
        dim=spec.dim, sigma=spec.sigma, basis=spec.basis, projection=spec.projection,
        alpha=spec.alpha * np.exp(-spec.sigma * traj.final_time),
        x0=np.asarray(gp.gf_quadratic(spec, traj.final_time)),
    )
    tail = tracer.call("analysis.path_length_quadratic_gf", gp.path_length_quadratic_gf,
                       remaining, FLOW_TAIL_QUAD_TOL, **quad).length
    return traj, total, tail


def run_flow(gp, seed, tracer, mark_setup):
    specs = tracer.call("constructions.build", flow_specs, gp, seed)
    mark_setup()
    wall = 0.0
    readings = [calibrate()]
    failures, counts = [], {"accepted": 0, "rejected": 0, "feval": 0}
    for spec, obj in specs:
        start = time.perf_counter()
        traj, total, tail = flow_case(gp, spec, obj, tracer)
        wall += time.perf_counter() - start
        readings.append(calibrate())
        counts["accepted"] += traj.n_steps
        counts["rejected"] += traj.n_rejected
        counts["feval"] += traj.n_feval
        case = checks.check_flow(spec, traj.times, traj.points, traj.arc_length, tail, total, FLOW_TOL)
        failures.append([f"d={spec.dim} kappa={spec.kappa:.0f}: {f}" for f in case])
        del traj
    return wall, readings, peak_rss_mb(), failures, counts


def run_discrete(gp, workload, tracer, mark_setup):
    from gradpath import harness

    if workload == "gd-geom":
        cfg = harness.ExperimentConfig("quad-lower-gd", dims=(GEOM_DIM,), omegas=GEOM_OMEGAS)
    else:
        cfg = harness.ExperimentConfig("pkl-lower-gd", dims=(checks.PKL_DIM,))
    mark_setup()
    before = calibrate()
    start = time.perf_counter()
    rows = tracer.call("harness.run_experiment", harness.run_experiment, cfg)
    text = tracer.call("harness.render_csv", harness.render_csv, rows)
    wall = time.perf_counter() - start
    rss = peak_rss_mb()
    after = calibrate()
    if workload == "gd-geom":
        expected = [(GEOM_DIM, omega) for omega in GEOM_OMEGAS]
        check = lambda row, point: checks.check_geom(row, *point)
    else:
        expected = [checks.PKL_DIM]
        check = lambda row, point: checks.check_pkl(row)
    if len(rows) != len(expected):
        failures = [[f"rows: got {len(rows)} rows, expected {len(expected)}"]] * len(expected)
    else:
        csv_failures = checks.check_csv(text, rows)
        failures = [check(row, point) + csv_failures for row, point in zip(rows, expected)]
    return wall, [before, after], rss, failures, {"rows": [r.csv_fields() for r in rows]}


def install_wrappers(gp, tracer):
    """Time gradient calls and the harness's calls into the other layers."""
    from gradpath import constructions, harness

    gp.ObjectiveSpec.gradient_at = tracer.wrap(
        "objectives.gradient_at", gp.ObjectiveSpec.gradient_at, keep=False
    )
    harness.gd_run = tracer.wrap(
        "optimizers.gd_run", harness.gd_run,
        on_result=lambda traj, *a: {"steps": traj.n_steps, "stored_bytes": traj.points.nbytes},
    )
    harness.path_length_discrete = tracer.wrap("analysis.path_length_discrete", harness.path_length_discrete)
    harness.effective_pkl_mu = tracer.wrap(
        "analysis.effective_pkl_mu", harness.effective_pkl_mu,
        on_result=lambda mu, traj, *a: {"points": len(traj.points)},
    )
    for name in ("build_quad_lower", "build_pkl_gd_instance"):
        setattr(constructions, name, tracer.wrap("constructions.build", getattr(constructions, name)))


def layer_metrics(tracer, counts) -> dict:
    """The LAYER_METRICS of one traced run, from its spans and counts."""
    us = 1e6
    m = dict.fromkeys(LAYER_METRICS, 0.0)
    grad = "objectives.gradient_at"
    m["objectives.grad_calls"] = tracer.count(grad)
    if m["objectives.grad_calls"]:
        m["objectives.us_per_grad"] = tracer.total(grad) / m["objectives.grad_calls"] * us
    if "accepted" in counts:
        accepted, rejected = counts["accepted"], counts["rejected"]
        m["ode.accepted_steps"] = accepted
        m["ode.rejected_steps"] = rejected
        m["ode.grad_calls"] = counts["feval"]
        m["ode.accept_ratio"] = accepted / (accepted + rejected)
        ode_self = tracer.total("optimizers.gf_integrate") - tracer.total(grad, "optimizers.gf_integrate")
        m["ode.self_us_per_step"] = ode_self / accepted * us
        m["quadrature.evals"] = tracer.counts["analysis.path_length_quadratic_gf"]["evals"]
        m["quadrature.s"] = tracer.total("analysis.path_length_quadratic_gf")
    gd = tracer.counts.get("optimizers.gd_run")
    if gd:
        m["optimizers.steps"] = gd["steps"]
        gd_self = tracer.total("optimizers.gd_run") - tracer.total(grad, "optimizers.gd_run")
        m["optimizers.self_us_per_step"] = gd_self / gd["steps"] * us
        m["optimizers.stored_mb"] = gd["stored_bytes"] / 2**20
        m["analysis.path_length_s"] = tracer.total("analysis.path_length_discrete")
        m["harness.self_s"] = tracer.self_time("harness.run_experiment")
        m["harness.csv_s"] = tracer.total("harness.render_csv")
    mu = tracer.counts.get("analysis.effective_pkl_mu")
    if mu:
        m["analysis.effective_mu_s"] = tracer.total("analysis.effective_pkl_mu")
        m["analysis.effective_mu_points"] = mu["points"]
    m["constructions.build_s"] = tracer.total("constructions.build")
    return m


def main(argv) -> int:
    workload, seed, spawned_at, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    if workload not in WORKLOADS or mode not in MODES:
        raise SystemExit(f"usage: workloads.py {{{','.join(WORKLOADS)}}} SEED SPAWNED_AT {{{','.join(MODES)}}}")
    gp = import_gradpath()
    if mode == "trace":
        tracer = Tracer()
        install_wrappers(gp, tracer)
    else:
        tracer = Untraced()
    out = {"numpy": np.__version__}

    class SetupDone(Exception):
        pass

    def mark_setup():
        out["setup_s"] = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned_at
        if mode == "setup":
            raise SetupDone

    try:
        if workload == "flow-dp5":
            wall, readings, rss, per_op, counts = run_flow(gp, seed, tracer, mark_setup)
        else:
            wall, readings, rss, per_op, counts = run_discrete(gp, workload, tracer, mark_setup)
    except SetupDone:
        print(json.dumps(out))
        return 0
    out.update(
        wall_s=wall, calibration_s=readings, peak_rss_mb=rss, outputs=counts, ops=len(per_op),
        failed_ops=sum(1 for f in per_op if f), failures=[f for op in per_op for f in op],
    )
    if mode == "trace":
        out["layers"] = layer_metrics(tracer, counts)
        out["layer_units"] = LAYER_METRICS
        out["trace"] = tracer.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
