"""Command-line interface.

Exit codes: 0 on success, 1 when an invariant or suite check fails,
2 on bad input.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bounds, harness
from .analysis import path_length_discrete, self_contracted_check
from .errors import GradPathError, InputError, InvariantViolation, finite_number
from .objectives import as_vector
from .optimizers import (
    StopRule,
    box_projector,
    gd_run,
    gf_integrate,
    hb_params,
    heavy_ball_run,
    parse_stop_rule,
    pgd_run,
)
from .properties import SuiteReport
from .registry import parse_instance


def _parse_x0(text: str, instance):
    if text == "auto":
        return instance.x0
    return as_vector([finite_number(v, "--x0 item") for v in text.split(",")])


def _parse_eta(text: str, instance) -> float:
    if text == "auto":
        if instance.eta is None:
            raise InputError("objective has no default step size; pass --eta")
        return instance.eta
    return finite_number(text, "--eta")


def _parse_projector(text: str, dim: int):
    kind, sep, raw = text.partition(":")
    if kind == "box" and sep:
        parts = [finite_number(v, "box bound") for v in raw.split(",")]
        if len(parts) != 2:
            raise InputError("box projector takes 'box:lo,hi'")
        lo, hi = parts
        return box_projector(np.full(dim, lo), np.full(dim, hi))
    if kind == "ball" and sep:
        radius = finite_number(raw, "ball radius")
        if radius <= 0:
            raise InputError("ball radius must be positive")

        def projector(x):
            norm = float(np.linalg.norm(x))
            return x if norm <= radius else x * (radius / norm)

        return projector
    raise InputError(f"unknown projector {text!r}; use 'box:lo,hi' or 'ball:r'")


def _write_trajectory_csv(traj, path):
    lines = ["index,t," + ",".join(f"x{i}" for i in range(traj.dim))]
    for t, p in zip(traj.times, traj.points):
        coords = ",".join(repr(float(v)) for v in p)
        if traj.kind == "discrete":
            lines.append(f"{int(t)},{int(t)},{coords}")
        else:
            lines.append(f",{repr(float(t))},{coords}")
    Path(path).write_text("\n".join(lines) + "\n")


def _report_run(traj, instance, out):
    rep = path_length_discrete(traj, instance.objective.optimal_set) if traj.kind == "discrete" else None
    print(f"stop: {traj.stop_reason} after {traj.n_steps} steps")
    if rep is not None:
        print(f"path length: {rep.length!r} (raw {rep.raw_length!r} + tail {rep.tail!r})")
        if rep.dist0 == rep.dist0 and rep.dist0 > 0:  # not NaN
            print(f"ratio: {rep.ratio!r} over dist0 {rep.dist0!r}")
    else:
        print(f"arc length: {traj.arc_length!r} (chord sum {traj.path_sum!r})")
        print(f"integrator: {traj.n_steps} accepted, {traj.n_rejected} rejected, "
              f"{traj.n_feval} gradient calls")
    if not instance.objective.in_declared_box(traj.final_point):
        warnings.warn("trajectory left the box on which L was declared")
    if out:
        _write_trajectory_csv(traj, out)
        print(f"wrote {out}")


def _cmd_run(args) -> int:
    instance = parse_instance(args.objective)
    x0 = _parse_x0(args.x0, instance)
    stop = parse_stop_rule(args.stop)
    # discrete runs keep only their endpoints unless the trajectory is written out
    keep = bool(args.csv_out)
    if args.command == "run-gd":
        traj = gd_run(instance.objective, x0, _parse_eta(args.eta, instance), stop, keep_iterates=keep)
    elif args.command == "run-gf":
        traj = gf_integrate(instance.objective, x0, args.tol, stop)
    elif args.command == "run-hb":
        if args.alpha is not None and args.beta is not None:
            alpha, beta = args.alpha, args.beta
        else:
            obj = instance.objective
            if obj.mu is None or obj.L is None:
                raise InputError("objective lacks (mu, L); pass --alpha and --beta")
            alpha, beta = hb_params(obj.mu, obj.L)
        traj = heavy_ball_run(instance.objective, x0, alpha, beta, stop, keep_iterates=keep)
    else:  # run-pgd
        projector = _parse_projector(args.project, instance.objective.dim)
        traj = pgd_run(instance.objective, projector, x0, _parse_eta(args.eta, instance), stop,
                       keep_iterates=keep)
    _report_run(traj, instance, args.csv_out)
    return 0


def _cmd_bounds(args) -> int:
    spectrum = None
    if args.spectrum:
        spectrum = [finite_number(v, "--spectrum item") for v in args.spectrum.split(",")]
    report = bounds.evaluate_bound(
        args.name,
        A=args.A, c=args.c, eta=args.eta, L=args.L, mu=args.mu,
        d=args.d, kappa=args.kappa, spectrum=spectrum,
    )
    scale = "log2-factor" if report.log2_scale else "factor"
    print(f"{report.name}: {scale} = {report.factor!r}  (multiplies {report.distance_base})")
    for key, value in sorted(report.inputs.items()):
        print(f"  {key} = {value}")
    return 0


def _cmd_experiment(args) -> int:
    if args.config:
        cfg = harness.load_config(args.config)
        if cfg.experiment != args.id:
            raise InputError(f"config is for {cfg.experiment!r}, not {args.id!r}")
    else:
        cfg = harness.default_config(args.id)
    if args.seed is not None:
        cfg = replace(cfg, seeds=tuple(args.seed + s for s in cfg.seeds))

    result = harness.run_experiment(cfg)
    if isinstance(result, SuiteReport):
        print(result.render())
        return 0 if result.ok else 1

    out_dir = Path(args.out)
    csv_path = Path(cfg.out) if cfg.out else out_dir / f"{cfg.experiment}.csv"
    harness.emit_csv(result, csv_path)
    print(f"wrote {csv_path} ({len(result)} rows)")
    figure = harness.EXPERIMENT_TABLE[cfg.experiment].figure
    if figure:
        script_path = csv_path.with_name(csv_path.stem + "_plot.py")
        harness.emit_plot_script(result, figure, csv_path, script_path)
        print(f"wrote {script_path}")
    return 0


def _cmd_check(args) -> int:
    if args.what != "self-contracted":
        raise InputError(f"unknown check {args.what!r}")
    tol = finite_number(args.tol, "--tol")
    rows = []
    for number, line in enumerate(Path(args.points).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{args.points} line {number}"
        rows.append([finite_number(v, where) for v in line.replace(",", " ").split()])
        if len(rows[-1]) != len(rows[0]):
            raise InputError(f"{where}: expected {len(rows[0])} coordinates, got {len(rows[-1])}")
    verdict = self_contracted_check(np.asarray(rows), tol=tol)
    if verdict.holds:
        print(f"self-contracted: yes (slack {verdict.slack!r})")
        return 0
    s1, s2, s3 = verdict.witness
    print(
        f"self-contracted: no; witness (s1, s2, s3) = ({s1}, {s2}, {s3}) "
        f"with ||g(s3)-g(s2)|| = {verdict.dist_mid!r} > ||g(s3)-g(s1)|| = {verdict.dist_far!r}"
    )
    return 1


def _cmd_suite(args) -> int:
    cfg = harness.default_config("property-suite")
    if args.dims:
        cfg = replace(cfg, dims=tuple(args.dims))
    report = harness.run_property_suite(cfg)
    print(report.render())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradpath",
        description="Gradient-trajectory path lengths: runs, bounds, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, extra in (("run-gd", "eta"), ("run-gf", "tol"), ("run-hb", "hb"), ("run-pgd", "pgd")):
        p = sub.add_parser(name, help=f"run a single {name[4:]} trajectory")
        p.add_argument("--objective", required=True, help="registry string, e.g. quad-geom:d=6,omega=11")
        p.add_argument("--x0", default="auto", help="comma-separated start point or 'auto'")
        p.add_argument("--stop", default="grad_below:1e-8", help="stop rule 'kind:threshold'")
        p.add_argument("--csv-out", default=None, help="write the trajectory to this CSV file")
        if extra == "eta":
            p.add_argument("--eta", default="auto")
        elif extra == "tol":
            p.add_argument("--tol", type=float, default=1e-10)
        elif extra == "hb":
            p.add_argument("--alpha", type=float, default=None)
            p.add_argument("--beta", type=float, default=None)
        else:
            p.add_argument("--eta", default="auto")
            p.add_argument("--project", required=True, help="'box:lo,hi' or 'ball:r'")
        p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bounds", help="evaluate a named path-length bound")
    p.add_argument("name", help=f"one of: {', '.join(bounds.BOUND_NAMES)}")
    p.add_argument("--A", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--spectrum", default=None, help="comma-separated spectrum for quadratic bounds")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("experiment", help="run a named experiment")
    p.add_argument("id", choices=harness.EXPERIMENTS)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="results")
    p.add_argument("--seed", type=int, default=None, help="offset added to the config seeds")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("check", help="verify a property of recorded points")
    p.add_argument("what", help="currently: self-contracted")
    p.add_argument("--points", required=True, help="text file, one point per line")
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("suite", help="run the aggregated invariant suite")
    p.add_argument("--dims", type=int, nargs="*", default=None)
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except (InputError, GradPathError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
