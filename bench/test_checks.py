"""Tests for the benchmark's output checkers.

Run with ``python -m pytest bench``.  Each checker must accept the
outputs of the seed code and reject an output perturbed past its
tolerance.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import workloads  # puts the checkout's src/ on sys.path
import checks
from gradpath import harness

SEED_ROWS = json.loads((Path(__file__).parent / "baseline.json").read_text())["seed_rows"]
GEOM_ROWS = [harness.ResultRow(**row) for row in SEED_ROWS["gd-geom"]]
PKL_ROW = harness.ResultRow(**SEED_ROWS["gd-pkl"][0])


def scaled_zeta(row, factor):
    return replace(row, zeta=row.zeta * factor, ratio=row.ratio * factor)


@pytest.fixture(scope="module")
def flow_output():
    """The smallest flow-dp5 case (d = 4, kappa = 1e2), integrated by the code under test."""
    gp = workloads.import_gradpath()
    spec, obj = workloads.flow_specs(gp, seed=0)[0]
    traj, total, tail = workloads.flow_case(gp, spec, obj, workloads.Untraced())
    return dict(spec=spec, times=traj.times, points=traj.points, arc_length=traj.arc_length,
                tail=tail, total=total, tol=workloads.FLOW_TOL)


def test_flow_accepts_seed_output(flow_output):
    assert checks.check_flow(**flow_output) == []


def test_flow_rejects_pointwise_error(flow_output):
    points = flow_output["points"].copy()
    points[len(points) // 2, 0] += 1e-8
    failures = checks.check_flow(**{**flow_output, "points": points})
    assert any("flow.pointwise" in f for f in failures)


def test_flow_rejects_arc_error(flow_output):
    failures = checks.check_flow(**{**flow_output, "arc_length": flow_output["arc_length"] * (1 + 1e-5)})
    assert any("flow.arc-vs-quadrature" in f for f in failures)


def test_geom_accepts_seed_rows():
    for row in GEOM_ROWS:
        assert checks.check_geom(row, 6, row.omega) == []


def test_geom_closed_forms_match_a_fresh_small_run():
    rows = harness.run_experiment(harness.ExperimentConfig("quad-lower-gd", dims=(4,), omegas=(3.0,)))
    assert checks.check_geom(rows[0], 4, 3.0) == []


@pytest.mark.parametrize(
    "perturb, check",
    [
        (lambda r: scaled_zeta(r, 1 + 1e-6), "geom.zeta"),
        (lambda r: replace(r, zeta=r.zeta * (1 + 1e-6)), "row.ratio-vs-zeta"),
        (lambda r: replace(r, steps=r.steps + 2), "geom.steps"),
        (lambda r: replace(r, stop_reason="cap"), "geom.stop_reason"),
        (lambda r: replace(r, zeta=None, ratio=None), "row.missing"),
    ],
)
def test_geom_rejects_perturbed_rows(perturb, check):
    for row in GEOM_ROWS:
        assert any(check in f for f in checks.check_geom(perturb(row), 6, row.omega))


def test_pkl_accepts_seed_row():
    assert checks.check_pkl(PKL_ROW) == []
    assert checks.check_pkl(replace(PKL_ROW, steps=PKL_ROW.steps + 1)) == []


@pytest.mark.parametrize(
    "perturb, check",
    [
        (lambda r: scaled_zeta(r, 1 + 1e-6), "pkl.ratio"),
        (lambda r: replace(r, zeta=r.zeta * (1 + 1e-6)), "row.ratio-vs-zeta"),
        (lambda r: replace(r, steps=r.steps + 2), "pkl.steps"),
        (lambda r: replace(r, stop_reason="cap"), "pkl.stop_reason"),
        (lambda r: scaled_zeta(r, 0.04), "pkl.sandwich"),
        (lambda r: replace(r, kappa_effective=r.kappa_effective * 1e4), "pkl.window"),
    ],
)
def test_pkl_rejects_perturbed_row(perturb, check):
    assert any(check in f for f in checks.check_pkl(perturb(PKL_ROW)))


def test_csv_matches_rows_and_rejects_a_changed_field():
    text = harness.render_csv(GEOM_ROWS)
    assert checks.check_csv(text, GEOM_ROWS) == []
    assert any("csv.fields" in f for f in checks.check_csv(text.replace(",134847,", ",134849,"), GEOM_ROWS))
    assert any("csv.rows" in f for f in checks.check_csv(text, GEOM_ROWS[:1]))
