import math
import os
import threading
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from gradpath import (
    ComputationError,
    DivergenceError,
    InputError,
    InvariantViolation,
    StepSizeUnderflowError,
    StopRule,
    gf_integrate,
)
from gradpath.cli import main
from gradpath.harness import (
    CONFIG_KEYS,
    CSV_HEADER,
    EXPERIMENT_TABLE,
    EXPERIMENTS,
    FORK_MIN_STEPS,
    ExperimentConfig,
    ResultRow,
    _verify_sandwich,
    _worker_count,
    default_config,
    emit_csv,
    emit_plot_script,
    f1_dimension_grid,
    parse_config_text,
    render_csv,
    render_plot_script,
    run_experiment,
    run_property_suite,
)
from gradpath.registry import parse_instance

GOLDEN_ROW = ResultRow(
    experiment="quad-lower-gf", d=6, omega=11.0, kappa_nominal=161051.0,
    kappa_effective=161051.0, mu_mode="", dist0=2.449489742783178,
    zeta=4.837, ratio=1.9747, bound_upper=2.449489742783178,
    bound_lower=1.5582, steps=585, runtime_s=0.25, seed=None,
    stop_reason="quadrature",
)

GOLDEN_CSV = (
    "experiment,d,omega,kappa_nominal,kappa_effective,mu_mode,dist0,zeta,"
    "ratio,bound_upper,bound_lower,steps,runtime_s,seed,stop_reason\n"
    "quad-lower-gf,6,11.0,161051.0,161051.0,,2.449489742783178,4.837,"
    "1.9747,2.449489742783178,1.5582,585,0.25,,quadrature\n"
)


#: repr() of every field but runtime_s, one row per CSV experiment; the
#: pkl and quad-lower-gd rows come from the code that stored every iterate
#: and evaluated the PL ratio on the stored points afterwards, so neither
#: streaming the ratio nor the shared grid runner may move a bit.  The
#: d = 2000 pkl row is the point the gd-pkl benchmark runs.
PINNED_ROWS = [
    (ExperimentConfig("pkl-lower-gd", dims=(148,)), {
        "experiment": "'pkl-lower-gd'", "d": "148", "omega": "None", "kappa_nominal": "65712.0",
        "kappa_effective": "10820.83671616262", "mu_mode": "'min'",
        "dist0": "51.89662048161973", "zeta": "157.9307571532542",
        "ratio": "3.0431799929860306", "bound_upper": "512.6870390403877",
        "bound_lower": "0.15215389593897574", "steps": "1036", "seed": "None",
        "stop_reason": "'norm_below'",
    }),
    (ExperimentConfig("pkl-lower-gd", dims=(148,), mu_mode="paper_max"), {
        "experiment": "'pkl-lower-gd'", "d": "148", "omega": "None", "kappa_nominal": "65712.0",
        "kappa_effective": "1.0", "mu_mode": "'paper_max'", "dist0": "51.89662048161973",
        "zeta": "157.9307571532542", "ratio": "3.0431799929860306",
        "bound_upper": "512.6870390403877", "bound_lower": "0.15215389593897574",
        "steps": "1036", "seed": "None", "stop_reason": "'norm_below'",
    }),
    (ExperimentConfig("pkl-lower-gd", dims=(2000,)), {
        "experiment": "'pkl-lower-gd'", "d": "2000", "omega": "None", "kappa_nominal": "12000000.0",
        "kappa_effective": "2004986.4489060633", "mu_mode": "'min'",
        "dist0": "296.2274617802248", "zeta": "2115.45961120735",
        "ratio": "7.141335237773594", "bound_upper": "6928.203230275509",
        "bound_lower": "0.367730672344811", "steps": "19993", "seed": "None",
        "stop_reason": "'norm_below'",
    }),
    (ExperimentConfig("quad-lower-gd", dims=(6,), omegas=(10.0,)), {
        "experiment": "'quad-lower-gd'", "d": "6", "omega": "10.0", "kappa_nominal": "100000.0",
        "kappa_effective": "100000.0", "mu_mode": "''", "dist0": "2.449489742783178",
        "zeta": "4.811953833098948", "ratio": "1.9644719261536785",
        "bound_upper": "3.449489742783178", "bound_lower": "1.0179210636622666",
        "steps": "92102", "seed": "None", "stop_reason": "'coords_below_except_last'",
    }),
    (ExperimentConfig("quad-lower-gd", dims=(6,), omegas=(11.0,)), {
        "experiment": "'quad-lower-gd'", "d": "6", "omega": "11.0", "kappa_nominal": "161051.0",
        "kappa_effective": "161051.0", "mu_mode": "''", "dist0": "2.449489742783178",
        "zeta": "4.879698823070412", "ratio": "1.9921287024970202",
        "bound_upper": "3.449489742783178", "bound_lower": "1.0387746977854566",
        "steps": "134847", "seed": "None", "stop_reason": "'coords_below_except_last'",
    }),
    (ExperimentConfig("quad-random", dims=(6,), kappas=(1e4,), seeds=(1,)), {
        "experiment": "'quad-random'", "d": "6", "omega": "None", "kappa_nominal": "10000.0",
        "kappa_effective": "10000.0", "mu_mode": "''", "dist0": "2.449489742783178",
        "zeta": "4.21487861783601", "ratio": "1.720716990244241",
        "bound_upper": "2.449489742783178", "bound_lower": "None",
        "steps": "885", "seed": "1", "stop_reason": "'quadrature'",
    }),
    (ExperimentConfig("bound-sweep", dims=(20,), omegas=(2.0,)), {
        "experiment": "'bound-sweep'", "d": "20", "omega": "2.0", "kappa_nominal": "524288.0",
        "kappa_effective": "None", "mu_mode": "''", "dist0": "4.47213595499958",
        "zeta": "None", "ratio": "None", "bound_upper": "4.47213595499958",
        "bound_lower": "1.6330596367568424", "steps": "0", "seed": "None", "stop_reason": "''",
    }),
]


#: id -> (default grid fields, figure of the plot script `gradpath experiment` writes)
EXPERIMENT_DEFAULTS = {
    "pkl-lower-gd": (dict(dims=f1_dimension_grid()), "f1-ratio-vs-kappa"),
    "quad-lower-gf": (dict(dims=(20,), omegas=(1.1, 1.3, 1.6, 2.0)), "f2-ratio-vs-logkappa"),
    "quad-lower-gd": (dict(dims=(6,), omegas=(11.0,)), "f2-ratio-vs-logkappa"),
    "quad-random": (dict(dims=(20,), kappas=(1e6,), seeds=tuple(range(10))), "f2-ratio-vs-logkappa"),
    "bound-sweep": (dict(dims=(6, 20, 150), omegas=(1.1, 2.0, 11.0)), None),
    "property-suite": (dict(dims=(6, 20)), None),
}

#: a small grid per id, written as a config file
SMALL_GRIDS = {
    "pkl-lower-gd": "dims = 8",
    "quad-lower-gf": "dims = 6\nomegas = 2.0",
    "quad-lower-gd": "dims = 4\nomegas = 3.0",
    "quad-random": "dims = 4\nkappas = 100.0",
    "bound-sweep": "dims = 6\nomegas = 2.0",
    "property-suite": "dims = 6",
}


@pytest.fixture(scope="module")
def pinned_row():
    """The one row of a config, computed once per module: the pinned-row
    test and the discrete cross-check share the long descent runs."""
    rows = {}

    def row(cfg):
        if cfg not in rows:
            (rows[cfg],) = run_experiment(cfg)
        return rows[cfg]

    return row


def geometric_gd_length(omega: float, d: int, steps: int, chunk: int = 8192) -> float:
    """Per-mode path length of GD on 0.5 sum_i a_i x_i^2, a_i = omega^(d-i),
    from x0 = 1 with eta = 1/(2 a_1): the step norms
    ||eta a (1 - eta a)^k||, k < steps, summed in chunks, plus ||x_steps||."""
    a = omega ** np.arange(d - 1, -1, -1, dtype=float)
    eta = 1.0 / (2.0 * a[0])
    rate = 1.0 - eta * a
    total = 0.0
    for k0 in range(0, steps, chunk):
        k = np.arange(k0, min(k0 + chunk, steps), dtype=float)[:, None]
        total += float(np.linalg.norm(eta * a * rate**k, axis=1).sum())
    return total + float(np.linalg.norm(rate**steps))


def strip_runtime(csv_text: str) -> str:
    lines = []
    for line in csv_text.splitlines():
        cells = line.split(",")
        del cells[12]
        lines.append(",".join(cells))
    return "\n".join(lines)


class TestDimensionGrid:
    def test_default_grid(self):
        grid = f1_dimension_grid()
        assert grid[0] == 8  # ceil(e^2); 7 would fall outside [e^2, e^5]
        assert grid[-1] == 148
        assert len(grid) == 15
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_extension_range(self):
        grid = f1_dimension_grid(high=math.e**6, count=5)
        assert grid[-1] == math.floor(math.e**6)

    def test_validation(self):
        with pytest.raises(InputError):
            f1_dimension_grid(low=2.0)


class TestConfig:
    def test_defaults_per_experiment(self):
        cfg = default_config("pkl-lower-gd")
        assert cfg.dims == f1_dimension_grid()
        assert cfg.mu_mode == "min"
        cfg = default_config("quad-random")
        assert cfg.seeds == tuple(range(10))
        with pytest.raises(InputError):
            default_config("nonsense")

    def test_every_id_has_a_default_case(self):
        assert EXPERIMENTS == tuple(EXPERIMENT_DEFAULTS)

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_default_grid_fields(self, experiment):
        grid, _ = EXPERIMENT_DEFAULTS[experiment]
        assert default_config(experiment) == replace(ExperimentConfig(experiment), **grid)

    def test_keys_are_the_config_fields(self):
        assert set(CONFIG_KEYS) == {f.name for f in fields(ExperimentConfig)}
        # ode_tol had no reader; it returns with the PL flow experiment
        with pytest.raises(InputError, match="line 2: unknown key 'ode_tol'"):
            parse_config_text("experiment = quad-random\node_tol = 1e-10\n")
        for key in ("quad_abs_tol", "stop_norm", "stop_coords"):
            with pytest.raises(InputError, match=f"{key} must be positive"):
                ExperimentConfig("quad-random", **{key: 0.0})

    def test_parse_round_trip(self):
        text = """
        # comment
        experiment = quad-lower-gf
        dims = 6, 20
        omegas = 1.5, 2.0
        quad_abs_tol = 1e-10
        out = somewhere.csv
        """
        cfg = parse_config_text(text)
        assert cfg.experiment == "quad-lower-gf"
        assert cfg.dims == (6, 20)
        assert cfg.omegas == (1.5, 2.0)
        assert cfg.quad_abs_tol == 1e-10
        assert cfg.out == "somewhere.csv"

    def test_unknown_key_rejected(self):
        with pytest.raises(InputError, match="unknown key"):
            parse_config_text("experiment = quad-random\nbogus = 3\n")

    def test_workers_key_rejected(self):
        # experiments run serially; a worker count would be a knob that does nothing
        with pytest.raises(InputError, match="line 2: unknown key 'workers'"):
            parse_config_text("experiment = pkl-lower-gd\nworkers = 2\n")

    @pytest.mark.parametrize("line, match", [
        ("safety_cap = abc", "line 2: safety_cap: expected an integer"),
        ("dims = 6.5", "line 2: dims: expected an integer"),
        ("quad_abs_tol = nan", "line 2: quad_abs_tol must be finite"),
        ("omegas = 2.0, nan", "line 2: omegas must be finite"),
        ("kappas = inf", "line 2: kappas must be finite"),
    ], ids=["int-malformed", "dims-not-int", "tol-nan", "omega-nan", "kappa-inf"])
    def test_malformed_or_non_finite_number_rejected(self, line, match, tmp_path):
        text = f"experiment = quad-lower-gf\n{line}\n"
        with pytest.raises(InputError, match=match):
            parse_config_text(text)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["experiment", "quad-lower-gf", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "quad-lower-gf.csv").exists()

    def test_missing_experiment_rejected(self):
        with pytest.raises(InputError, match="experiment"):
            parse_config_text("dims = 6\n")

    def test_tolerances_validated(self):
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(InputError):
                ExperimentConfig("quad-random", dims=(2,), kappas=(10.0,), quad_abs_tol=tol)
        with pytest.raises(InputError):
            ExperimentConfig("quad-random", mu_mode="median")
        with pytest.raises(InputError):
            ExperimentConfig("nope")

    def test_empty_grid_rejected_at_run(self):
        with pytest.raises(InputError, match="empty grid"):
            run_experiment(ExperimentConfig("quad-lower-gf", dims=(), omegas=(2.0,)))


class TestCsv:
    def test_golden_row(self):
        assert render_csv([GOLDEN_ROW]) == GOLDEN_CSV

    def test_header_only_for_no_rows(self):
        assert render_csv([]) == CSV_HEADER + "\n"

    def test_emit_writes_lf(self, tmp_path):
        path = tmp_path / "out" / "rows.csv"
        emit_csv([GOLDEN_ROW], path)
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.decode() == GOLDEN_CSV

    def test_shortest_roundtrip_floats(self):
        row = replace(GOLDEN_ROW, zeta=0.1, ratio=1 / 3)
        text = render_csv([row])
        assert ",0.1," in text
        assert ",0.3333333333333333," in text


class TestSandwich:
    def test_within_bounds_passes(self):
        _verify_sandwich(GOLDEN_ROW)

    def test_below_lower_aborts(self):
        with pytest.raises(InvariantViolation, match="below lower"):
            _verify_sandwich(replace(GOLDEN_ROW, ratio=1.0))

    def test_above_upper_aborts(self):
        with pytest.raises(InvariantViolation, match="above upper"):
            _verify_sandwich(replace(GOLDEN_ROW, ratio=3.0))

    def test_capped_rows_exempt(self):
        _verify_sandwich(replace(GOLDEN_ROW, ratio=3.0, stop_reason="cap"))


class TestExperiments:
    def test_quad_lower_gf_rows_sorted_and_sandwiched(self):
        cfg = ExperimentConfig("quad-lower-gf", dims=(6, 12), omegas=(2.0, 1.3))
        rows = run_experiment(cfg)
        keys = [(r.d, r.omega) for r in rows]
        assert keys == sorted(keys)
        for row in rows:
            assert row.ratio == pytest.approx(row.zeta / row.dist0, rel=1e-12)
            assert row.bound_upper >= row.ratio

    def test_quad_lower_gd_small_instance(self):
        cfg = ExperimentConfig("quad-lower-gd", dims=(4,), omegas=(11.0,))
        rows = run_experiment(cfg)
        assert len(rows) == 1
        assert rows[0].stop_reason == "coords_below_except_last"
        assert rows[0].bound_lower <= rows[0].ratio <= rows[0].bound_upper

    def test_quad_lower_gd_cap_projection(self):
        cfg = ExperimentConfig(
            "quad-lower-gd", dims=(40,), omegas=(2.0,), safety_cap=10_000
        )
        rows = run_experiment(cfg)
        assert rows[0].stop_reason == "cap"
        assert rows[0].zeta is None

    def test_pkl_lower_gd_small_grid(self):
        cfg = ExperimentConfig("pkl-lower-gd", dims=(6, 9))
        rows = run_experiment(cfg)
        assert [r.d for r in rows] == [6, 9]
        for row in rows:
            assert row.kappa_nominal == 3 * row.d**2
            assert row.kappa_effective <= row.kappa_nominal
            assert row.ratio >= 0.3 * (row.d - 1) / row.dist0
            assert row.bound_lower <= row.ratio <= row.bound_upper
            assert row.stop_reason == "norm_below"
            assert row.mu_mode == "min"

    def test_pkl_lower_gd_single_point_deterministic(self):
        cfg = ExperimentConfig("pkl-lower-gd", dims=(7,))
        a = render_csv(run_experiment(cfg))
        b = render_csv(run_experiment(cfg))
        assert strip_runtime(a) == strip_runtime(b)

    @pytest.mark.parametrize(
        "cfg, pinned", PINNED_ROWS,
        ids=["pkl-148-min", "pkl-148-paper_max", "pkl-2000-min", "quad-6-10", "quad-6-11", "random-6-1e4-1", "sweep-20-2"],
    )
    def test_rows_match_pinned_values(self, cfg, pinned, pinned_row):
        row = pinned_row(cfg)
        got = {k: repr(v) for k, v in asdict(row).items() if k != "runtime_s"}
        assert got == pinned

    @pytest.mark.parametrize("omega", [10.0, 11.0])
    def test_quad_lower_gd_rows_match_per_mode_sums(self, omega, pinned_row):
        # independent of the descent loop: the slowest checked mode
        # (a_(d-1) = omega) sets the stop, and each step's norm and the
        # final distance follow from the powers (1 - eta a)^k
        cfg = ExperimentConfig("quad-lower-gd", dims=(6,), omegas=(omega,))
        row = pinned_row(cfg)
        eta = 1.0 / (2.0 * omega**5)
        assert row.steps == math.ceil(math.log(cfg.stop_coords) / math.log(1.0 - eta * omega))
        assert row.zeta == pytest.approx(geometric_gd_length(omega, 6, row.steps), rel=1e-9, abs=0)

    def test_quad_lower_single_dimension_is_trivial(self):
        gf = run_experiment(ExperimentConfig("quad-lower-gf", dims=(1,), omegas=(7.0,)))
        assert gf[0].ratio == pytest.approx(1.0, abs=1e-9)
        gd = run_experiment(ExperimentConfig("quad-lower-gd", dims=(1,), omegas=(7.0,)))
        assert gd[0].ratio == pytest.approx(1.0, abs=1e-12)
        assert gd[0].steps == 0  # the stop rule is vacuous in one dimension

    def test_paper_max_mode_degenerates(self):
        # the max aggregate is reached on the quadratic branch, where the
        # ratio equals the smoothness constant, so kappa collapses to 1
        cfg = ExperimentConfig("pkl-lower-gd", dims=(6,), mu_mode="paper_max")
        rows = run_experiment(cfg)
        assert rows[0].kappa_effective == pytest.approx(1.0, rel=1e-9)

    def test_quad_random_deterministic(self):
        cfg = ExperimentConfig("quad-random", dims=(6,), kappas=(1e4,), seeds=(0, 1))
        a = render_csv(run_experiment(cfg))
        b = render_csv(run_experiment(cfg))
        assert strip_runtime(a) == strip_runtime(b)

    def test_bound_sweep(self):
        cfg = ExperimentConfig("bound-sweep", dims=(6, 20), omegas=(2.0, 11.0))
        rows = run_experiment(cfg)
        assert len(rows) == 4
        assert all(r.zeta is None for r in rows)
        assert all(r.bound_upper is not None for r in rows)

    def test_property_suite_vacuous_on_empty_grid(self):
        report = run_property_suite(ExperimentConfig("property-suite", dims=()))
        assert report.ok
        assert report.results == []

    def test_property_suite_default_passes(self):
        report = run_property_suite(ExperimentConfig("property-suite", dims=(6,)))
        assert report.ok, report.render()
        assert len(report.results) >= 15


def pin_cpus(monkeypatch, count):
    """Make the grid runner see ``count`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def fork_for(monkeypatch, experiment, cpus, point_row=None):
    """Project every point of ``experiment`` heavy enough to fork for, over
    ``cpus`` usable CPUs; ``point_row`` replaces its point function."""
    entry = EXPERIMENT_TABLE[experiment]
    heavy = replace(entry, projected_steps=lambda point, cfg: FORK_MIN_STEPS, point_row=point_row or entry.point_row)
    monkeypatch.setitem(EXPERIMENT_TABLE, experiment, heavy)
    pin_cpus(monkeypatch, cpus)


def forbid_fork(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


#: multi-point grids, each run with one worker and with several; the
#: last has equal sort keys (same d and seed), kept in grid order
WORKER_GRIDS = [
    default_config("quad-random"),
    default_config("bound-sweep"),
    ExperimentConfig("quad-lower-gd", dims=(6,), omegas=(2.0, 3.0, 4.0)),
    ExperimentConfig("quad-random", dims=(6,), kappas=(1e4, 1e2), seeds=(0, 1)),
]

#: the bound-sweep grid that the failure tests run, four points in this order
SWEEP_POINTS = [(6, 1.5), (6, 2.0), (6, 3.0), (6, 4.0)]


class TestGridWorkers:
    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("cfg", WORKER_GRIDS,
                             ids=["quad-random", "bound-sweep", "quad-lower-gd", "tied-keys"])
    def test_rows_independent_of_worker_count(self, cfg, cpus, monkeypatch):
        fork_for(monkeypatch, cfg.experiment, cpus)
        several = render_csv(run_experiment(cfg))
        pin_cpus(monkeypatch, 1)
        one = render_csv(run_experiment(cfg))
        assert strip_runtime(several) == strip_runtime(one)
        assert_no_child_left()

    @pytest.mark.parametrize("omegas, workers", [
        ((10.0, 11.0), 2),              # 92,102 and 134,847 projected steps
        ((10.0, 11.0, 12.0), 3),
        ((2.0, 3.0, 4.0, 11.0), 1),     # one heavy point: nothing to share
    ])
    def test_heavy_points_get_workers(self, omegas, workers, monkeypatch):
        pin_cpus(monkeypatch, 4)
        cfg = ExperimentConfig("quad-lower-gd", dims=(6,), omegas=omegas)
        points = [(6, omega) for omega in omegas]
        assert _worker_count(EXPERIMENT_TABLE["quad-lower-gd"], points, cfg) == workers

    def test_capped_points_are_not_heavy(self, monkeypatch):
        pin_cpus(monkeypatch, 4)
        cfg = ExperimentConfig("quad-lower-gd", dims=(6,), omegas=(10.0, 11.0), safety_cap=100_000)
        assert _worker_count(EXPERIMENT_TABLE["quad-lower-gd"], [(6, 10.0), (6, 11.0)], cfg) == 1

    @pytest.mark.parametrize("experiment", ["quad-random", "bound-sweep", "quad-lower-gf", "quad-lower-gd"])
    def test_cheap_grid_forks_nothing(self, experiment, monkeypatch):
        forbid_fork(monkeypatch)
        pin_cpus(monkeypatch, 4)
        cfg = default_config(experiment)
        if experiment == "quad-lower-gd":
            cfg = replace(cfg, omegas=(2.0, 3.0, 4.0))
        assert len(run_experiment(cfg)) >= 3

    def test_unbuildable_point_raises_its_own_error(self, monkeypatch):
        # omegas 3 and 4 project 744 and 2,356 steps, heavy at this floor
        monkeypatch.setattr("gradpath.harness.FORK_MIN_STEPS", 700)
        pin_cpus(monkeypatch, 4)
        cfg = ExperimentConfig("quad-lower-gd", dims=(6,), omegas=(3.0, 0.5, 4.0))
        assert _worker_count(EXPERIMENT_TABLE["quad-lower-gd"], [(6, 3.0), (6, 0.5), (6, 4.0)], cfg) == 2
        with pytest.raises(InputError, match="omega must be finite and exceed 1"):
            run_experiment(cfg)
        assert_no_child_left()

    def sweep(self, monkeypatch, fail_at, cpus):
        """The SWEEP_POINTS config over ``cpus`` CPUs, whose point at grid
        index i calls ``fail_at[i]()``."""
        entry = EXPERIMENT_TABLE["bound-sweep"]

        def point_row(point, cfg):
            index = SWEEP_POINTS.index(point)
            if index in fail_at:
                fail_at[index]()
            return entry.point_row(point, cfg)

        fork_for(monkeypatch, "bound-sweep", cpus, point_row)
        return ExperimentConfig("bound-sweep", dims=(6,), omegas=(1.5, 2.0, 3.0, 4.0))

    @staticmethod
    def raiser(exc):
        def fail():
            raise exc
        return fail

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_first_failing_point_in_grid_order(self, cpus, monkeypatch):
        # with two workers, index 1 is in the child's share and index 2 in the parent's
        cfg = self.sweep(monkeypatch, {
            1: self.raiser(StepSizeUnderflowError(1.0)),
            2: self.raiser(DivergenceError("point 2 diverged")),
        }, cpus)
        pid = os.getpid()
        with pytest.raises(StepSizeUnderflowError) as info:
            run_experiment(cfg)
        assert type(info.value) is StepSizeUnderflowError
        assert str(info.value) == "step size underflow at t=1.0"
        assert info.value.t == 1.0
        assert os.getpid() == pid
        assert_no_child_left()

    @pytest.mark.parametrize("exc", [DivergenceError("point 0 failed"), KeyboardInterrupt("point 0 failed")],
                             ids=["error", "interrupt"])
    def test_children_reaped_when_own_share_raises(self, exc, monkeypatch):
        # index 0 is in the parent's share; an interrupt is not caught as a point failure
        cfg = self.sweep(monkeypatch, {0: self.raiser(exc)}, 4)
        pid = os.getpid()
        with pytest.raises(type(exc), match="^point 0 failed$"):
            run_experiment(cfg)
        assert os.getpid() == pid
        assert_no_child_left()

    def test_child_without_result_names_its_points(self, monkeypatch):
        parent = os.getpid()

        def vanish():
            if os.getpid() != parent:
                os._exit(3)

        cfg = self.sweep(monkeypatch, {1: vanish}, 2)
        with pytest.raises(ComputationError, match=r"points \[\(6, 2\.0\), \(6, 4\.0\)\] exited with code 3"):
            run_experiment(cfg)
        assert os.getpid() == parent
        assert_no_child_left()

    @pytest.mark.parametrize("cpus, omegas", [(1, (2.0, 3.0)), (4, (2.0,))], ids=["one-cpu", "one-point"])
    def test_one_worker_forks_nothing(self, cpus, omegas, monkeypatch):
        fork_for(monkeypatch, "bound-sweep", cpus)
        forbid_fork(monkeypatch)
        rows = run_experiment(ExperimentConfig("bound-sweep", dims=(6,), omegas=omegas))
        assert [row.omega for row in rows] == list(omegas)

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_platform_without_fork_runs_in_process(self, missing, monkeypatch):
        fork_for(monkeypatch, "bound-sweep", 4)
        monkeypatch.delattr(os, missing)
        if missing != "fork":
            forbid_fork(monkeypatch)
        cfg = ExperimentConfig("bound-sweep", dims=(6,), omegas=(2.0, 3.0, 4.0))
        assert [row.omega for row in run_experiment(cfg)] == [2.0, 3.0, 4.0]

    def test_other_thread_running_forks_nothing(self, monkeypatch):
        fork_for(monkeypatch, "bound-sweep", 4)
        forbid_fork(monkeypatch)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            rows = run_experiment(ExperimentConfig("bound-sweep", dims=(6,), omegas=(2.0, 3.0, 4.0)))
        finally:
            release.set()
            other.join()
        assert [row.omega for row in rows] == [2.0, 3.0, 4.0]

    def test_serial_failure_keeps_its_traceback(self, monkeypatch):
        cfg = self.sweep(monkeypatch, {2: self.raiser(DivergenceError("point 2 diverged"))}, 1)
        with pytest.raises(DivergenceError) as info:
            run_experiment(cfg)
        assert info.traceback[-1].name == "fail"


GOLDEN_F1_EMPTY = '''\
#!/usr/bin/env python3
"""Standalone plot script generated by gradpath (f1-ratio-vs-kappa)."""
import csv
import math

import matplotlib.pyplot as plt

CSV_PATH = 'demo.csv'

rows = []
with open(CSV_PATH) as fh:
    for record in csv.DictReader(fh):
        rows.append(record)

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

plt.legend()
plt.tight_layout()
plt.savefig('demo.png', dpi=150)
print("wrote", 'demo.png')
'''


GOLDEN_F2_THREE = '''\
#!/usr/bin/env python3
"""Standalone plot script generated by gradpath (f2-ratio-vs-logkappa)."""
import csv
import math

import matplotlib.pyplot as plt

CSV_PATH = 'three.csv'

rows = []
with open(CSV_PATH) as fh:
    for record in csv.DictReader(fh):
        rows.append(record)

xs = [math.log(float(r["kappa_nominal"])) for r in rows if r["ratio"]]
ys = [float(r["ratio"]) for r in rows if r["ratio"]]
DIM = 6
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

plt.legend()
plt.tight_layout()
plt.savefig('three.png', dpi=150)
print("wrote", 'three.png')
'''


class TestPlotScripts:
    def test_f1_empty_rows_golden(self):
        assert render_plot_script([], "f1-ratio-vs-kappa", "demo.csv") == GOLDEN_F1_EMPTY

    def test_f2_embeds_dimension(self):
        text = render_plot_script([GOLDEN_ROW], "f2-ratio-vs-logkappa", "demo.csv")
        assert "DIM = 6" in text
        assert "0.45 * math.sqrt(v)" in text
        assert "1 + 2.5 * math.sqrt(v)" in text

    def test_f2_three_row_golden(self):
        rows = [replace(GOLDEN_ROW, omega=w, kappa_nominal=w**5) for w in (2.0, 3.0, 11.0)]
        assert render_plot_script(rows, "f2-ratio-vs-logkappa", "three.csv") == GOLDEN_F2_THREE

    def test_f2_without_rows_has_no_truncation(self):
        text = render_plot_script([], "f2-ratio-vs-logkappa", "demo.csv")
        assert "DIM = None" in text

    def test_unknown_figure_rejected(self):
        with pytest.raises(InputError, match="unknown figure"):
            render_plot_script([], "f3-something", "demo.csv")

    def test_emitted_script_runs_headless(self, tmp_path):
        pytest.importorskip("matplotlib")
        import subprocess
        import sys

        csv_path = tmp_path / "rows.csv"
        emit_csv([GOLDEN_ROW], csv_path)
        script = tmp_path / "plot.py"
        emit_plot_script([GOLDEN_ROW], "f2-ratio-vs-logkappa", csv_path, script)
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            env={"MPLBACKEND": "Agg", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "rows.png").exists()


class TestCli:
    def test_run_gd(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        code = main([
            "run-gd", "--objective", "quad-geom:d=3,omega=4",
            "--stop", "norm_below:1e-6", "--csv-out", str(out),
        ])
        assert code == 0
        assert out.exists()
        assert "path length" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["run-gd", "--objective", "quad-geom:d=3,omega=4", "--stop", "norm_below:1e-6"],
        ["run-hb", "--objective", "fsep-quartic:d=3", "--stop", "norm_below:1e-10"],
        ["run-pgd", "--objective", "quad-geom:d=2,omega=2", "--x0", "0.5,0.5", "--eta", "0.2",
         "--project", "box:0.25,0.75", "--stop", "max_steps:30"],
    ], ids=lambda argv: argv[0])
    def test_run_report_same_without_csv(self, argv, capsys, tmp_path):
        # without --csv-out only the endpoints are kept; the report must not change
        assert main(argv) == 0
        lean = capsys.readouterr().out.splitlines()
        out = tmp_path / "traj.csv"
        assert main(argv + ["--csv-out", str(out)]) == 0
        full = capsys.readouterr().out.splitlines()
        assert full == lean + [f"wrote {out}"]
        assert [line.split()[0] for line in lean][:2] == ["stop:", "path"]
        steps = int(lean[0].split()[-2])
        assert len(out.read_text().splitlines()) == steps + 2  # header, x_0 ... x_N

    def test_run_gf(self, capsys):
        code = main(["run-gf", "--objective", "fsep-quartic:d=2", "--stop", "grad_below:1e-8"])
        assert code == 0
        assert "arc length" in capsys.readouterr().out

    def test_run_gf_reports_integrator_counts(self, capsys):
        assert main(["run-gf", "--objective", "pkl-lower-gf:d=6", "--stop", "norm_below:1e-6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        instance = parse_instance("pkl-lower-gf:d=6")
        traj = gf_integrate(instance.objective, instance.x0, 1e-10, StopRule.norm_below(1e-6))
        assert traj.n_rejected > 0
        assert lines[2] == (
            f"integrator: {traj.n_steps} accepted, {traj.n_rejected} rejected, "
            f"{traj.n_feval} gradient calls"
        )

    def test_bounds_subcommand(self, capsys):
        assert main(["bounds", "pkl-gd", "--mu", "1", "--L", "4"]) == 0
        assert "4.0" in capsys.readouterr().out

    def test_bounds_bad_input_is_exit_two(self, capsys):
        assert main(["bounds", "pkl-gd", "--mu", "4", "--L", "1"]) == 2

    def test_unknown_objective_is_exit_two(self, capsys):
        assert main(["run-gd", "--objective", "mystery", "--stop", "max_steps:1"]) == 2

    @pytest.mark.parametrize("objective, stop", [
        ("quad-geom:d=3,omega=4", "norm_below:nan"),
        ("quad-geom:omega=nan", "max_steps:1"),
        ("quad-geom:d=abc", "max_steps:1"),
    ], ids=["stop-nan", "omega-nan", "d-malformed"])
    def test_malformed_run_input_is_exit_two(self, objective, stop, capsys):
        assert main(["run-gd", "--objective", objective, "--stop", stop]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["bounds", "heavy-ball", "--L", "inf", "--mu", "1"],
        ["bounds", "pkl-gd", "--L", "4", "--mu", "nan"],
        ["bounds", "linconv-gf", "--A", "1", "--c", "nan", "--L", "1"],
        ["bounds", "quadratic-gd", "--spectrum", "4,inf,1"],
        ["bounds", "quadratic-gd", "--spectrum", "4,abc,1"],
        ["run-gd", "--objective", "quad-geom:d=3,omega=4", "--eta", "abc"],
        ["run-gd", "--objective", "quad-geom:d=3,omega=4", "--eta", "nan"],
        ["run-gd", "--objective", "quad-geom:d=3,omega=4", "--x0", "1,abc,2"],
        ["run-gd", "--objective", "quad-geom:d=3,omega=4", "--x0", "1,inf,2"],
        ["run-hb", "--objective", "quad-geom:d=3,omega=4", "--alpha", "nan", "--beta", "0.5"],
        ["run-gf", "--objective", "quad-geom:d=3,omega=4", "--tol", "nan"],
        ["run-pgd", "--objective", "quad-geom:d=2,omega=2", "--x0", "0.5,0.5", "--eta", "0.2",
         "--project", "box:0.25,abc"],
        ["run-pgd", "--objective", "quad-geom:d=2,omega=2", "--x0", "0.5,0.5", "--eta", "0.2",
         "--project", "ball:nan"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
    def test_non_finite_number_is_exit_two(self, argv, capsys):
        assert main(argv + ([] if argv[0] == "bounds" else ["--stop", "max_steps:3"])) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_workers_flag_removed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "quad-lower-gf", "--out", str(tmp_path), "--workers", "2"])
        assert exc.value.code == 2

    def test_check_self_contracted(self, tmp_path, capsys):
        pts = tmp_path / "pts.txt"
        pts.write_text("8\n-6\n4.5\n")
        assert main(["check", "self-contracted", "--points", str(pts)]) == 1
        out = capsys.readouterr().out
        assert "10.5" in out and "3.5" in out
        pts.write_text("1 0\n0.5 0\n0.25 0\n")
        assert main(["check", "self-contracted", "--points", str(pts)]) == 0

    @pytest.mark.parametrize("text, message", [
        ("1 0\n1 nan\n0 0\n", "line 2 must be finite, got 'nan'"),
        ("1 0\n# note\n1 abc\n", "line 3: expected a number, got 'abc'"),
        ("1 0\n0.5\n", "line 2: expected 2 coordinates, got 1"),
    ], ids=["nan", "malformed", "ragged"])
    def test_check_bad_points_is_exit_two(self, text, message, tmp_path, capsys):
        pts = tmp_path / "pts.txt"
        pts.write_text(text)
        assert main(["check", "self-contracted", "--points", str(pts)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {pts} {message}\n"

    def test_check_non_finite_tol_is_exit_two(self, tmp_path, capsys):
        # a NaN tolerance used to pass every triple: "8, -6, 4.5" was reported self-contracted
        pts = tmp_path / "pts.txt"
        pts.write_text("8\n-6\n4.5\n")
        assert main(["check", "self-contracted", "--points", str(pts), "--tol", "nan"]) == 2
        assert capsys.readouterr().err == "error: --tol must be finite, got nan\n"

    def test_check_negative_tol_is_exit_two(self, tmp_path, capsys):
        # a negative tolerance used to flip the verdict: the straight line
        # 0, 1, 2 was reported not self-contracted, with exit 1
        pts = tmp_path / "pts.txt"
        pts.write_text("0 0\n1 0\n2 0\n")
        assert main(["check", "self-contracted", "--points", str(pts), "--tol", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tol must be nonnegative, got -5.0\n"
        assert main(["check", "self-contracted", "--points", str(pts)]) == 0

    @pytest.mark.parametrize("flag, value", [("--alpha", "0.001"), ("--beta", "0.9")])
    def test_run_hb_lone_parameter_is_exit_two(self, flag, value, capsys):
        # a lone --alpha or --beta used to be ignored in favour of hb_params
        argv = ["run-hb", "--objective", "fsep-quartic:d=3", "--stop", "max_steps:5"]
        assert main(argv + [flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: pass both --alpha and --beta, or neither\n"
        assert main(argv + ["--alpha", "0.001", "--beta", "0.9"]) == 0

    def test_experiment_subcommand(self, tmp_path, capsys):
        code = main([
            "experiment", "quad-lower-gf", "--out", str(tmp_path),
            "--config", str(_write_config(tmp_path)),
        ])
        assert code == 0
        assert (tmp_path / "quad-lower-gf.csv").exists()
        assert (tmp_path / "quad-lower-gf_plot.py").exists()

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_experiment_writes_its_figure(self, experiment, tmp_path, capsys):
        config = tmp_path / "small.cfg"
        config.write_text(f"experiment = {experiment}\n{SMALL_GRIDS[experiment]}\n")
        assert main(["experiment", experiment, "--out", str(tmp_path), "--config", str(config)]) == 0
        _, figure = EXPERIMENT_DEFAULTS[experiment]
        written = sorted(path.name for path in tmp_path.iterdir() if path != config)
        if experiment == "property-suite":
            assert written == []
        elif figure is None:
            assert written == [f"{experiment}.csv"]
        else:
            assert written == [f"{experiment}.csv", f"{experiment}_plot.py"]
            script = (tmp_path / f"{experiment}_plot.py").read_text()
            assert f"generated by gradpath ({figure})" in script

    def test_experiment_config_mismatch(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["experiment", "quad-random", "--out", str(tmp_path), "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("entry", ["cli-offset", "config-file", "registry"])
    def test_negative_seed_is_exit_two(self, entry, tmp_path, capsys):
        # each used to end in numpy's "expected non-negative integer" traceback
        if entry == "registry":
            argv = ["run-gd", "--objective", "quad-random:seed=-1", "--stop", "max_steps:3"]
        else:
            argv = ["experiment", "quad-random", "--out", str(tmp_path)]
            if entry == "cli-offset":
                argv += ["--seed", "-5"]
            else:
                cfg = tmp_path / "rand.cfg"
                cfg.write_text("experiment = quad-random\ndims = 4\nkappas = 100.0\nseeds = -1\n")
                argv += ["--config", str(cfg)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: seed must be a nonnegative integer")
        assert not (tmp_path / "quad-random.csv").exists()

    def test_fractional_max_steps_is_exit_two(self, capsys):
        argv = ["run-gd", "--objective", "quad-geom:d=3,omega=4", "--stop"]
        assert main(argv + ["max_steps:2.5"]) == 2  # used to run 2 steps
        assert "max_steps requires a nonnegative integer" in capsys.readouterr().err
        assert main(argv + ["max_steps:3"]) == 0
        assert capsys.readouterr().out.startswith("stop: max_steps after 3 steps\n")

    @pytest.mark.parametrize("entry", ["zero", "negative", "config-file"])
    def test_non_positive_dims_is_exit_two(self, entry, tmp_path, capsys):
        # each used to run the suite and exit 1 with "FAILED (15/19 checks)"
        if entry == "config-file":
            cfg = tmp_path / "suite.cfg"
            cfg.write_text("experiment = property-suite\ndims = 0\n")
            argv = ["experiment", "property-suite", "--out", str(tmp_path), "--config", str(cfg)]
        else:
            argv = ["suite", "--dims", "0" if entry == "zero" else "-4"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: dims must be a positive integer, got {-4 if entry == 'negative' else 0}\n"

    def test_suite_small(self, capsys):
        assert main(["suite", "--dims", "6"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

    @pytest.mark.parametrize("experiment", [e for e in EXPERIMENTS if "seeds" not in EXPERIMENT_TABLE[e].grid])
    def test_seed_without_a_seeds_grid_is_exit_two(self, experiment, tmp_path, capsys):
        # the offset used to be accepted and change nothing
        assert main(["experiment", experiment, "--out", str(tmp_path), "--seed", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --seed offsets a seeds grid; experiment {experiment!r} has none\n"
        assert list(tmp_path.iterdir()) == []

    def test_experiment_seed_offset(self, tmp_path, capsys):
        cfg = tmp_path / "rand.cfg"
        cfg.write_text("experiment = quad-random\ndims = 4\nkappas = 100.0\nseeds = 0, 1\n")
        args = ["experiment", "quad-random", "--out", str(tmp_path), "--config", str(cfg)]
        assert main(args) == 0
        base = (tmp_path / "quad-random.csv").read_text()
        assert main(args + ["--seed", "100"]) == 0
        shifted = (tmp_path / "quad-random.csv").read_text()
        assert ",100," in shifted and ",101," in shifted
        assert strip_runtime(base) != strip_runtime(shifted)


def _write_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = quad-lower-gf\ndims = 6\nomegas = 2.0, 3.0\n")
    return cfg
