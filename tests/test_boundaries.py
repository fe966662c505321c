"""Every boundary accepts only finite, in-range numbers and keeps the value
it checked: bad input raises InputError at the entry point, and a number
given as text runs exactly as the float it spells."""

import ast
import math
from pathlib import Path

import pytest

from conftest import run_observed
from gradpath import (
    ExperimentConfig,
    InputError,
    ObjectiveSpec,
    StopRule,
    bound_convex_qc,
    bound_fsep,
    bound_hb,
    bound_linconv_gd,
    bound_linconv_gf,
    bound_linconv_general,
    bound_pgd_factor,
    bound_pkl,
    bound_separable,
    box_projector,
    build_fsep_quartic,
    build_quad_lower,
    build_quad_random,
    evaluate_bound,
    f1_dimension_grid,
    gd_run,
    gf_integrate,
    hb_params,
    heavy_ball_run,
    lower_bound_pkl,
    lower_bound_quadratic,
    make_instance,
    pgd_step_factor,
    pgd_run,
    self_contracted_check,
    spectral_gap_term,
)
from gradpath.quadrature import adaptive_quadrature

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gradpath"
NAN, INF = math.nan, math.inf
LINE = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]


def _objective(**declared):
    return ObjectiveSpec(value=lambda x: 0.0, gradient=lambda x: x, **{"dim": 1, **declared})


#: each call returned a result (often NaN, or a truncated integer) or
#: raised a raw TypeError before its input was checked and kept
REJECTED = {
    "stop-threshold-negative-text": lambda: StopRule("norm_below", "-1"),
    "box-projector-nan": lambda: box_projector([NAN], [1.0]),
    "self-contracted-tol-inf": lambda: self_contracted_check(LINE, tol=INF),
    "objective-dim-fractional": lambda: _objective(dim=2.5),
    "objective-L-nan": lambda: _objective(L=NAN),
    "objective-mu-inf": lambda: _objective(mu=INF),
    "fsep-d-fractional": lambda: build_fsep_quartic(2.5),
    "fsep-coeff-nan": lambda: build_fsep_quartic(2, quartic_coeff=NAN),
    "fsep-box-nan": lambda: build_fsep_quartic(2, box_halfwidth=NAN),
    "linconv-A-nan": lambda: bound_linconv_general(NAN, 0.5),
    "linconv-gd-eta-nan": lambda: bound_linconv_gd(1, 0.5, NAN, 1),
    "linconv-gf-L-nan": lambda: bound_linconv_gf(1, 0.5, NAN),
    "pgd-eta-nan": lambda: bound_pgd_factor(NAN, 1, 1, 0.5),
    "pgd-step-factor-nan": lambda: pgd_step_factor(NAN, 1),
    "hb-L-inf": lambda: bound_hb(1.0, INF),
    "pkl-L-inf": lambda: bound_pkl(1.0, INF),
    "fsep-bound-L-inf": lambda: bound_fsep(1.0, INF),
    "hb-params-L-inf": lambda: hb_params(1.0, INF),
    "spectral-gap-nan": lambda: spectral_gap_term(NAN),
    "separable-nan": lambda: bound_separable(NAN),
    "separable-fractional": lambda: bound_separable(2.5),
    "convex-qc-nan": lambda: bound_convex_qc(NAN, "gd_eta_invL"),
    "convex-qc-fractional": lambda: bound_convex_qc(2.5, "gd_eta_invL"),
    "lower-pkl-kappa-nan": lambda: lower_bound_pkl(8, NAN),
    "lower-pkl-d-fractional": lambda: lower_bound_pkl(8.5, 1e4),
    "lower-quadratic-kappa-nan": lambda: lower_bound_quadratic(10, NAN),
    "lower-quadratic-d-fractional": lambda: lower_bound_quadratic(2.5, 1e4),
    "evaluate-separable-fractional": lambda: evaluate_bound("separable", d=2.5),
    "quad-random-d-fractional": lambda: build_quad_random(2.5, 100.0, 0),
    "registry-pkl-lower-gd-d-fractional": lambda: make_instance("pkl-lower-gd", d=6.7),
    "registry-quad-random-seed-fractional": lambda: make_instance("quad-random", seed=1.5),
    "registry-quad-geom-d-fractional": lambda: make_instance("quad-geom", d=2.5),
    "registry-fsep-d-fractional": lambda: make_instance("fsep-quartic", d=2.5),
    "config-dims-fractional": lambda: ExperimentConfig("quad-lower-gf", dims=(2.5,)),
    "config-safety-cap-fractional": lambda: ExperimentConfig("quad-lower-gd", safety_cap=2.5),
    # a text breakpoint raised a raw ValueError; a NaN one was dropped silently
    "quadrature-breakpoint-text": lambda: adaptive_quadrature(abs, 0.0, 1.0, 1e-8, breakpoints=["abc"]),
    "quadrature-breakpoint-nan": lambda: adaptive_quadrature(abs, 0.0, 1.0, 1e-8, breakpoints=[NAN]),
    # raised a raw OverflowError and a raw TypeError
    "dimension-grid-high-inf": lambda: f1_dimension_grid(high=INF),
    "dimension-grid-count-fractional": lambda: f1_dimension_grid(count=2.5),
}


@pytest.mark.parametrize("call", REJECTED.values(), ids=REJECTED)
def test_bad_input_rejected_at_entry(call):
    with pytest.raises(InputError):
        call()


def _run_from(x0):
    """The four runners, each started at ``x0`` on a 3-D quadratic."""
    obj, steps = build_quad_lower(3, 4.0).to_objective(), StopRule.max_steps(5)
    box = box_projector([-2.0] * 3, [2.0] * 3)
    return {
        "gd": lambda: gd_run(obj, x0, 0.02, steps),
        "heavy-ball": lambda: heavy_ball_run(obj, x0, 0.02, 0.5, steps),
        "pgd": lambda: pgd_run(obj, box, x0, 0.02, steps),
        "flow": lambda: gf_integrate(obj, x0, 1e-6, steps),
    }


@pytest.mark.parametrize("runner", ["gd", "heavy-ball", "pgd", "flow"])
@pytest.mark.parametrize("x0", ["abc", [1.0, None, 1.0], [1.0, NAN, 1.0], [1.0, -INF, 1.0], [{}, 1.0, 1.0]],
                         ids=["text", "none", "nan", "inf", "object"])
def test_runner_start_rejected_by_name(runner, x0):
    # text and objects raised a raw ValueError or TypeError, a NaN start a
    # NonFiniteError at iterate 0, as if the run had failed
    with pytest.raises(InputError, match="^x0"):
        _run_from(x0)[runner]()


def _run_bits(traj, points):
    return traj.stop_reason, traj.n_steps, traj.path_sum.hex(), points.tobytes()


def _runs(num):
    """The four runners on one instance, each number given as ``num(text)``,
    each with every point it passed through."""
    c = build_quad_lower(3, 4.0)
    obj, steps = c.to_objective(), StopRule("max_steps", num("40"))
    box = box_projector([-2.0] * 3, [2.0] * 3)
    flow = gf_integrate(obj, c.x0, num("1e-6"), StopRule("norm_below", num("1e-3")))
    return [
        run_observed(gd_run, obj, c.x0, num("0.02"), steps),
        run_observed(heavy_ball_run, obj, c.x0, num("0.02"), num("0.5"), steps),
        run_observed(pgd_run, obj, box, c.x0, num("0.02"), steps),
        (flow, flow.points),
    ]


def test_numeric_text_runs_as_the_float_it_spells():
    # each text input used to end in a TypeError inside the run
    for text, number in zip(_runs(str), _runs(float)):
        assert _run_bits(*text) == _run_bits(*number)


@pytest.mark.parametrize("text_call, number_call", [
    (lambda: bound_hb("1", "4"), lambda: bound_hb(1.0, 4.0)),
    (lambda: bound_linconv_gd("2", "0.1", "0.5", "1"), lambda: bound_linconv_gd(2.0, 0.1, 0.5, 1.0)),
    (lambda: self_contracted_check(LINE, tol="1e-12").slack, lambda: self_contracted_check(LINE, tol=1e-12).slack),
    (lambda: build_quad_random(5, "100", "3").x0.tobytes(), lambda: build_quad_random(5, 100.0, 3).x0.tobytes()),
], ids=["bound-hb", "bound-linconv-gd", "self-contracted-tol", "quad-random"])
def test_numeric_text_is_the_number(text_call, number_call):
    assert text_call() == number_call()


# ---------------------------------------------------------------------------
# AST guard: a checked number is kept
# ---------------------------------------------------------------------------

CHECKS = {"finite_number", "positive_number"}
#: nodes a value flows through to the node that keeps or drops it
_THROUGH = (ast.Tuple, ast.List, ast.Set, ast.Starred, ast.Dict, ast.BinOp, ast.IfExp,
            ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
#: nodes that keep a value: bind it, return it or pass it on to a call
_KEEP = (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr, ast.Return, ast.Yield, ast.Call, ast.keyword)


def _check_calls(source):
    """(line, kept) of every finite_number / positive_number call in ``source``."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if not isinstance(node, ast.Call) or getattr(func, "id", getattr(func, "attr", None)) not in CHECKS:
            continue
        value, parent = node, parents[node]
        while isinstance(parent, _THROUGH) and not (isinstance(parent, ast.IfExp) and parent.test is value):
            value, parent = parent, parents[parent]
        kept = isinstance(parent, _KEEP) and not (isinstance(parent, ast.Call) and parent.func is value)
        yield node.lineno, kept


@pytest.mark.parametrize("source, kept", [
    ("x = finite_number(x, 'x')", True),
    ("a, b = finite_number(a, 'a'), errors.finite_number(b, 'b')", True),
    ("return positive_number(d, 'd', int)", True),
    ("return a * positive_number(L, 'L') / 2.0", True),
    ("f(tuple(positive_number(d, 'd') for d in ds))", True),
    ("f(name=finite_number(v, 'v'))", True),
    ("finite_number(x, 'x')", False),
    ("if finite_number(tol, 'tol') <= 0:\n    raise E", False),
    ("y = not positive_number(x, 'x')", False),
    ("y = [v for v in xs if finite_number(v, 'v') > 0]", False),
    ("y = 1 if positive_number(x, 'x') else 2", False),
])
def test_guard_tells_kept_from_dropped(source, kept):
    assert {k for _, k in _check_calls(source)} == {kept}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_checked_number_is_kept(path):
    dropped = [line for line, kept in _check_calls(path.read_text()) if not kept]
    assert dropped == [], f"{path.name}: a finite_number/positive_number result is dropped at lines {dropped}"


def test_guard_sees_the_package_calls():
    calls = sum(len(list(_check_calls(path.read_text()))) for path in PACKAGE.glob("*.py"))
    assert calls >= 40


# ---------------------------------------------------------------------------
# The fused evaluation checks what gradient_at checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("point, gradient", [
    ([1.0, 2.0], lambda x: x),
    ([1.0, 2.0, 3.0], lambda x: x[:1]),
], ids=["point-size", "gradient-shape"])
def test_value_and_gradient_at_rejects_as_gradient_at(point, gradient):
    obj = ObjectiveSpec(dim=3, value=lambda x: 0.0, gradient=gradient,
                        value_and_gradient=lambda x: (0.0, gradient(x)))
    with pytest.raises(InputError) as plain:
        obj.gradient_at(point)
    with pytest.raises(InputError) as fused:
        obj.value_and_gradient_at(point)
    assert str(fused.value) == str(plain.value)
