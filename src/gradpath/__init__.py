"""Gradient-trajectory path lengths: optimizers, measurements, bounds."""

from .analysis import (
    DistanceEnvelope,
    NoOvershoot,
    PathLengthReport,
    PlRatio,
    SelfContractedVerdict,
    effective_pkl_mu,
    path_length_discrete,
    path_length_quadratic_gf,
    self_contracted_check,
)
from .bounds import (
    BoundReport,
    bound_convex_qc,
    bound_fsep,
    bound_hb,
    bound_linconv_gd,
    bound_linconv_gf,
    bound_linconv_general,
    bound_pgd_factor,
    bound_pkl,
    bound_quadratic,
    bound_separable,
    evaluate_bound,
    lower_bound_linconv,
    lower_bound_pkl,
    lower_bound_pkl_dim,
    lower_bound_quadratic,
    pgd_step_factor,
    spectral_gap_term,
)
from .constructions import (
    PklConstruction,
    build_pkl_gd_instance,
    build_pkl_gf_instance,
    build_quad_lower,
    build_quad_random,
    construction_linconv_constants,
    gd_step,
)
from .errors import (
    ComputationError,
    DivergenceError,
    GradPathError,
    InputError,
    InvariantViolation,
    NonFiniteError,
    QuadratureError,
    StepSizeUnderflowError,
)
from .objectives import (
    AffineSet,
    IntervalProductSet,
    ObjectiveSpec,
    QuadraticSpec,
    SingletonSet,
    build_fsep_quartic,
    check_gradient,
    quadratic_from_data,
)
from .optimizers import (
    StopRule,
    Trajectory,
    box_projector,
    gd_run,
    gf_integrate,
    gf_quadratic,
    hb_params,
    heavy_ball_run,
    parse_stop_rule,
    pgd_run,
)
from .harness import (
    ExperimentConfig,
    ResultRow,
    default_config,
    emit_csv,
    emit_plot_script,
    f1_dimension_grid,
    load_config,
    parse_config_text,
    render_csv,
    render_plot_script,
    run_experiment,
)
from .properties import SuiteReport, run_property_suite
from .registry import Instance, make_instance, parse_instance

__version__ = "0.1.0"
