import math

import numpy as np
import pytest

from gradpath import (
    InputError,
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
from gradpath.bounds import BOUND_NAMES


class TestLinConv:
    def test_gd_values(self):
        assert bound_linconv_gd(1.0, 0.5, 1.0, 1.0) == pytest.approx(2.0)
        assert bound_linconv_gd(2.0, 0.1, 0.5, 4.0) == pytest.approx(40.0)

    def test_gd_strongly_convex_specialisation(self):
        # eta = 1/L and c = eta * mu collapse the factor to kappa
        for mu, L in ((1.0, 4.0), (2.0, 18.0), (0.5, 40.0)):
            eta = 1.0 / L
            assert bound_linconv_gd(1.0, eta * mu, eta, L) == pytest.approx(L / mu, rel=1e-12)

    def test_gf_values(self):
        assert bound_linconv_gf(1.0, 1.0 - 1.0 / math.e, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert bound_linconv_gf(1.0, 0.5, 2.0) == pytest.approx(2.0 / math.log(2.0), rel=1e-12)

    def test_gf_strongly_convex_specialisation(self):
        for mu, L in ((1.0, 4.0), (0.3, 2.7)):
            c = 1.0 - math.exp(-mu)
            assert bound_linconv_gf(1.0, c, L) == pytest.approx(L / mu, abs=1e-12)

    def test_general_values(self):
        assert bound_linconv_general(1.0, 0.5) == pytest.approx(4.0)
        assert bound_linconv_general(3.0, 0.1) == pytest.approx(60.0)
        kappa = 4.0
        c = 2.0 / (math.sqrt(kappa) + 1.0)
        assert bound_linconv_general(1.0, c) == pytest.approx(math.sqrt(kappa) + 1.0, rel=1e-12)

    def test_rate_validation(self):
        for bad_c in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InputError):
                bound_linconv_gd(1.0, bad_c, 1.0, 1.0)
            with pytest.raises(InputError):
                bound_linconv_gf(1.0, bad_c, 1.0)
        with pytest.raises(InputError):
            bound_linconv_general(0.5, 0.5)  # A < 1

    def test_monotone_in_rate(self):
        values = [bound_linconv_gd(1.0, c, 1.0, 1.0) for c in np.linspace(0.01, 0.99, 30)]
        assert all(b <= a for a, b in zip(values, values[1:]))


class TestHeavyBallBound:
    def test_values(self):
        assert bound_hb(1.0, 1.0) == pytest.approx(1.0)
        assert bound_hb(1.0, 4.0) == pytest.approx(2.0)
        assert bound_hb(2.0, 8.0) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(InputError):
            bound_hb(2.0, 1.0)


class TestPgdBound:
    def test_unit_step_factor(self):
        assert pgd_step_factor(1.0, 1.0) == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-12)

    def test_zero_step_limit(self):
        assert pgd_step_factor(0.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert bound_pgd_factor(1e-14, 1.0, 1.0, 0.999999) == pytest.approx(1.0, rel=1e-5)

    def test_intermediate_value(self):
        expected = 2.0 * (0.75 + math.sqrt(1.0625))
        assert bound_pgd_factor(0.5, 1.0, 1.0, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_full_bound_scales_with_a_over_c(self):
        assert bound_pgd_factor(1.0, 1.0, 1.0, 0.5) == pytest.approx(
            2.0 * (1.0 + math.sqrt(2.0)), abs=1e-12
        )


class TestPklBound:
    def test_values(self):
        assert bound_pkl(1.0, 4.0, "gf") == pytest.approx(2.0)
        assert bound_pkl(1.0, 4.0, "gd") == pytest.approx(4.0)
        assert bound_pkl(2.0, 18.0, "gf") == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(InputError):
            bound_pkl(4.0, 1.0, "gf")
        with pytest.raises(InputError):
            bound_pkl(1.0, 4.0, "both")

    def test_monotone_in_kappa(self):
        values = [bound_pkl(1.0, L, "gf") for L in np.linspace(1.0, 1e5, 50)]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestSpectralGapTerm:
    def test_known_points(self):
        assert spectral_gap_term(1.0) == 0.0
        assert spectral_gap_term(6.0) == pytest.approx(6 ** (-0.2) * (5 / 6), rel=1e-12)
        assert spectral_gap_term(6.0) >= 0.5

    def test_continuity_at_one(self):
        assert spectral_gap_term(1.0 + 1e-9) < 1e-8

    def test_log_over_e_envelope(self):
        for k in np.exp(np.linspace(0.0, math.log(1e6), 500)):
            v = spectral_gap_term(float(k))
            assert 0.0 <= v <= math.log(k) / math.e + 1e-12

    def test_equal_gap_sum_lower(self):
        for dplus in (2, 5, 9):
            total = (dplus - 1) * spectral_gap_term(6.0)
            assert total >= 0.5 * (dplus - 1)


class TestQuadraticBound:
    def test_flat_spectrum(self):
        spectrum = np.ones(5)
        assert bound_quadratic(spectrum, "gf") == pytest.approx(1.0)
        assert bound_quadratic(spectrum, "gd") == pytest.approx(2.0)

    def test_single_large_gap_capped_at_two(self):
        assert bound_quadratic([1e6, 1.0, 1.0, 1.0], "gf") <= 2.0

    def test_rank_branch(self):
        # sqrt(3) < 1 + 2 * gap(11) and < 1 + 2.5 sqrt(log 121)
        assert bound_quadratic([121.0, 11.0, 1.0], "gf") == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_gap_branch_wins_for_gentle_spectra(self):
        omega = 1.1
        expected = 1.0 + 19 * spectral_gap_term(omega)
        assert bound_quadratic(omega ** np.arange(19, -1, -1.0), "gf") == pytest.approx(expected, rel=1e-12)

    def test_variant_validation(self):
        with pytest.raises(InputError):
            bound_quadratic([1.0], "flow")

    @pytest.mark.parametrize("spectrum", [[], [1.0, 0.0], [1.0, math.nan]], ids=["empty", "zero", "nan"])
    def test_spectrum_rejected(self, spectrum):
        with pytest.raises(InputError):
            bound_quadratic(spectrum, "gf")

    def test_any_order_same_bits(self):
        for which in ("gf", "gd"):
            assert bound_quadratic([1.0, 11.0, 121.0], which) == bound_quadratic([121.0, 11.0, 1.0], which)


class TestFsepBound:
    def test_values(self):
        assert bound_fsep(1.0, 1.0) == pytest.approx(2.0)
        assert bound_fsep(1.0, math.e) == pytest.approx(3.0, abs=1e-12)
        assert bound_fsep(2.0, 2.0 * math.e**2) == pytest.approx(4.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(InputError):
            bound_fsep(3.0, 1.0)


class TestConvexBound:
    def test_log2_values(self):
        assert bound_convex_qc(2, "gd_eta_invL") == pytest.approx(40.0)
        assert bound_convex_qc(2, "gf_quasiconvex") == pytest.approx(4 * math.log(2.0), rel=1e-12)
        assert bound_convex_qc(3, "gd_eta_small") == pytest.approx(12 * math.log(3.0), rel=1e-12)

    def test_dimension_validation(self):
        with pytest.raises(InputError):
            bound_convex_qc(1, "gf_quasiconvex")
        with pytest.raises(InputError):
            bound_convex_qc(3, "gd")


class TestSeparableBound:
    def test_values(self):
        assert bound_separable(1) == pytest.approx(1.0)
        assert bound_separable(4) == pytest.approx(2.0)
        assert bound_separable(150) == pytest.approx(12.2474, abs=1e-4)

    def test_validation(self):
        with pytest.raises(InputError):
            bound_separable(0)


class TestLowerBounds:
    def test_pkl_dimension_branch(self):
        d = round(math.e**4)  # large kappa leaves the dimension branch active
        got = lower_bound_pkl(d, 1e12, "gf")
        assert got == pytest.approx(math.sqrt(d) / (6 * math.log(d)), rel=1e-12)

    def test_pkl_dimension_branch_alone(self):
        # the PL construction's own guarantee, bit for bit the formula it names
        for d in (6, 20, 2000):
            assert lower_bound_pkl_dim(d, "gd") == math.sqrt(d) / (16.0 * math.log(d))
            assert lower_bound_pkl_dim(d, "gf") == math.sqrt(d) / (6.0 * math.log(d))
        assert lower_bound_pkl(20, 1e12, "gd") == lower_bound_pkl_dim(20, "gd")
        with pytest.raises(InputError):
            lower_bound_pkl_dim(5, "gd")
        with pytest.raises(InputError):
            lower_bound_pkl_dim(6, "linconv_gd")

    def test_pkl_boundary_point(self):
        got = lower_bound_pkl(6, 216.0, "gd")
        expected = min(
            math.sqrt(6) / (16 * math.log(6)),
            216.0**0.25 / (16 * math.log(216.0)),
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_linconv_value(self):
        got = lower_bound_linconv(1e-3, "gf")
        assert got == pytest.approx(0.1451, abs=2e-4)
        assert lower_bound_linconv(1e-3, "gd") == pytest.approx(got * 12 / 64, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(InputError):
            lower_bound_pkl(5, 1e4, "gf")
        with pytest.raises(InputError):
            lower_bound_pkl(10, 100.0, "gd")
        with pytest.raises(InputError):
            lower_bound_linconv(0.01, "gf")

    def test_quadratic_values(self):
        assert lower_bound_quadratic(1, 5.0, "gf") == pytest.approx(
            0.45 * math.sqrt(math.log(5.0)), rel=1e-12
        )
        assert lower_bound_quadratic(4, math.e**4, "gf") == pytest.approx(0.9, abs=1e-12)
        assert lower_bound_quadratic(100, math.e**4, "gd") == pytest.approx(0.6, abs=1e-12)

    def test_quadratic_precondition(self):
        # the construction needs kappa >= 5; kappa = e violates it
        with pytest.raises(InputError):
            lower_bound_quadratic(100, math.e, "gd")


class TestEvaluateBound:
    def test_dispatch_and_report(self):
        rep = evaluate_bound("pkl-gd", mu=1.0, L=4.0)
        assert rep.factor == pytest.approx(4.0)
        assert not rep.log2_scale
        assert rep.distance_base == "dist(x0, X*)"
        assert rep.inputs == {"mu": 1.0, "L": 4.0}

    def test_log_scale_flag_only_for_convex_family(self):
        rep = evaluate_bound("convex-gd-std", d=2)
        assert rep.log2_scale
        assert rep.factor == pytest.approx(40.0)
        assert rep.distance_base == "||x0 - x_inf||"
        for name in ("separable", "fsep", "heavy-ball"):
            rep = evaluate_bound(name, d=4, mu=1.0, L=4.0)
            assert not rep.log2_scale

    def test_heavy_ball_distance_base(self):
        rep = evaluate_bound("heavy-ball", mu=1.0, L=4.0)
        assert rep.distance_base == "||x0 - x*||"

    def test_quadratic_via_spectrum(self):
        rep = evaluate_bound("quadratic-gd", spectrum=[4.0, 2.0, 1.0])
        assert rep.factor == pytest.approx(bound_quadratic([4.0, 2.0, 1.0], "gd"))

    def test_missing_inputs(self):
        with pytest.raises(InputError, match="requires"):
            evaluate_bound("pkl-gf", mu=1.0)

    def test_unknown_name(self):
        with pytest.raises(InputError, match="unknown bound"):
            evaluate_bound("nonsense")

    # one bound per input kind, each with valid values for the other inputs
    VALID = {
        "A": ("linconv-gd", dict(A=2.0, c=0.1, eta=0.5, L=1.0)),
        "c": ("linconv-general", dict(A=2.0, c=0.1)),
        "eta": ("pgd", dict(eta=0.5, L=1.0, A=2.0, c=0.1)),
        "L": ("heavy-ball", dict(mu=1.0, L=4.0)),
        "mu": ("pkl-gf", dict(mu=1.0, L=4.0)),
        "d": ("separable", dict(d=4)),
        "kappa": ("lower-pkl-gd", dict(d=10, kappa=1e4)),
    }

    @pytest.mark.parametrize("key", sorted(VALID))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "abc"])
    def test_non_finite_input_rejected(self, key, bad):
        name, inputs = self.VALID[key]
        evaluate_bound(name, **inputs)
        with pytest.raises(InputError, match=f"^{key}"):
            evaluate_bound(name, **{**inputs, key: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, "abc"])
    def test_non_finite_spectrum_item_rejected(self, bad):
        with pytest.raises(InputError, match="spectrum item"):
            evaluate_bound("quadratic-gf", spectrum=[4.0, bad, 1.0])

    SHARED = dict(A=2.0, c=0.001, eta=0.5, L=4.0, mu=0.01, d=10, kappa=1e4, spectrum=[4.0, 2.0, 1.0])
    OPT, STAR, LIMIT = "dist(x0, X*)", "||x0 - x*||", "||x0 - x_inf||"
    #: name -> (the bound function called directly on SHARED, distance base, log2 scale)
    DIRECT = {
        "linconv-gd": (lambda: bound_linconv_gd(2.0, 0.001, 0.5, 4.0), OPT, False),
        "linconv-gf": (lambda: bound_linconv_gf(2.0, 0.001, 4.0), OPT, False),
        "linconv-general": (lambda: bound_linconv_general(2.0, 0.001), OPT, False),
        "heavy-ball": (lambda: bound_hb(0.01, 4.0), STAR, False),
        "pgd": (lambda: bound_pgd_factor(0.5, 4.0, 2.0, 0.001), OPT, False),
        "pkl-gf": (lambda: bound_pkl(0.01, 4.0, "gf"), OPT, False),
        "pkl-gd": (lambda: bound_pkl(0.01, 4.0, "gd"), OPT, False),
        "quadratic-gf": (lambda: bound_quadratic([4.0, 2.0, 1.0], "gf"), OPT, False),
        "quadratic-gd": (lambda: bound_quadratic([4.0, 2.0, 1.0], "gd"), OPT, False),
        "fsep": (lambda: bound_fsep(0.01, 4.0), OPT, False),
        "convex-gf": (lambda: bound_convex_qc(10, "gf_quasiconvex"), LIMIT, True),
        "convex-gd-std": (lambda: bound_convex_qc(10, "gd_eta_invL"), LIMIT, True),
        "convex-gd-small-step": (lambda: bound_convex_qc(10, "gd_eta_small"), LIMIT, True),
        "separable": (lambda: bound_separable(10), OPT, False),
        "lower-pkl-gf": (lambda: lower_bound_pkl(10, 1e4, "gf"), OPT, False),
        "lower-pkl-gd": (lambda: lower_bound_pkl(10, 1e4, "gd"), OPT, False),
        "lower-linconv-gf": (lambda: lower_bound_linconv(0.001, "gf"), OPT, False),
        "lower-linconv-gd": (lambda: lower_bound_linconv(0.001, "gd"), OPT, False),
        "lower-quadratic-gf": (lambda: lower_bound_quadratic(10, 1e4, "gf"), OPT, False),
        "lower-quadratic-gd": (lambda: lower_bound_quadratic(10, 1e4, "gd"), OPT, False),
    }

    def test_every_name_has_a_direct_case(self):
        assert tuple(self.DIRECT) == BOUND_NAMES

    @pytest.mark.parametrize("name", BOUND_NAMES)
    def test_named_bound_is_the_direct_call(self, name):
        direct, base, log2 = self.DIRECT[name]
        rep = evaluate_bound(name, **self.SHARED)
        assert rep.factor.hex() == float(direct()).hex()
        assert (rep.distance_base, rep.log2_scale, rep.inputs) == (base, log2, self.SHARED)

    def test_unused_inputs_are_checked_and_echoed(self):
        with pytest.raises(InputError, match="^A must be finite"):
            evaluate_bound("heavy-ball", mu=1.0, L=4.0, A=math.inf)
        rep = evaluate_bound("separable", d=4, A=1)
        assert rep.inputs == {"d": 4, "A": 1}
        assert rep.factor == 2.0
