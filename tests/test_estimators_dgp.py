"""Estimators against the generating process: oracle-recovery checks at
moderate scale (the full-scale versions live in the acceptance suite)."""

import numpy as np
import pytest
from scipy import stats

from olmsim.regression import (
    RegressionSpec,
    demand_did_fit,
    did_fit,
    dual_shock_fit,
    event_study_fit,
    fit_designs,
)
from olmsim.scenarios import (
    CROSSING_PATH,
    honeymoon_config,
    null_config,
    substitution_config,
    two_market_config,
)
from olmsim.synth import (
    ModeratorBoost,
    generate_demand_arrays,
    generate_panel_arrays,
    ground_truth_att,
)

JOBS = RegressionSpec(outcome="fjobnum", transform="log1p")


def wald_pvalue(fit, terms):
    idx = [fit.terms.index(t) for t in terms]
    b = np.array([fit.coefficients[t] for t in terms])
    v = fit.vcov[np.ix_(idx, idx)]
    stat = float(b @ np.linalg.solve(v, b))
    return float(stats.chi2.sf(stat, len(terms)))


class TestDidRecovery:
    def test_beta_within_two_se_of_ground_truth(self):
        # oracle at smaller scale (the estimand does not depend on the
        # worker count), estimate at full scale
        oracle = ground_truth_att(substitution_config(workers=200, seed=50), "fjobnum", reps=300)
        fit = did_fit(generate_panel_arrays(substitution_config(workers=1000, seed=51)), JOBS)
        beta = fit.coefficients["treat_x_post35"]
        assert oracle.att < 0
        assert abs(beta - oracle.att) < 2 * fit.se["treat_x_post35"] + 3 * oracle.mc_se

    def test_fe_shift_invariance_on_generated_panel(self):
        arr = generate_panel_arrays(substitution_config(workers=150, seed=52))
        spec = RegressionSpec(outcome="fjobearn", transform="identity")
        base = did_fit(arr, spec).coefficients["treat_x_post35"]
        rng = np.random.default_rng(0)
        worker_shift = rng.standard_normal(arr.worker_id.max() + 1)[arr.worker_id]
        month_shift = rng.standard_normal(16)[arr.month_index]
        arr.fjobearn = arr.fjobearn + 5.0 * worker_shift - 3.0 * month_shift
        shifted = did_fit(arr, spec).coefficients["treat_x_post35"]
        assert shifted == pytest.approx(base, abs=1e-8)


class TestDualShockDgp:
    def test_no_second_jump_gives_null_beta12(self):
        # a_post35 == a_post40, so the second indicator carries no effect
        fit = dual_shock_fit(generate_panel_arrays(substitution_config(workers=800, seed=60)), JOBS)
        b12 = fit.coefficients["treat_x_post40"]
        assert abs(b12) < 2 * fit.se["treat_x_post40"]

    def test_crossing_inflection_flips_signs(self):
        config = two_market_config(CROSSING_PATH, workers=800, seed=61)
        fit = dual_shock_fit(generate_panel_arrays(config), JOBS)
        assert fit.coefficients["treat_x_post35"] > 0
        assert fit.pvalues["treat_x_post35"] < 0.01
        assert fit.coefficients["treat_x_post40"] < 0
        assert fit.pvalues["treat_x_post40"] < 0.01


class TestEventStudyDgp:
    def test_null_dgp_preperiod_size(self):
        # under no treatment each pre-period |t| should stay below 1.96 in
        # at least 90% of replications, period by period
        reps = 200
        hits = {}
        for r in range(reps):
            arr = generate_panel_arrays(null_config(workers=400, seed=70_000 + r))
            fit = event_study_fit(arr, JOBS)
            for sigma in range(-6, -1):
                term = f"treat_rel[{sigma}]"
                hits.setdefault(sigma, 0)
                if abs(fit.coefficients[term] / fit.se[term]) < 1.96:
                    hits[sigma] += 1
        for sigma, count in hits.items():
            assert count / reps >= 0.90, (sigma, count / reps)

    def test_effect_from_zero_separates_pre_and_post(self):
        # the block Wald discounts the strong correlation the shared
        # baseline induces, so it needs the larger panel for power
        pre_terms = [f"treat_rel[{s}]" for s in range(-6, -1)]
        post_terms = [f"treat_rel[{s}]" for s in range(0, 10)]
        post_sig = 0
        pre_quiet = 0
        reps = 50
        for r in range(reps):
            arr = generate_panel_arrays(substitution_config(workers=800, seed=80_000 + r))
            fit = event_study_fit(arr, JOBS)
            if wald_pvalue(fit, post_terms) < 0.05:
                post_sig += 1
            if wald_pvalue(fit, pre_terms) > 0.05:
                pre_quiet += 1
        assert post_sig / reps >= 0.90
        assert pre_quiet / reps >= 0.80


class TestDemandDgp:
    def test_substitution_shock_negative(self):
        fit = demand_did_fit(generate_demand_arrays(substitution_config(workers=5, seed=90), weeks=95))
        assert fit.coefficients["treat_x_post"] < 0
        assert fit.pvalues["treat_x_post"] < 0.01

    def test_honeymoon_shock_positive(self):
        fit = demand_did_fit(generate_demand_arrays(honeymoon_config(workers=5, seed=91), weeks=95))
        assert fit.coefficients["treat_x_post"] > 0
        assert fit.pvalues["treat_x_post"] < 0.01


class TestHeterogeneityDgp:
    def test_unmoderated_dgp_gives_null_interaction(self):
        arr = generate_panel_arrays(honeymoon_config(workers=800, seed=100))
        fit = fit_designs(arr, {JOBS.outcome: JOBS.transform}, ("het_us",), JOBS.controls)[("het_us", JOBS.outcome)]
        term = "us_x_treat_x_post35"
        assert abs(fit.coefficients[term]) < 2 * fit.se[term]

    def test_boosted_subgroup_shows_positive_interaction(self):
        config = honeymoon_config(workers=800, seed=101, moderator_boost=ModeratorBoost("us", 2.0))
        panel = generate_panel_arrays(config)
        fit = fit_designs(panel, {JOBS.outcome: JOBS.transform}, ("het_us",), JOBS.controls)[("het_us", JOBS.outcome)]
        term = "us_x_treat_x_post35"
        assert fit.coefficients[term] > 0
        assert fit.pvalues[term] < 0.05
        # the moderator main post term stays small: the boost acts only
        # through the treated market's shock
        assert abs(fit.coefficients["us_x_post35"]) < 3 * fit.se["us_x_post35"]
