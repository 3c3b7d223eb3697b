"""Acceptance suite: one test per criterion, each printing a PASS line
(run with ``pytest tests/test_acceptance.py -s`` to watch them stream).

Scales and tolerances are pinned here, not configurable: effect-size
identities at 1e-4, kernel equivalences at 1e-8/1e-9, Monte Carlo
recovery and sign checks at their stated replication counts.
"""

import numpy as np
import pytest
from conftest import (
    best_response_equilibrium,
    random_logistic_market,
    random_quadratic_market,
    simulate_confounded_workers,
)

from olmsim.matching import balance_table, logit_fit, propensity_match
from olmsim.pipeline import run_pipeline
from olmsim.regression import (
    RegressionSpec,
    absorb_two_way,
    coef_to_percent,
    demand_did_fit,
    did_fit,
    dual_shock_fit,
    event_study_fit,
    ols_fit,
    tost_pretrends,
)
from olmsim.report import QuadrantLabel, classify_quadrant
from olmsim.market import cournot_equilibrium, eval_potential, inflection_point, sweep_comparative_statics
from olmsim.scenarios import (
    SWEEP_PATHS,
    honeymoon_config,
    null_config,
    substitution_config,
    two_market_config,
)
from olmsim.synth import generate_demand_arrays, generate_panel_arrays, ground_truth_att

JOBS = RegressionSpec(outcome="fjobnum", transform="log1p")


def ok(criterion: int, label: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} [{label}]: PASS")


def test_c01_effect_size_identities():
    for beta, expected in ((-0.094, -0.0897), (0.062, 0.0640), (-0.353, -0.2974), (0.510, 0.6653)):
        assert coef_to_percent(beta) == pytest.approx(expected, abs=1e-4), beta
    ok(1, "effect-size identities")


def test_c02_cournot_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for i in range(100):
        market = random_quadratic_market(rng) if i % 2 == 0 else random_logistic_market(rng)
        a = rng.uniform(0.0, 1.0)
        eq = cournot_equilibrium(market, a)
        s = eval_potential(market.potential, a)
        q_oracle = best_response_equilibrium(s, market.marginal_cost(a), market.b, market.n, rng)
        assert np.allclose(q_oracle, eq.q, atol=1e-9)
    ok(2, "closed form vs best-response oracle, 100 specs")


def test_c03_inflection_monotonicity_suite():
    rng = np.random.default_rng(31)
    for sampler in (random_quadratic_market, random_logistic_market):
        for _ in range(10):
            market = sampler(rng)
            a_star = inflection_point(market)
            rows = sweep_comparative_statics(market, 1001)
            a = np.array([r.a for r in rows])
            q = np.array([r.q for r in rows])
            profit = np.array([r.profit for r in rows])
            revenue = np.array([r.revenue for r in rows])
            below = (a < a_star)[:-1] & (a < a_star)[1:]
            above = (a > a_star)[:-1] & (a > a_star)[1:]
            assert np.all(np.diff(q)[below] > 0) and np.all(np.diff(profit)[below] > 0)
            assert np.all(np.diff(q)[above] < 0) and np.all(np.diff(profit)[above] < 0)
            assert np.all(np.diff(revenue)[above] < 0)
            step = a[1] - a[0]
            assert abs(a[int(np.argmax(q))] - a_star) <= step + 1e-12
            assert abs(a[int(np.argmax(profit))] - a_star) <= step + 1e-12
            if market.potential.kappa is not None:
                assert a_star == pytest.approx(market.c / (2 * market.potential.kappa), abs=1e-8)
    ok(3, "inflection-point monotonicity suite, both families")


def _recovery(config_fn, base_seed: int, reps: int):
    oracle = ground_truth_att(config_fn(workers=250, seed=base_seed), "fjobnum", reps=400)
    betas, ses = [], []
    for r in range(reps):
        arr = generate_panel_arrays(config_fn(workers=1000, seed=base_seed + 1000 + r))
        fit = did_fit(arr, JOBS)
        betas.append(fit.coefficients["treat_x_post35"])
        ses.append(fit.se["treat_x_post35"])
    return oracle, np.array(betas), np.array(ses)


def test_c04_estimator_recovery_and_coverage():
    # substitution phase: 500 replications; the first 200 feed the
    # recovery criterion, the full set the CI-calibration band
    oracle, betas, ses = _recovery(substitution_config, base_seed=400, reps=500)
    assert oracle.att < 0
    within_2se = np.abs(betas - oracle.att) <= 2 * ses
    share_200 = within_2se[:200].mean()
    assert share_200 >= 0.93, f"substitution recovery {share_200:.3f}"
    coverage = (np.abs(betas - oracle.att) <= 1.959964 * ses).mean()
    assert 0.90 <= coverage <= 0.98, f"coverage {coverage:.3f}"

    oracle_h, betas_h, ses_h = _recovery(honeymoon_config, base_seed=900, reps=200)
    assert oracle_h.att > 0
    share_h = (np.abs(betas_h - oracle_h.att) <= 2 * ses_h).mean()
    assert share_h >= 0.93, f"honeymoon recovery {share_h:.3f}"
    ok(4, f"DiD recovery (sub {share_200:.0%}, hon {share_h:.0%}), coverage {coverage:.1%}")


def test_c05_two_way_fe_correctness():
    rng = np.random.default_rng(55)
    for _ in range(20):
        w = int(rng.integers(3, 8))
        t = int(rng.integers(3, 8))
        unit = np.repeat(np.arange(w), t)
        time_codes = np.tile(np.arange(t), w)
        x = rng.standard_normal((w * t, 2))
        y = rng.standard_normal(w * t)
        absorbed = absorb_two_way(np.column_stack([y, x]), unit, time_codes).values
        beta = ols_fit(absorbed[:, 1:], absorbed[:, 0]).coefficients
        dummies = np.column_stack(
            [x, np.ones(w * t)]
            + [(unit == i).astype(float) for i in range(1, w)]
            + [(time_codes == j).astype(float) for j in range(1, t)]
        )
        full, *_ = np.linalg.lstsq(dummies, y, rcond=None)
        assert np.allclose(beta, full[:2], atol=1e-8)

        # FE-shift invariance of the within estimate
        y_shift = y + 3.0 * rng.standard_normal(w)[unit] - 2.0 * rng.standard_normal(t)[time_codes]
        absorbed2 = absorb_two_way(np.column_stack([y_shift, x]), unit, time_codes).values
        beta2 = ols_fit(absorbed2[:, 1:], absorbed2[:, 0]).coefficients
        assert np.allclose(beta, beta2, atol=1e-8)
    ok(5, "absorption equals dummy OLS; shift invariance, 20 panels")


def test_c06_event_study_contract_and_null_tost():
    fit = event_study_fit(generate_panel_arrays(substitution_config(workers=200, seed=66)), JOBS)
    rel_terms = [t for t in fit.terms if t.startswith("treat_rel[")]
    expected = {f"treat_rel[{s}]" for s in list(range(-6, -1)) + list(range(0, 10))}
    assert len(rel_terms) == 15
    assert set(rel_terms) == expected
    assert "treat_rel[-1]" not in fit.coefficients

    passes = 0
    reps = 200
    for r in range(reps):
        arr = generate_panel_arrays(null_config(workers=400, seed=6000 + r))
        res = tost_pretrends(event_study_fit(arr, JOBS), bounds=None, alpha=0.05)
        passes += res.overall_pass
    assert passes / reps >= 0.90, f"TOST null pass rate {passes / reps:.3f}"
    ok(6, f"15 relative-time terms; null TOST pass rate {passes / reps:.0%}")


def test_c07_matching_restores_balance():
    covariates, names, treat = simulate_confounded_workers(3000, seed=77)
    scores = logit_fit(covariates, treat, names=names).predict_proba(covariates)
    result = propensity_match(scores, treat, caliper=0.05)
    controls = [p.control_id for p in result.pairs]
    assert len(controls) == len(set(controls))
    assert all(p.distance <= 0.05 for p in result.pairs)
    table = balance_table(covariates, treat, result, names=names)
    for row in table.rows:
        assert abs(row.pre.std_diff) > 0.3, (row.covariate, row.pre.std_diff)
        assert abs(row.post.std_diff) < 0.1, (row.covariate, row.post.std_diff)
    ok(7, f"balance restored on all {len(table.rows)} covariates, {len(result.pairs)} pairs")


def test_c08_quadrant_exclusion_sweep():
    reps = 25
    seen = set()
    clean_reps = 0
    for r in range(reps):
        bad = False
        for i, path in enumerate(SWEEP_PATHS):
            config = two_market_config(path, workers=400, seed=8000 + 97 * r + i)
            fit = dual_shock_fit(generate_panel_arrays(config), JOBS)
            label = classify_quadrant(
                fit.coefficients["treat_x_post35"],
                fit.pvalues["treat_x_post35"],
                fit.coefficients["treat_x_post40"],
                fit.pvalues["treat_x_post40"],
                alpha=0.05,
            )
            seen.add(label)
            bad = bad or label is QuadrantLabel.DISP_TO_PROD
        clean_reps += not bad
    assert clean_reps / reps >= 0.95, f"clean-rep share {clean_reps / reps:.3f}"
    for needed in (QuadrantLabel.PROD_TO_PROD, QuadrantLabel.PROD_TO_DISP, QuadrantLabel.DISP_TO_DISP):
        assert needed in seen, needed
    ok(8, f"no DispToProd in {clean_reps}/{reps} sweep reps; other quadrants all seen")


def test_c09_demand_did_signs():
    reps = 200
    sub_sig = 0
    hon_sig = 0
    for r in range(reps):
        sub = demand_did_fit(generate_demand_arrays(substitution_config(workers=5, seed=9000 + r), weeks=95))
        if sub.coefficients["treat_x_post"] < 0 and sub.pvalues["treat_x_post"] < 0.05:
            sub_sig += 1
        hon = demand_did_fit(generate_demand_arrays(honeymoon_config(workers=5, seed=12000 + r), weeks=95))
        if hon.coefficients["treat_x_post"] > 0 and hon.pvalues["treat_x_post"] < 0.05:
            hon_sig += 1
    assert sub_sig / reps >= 0.90, f"substitution significant share {sub_sig / reps:.3f}"
    assert hon_sig / reps >= 0.90, f"honeymoon significant share {hon_sig / reps:.3f}"
    ok(9, f"demand signs significant (sub {sub_sig / reps:.0%}, hon {hon_sig / reps:.0%})")


def test_c10_pipeline_determinism(tmp_path):
    from olmsim.cli import _resolve_config

    demo = _resolve_config("builtin:demo")
    m1 = run_pipeline(demo, tmp_path / "run1")
    m2 = run_pipeline(demo, tmp_path / "run2")
    assert m1.manifest_hash == m2.manifest_hash
    assert m1.outputs == m2.outputs
    quadrant = (tmp_path / "run1" / "quadrant.csv").read_text()
    assert "DispToProd" not in quadrant
    ok(10, "identical manifest hashes; demo quadrant report has no DispToProd")
