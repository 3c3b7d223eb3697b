import hashlib

import numpy as np
import pytest
from conftest import random_logistic_market

from olmsim.errors import ValidationError
from olmsim.market import MarketPotentialSpec, MarketSpec, PotentialFamily, sweep_comparative_statics
from olmsim.matching import balance_table, propensity_match
from olmsim.regression import FitResult
from olmsim.report import (
    QuadrantLabel,
    balance_csv_lines,
    balance_text_table,
    classify_quadrant,
    csv_lines,
    fit_csv_lines,
    fit_text_table,
    match_csv_lines,
    quadrant_csv_lines,
    significance_stars,
    statics_csv_lines,
)


class TestClassifyQuadrant:
    def test_productivity_then_displacement(self):
        # first-shock gain with a significant second-shock reversal
        assert classify_quadrant(0.106, 0.005, -0.064, 0.09, alpha=0.1) is QuadrantLabel.PROD_TO_DISP

    def test_productivity_twice(self):
        assert classify_quadrant(0.139, 0.001, 0.094, 0.001, alpha=0.1) is QuadrantLabel.PROD_TO_PROD

    def test_displacement_twice(self):
        assert classify_quadrant(-0.074, 0.001, -0.025, 0.09, alpha=0.1) is QuadrantLabel.DISP_TO_DISP

    def test_displacement_then_productivity(self):
        assert classify_quadrant(-0.2, 0.001, 0.3, 0.001) is QuadrantLabel.DISP_TO_PROD

    def test_gating_to_inconclusive(self):
        assert classify_quadrant(0.106, 0.005, -0.064, 0.2, alpha=0.1) is QuadrantLabel.INCONCLUSIVE
        assert classify_quadrant(0.106, 0.5, -0.064, 0.01, alpha=0.1) is QuadrantLabel.INCONCLUSIVE
        assert classify_quadrant(0.0, 0.001, -0.064, 0.01) is QuadrantLabel.INCONCLUSIVE

    def test_alpha_validated(self):
        with pytest.raises(ValidationError):
            classify_quadrant(0.1, 0.01, 0.1, 0.01, alpha=1.5)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            classify_quadrant(float("nan"), 0.01, 0.1, 0.01)


class TestStars:
    @pytest.mark.parametrize("p,expected", [(0.005, "***"), (0.03, "**"), (0.07, "*"), (0.2, "")])
    def test_levels(self, p, expected):
        assert significance_stars(p) == expected


def make_fit() -> FitResult:
    return FitResult(
        coefficients={"treat_x_post35": -0.094, "tenure": 0.001},
        se={"treat_x_post35": 0.014, "tenure": 0.0005},
        pvalues={"treat_x_post35": 0.0001, "tenure": 0.04},
        n_obs=36416,
        n_clusters=2276,
        within_r2=0.469,
        converged_fe_iterations=2,
        outcome_sd=1.0,
    )


class TestEmission:
    def test_csv_lines_formats_floats_to_digits_and_the_rest_as_str(self):
        rows = [(float("nan"), 3, "", np.float64(2 / 3)), (1e-7, -1, "x", 12345678.0)]
        assert csv_lines("a,b,c,d", rows, digits=6) == ["a,b,c,d", "nan,3,,0.666667", "1e-07,-1,x,1.23457e+07"]
        assert csv_lines("a,b", [(2 / 3, 12345678901)]) == ["a,b", "0.6666666667,12345678901"]
        assert csv_lines("a", []) == ["a"]

    def test_fit_csv(self):
        lines = fit_csv_lines(make_fit())
        assert lines[0] == "term,estimate,se,p"
        assert lines[1].startswith("treat_x_post35,-0.094,0.014,")
        assert len(lines) == 3

    def test_fit_text_contains_stars_and_summary(self):
        text = fit_text_table(make_fit(), "did: demo")
        assert "-0.0940***" in text
        assert "(0.0140)" in text
        assert "clusters 2276" in text
        assert "within R2 0.4690" in text

    def test_statics_csv_header_and_digits(self):
        market = MarketSpec(
            n=4, c=1.0, b=1.0,
            potential=MarketPotentialSpec(PotentialFamily.QUADRATIC, S0=10.0, kappa=1.0),
        )
        lines = statics_csv_lines(sweep_comparative_statics(market, 11))
        assert lines[0] == "a,q,p,profit,revenue,phase"
        assert len(lines) == 12
        assert lines[1].endswith(",honeymoon")
        assert lines[-1].endswith(",substitution")
        # six significant digits
        a, q, *_ = lines[2].split(",")
        assert a == "0.1"
        assert len(q.replace(".", "").replace("-", "").lstrip("0")) <= 6

    def test_statics_csv_bytes_logistic_family(self):
        # pins the phase labels of 20 logistic-family sweeps, whose a* the
        # demo goldens (all quadratic) never reach
        rng = np.random.default_rng(41)
        digest = hashlib.sha256()
        for _ in range(20):
            lines = statics_csv_lines(sweep_comparative_statics(random_logistic_market(rng), 101))
            digest.update(("\n".join(lines) + "\n").encode())
        assert digest.hexdigest() == "0736c0c44bffed340acea511b90f539e3e7bf6a14e07bcb6e51d6bc0d303fdb6"

    def test_balance_tables(self):
        x = np.array([[1.0, 3.0], [2.0, 4.0], [3.0, 5.0], [0.0, 2.0], [1.0, 3.0], [2.0, 4.0]])
        treat = np.array([1, 1, 1, 0, 0, 0])
        res = propensity_match(np.array([0.4, 0.5, 0.6, 0.4, 0.5, 0.6]), treat, caliper=0.01)
        table = balance_table(x, treat, res, names=("alpha", "beta"))
        lines = balance_csv_lines(table)
        assert lines[0].startswith("covariate,mean_treated_pre")
        assert len(lines) == 3
        text = balance_text_table(table, "balance demo")
        assert "pre-matching" in text and "post-matching" in text and "alpha" in text

    def test_match_csv_lists_pairs_then_drops(self):
        treat = np.array([1, 1, 1, 0, 0])
        res = propensity_match(np.array([0.3, 0.5, 0.9, 0.2, 0.5]), treat, caliper=0.05)
        assert match_csv_lines(res) == [
            "treated_id,control_id,distance",
            "1,4,0",
            "2,,off-support",
            "0,,no-neighbor-within-caliper",
        ]

    def test_quadrant_csv(self):
        rows = [("olm01", "fjobnum", 0.1, 0.001, -0.05, 0.2, QuadrantLabel.INCONCLUSIVE)]
        lines = quadrant_csv_lines(rows)
        assert lines[0] == "market_id,outcome,beta_post35,p_post35,beta_post40,p_post40,label"
        assert lines[1].endswith(",Inconclusive")
