import dataclasses
import functools
import math
import sys
import threading
import time

import numpy as np
import pytest
from conftest import assert_same_fit
from scipy import stats

from olmsim import regression
from olmsim.errors import (
    ConvergenceError,
    RankDeficiencyError,
    SingleClusterError,
    ValidationError,
)
from olmsim.panel import PanelArrays
from olmsim.regression import (
    DESIGNS,
    FitResult,
    RegressionSpec,
    absorb_two_way,
    cluster_vcov,
    coef_to_percent,
    demand_did_fit,
    did_fit,
    dual_shock_fit,
    event_study_fit,
    fit_designs,
    heterogeneity_fit,
    ols_fit,
    tost_pretrends,
)
from olmsim.panel import DemandArrays, transform_outcome
from olmsim.scenarios import SUBSTITUTION_PATH, substitution_config, two_market_config
from olmsim.synth import ModeratorBoost, generate_panel_arrays


def toy_panel(y: np.ndarray, treat_workers, shock_month: int, shock2_month: int | None = None) -> PanelArrays:
    """Balanced panel with fjobearn set to the given (workers x months) matrix."""
    w, t = y.shape
    worker = np.repeat(np.arange(w), t)
    month = np.tile(np.arange(t), w)
    treat = np.isin(worker, list(treat_workers)).astype(np.int64)
    post35 = (month >= shock_month).astype(np.int64)
    shock2 = shock2_month if shock2_month is not None else t + 1
    post40 = (month >= shock2).astype(np.int64)
    return PanelArrays(
        worker_id=worker,
        market_id=np.where(treat == 1, "treated", "control").astype(object),
        month_index=month,
        treat=treat,
        post35=post35,
        post40=post40,
        fjobnum=np.ones(w * t, dtype=np.int64),
        fjobearn=y.reshape(-1).astype(np.float64),
        fjobratio=np.full(w * t, 0.5),
        tenure=month.copy(),
        us=(worker % 2 == 0).astype(np.int64),
        experienced=(worker % 3 == 0).astype(np.int64),
    )


IDENTITY_SPEC = RegressionSpec(outcome="fjobearn", transform="identity", controls=())


class TestAbsorb:
    def test_balanced_matches_dummy_regression_oracle(self):
        rng = np.random.default_rng(1)
        w, t = 4, 4
        unit = np.repeat(np.arange(w), t)
        time = np.tile(np.arange(t), w)
        x = rng.standard_normal((w * t, 2))
        res = absorb_two_way(x, unit, time)
        # oracle: residuals from an explicit dummy regression
        d = np.column_stack(
            [np.ones(w * t)]
            + [(unit == i).astype(float) for i in range(1, w)]
            + [(time == j).astype(float) for j in range(1, t)]
        )
        beta, *_ = np.linalg.lstsq(d, x, rcond=None)
        expected = x - d @ beta
        np.testing.assert_allclose(res.values, expected, atol=1e-8)
        assert list(res.column_iterations) == [2, 2]  # one effective pass plus the convergence check

    def test_unbalanced_matches_dummy_regression_oracle(self):
        rng = np.random.default_rng(2)
        w, t = 6, 5
        unit = np.repeat(np.arange(w), t)
        time = np.tile(np.arange(t), w)
        keep = rng.uniform(size=w * t) < 0.8
        keep[:: t] = True  # keep every unit's first month
        unit, time = unit[keep], time[keep]
        x = rng.standard_normal((keep.sum(), 3))
        res = absorb_two_way(x, unit, time)
        d = np.column_stack(
            [np.ones(len(unit))]
            + [(unit == i).astype(float) for i in range(1, w)]
            + [(time == j).astype(float) for j in range(1, t)]
        )
        beta, *_ = np.linalg.lstsq(d, x, rcond=None)
        np.testing.assert_allclose(res.values, x - d @ beta, atol=1e-8)

    def test_no_rows_rejected(self):
        with pytest.raises(ValidationError, match="at least one row, got 0"):
            absorb_two_way(np.empty((0, 2)), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    def test_constant_column_absorbed_to_zero(self):
        unit = np.repeat(np.arange(3), 4)
        time = np.tile(np.arange(4), 3)
        x = np.full((12, 1), 3.7)
        res = absorb_two_way(x, unit, time)
        np.testing.assert_allclose(res.values, 0.0, atol=1e-12)

    def test_stopping_rule_is_scale_invariant(self):
        # unbalanced 300 x 12 panel with 70% of cells kept: an absolute
        # tolerance stops a 1e-6 column early and never stops a 1e8 one
        rng = np.random.default_rng(7)
        unit = np.repeat(np.arange(300), 12)
        time = np.tile(np.arange(12), 300)
        keep = rng.uniform(size=unit.size) < 0.7
        unit, time = unit[keep], time[keep]
        x = rng.standard_normal(unit.size) + unit / 600 + np.sin(time)
        d = np.column_stack(
            [np.ones(len(unit))]
            + [(unit == i).astype(float) for i in range(1, 300)]
            + [(time == j).astype(float) for j in range(1, 12)]
        )
        beta, *_ = np.linalg.lstsq(d, x, rcond=None)
        oracle = x - d @ beta
        iterations = set()
        for scale in (1e-6, 1.0, 1e8):
            res = absorb_two_way(x * scale, unit, time)
            rel_err = np.max(np.abs(res.values[:, 0] / scale - oracle)) / np.max(np.abs(oracle))
            assert rel_err < 1e-9, (scale, rel_err)
            iterations.add(int(res.column_iterations[0]))
        assert len(iterations) == 1

    def test_columns_stop_independently(self):
        # a column's result and pass count do not depend on its neighbours
        rng = np.random.default_rng(8)
        unit = np.repeat(np.arange(40), 6)
        time = np.tile(np.arange(6), 40)
        keep = rng.uniform(size=unit.size) < 0.75
        unit, time = unit[keep], time[keep]
        x = rng.standard_normal((unit.size, 3)) * np.array([1e-4, 1.0, 1e6])
        together = absorb_two_way(x, unit, time)
        for j in range(3):
            alone = absorb_two_way(x[:, j], unit, time)
            assert np.array_equal(alone.values[:, 0], together.values[:, j])
            assert alone.column_iterations[0] == together.column_iterations[j]


class TestOls:
    def test_exact_linear_recovery(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 3))
        beta = np.array([1.5, -2.0, 0.25])
        res = ols_fit(x, x @ beta)
        np.testing.assert_allclose(res.coefficients, beta, atol=1e-10)

    def test_intercept_only_is_mean(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        res = ols_fit(np.ones((4, 1)), y)
        assert res.coefficients[0] == pytest.approx(3.0, abs=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((200, 4))
        y = rng.standard_normal(200)
        res = ols_fit(x, y)
        oracle = np.linalg.inv(x.T @ x) @ (x.T @ y)
        np.testing.assert_allclose(res.coefficients, oracle, atol=1e-8)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.standard_normal((150, 3))
            y = rng.standard_normal(150)
            res = ols_fit(x, y)
            rel = np.max(np.abs(x.T @ res.residuals)) / (
                np.linalg.norm(x) * max(np.linalg.norm(res.residuals), 1e-30)
            )
            assert rel < 1e-8

    def test_rank_deficiency_names_column(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(30)
        x = np.column_stack([a, 2.0 * a, rng.standard_normal(30)])
        with pytest.raises(RankDeficiencyError) as exc:
            ols_fit(x, rng.standard_normal(30), names=["alpha", "alpha_doubled", "noise"])
        assert exc.value.column in ("alpha", "alpha_doubled")


class TestClusterVcov:
    def test_singleton_clusters_match_hc_sandwich(self):
        rng = np.random.default_rng(7)
        n, k = 80, 3
        x = rng.standard_normal((n, k))
        e = rng.standard_normal(n)
        v = cluster_vcov(x, e, np.arange(n))
        bread = np.linalg.inv(x.T @ x)
        hc0 = bread @ (x.T @ np.diag(e**2) @ x) @ bread
        factor = (n / (n - 1)) * ((n - 1) / (n - k))
        np.testing.assert_allclose(v, factor * hc0, atol=1e-10)

    def test_two_cluster_hand_oracle(self):
        x = np.array([[1.0, 0.5], [1.0, -0.2], [1.0, 1.1], [1.0, 0.3], [1.0, -0.7], [1.0, 0.9]])
        e = np.array([0.4, -0.1, 0.2, -0.3, 0.5, 0.1])
        ids = np.array([0, 0, 0, 1, 1, 1])
        # brute-force sandwich
        bread = np.linalg.inv(x.T @ x)
        meat = np.zeros((2, 2))
        for g in (0, 1):
            sg = (x[ids == g] * e[ids == g][:, None]).sum(axis=0)
            meat += np.outer(sg, sg)
        n, k, g = 6, 2, 2
        expected = (g / (g - 1)) * ((n - 1) / (n - k)) * bread @ meat @ bread
        np.testing.assert_allclose(cluster_vcov(x, e, ids), expected, atol=1e-12)

    def test_zero_residuals_give_zero_matrix(self):
        x = np.random.default_rng(8).standard_normal((20, 2))
        v = cluster_vcov(x, np.zeros(20), np.repeat(np.arange(4), 5))
        np.testing.assert_allclose(v, 0.0, atol=1e-14)

    def test_single_cluster_rejected(self):
        x = np.ones((5, 1))
        with pytest.raises(SingleClusterError):
            cluster_vcov(x, np.ones(5), np.zeros(5))

    def test_no_rows_rejected(self):
        with pytest.raises(ValidationError, match="at least one row, got 0"):
            cluster_vcov(np.empty((0, 1)), np.empty(0), np.empty(0, dtype=np.int64))

    def test_symmetric_psd(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.standard_normal((60, 3))
            e = rng.standard_normal(60)
            ids = rng.integers(0, 12, size=60)
            v = cluster_vcov(x, e, ids)
            np.testing.assert_allclose(v, v.T, atol=1e-14)
            assert np.linalg.eigvalsh(v).min() > -1e-10 * np.trace(v)


class TestDid:
    def test_two_by_two_identity(self):
        y = np.array([[1.0, 3.0], [1.0, 2.0]])
        fit = did_fit(toy_panel(y, {0}, shock_month=1), IDENTITY_SPEC)
        assert fit.coefficients["treat_x_post35"] == pytest.approx(1.0, abs=1e-10)

    def test_fe_shift_invariance(self):
        rng = np.random.default_rng(10)
        y = rng.standard_normal((10, 8))
        panel = toy_panel(y, set(range(5)), shock_month=4)
        base = did_fit(panel, IDENTITY_SPEC)
        shifted = y + rng.standard_normal((10, 1)) * 3.0 + rng.standard_normal((1, 8)) * 2.0
        fit = did_fit(toy_panel(shifted, set(range(5)), shock_month=4), IDENTITY_SPEC)
        assert fit.coefficients["treat_x_post35"] == pytest.approx(
            base.coefficients["treat_x_post35"], abs=1e-8
        )

    def test_pvalues_in_unit_interval(self):
        rng = np.random.default_rng(12)
        y = rng.standard_normal((30, 8))
        fit = did_fit(toy_panel(y, set(range(15)), shock_month=4), IDENTITY_SPEC)
        for p in fit.pvalues.values():
            assert 0.0 <= p <= 1.0
        for s in fit.se.values():
            assert s > 0

    @pytest.mark.parametrize("column, spec", [("fjobearn", IDENTITY_SPEC), ("tenure", RegressionSpec("fjobearn"))])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_fit_column_rejected_naming_it(self, column, spec, value):
        # absorption never settles on a non-finite column: the input is at fault, not the numerics
        panel = toy_panel(np.ones((4, 4)), {0, 1}, shock_month=2)
        values = panel.column(column).astype(np.float64)
        values[5] = value
        panel = dataclasses.replace(panel, **{column: values})
        with pytest.raises(ValidationError, match=rf"fit column {column} must be finite, got {value} at row 5"):
            did_fit(panel, spec)

    @pytest.mark.parametrize("column, value", [("fjobnum", -2), ("fjobnum", -1), ("fjobearn", -1.0)])
    def test_log1p_outcome_at_or_below_minus_one_rejected_by_value(self, column, value):
        # log1p is nan below -1 and -inf at it: name the outcome, the row and the raw value
        panel = toy_panel(np.ones((4, 4)), {0, 1}, shock_month=2)
        panel.column(column)[8] = value
        with pytest.raises(ValidationError, match=rf"^row 8: {column} must exceed -1 for log1p, got {value}$"):
            did_fit(panel, RegressionSpec(column))

    @pytest.mark.parametrize("column", ["treat", "post35", "post40"])
    def test_non_binary_flag_rejected(self, column):
        # a treat of 0/2 used to halve the estimate without an error
        panel = generate_panel_arrays(substitution_config(workers=50, seed=1))
        doubled = 2 * panel.column(column)
        row = np.flatnonzero(doubled)[0]
        with pytest.raises(ValidationError, match=rf"^row {row}: {column} must be 0/1, got 2$"):
            did_fit(dataclasses.replace(panel, **{column: doubled}), RegressionSpec())

    @pytest.mark.parametrize("transform", ["log", "bogus"])
    def test_unknown_transform_rejected(self, transform):
        with pytest.raises(ValidationError, match=f"got '{transform}'"):
            RegressionSpec(transform=transform)
        with pytest.raises(ValidationError, match=f"got '{transform}'"):
            transform_outcome(np.ones(3), transform)


class TestDualShock:
    def test_collapse_identity_with_did(self):
        # dropping the between-shock window turns the two indicators into
        # one; the single-shock estimate then equals beta11 + beta12
        rng = np.random.default_rng(13)
        y = rng.standard_normal((12, 9))
        panel = toy_panel(y, set(range(6)), shock_month=3, shock2_month=6)
        dual = dual_shock_fit(panel, IDENTITY_SPEC)
        mask = (panel.month_index < 3) | (panel.month_index >= 6)
        collapsed = did_fit(panel.subset(mask), IDENTITY_SPEC)
        total = dual.coefficients["treat_x_post35"] + dual.coefficients["treat_x_post40"]
        assert collapsed.coefficients["treat_x_post35"] == pytest.approx(total, abs=1e-8)

    def test_post40_all_zero_is_rank_deficient(self):
        rng = np.random.default_rng(14)
        y = rng.standard_normal((8, 6))
        panel = toy_panel(y, set(range(4)), shock_month=3)  # post40 never set
        with pytest.raises(RankDeficiencyError) as exc:
            dual_shock_fit(panel, IDENTITY_SPEC)
        assert exc.value.column == "treat_x_post40"

    def test_post40_nesting_validated(self):
        rng = np.random.default_rng(15)
        y = rng.standard_normal((4, 6))
        panel = toy_panel(y, {0, 1}, shock_month=4, shock2_month=2)
        with pytest.raises(ValidationError):
            dual_shock_fit(panel, IDENTITY_SPEC)


class TestEventStudy:
    def test_fifteen_terms_and_baseline_omitted(self):
        rng = np.random.default_rng(16)
        y = rng.standard_normal((10, 16))
        panel = toy_panel(y, set(range(5)), shock_month=6, shock2_month=8)
        fit = event_study_fit(panel, IDENTITY_SPEC)
        rel_terms = [t for t in fit.terms if t.startswith("treat_rel[")]
        assert len(rel_terms) == 15
        assert "treat_rel[-1]" not in fit.coefficients
        expected = [f"treat_rel[{s}]" for s in list(range(-6, -1)) + list(range(0, 10))]
        assert sorted(rel_terms) == sorted(expected)

    def test_missing_period_reported(self):
        rng = np.random.default_rng(17)
        y = rng.standard_normal((10, 16))
        panel = toy_panel(y, set(range(5)), shock_month=6)
        mask = panel.month_index != 3  # drop relative period -3 entirely
        with pytest.raises(ValidationError, match=r"-3"):
            event_study_fit(panel.subset(mask), IDENTITY_SPEC)

    def test_no_post_months_rejected(self):
        rng = np.random.default_rng(18)
        y = rng.standard_normal((4, 6))
        panel = toy_panel(y, {0, 1}, shock_month=99)
        with pytest.raises(ValidationError, match="post"):
            event_study_fit(panel, IDENTITY_SPEC)


class TestHeterogeneity:
    def test_terms_present_and_main_effect_absent(self):
        rng = np.random.default_rng(19)
        y = rng.standard_normal((12, 8))
        panel = toy_panel(y, set(range(6)), shock_month=4)
        fit = heterogeneity_fit(panel, IDENTITY_SPEC, moderator="us")
        assert "us_x_treat_x_post35" in fit.coefficients
        assert "us_x_post35" in fit.coefficients
        assert "treat_x_post35" in fit.coefficients
        assert "us" not in fit.coefficients  # absorbed by the worker FE

    def test_non_binary_moderator_rejected(self):
        rng = np.random.default_rng(20)
        y = rng.standard_normal((6, 6))
        panel = toy_panel(y, {0, 1, 2}, shock_month=3)
        panel.us[7] = 2
        with pytest.raises(ValidationError, match=r"^row 7: us must be 0/1, got 2$"):
            heterogeneity_fit(panel, IDENTITY_SPEC, moderator="us")

    @pytest.mark.parametrize("moderator", ["treat", "tenure", "market_id"])
    def test_moderator_outside_list_rejected(self, moderator):
        # without the check, treat would fail as numeric: its interaction is collinear with treat_x_post35
        panel = toy_panel(np.random.default_rng(20).standard_normal((6, 6)), {0, 1, 2}, shock_month=3)
        with pytest.raises(ValidationError, match=rf"moderator must be one of \('us', 'experienced'\), got '{moderator}'"):
            heterogeneity_fit(panel, IDENTITY_SPEC, moderator=moderator)

    def test_all_zero_moderator_is_rank_deficient(self):
        rng = np.random.default_rng(21)
        y = rng.standard_normal((6, 6))
        panel = toy_panel(y, {0, 1, 2}, shock_month=3)
        panel.us[:] = 0
        with pytest.raises(RankDeficiencyError) as exc:
            heterogeneity_fit(panel, IDENTITY_SPEC, moderator="us")
        assert "us" in exc.value.column

    def test_within_worker_variation_rejected(self):
        rng = np.random.default_rng(22)
        y = rng.standard_normal((6, 6))
        panel = toy_panel(y, {0, 1, 2}, shock_month=3)
        panel.us[0] = 1 - panel.us[1]  # worker 0's first row now disagrees with its other rows
        message = r"^row 1: us must be the same on every row of worker_id 0, got 1 here and 0 at row 0$"
        with pytest.raises(ValidationError, match=message):
            heterogeneity_fit(panel, IDENTITY_SPEC, moderator="us")

    def test_varying_moderator_names_first_worker(self):
        rng = np.random.default_rng(23)
        y = rng.standard_normal((6, 6))
        panel = toy_panel(y, {0, 1, 2}, shock_month=3)
        # rows are worker-major: flip one month of workers 4 and 2
        panel.us[4 * 6 + 5] = 1 - panel.us[4 * 6]
        panel.us[2 * 6 + 3] = 1 - panel.us[2 * 6]
        shuffled = panel.subset(rng.permutation(panel.n_rows))
        first_row = {}  # worker -> its first row, in row order
        for row, (worker, us) in enumerate(zip(shuffled.worker_id.tolist(), shuffled.us.tolist())):
            first = first_row.setdefault(worker, row)
            if us != shuffled.us[first]:
                break
        message = (rf"^row {row}: us must be the same on every row of worker_id {worker}, "
                   rf"got {us} here and {shuffled.us[first]} at row {first}$")
        with pytest.raises(ValidationError, match=message):
            heterogeneity_fit(shuffled, IDENTITY_SPEC, moderator="us")


def _valid_panel(column: str | None = None, row: int = 0, value=0) -> PanelArrays:
    """A toy panel that passes ``PanelArrays.validate``, with ``column[row]`` set to ``value``."""
    panel = toy_panel(np.random.default_rng(24).uniform(size=(6, 6)), {0, 1, 2}, shock_month=3)
    if column is not None:
        panel.column(column)[row] = value
    return panel


# worker 1 holds rows 6-11 and us=0; month 1 is before the first shock
@pytest.mark.parametrize("message, data_model, fit", [
    pytest.param("row 1: post40=1 requires post35=1",
                 lambda: _valid_panel("post40", 1, 1).validate(),
                 lambda: dual_shock_fit(_valid_panel("post40", 1, 1), IDENTITY_SPEC), id="post40-outside-post35"),
    pytest.param("row 7: us must be 0/1, got 2",
                 lambda: _valid_panel("us", 7, 2).validate(),
                 lambda: heterogeneity_fit(_valid_panel("us", 7, 2), IDENTITY_SPEC, "us"), id="non-binary-moderator"),
    pytest.param("row 8: us must be the same on every row of worker_id 1, got 1 here and 0 at row 6",
                 lambda: _valid_panel("us", 8, 1).validate(),
                 lambda: heterogeneity_fit(_valid_panel("us", 8, 1), IDENTITY_SPEC, "us"), id="varying-moderator"),
    pytest.param("transform must be one of ('log1p', 'identity'), got 'log'",
                 lambda: transform_outcome(np.ones(3), "log"),
                 lambda: RegressionSpec(transform="log"), id="unknown-transform"),
    pytest.param("moderator must be one of ('us', 'experienced'), got 'tenure'",
                 lambda: ModeratorBoost("tenure", 1.5),
                 lambda: heterogeneity_fit(_valid_panel(), IDENTITY_SPEC, "tenure"), id="unknown-moderator"),
])
def test_one_rule_one_message(message, data_model, fit):
    """The data model and the fits reject a bad input by the same rule, with the same message."""
    _valid_panel().validate()  # each case breaks one rule of a valid panel
    for call in (data_model, fit):
        with pytest.raises(ValidationError) as exc:
            call()
        assert str(exc.value) == message


class TestFitDesigns:
    SINGLE = {
        "did": did_fit, "dual": dual_shock_fit, "event": event_study_fit,
        "het_us": functools.partial(heterogeneity_fit, moderator="us"),
        "het_experienced": functools.partial(heterogeneity_fit, moderator="experienced"),
    }

    @staticmethod
    def panel():
        rng = np.random.default_rng(30)
        y = np.abs(rng.standard_normal((16, 12))) + 0.2
        y[rng.uniform(size=y.shape) < 0.1] = 0.0
        panel = toy_panel(y, set(range(8)), shock_month=5, shock2_month=8)
        panel.fjobnum[:] = rng.poisson(2.0, size=panel.n_rows)
        panel.tenure[:] = panel.month_index + rng.integers(0, 3, size=panel.n_rows)
        # drop a few cells so the absorption iterates
        return panel.subset(rng.uniform(size=panel.n_rows) < 0.9)

    @pytest.mark.parametrize("controls", [("tenure",), ()])
    def test_equals_single_fits_exactly(self, controls):
        # without tenure, the did columns stop absorbing before the others
        panel = self.panel()
        specs = [
            RegressionSpec(outcome="fjobnum", transform="log1p", controls=controls),
            RegressionSpec(outcome="fjobratio", transform="identity", controls=controls),
            RegressionSpec(outcome="fjobearn", transform="log1p", controls=controls),
        ]
        assert list(self.SINGLE) == list(DESIGNS)
        fits = fit_designs(panel, specs, designs=tuple(DESIGNS))
        assert set(fits) == {(kind, s.outcome) for kind in self.SINGLE for s in specs}
        for (kind, outcome), fit in fits.items():
            spec = next(s for s in specs if s.outcome == outcome)
            assert_same_fit(fit, self.SINGLE[kind](panel, spec))

    def test_ols_fit_and_cluster_vcov_equal_did_fit(self):
        # the public solve and covariance run the same steps as the fit path
        panel = self.panel()
        fit = did_fit(panel, RegressionSpec(outcome="fjobearn", transform="identity"))
        stack = np.column_stack([panel.fjobearn, panel.treat * panel.post35, panel.tenure])
        absorbed = absorb_two_way(stack, panel.worker_id, panel.month_index).values
        X = np.ascontiguousarray(absorbed[:, 1:])
        ols = ols_fit(X, absorbed[:, 0], names=list(fit.terms))
        assert ols.coefficients.tolist() == [fit.coefficients[t] for t in fit.terms]
        assert np.array_equal(cluster_vcov(X, ols.residuals, panel.worker_id), fit.vcov)

    @pytest.mark.parametrize(
        "fit",
        [did_fit, dual_shock_fit, event_study_fit, heterogeneity_fit,
         lambda panel: fit_designs(panel, [RegressionSpec(), RegressionSpec(outcome="fjobearn")])],
    )
    def test_duplicate_worker_month_rejected_naming_rows(self, fit):
        # a repeated cell would otherwise be fitted as a second observation
        panel = generate_panel_arrays(two_market_config(SUBSTITUTION_PATH, workers=3, seed=2))
        i = 29
        repeated = PanelArrays(*(np.append(col, col[i]) for col in dataclasses.astuple(panel)))
        cell = rf"\({panel.worker_id[i]}, {panel.month_index[i]}\)"
        with pytest.raises(ValidationError, match=rf"row 96: duplicate worker_id,month_index cell {cell}, first at row {i}"):
            fit(repeated)

    @pytest.mark.parametrize("fit", [did_fit, dual_shock_fit, heterogeneity_fit])
    def test_no_rows_rejected(self, fit):
        panel = self.panel()
        with pytest.raises(ValidationError, match="at least one row"):
            fit(panel.subset(np.zeros(panel.n_rows, dtype=bool)))

    def test_specs_must_share_settings(self):
        specs = [RegressionSpec(outcome="fjobnum"), RegressionSpec(outcome="fjobearn", controls=())]
        with pytest.raises(ValidationError, match="differ only"):
            fit_designs(self.panel(), specs)
        with pytest.raises(ValidationError, match="once"):
            fit_designs(self.panel(), [RegressionSpec(), RegressionSpec(transform="identity")])
        with pytest.raises(ValidationError, match="unknown design"):
            fit_designs(self.panel(), [RegressionSpec()], designs=("triple",))
        with pytest.raises(ValidationError, match=r"unknown design\(s\) \['mine'\]"):  # names only, no builders
            fit_designs(self.panel(), [RegressionSpec()], designs={"mine": DESIGNS["did"]})


class TestDemandDid:
    @staticmethod
    def demand(y: np.ndarray, treated_markets, shock_week: int) -> DemandArrays:
        m, t = y.shape
        market = np.repeat([f"m{j}" for j in range(m)], t).astype(object)
        week = np.tile(np.arange(t), m)
        treat = np.repeat([1 if j in treated_markets else 0 for j in range(m)], t)
        return DemandArrays(
            market_id=market,
            week_index=week,
            postnum=y.reshape(-1).astype(np.int64),
            treat=treat.astype(np.int64),
            post=(week >= shock_week).astype(np.int64),
        )

    def test_two_by_two_difference_in_means(self):
        counts = np.array([[3, 3, 8, 8], [3, 3, 4, 4]])
        series = self.demand(counts, {0}, shock_week=2)
        fit = demand_did_fit(series)
        expected = (math.log1p(8) - math.log1p(3)) - (math.log1p(4) - math.log1p(3))
        assert fit.coefficients["treat_x_post"] == pytest.approx(expected, abs=1e-10)

    def test_columns_of_different_lengths_rejected(self):
        series = self.demand(np.array([[3, 3, 8, 8], [3, 3, 4, 4]]), {0}, shock_week=2)
        with pytest.raises(ValidationError, match=r"column postnum has shape \(7,\), expected \(8,\)"):
            DemandArrays(series.market_id, series.week_index, series.postnum[:-1], series.treat, series.post)

    @pytest.mark.parametrize(
        "column, value, message",
        [("postnum", -1, "postnum must be a nonnegative integer, got -1"),
         ("postnum", 1.5, "postnum must be a nonnegative integer, got 1.5"),
         ("postnum", math.nan, "postnum must be a nonnegative integer, got nan"),
         ("treat", 2, "treat must be 0/1, got 2"), ("post", -1, "post must be 0/1, got -1")],
    )
    def test_bad_value_rejected_naming_row(self, column, value, message):
        # a negative count reaches the fit as log1p(-1) = -inf, which absorption cannot settle
        series = self.demand(np.array([[3, 3, 8, 8], [3, 3, 4, 4]]), {0}, shock_week=2)
        values = getattr(series, column).astype(type(value))
        values[5] = value
        with pytest.raises(ValidationError, match=f"row 5: {message}"):
            demand_did_fit(dataclasses.replace(series, **{column: values}))

    def test_duplicate_market_week_rejected_naming_rows(self):
        # a repeated cell would otherwise be fitted as a second observation
        series = self.demand(np.array([[3, 3, 8, 8], [3, 3, 4, 4]]), {0}, shock_week=2)
        series = DemandArrays(*(np.append(col, col[2]) for col in dataclasses.astuple(series)))
        with pytest.raises(ValidationError, match=r"row 8: duplicate market_id,week_index cell \(m0, 2\), first at row 2"):
            demand_did_fit(series)

    def test_needs_two_markets(self):
        counts = np.array([[3, 3, 8, 8]])
        with pytest.raises(ValidationError):
            demand_did_fit(self.demand(counts, {0}, shock_week=2))

    def test_window_must_span_shock(self):
        counts = np.array([[3, 3], [4, 4]])
        with pytest.raises(ValidationError):
            demand_did_fit(self.demand(counts, {0}, shock_week=0))


class TestTost:
    @staticmethod
    def fake_event_fit(pre_values, se=0.01, n_clusters=500, sd=1.0) -> FitResult:
        terms = tuple(f"treat_rel[{s}]" for s in range(-len(pre_values), 0) if s != -1)
        coef = {t: v for t, v in zip(terms, pre_values)}
        return FitResult(
            coefficients=coef,
            se={t: se for t in terms},
            pvalues={t: 0.5 for t in terms},
            n_obs=1000,
            n_clusters=n_clusters,
            within_r2=0.1,
            converged_fe_iterations=2,
            outcome_sd=sd,
        )

    def test_tight_zeros_pass(self):
        fit = self.fake_event_fit([0.0] * 5, se=0.01)
        res = tost_pretrends(fit, bounds=0.1, alpha=0.05)
        assert res.overall_pass and all(p.passed for p in res.periods)

    def test_large_coefficient_fails(self):
        fit = self.fake_event_fit([0.0, 0.0, 0.5, 0.0], se=0.01)
        res = tost_pretrends(fit, bounds=0.1, alpha=0.05)
        assert not res.overall_pass
        failed = [p for p in res.periods if not p.passed]
        assert len(failed) == 1 and failed[0].estimate == 0.5

    def test_default_bounds_from_outcome_sd(self):
        fit = self.fake_event_fit([0.0] * 5, se=0.01, sd=2.0)
        res = tost_pretrends(fit)
        assert res.delta == pytest.approx(0.72)

    def test_constant_outcome_needs_bounds(self):
        panel = toy_panel(np.ones((6, 6)), {0, 1, 2}, shock_month=3)
        fit = event_study_fit(panel, IDENTITY_SPEC)
        assert fit.outcome_sd == 0.0
        with pytest.raises(ValidationError, match=r"0.36 x the outcome SD.*got outcome SD 0.0; pass `bounds`"):
            tost_pretrends(fit)
        assert tost_pretrends(fit, bounds=0.1).overall_pass

    def test_requires_pre_periods(self):
        fit = self.fake_event_fit([])
        with pytest.raises(ValidationError):
            tost_pretrends(fit, bounds=0.1)

    @pytest.mark.parametrize("bounds", [float("nan"), float("inf"), 0.0, -0.1])
    def test_bound_must_be_positive_and_finite(self, bounds):
        fit = self.fake_event_fit([0.0] * 3)
        with pytest.raises(ValidationError, match="bounds"):
            tost_pretrends(fit, bounds=bounds)

    @pytest.mark.parametrize("df", [1, 2, 5, 29, 199, 4999])
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.25])
    def test_critical_value_equals_t_ppf(self, df, alpha):
        # with estimate 0 and SE 1 a period passes iff delta > t_crit, so
        # failing at t.ppf and passing at the next float up pins t_crit == t.ppf
        t_ppf = float(stats.t.ppf(1.0 - alpha, df))
        fit = self.fake_event_fit([0.0, 0.0], se=1.0, n_clusters=df + 1)
        assert not tost_pretrends(fit, bounds=t_ppf, alpha=alpha).overall_pass
        assert tost_pretrends(fit, bounds=float(np.nextafter(t_ppf, np.inf)), alpha=alpha).overall_pass


class TestPvalues:
    def test_equal_t_sf(self):
        rng = np.random.default_rng(8)
        stat = np.array([0.0, 1e-8, 0.3, 1.0, 1.96, 2.5, 4.0, 8.0, 40.0])
        scale = rng.uniform(0.01, 5.0, size=stat.size)
        beta = np.concatenate([stat * scale, -stat * scale])
        se = np.concatenate([scale, scale])
        for df in (1, 2, 3, 7, 29, 30, 199, 4999):
            expected = 2.0 * stats.t.sf(np.abs(beta / se), df)
            np.testing.assert_array_equal(regression._pvalues(beta, se, df), expected)


class TestEffectSize:
    @pytest.mark.parametrize(
        "beta,expected",
        [(-0.094, -0.0897), (0.062, 0.0640), (0.0, 0.0), (-0.353, -0.2974), (0.510, 0.6653)],
    )
    def test_values(self, beta, expected):
        assert coef_to_percent(beta) == pytest.approx(expected, abs=1e-4)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            coef_to_percent(float("nan"))


blas_controls = regression._openblas_thread_controls()


@pytest.mark.skipif(not blas_controls, reason="no bundled OpenBLAS loaded")
class TestBlasThreads:
    """``_fit_columns`` runs on one OpenBLAS thread and restores the count."""

    @staticmethod
    def counts() -> list[int]:
        return [get() for get, _ in blas_controls]

    @pytest.fixture
    def two_threads(self):
        previous = self.counts()
        for _, set_threads in blas_controls:
            set_threads(2)
        yield
        for (_, set_threads), count in zip(blas_controls, previous):
            set_threads(count)

    @staticmethod
    def make_panel(workers: int) -> PanelArrays:
        return generate_panel_arrays(substitution_config(workers=workers, seed=3))

    @pytest.fixture(scope="class")
    def panel(self):
        return self.make_panel(1000)

    def spy_counts(self, monkeypatch) -> list[list[int]]:
        seen = []
        absorb = regression.absorb_two_way

        def spy(*args, **kwargs):
            seen.append(self.counts())
            return absorb(*args, **kwargs)

        monkeypatch.setattr(regression, "absorb_two_way", spy)
        return seen

    def test_one_thread_inside_and_count_restored(self, two_threads, monkeypatch, panel):
        seen = self.spy_counts(monkeypatch)
        did_fit(panel)
        assert seen == [[1] * len(blas_controls)]
        assert self.counts() == [2] * len(blas_controls)

    def test_overlapping_blocks_share_one_pinned_count(self):
        # two fits overlapping in two threads can exit in the order they entered
        previous = self.counts()
        for _, set_threads in blas_controls:
            set_threads(3)
        first, second = regression._one_blas_thread(), regression._one_blas_thread()
        try:
            first.__enter__()
            second.__enter__()
            try:
                first.__exit__(None, None, None)
                between = self.counts()
            finally:
                second.__exit__(None, None, None)
            after = self.counts()
        finally:
            for (_, set_threads), count in zip(blas_controls, previous):
                set_threads(count)
        assert between == [1] * len(blas_controls)
        assert after == [3] * len(blas_controls)

    def test_threads_overlapping_at_random_keep_one_thread_inside(self, two_threads):
        # more threads than cores, switching often: a lost update of the user
        # count would restore the count while a block is still inside
        seen = []
        start = threading.Barrier(4)

        def work():
            start.wait(timeout=60)
            for _ in range(200):
                with regression._one_blas_thread():
                    time.sleep(0)  # let another thread enter or leave here
                    seen.append(self.counts())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, daemon=True) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 800
        assert all(counts == [1] * len(blas_controls) for counts in seen)
        assert self.counts() == [2] * len(blas_controls)

    def test_count_restored_after_error(self, two_threads, monkeypatch, panel):
        def fail(*args, **kwargs):
            raise ConvergenceError("stopped", iterations=0)

        monkeypatch.setattr(regression, "absorb_two_way", fail)
        with pytest.raises(ConvergenceError):
            did_fit(panel)
        assert self.counts() == [2] * len(blas_controls)

    @pytest.mark.parametrize("workers", [200, 1000])
    def test_fits_identical_on_two_threads(self, two_threads, monkeypatch, workers):
        panel = self.make_panel(workers)
        specs = [RegressionSpec(outcome="fjobnum"), RegressionSpec(outcome="fjobearn")]
        limited = fit_designs(panel, specs)
        seen = self.spy_counts(monkeypatch)
        monkeypatch.setattr(regression, "_fit_columns", regression._fit_columns.__wrapped__)
        unlimited = fit_designs(panel, specs)
        assert seen == [[2] * len(blas_controls)]
        assert limited.keys() == unlimited.keys()
        n = panel.n_rows
        for key in limited:
            a, b = limited[key], unlimited[key]
            if n > 10_000:
                # OpenBLAS splits a dot product of more than 10,000 elements
                # across its threads, so the sums of squares behind within R2
                # add in another order; each sum is within n * eps of the other
                assert a.within_r2 == pytest.approx(b.within_r2, rel=0, abs=2 * n * np.finfo(float).eps)
                b.within_r2 = a.within_r2
            assert_same_fit(a, b)
