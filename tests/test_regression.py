import dataclasses
import itertools
import json
import math
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from conftest import assert_same_fit, fresh_python, spy_blocks
from scipy import stats

from olmsim import regression
from olmsim.errors import (
    ConvergenceError,
    RankDeficiencyError,
    SingleClusterError,
    ValidationError,
)
from olmsim.matching import MatchResult, balance_table, logit_fit, propensity_match
from olmsim.panel import PanelArrays
from olmsim.regression import (
    DESIGNS,
    FitResult,
    RegressionSpec,
    absorb_two_way,
    coef_to_percent,
    demand_did_fit,
    did_fit,
    dual_shock_fit,
    event_study_fit,
    fit_designs,
    ols_fit,
    tost_pretrends,
)
from olmsim.panel import DemandArrays, transform_outcome
from olmsim.scenarios import SUBSTITUTION_PATH, substitution_config, two_market_config
from olmsim.synth import generate_panel_arrays


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


def het_fit(panel: PanelArrays, spec: RegressionSpec = RegressionSpec(), moderator: str = "us") -> FitResult:
    """The ``het_<moderator>`` design of ``spec``'s outcome, fitted through ``fit_designs``."""
    kind = f"het_{moderator}"
    return fit_designs(panel, {spec.outcome: spec.transform}, (kind,), spec.controls)[(kind, spec.outcome)]


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_cell_named_by_row_and_column(self, value):
        # such a column used to run every pass, then fail as numeric; inf also warned
        unit = np.repeat(np.arange(50), 4)
        month = np.tile(np.arange(4), 50)
        x = np.random.default_rng(9).standard_normal((200, 3))
        x[37, 2] = value
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=f"^row 37: column 2 must be finite, got {value}$"):
            absorb_two_way(x, unit, month)
        assert time.perf_counter() - start < 1.0

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

    @pytest.mark.parametrize("shape,order", [((100, 3), "C"), ((100, 3), "F"), ((100,), "C")], ids=["C", "F", "1-D"])
    def test_input_left_unchanged(self, shape, order):
        rng = np.random.default_rng(10)
        unit, time = np.repeat(np.arange(20), 5), np.tile(np.arange(5), 20)
        x = np.array(rng.standard_normal(shape), order=order)
        before = x.copy()
        values = absorb_two_way(x, unit, time).values
        assert np.array_equal(x, before)
        assert values.shape == (100, x.size // 100) and values.flags.f_contiguous


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

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_input_named_by_row_and_column(self, value):
        # scipy used to raise its own ValueError
        rng = np.random.default_rng(7)
        x, y = rng.standard_normal((20, 2)), rng.standard_normal(20)
        bad = x.copy()
        bad[4, 1] = value
        with pytest.raises(ValidationError, match=f"^row 4: column 1 must be finite, got {value}$"):
            ols_fit(bad, y)
        with pytest.raises(ValidationError, match=f"^row 4: slope must be finite, got {value}$"):
            ols_fit(bad, y, names=["level", "slope"])
        y[11] = value
        with pytest.raises(ValidationError, match=f"^row 11: y must be finite, got {value}$"):
            ols_fit(x, y)

    def test_row_count_mismatch_names_the_counts(self):
        # numpy's matmul used to raise its own ValueError
        rng = np.random.default_rng(8)
        with pytest.raises(ValidationError, match="^got 4 outcome rows for 5 design rows$"):
            ols_fit(rng.standard_normal((5, 2)), np.ones(4))

    def test_rank_deficiency_names_column(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(30)
        x = np.column_stack([a, 2.0 * a, rng.standard_normal(30)])
        with pytest.raises(RankDeficiencyError) as exc:
            ols_fit(x, rng.standard_normal(30), names=["alpha", "alpha_doubled", "noise"])
        assert exc.value.column in ("alpha", "alpha_doubled")

    @pytest.mark.parametrize("layout", ["C", "F", "one column", "vector"])
    def test_inputs_left_unchanged(self, layout):
        # the QR overwrites its own copy of X; an (n, 1) C-ordered X is F-contiguous too,
        # so a copy taken only when X is not F-ordered would hand X itself to the QR
        rng = np.random.default_rng(9)
        x = {"C": rng.standard_normal((30, 3)), "F": np.asfortranarray(rng.standard_normal((30, 3))),
             "one column": rng.standard_normal((30, 1)), "vector": rng.standard_normal(30)}[layout]
        y = rng.standard_normal(30)
        x_before, y_before = x.copy(), y.copy()
        ols_fit(x, y)
        assert np.array_equal(x, x_before) and np.array_equal(y, y_before)


def _cr1(x: np.ndarray, e: np.ndarray, cluster_ids: np.ndarray) -> np.ndarray:
    """The CR1 covariance as the fits compute it: cluster codes, then the sandwich."""
    codes, g = regression._cluster_codes(cluster_ids)
    return regression._sandwich(x, e, codes, g, np.linalg.inv(x.T @ x))


class TestClusterVcov:
    def test_singleton_clusters_match_hc_sandwich(self):
        rng = np.random.default_rng(7)
        n, k = 80, 3
        x = rng.standard_normal((n, k))
        e = rng.standard_normal(n)
        v = _cr1(x, e, np.arange(n))
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
        np.testing.assert_allclose(_cr1(x, e, ids), expected, atol=1e-12)

    def test_zero_residuals_give_zero_matrix(self):
        x = np.random.default_rng(8).standard_normal((20, 2))
        v = _cr1(x, np.zeros(20), np.repeat(np.arange(4), 5))
        np.testing.assert_allclose(v, 0.0, atol=1e-14)

    def test_single_cluster_rejected(self):
        with pytest.raises(SingleClusterError):
            regression._cluster_codes(np.zeros(5))

    def test_no_rows_rejected(self):
        with pytest.raises(ValidationError, match="at least one row, got 0"):
            regression._cluster_codes(np.empty(0, dtype=np.int64))

    def test_symmetric_psd(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.standard_normal((60, 3))
            e = rng.standard_normal(60)
            ids = rng.integers(0, 12, size=60)
            v = _cr1(x, e, ids)
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
        fit = het_fit(panel, IDENTITY_SPEC, "us")
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
            het_fit(panel, IDENTITY_SPEC, "us")

    @pytest.mark.parametrize("moderator", ["treat", "tenure", "market_id"])
    def test_moderator_outside_list_rejected(self, moderator):
        # DESIGNS holds one het design per moderator of the list, and no other
        panel = toy_panel(np.random.default_rng(20).standard_normal((6, 6)), {0, 1, 2}, shock_month=3)
        message = rf"^unknown design\(s\) \['het_{moderator}'\]; known: did, dual, event, het_us, het_experienced$"
        with pytest.raises(ValidationError, match=message):
            het_fit(panel, IDENTITY_SPEC, moderator)

    def test_all_zero_moderator_is_rank_deficient(self):
        rng = np.random.default_rng(21)
        y = rng.standard_normal((6, 6))
        panel = toy_panel(y, {0, 1, 2}, shock_month=3)
        panel.us[:] = 0
        with pytest.raises(RankDeficiencyError) as exc:
            het_fit(panel, IDENTITY_SPEC, "us")
        assert "us" in exc.value.column

    def test_within_worker_variation_rejected(self):
        rng = np.random.default_rng(22)
        y = rng.standard_normal((6, 6))
        panel = toy_panel(y, {0, 1, 2}, shock_month=3)
        panel.us[0] = 1 - panel.us[1]  # worker 0's first row now disagrees with its other rows
        message = r"^row 1: us must be the same on every row of worker_id 0, got 1 here and 0 at row 0$"
        with pytest.raises(ValidationError, match=message):
            het_fit(panel, IDENTITY_SPEC, "us")

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
            het_fit(shuffled, IDENTITY_SPEC, "us")


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
                 lambda: het_fit(_valid_panel("us", 7, 2), IDENTITY_SPEC, "us"), id="non-binary-moderator"),
    pytest.param("row 8: us must be the same on every row of worker_id 1, got 1 here and 0 at row 6",
                 lambda: _valid_panel("us", 8, 1).validate(),
                 lambda: het_fit(_valid_panel("us", 8, 1), IDENTITY_SPEC, "us"), id="varying-moderator"),
    pytest.param("transform must be one of ('log1p', 'identity'), got 'log'",
                 lambda: transform_outcome(np.ones(3), "log"),
                 lambda: RegressionSpec(transform="log"), id="unknown-transform"),
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
        "het_us": lambda panel, spec: het_fit(panel, spec, "us"),
        "het_experienced": lambda panel, spec: het_fit(panel, spec, "experienced"),
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

    @pytest.mark.parametrize("designs", [tuple(DESIGNS), ("dual", "event", "did")])
    @pytest.mark.parametrize("controls", [("tenure",), ()])
    def test_equals_single_fits_exactly(self, controls, designs, monkeypatch):
        # without tenure, the did columns stop absorbing before the others
        panel = self.panel()
        outcomes = {"fjobnum": "log1p", "fjobratio": "identity", "fjobearn": "log1p"}
        assert list(self.SINGLE) == list(DESIGNS)
        calls, factor = [], regression._pivoted_qr

        def spy(X, terms):  # is the design a view of the absorbed values?
            calls.append((tuple(terms), X.base is not None))
            return factor(X, terms)

        monkeypatch.setattr(regression, "_pivoted_qr", spy)
        fits = fit_designs(panel, outcomes, designs=designs, controls=controls)
        monkeypatch.undo()
        # the largest design, event, is factored in place in a view of the absorbed values,
        # whose last columns are its terms and the controls; every other design, did among
        # them, in a copy of its columns. The largest design is factored first, so each call
        # is told by its terms
        views = dict(calls)
        assert len(views) == len(calls) == len(designs)
        view = {kind: views[fits[(kind, "fjobnum")].terms] for kind in designs}
        assert view["event"] and not view["did"]
        assert sum(view.values()) == 1
        assert list(fits) == [(kind, outcome) for kind in designs for outcome in outcomes]
        for (kind, outcome), fit in fits.items():
            spec = RegressionSpec(outcome=outcome, transform=outcomes[outcome], controls=controls)
            single = self.SINGLE[kind](panel, spec)
            assert_same_fit(fit, single)
            assert fit.vcov.tobytes() == single.vcov.tobytes()

    @pytest.mark.parametrize("designs", [("did", "dual", "event"), ("het_us", "het_experienced", "did"), ("did", "dual")])
    @pytest.mark.parametrize("controls", [("tenure",), ()])
    def test_design_order_moves_no_bit(self, controls, designs):
        # the stack's layout follows the largest design, the first on a tie (het_us and
        # het_experienced have as many terms), so each order lays out and factors them anew
        panel = self.panel()
        outcomes = {"fjobnum": "log1p", "fjobratio": "identity", "fjobearn": "log1p"}
        first = fit_designs(panel, outcomes, designs, controls)
        for order in itertools.permutations(designs):
            fits = fit_designs(panel, outcomes, order, controls)
            assert list(fits) == [(kind, outcome) for kind in order for outcome in outcomes]
            for key, fit in fits.items():
                assert_same_fit(fit, first[key])
                assert fit.vcov.tobytes() == first[key].vcov.tobytes()

    def test_ols_fit_equals_did_fit_and_vcov_equals_dummy_cr1(self):
        panel = self.panel()
        fit = did_fit(panel, RegressionSpec(outcome="fjobearn", transform="identity"))
        # the public solve runs the same steps as the fit path
        stack = np.column_stack([panel.fjobearn, panel.treat * panel.post35, panel.tenure])
        # the fit reads its outcome as a strided column of a row-major copy of the absorbed values
        absorbed = np.ascontiguousarray(absorb_two_way(stack, panel.worker_id, panel.month_index).values)
        ols = ols_fit(absorbed[:, 1:], absorbed[:, 0], names=list(fit.terms))
        assert ols.coefficients.tolist() == [fit.coefficients[t] for t in fit.terms]
        # the covariance against an independent reference: the worker-plus-month dummy
        # regression, as acceptance C05 builds it, with the CR1 factor charging only the
        # interest columns
        workers, months = np.unique(panel.worker_id), np.unique(panel.month_index)
        interest = stack[:, 1:]
        dummies = np.column_stack(
            [interest, np.ones(panel.n_rows)]
            + [(panel.worker_id == w).astype(float) for w in workers[1:]]
            + [(panel.month_index == t).astype(float) for t in months[1:]]
        )
        full, *_ = np.linalg.lstsq(dummies, panel.fjobearn, rcond=None)
        e = panel.fjobearn - dummies @ full
        bread = np.linalg.inv(dummies.T @ dummies)
        scores = np.array([dummies[panel.worker_id == w].T @ e[panel.worker_id == w] for w in workers])
        n, k, g = panel.n_rows, interest.shape[1], len(workers)
        factor = (g / (g - 1)) * ((n - 1) / (n - k))
        expected = factor * (bread @ scores.T @ scores @ bread)[:k, :k]
        np.testing.assert_allclose(fit.vcov, expected, rtol=1e-9, atol=0)

    @pytest.mark.parametrize(
        "fit",
        [did_fit, dual_shock_fit, event_study_fit, het_fit,
         lambda panel: fit_designs(panel, {"fjobnum": "log1p", "fjobearn": "log1p"})],
    )
    def test_duplicate_worker_month_rejected_naming_rows(self, fit):
        # a repeated cell would otherwise be fitted as a second observation
        panel = generate_panel_arrays(two_market_config(SUBSTITUTION_PATH, workers=3, seed=2))
        i = 29
        repeated = PanelArrays(*(np.append(col, col[i]) for col in dataclasses.astuple(panel)))
        cell = rf"\({panel.worker_id[i]}, {panel.month_index[i]}\)"
        with pytest.raises(ValidationError, match=rf"row 96: duplicate worker_id,month_index cell {cell}, first at row {i}"):
            fit(repeated)

    @pytest.mark.parametrize("fit", [did_fit, dual_shock_fit, het_fit])
    def test_no_rows_rejected(self, fit):
        panel = self.panel()
        with pytest.raises(ValidationError, match="at least one row"):
            fit(panel.subset(np.zeros(panel.n_rows, dtype=bool)))

    def test_unknown_design_rejected(self):
        with pytest.raises(ValidationError, match="unknown design"):
            fit_designs(self.panel(), designs=("triple",))
        with pytest.raises(ValidationError, match=r"unknown design\(s\) \['mine'\]"):  # names only, no builders
            fit_designs(self.panel(), designs={"mine": DESIGNS["did"]})

    @pytest.mark.parametrize(
        "outcomes, controls, column",
        [({"fjobnum": "log1p"}, ("market_id",), "market_id"), ({"market_id": "identity"}, (), "market_id")],
    )
    def test_non_numeric_fit_column_rejected_naming_it(self, outcomes, controls, column):
        # without the rule, numpy's float conversion raises a bare ValueError, not an OlmsimError
        panel = self.panel()
        with pytest.raises(ValidationError, match=f"^fit column {column} must be numeric, got dtype object$"):
            fit_designs(panel, outcomes, designs=("did",), controls=controls)
        if controls:
            with pytest.raises(ValidationError, match=f"^fit column {column} must be numeric"):
                did_fit(panel, RegressionSpec(controls=controls))


def _match_of_four() -> MatchResult:
    """Two pairs of units 0-3: (2, 3) and (0, 1)."""
    return propensity_match([0.4, 0.4, 0.6, 0.6], [1, 0, 1, 0], 0.1)


#: an input rule of the fits, the propensity model, matching or the panel, a
#: call that breaks it, and the whole message
INPUT_RULES = {
    "no outcomes": (lambda: fit_designs(toy_panel(np.ones((4, 6)), {0, 1}, 3), {}),
                    "fit_designs needs at least one outcome"),
    "no designs": (lambda: fit_designs(toy_panel(np.ones((4, 6)), {0, 1}, 3), designs=()),
                   "fit_designs needs at least one design"),
    "no baseline month": (lambda: event_study_fit(toy_panel(np.ones((4, 6)), {0, 1}, 0)),
                          "baseline period -1 not present in panel"),
    "absorption codes": (lambda: absorb_two_way(np.ones((4, 1)), np.arange(3), np.arange(4)),
                         "fixed-effect codes have shape (3,), expected (4,)"),
    "ols names": (lambda: ols_fit(np.ones((3, 2)), np.ones(3), names=["x"]), "got 1 names for 2 columns"),
    "logit names": (lambda: logit_fit(np.eye(4)[:, :2], [0, 1, 0, 1], names=("x",)), "got 1 names for 2 covariates"),
    "match lengths": (lambda: propensity_match([0.2, 0.4], [1, 0, 0], 0.1),
                      "scores and treatment labels must have equal length"),
    "match labels": (lambda: propensity_match([.3, .2, .3, .4, .35, .35], [1, 0, 2, 0, 1, 0], 0.1),
                     "row 2: treatment label must be 0/1, got 2.0"),
    "no matched pair": (lambda: balance_table(np.ones((2, 1)), [1, 0], MatchResult([], []), names=("x",)),
                        "balance table needs at least one matched pair"),
    "balance names": (lambda: balance_table(np.eye(4)[:, :2], [1, 0, 1, 0], _match_of_four(), names=("x",)),
                      "got 1 names for 2 covariates"),
    "balance lengths": (lambda: balance_table(np.ones((4, 1)), [1, 0, 1, 0, 0], _match_of_four(), names=("x",)),
                        "got 5 treatment labels for 4 covariate rows"),
    "balance labels": (lambda: balance_table(np.ones((4, 1)), [1, 0, 2, 0], _match_of_four(), names=("x",)),
                       "row 2: treatment label must be 0/1, got 2.0"),
    "unknown panel column": (lambda: toy_panel(np.ones((4, 6)), {0, 1}, 3).column("bogus"),
                             "unknown panel column 'bogus'"),
}


@pytest.mark.parametrize("case", INPUT_RULES)
def test_input_rule_names_the_offender(case):
    call, message = INPUT_RULES[case]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


class TestBlockPath:
    """Rows that run worker by worker over the same months are summed as axes
    of a (workers, months) view, with the bits of the general ``bincount``
    path; any other rows take that path."""

    @staticmethod
    def panel() -> PanelArrays:
        return generate_panel_arrays(substitution_config(workers=60, seed=4))

    @staticmethod
    def blocks(panel: PanelArrays):
        return regression._blocks(panel.worker_id, panel.month_index)

    @staticmethod
    def stack(panel: PanelArrays) -> np.ndarray:
        y = np.log1p(panel.fjobnum.astype(np.float64))
        # -0.0 on whole workers and whole months: each group sum must start from +0.0, as bincount's do
        signed_zeros = np.where((panel.worker_id % 2 == 0) | (panel.month_index % 2 == 0), -0.0, 0.0)
        return np.column_stack([np.where(y == 0, -0.0, y), panel.treat * panel.post35, panel.tenure, signed_zeros])

    @pytest.mark.parametrize("months", [None, 2])
    def test_absorb_gives_the_general_path_bytes(self, months):
        panel = self.panel()
        if months is not None:
            panel = panel.subset(panel.month_index < panel.month_index.min() + months)
        workers, n_months = len(np.unique(panel.worker_id)), len(np.unique(panel.month_index))
        assert self.blocks(panel) == (workers, n_months)
        # decreasing worker ids take the general path over the same rows
        decreasing = panel.worker_id.max() - panel.worker_id
        assert regression._blocks(decreasing, panel.month_index) is None
        x = self.stack(panel)
        blocked = absorb_two_way(x, panel.worker_id, panel.month_index)
        general = absorb_two_way(x, decreasing, panel.month_index)
        assert blocked.values.tobytes() == general.values.tobytes()
        assert blocked.column_iterations.tolist() == general.column_iterations.tolist()
        assert blocked.column_iterations[3] == 1  # the all-zero column stops at the first pass
        assert np.signbit(blocked.values[:, 3]).any()

    def test_fits_give_the_general_path_bytes(self, monkeypatch):
        panel = self.panel()
        assert self.blocks(panel) is not None
        outcomes = {"fjobnum": "log1p", "fjobratio": "identity"}
        blocked = fit_designs(panel, outcomes, designs=tuple(DESIGNS))
        monkeypatch.setattr(regression, "_blocks", lambda unit_codes, time_codes: None)
        general = fit_designs(panel, outcomes, designs=tuple(DESIGNS))
        assert blocked.keys() == general.keys()
        for key in blocked:
            assert_same_fit(blocked[key], general[key])

    def test_one_month_or_one_worker_takes_the_general_path(self):
        # numpy may sum a (g, 1) view pairwise, not in row order
        panel = self.panel()
        assert self.blocks(panel.subset(panel.month_index == panel.month_index[0])) is None
        assert self.blocks(panel.subset(panel.worker_id == panel.worker_id[0])) is None

    def test_shuffled_panel_takes_the_general_path_with_the_same_fits(self):
        panel = self.panel()
        shuffled = panel.subset(np.random.default_rng(5).permutation(panel.n_rows))
        assert self.blocks(shuffled) is None
        for fit in (did_fit, event_study_fit):
            ordered, reordered = fit(panel), fit(shuffled)
            assert ordered.terms == reordered.terms
            for term in ordered.terms:
                assert reordered.coefficients[term] == pytest.approx(ordered.coefficients[term], rel=1e-12, abs=0)
                assert reordered.se[term] == pytest.approx(ordered.se[term], rel=1e-12, abs=0)

    def test_dropped_cell_takes_the_general_path(self):
        panel = self.panel()
        dropped = panel.subset(np.arange(panel.n_rows) != 7)
        assert self.blocks(dropped) is None
        assert did_fit(dropped).n_obs == panel.n_rows - 1

    def test_duplicated_cell_takes_the_general_path_and_is_rejected(self):
        # as many rows as the ordered panel, but row 8 repeats row 7's cell
        panel = self.panel()
        panel.month_index[8] = panel.month_index[7]
        assert self.blocks(panel) is None
        with pytest.raises(ValidationError) as exc:
            did_fit(panel)
        assert str(exc.value) == (f"row 8: duplicate worker_id,month_index cell "
                                  f"({panel.worker_id[8]}, {panel.month_index[8]}), first at row 7")


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

    def test_market_labels_move_the_path_not_the_bits(self, monkeypatch):
        # markets are coded in sorted id order, as np.unique codes them: the m0, m1, m2 rows sum
        # (g, T) blocks, and the same rows labelled m1, m2, m0 fall back to bincounts, with the
        # same bits
        counts = np.random.default_rng(11).poisson(6.0, size=(3, 10))
        series = self.demand(counts, {0, 1}, shock_week=5)
        relabelled = dataclasses.replace(series, market_id=np.repeat(["m1", "m2", "m0"], 10).astype(object))
        results = spy_blocks(monkeypatch)
        fits = [demand_did_fit(s) for s in (series, relabelled)]
        assert results == [(3, 10), None]
        assert_same_fit(*fits)

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


@pytest.mark.skipif(regression._lapack() is None, reason="scipy bundles no OpenBLAS")
class TestLapack:
    """The fits call LAPACK in scipy's bundled OpenBLAS themselves, with the
    bits of ``scipy.linalg.qr`` and ``solve_triangular``, which they call
    where scipy bundles none."""

    SHAPES = [(50, 1), (500, 3), (2000, 16), (20, 20), (5, 8)]

    @staticmethod
    def scipy_path(monkeypatch):
        monkeypatch.setattr(regression, "_lapack", lambda: None)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_qr_and_solve_equal_scipys(self, shape):
        import scipy.linalg

        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        x, y = np.asfortranarray(rng.standard_normal(shape)), rng.standard_normal(shape[0])
        q, r, piv = regression._economic_qr(x.copy(order="F"))
        q0, r0, piv0 = scipy.linalg.qr(x.copy(order="F"), mode="economic", pivoting=True, overwrite_a=True,
                                       check_finite=False)
        for got, want in ((q, q0), (r, r0), (piv, piv0)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags.c_contiguous == want.flags.c_contiguous
            assert got.flags.f_contiguous == want.flags.f_contiguous
            assert got.tobytes() == want.tobytes()
        if shape[0] >= shape[1]:  # R is square
            assert regression._solve_triangular(r, q.T @ y).tobytes() == scipy.linalg.solve_triangular(
                r0, q0.T @ y).tobytes()
            beta = regression._solve(*regression._pivoted_qr(x.copy(order="F"), None), y)
            beta0 = np.empty(shape[1])
            beta0[piv0] = scipy.linalg.solve_triangular(r0, q0.T @ y)
            assert beta.tobytes() == beta0.tobytes()

    def test_non_finite_right_hand_side_raises_as_scipy(self):
        r = np.triu(np.ones((2, 2)))
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            regression._solve_triangular(r, np.array([1.0, np.nan]))

    def test_collinear_design_names_the_same_column(self, monkeypatch):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(30)
        x, y = np.column_stack([rng.standard_normal(30), a, 2.0 * a]), rng.standard_normal(30)
        names = ["noise", "alpha", "alpha_doubled"]
        with pytest.raises(RankDeficiencyError) as direct:
            ols_fit(x, y, names=names)
        self.scipy_path(monkeypatch)
        with pytest.raises(RankDeficiencyError) as via_scipy:
            ols_fit(x, y, names=names)
        assert direct.value.column == via_scipy.value.column in names[1:]

    @pytest.mark.parametrize("rows", ["balanced", "reversed", "unbalanced"])
    def test_fits_equal_the_scipy_path(self, rows, monkeypatch):
        panel = generate_panel_arrays(substitution_config(workers=60, seed=4))
        keep = {"balanced": np.arange(panel.n_rows), "reversed": np.arange(panel.n_rows)[::-1],
                "unbalanced": np.random.default_rng(2).uniform(size=panel.n_rows) < 0.9}[rows]
        panel = panel.subset(keep)
        outcomes = {"fjobnum": "log1p", "fjobratio": "identity"}
        direct = fit_designs(panel, outcomes, designs=tuple(DESIGNS))
        self.scipy_path(monkeypatch)
        via_scipy = fit_designs(panel, outcomes, designs=tuple(DESIGNS))
        assert direct.keys() == via_scipy.keys()
        for key in direct:
            assert_same_fit(direct[key], via_scipy[key])


blas_controls = regression._openblas_thread_controls()

#: a fresh process that has not loaded scipy runs one fit; it prints whether
#: scipy was loaded before, the cached controls' symbols, and each OpenBLAS
#: count read inside the fit, right after its QR, by an uncached probe. The
#: fit loads scipy's bundled OpenBLAS itself, with no ``scipy.linalg``
FIRST_FIT = """
import json, sys
from olmsim import regression
from olmsim.scenarios import substitution_config
from olmsim.synth import generate_panel_arrays

panel = generate_panel_arrays(substitution_config(workers=50, seed=3))
before = "scipy" in sys.modules
factor, inside = regression._pivoted_qr, []

def spy(*args):
    result = factor(*args)
    inside.extend(get() for get, _ in regression._openblas_thread_controls.__wrapped__())
    return result

regression._pivoted_qr = spy
regression.did_fit(panel)
controls = [get.__name__ for get, _ in regression._openblas_thread_controls()]
print(json.dumps({"scipy_before": before, "controls": controls, "inside": inside}))
"""


@pytest.mark.skipif(len(blas_controls) != 2, reason="numpy's and scipy's bundled OpenBLAS are not both loaded")
def test_first_fit_pins_scipys_openblas():
    # the controls are cached once per process, so the first fit of a process that
    # has not loaded scipy must load scipy's OpenBLAS, which the QR runs in, before
    # caching them; the loader finds it without importing any scipy module
    result = json.loads(fresh_python("-c", FIRST_FIT, env={"OPENBLAS_NUM_THREADS": "2"}).stdout)
    assert result == {"scipy_before": False, "controls": [get.__name__ for get, _ in blas_controls], "inside": [1, 1]}


def test_event_fit_peak_allocation_about_two_copies_of_its_stack():
    # the fit's stack, one outcome and the event design, is at most 18 float64 columns. It
    # peaks at about 2 times that: the stack and absorption's copy of it, then the absorbed
    # values and their row-major copy, while the design is factored in place in a view of
    # the absorbed values. One more whole-stack copy, say of the design, takes it to about 3
    panel = generate_panel_arrays(substitution_config(workers=1000, seed=3))
    event_study_fit(panel)  # scipy loaded and the BLAS controls cached outside the trace
    tracemalloc.start()
    try:
        event_study_fit(panel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * panel.n_rows * 18 * 8


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
        outcomes = {"fjobnum": "log1p", "fjobearn": "log1p"}
        limited = fit_designs(panel, outcomes)
        seen = self.spy_counts(monkeypatch)
        monkeypatch.setattr(regression, "_fit_columns", regression._fit_columns.__wrapped__)
        unlimited = fit_designs(panel, outcomes)
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
