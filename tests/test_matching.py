import dataclasses
import math
import warnings

import numpy as np
import pytest
from conftest import simulate_confounded_workers
from scipy import stats
from scipy.optimize import minimize
from scipy.special import expit

from olmsim.errors import EmptySideError, RankDeficiencyError, SeparationError, ValidationError
from olmsim.matching import (
    IRLS_MAX_ITER,
    NO_NEIGHBOR,
    DroppedUnit,
    _balance_side,
    OFF_SUPPORT,
    balance_table,
    derive_worker_covariates,
    logit_fit,
    propensity_match,
)
from olmsim.scenarios import substitution_config
from olmsim.synth import generate_panel_arrays


def reference_match(scores: list[float], treat: list[int], caliper: float):
    """Greedy matching by brute force, as ``propensity_match`` documents it.

    Treated units off the control score range are dropped first. The rest,
    in descending score with the lower id first on ties, each scan every
    free control: the nearest one below the treated score and the nearest
    at or above it, equal scores taken in (score, id) order outward from
    the treated score. A distance tie goes to the lower-score side.
    Returns ``(pairs, drops)`` as tuples.
    """
    n = len(scores)
    controls = [i for i in range(n) if treat[i] == 0]
    lo, hi = min(scores[c] for c in controls), max(scores[c] for c in controls)
    drops = [(i, OFF_SUPPORT) for i in range(n) if treat[i] == 1 and not lo <= scores[i] <= hi]
    active = [i for i in range(n) if treat[i] == 1 and lo <= scores[i] <= hi]
    free = set(controls)
    pairs = []
    for t in sorted(active, key=lambda i: (-scores[i], i)):
        s = scores[t]
        left = max(((scores[c], c) for c in free if scores[c] < s), default=None)
        right = min(((scores[c], c) for c in free if scores[c] >= s), default=None)
        d_left = s - left[0] if left else math.inf
        d_right = right[0] - s if right else math.inf
        chosen, dist = (left, d_left) if d_left <= d_right else (right, d_right)
        if chosen is not None and dist <= caliper:
            free.remove(chosen[1])
            pairs.append((t, chosen[1], dist))
        else:
            drops.append((t, NO_NEIGHBOR))
    return pairs, drops


class TestLogit:
    def test_intercept_only_recovers_share(self):
        y = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        model = logit_fit(np.empty((10, 0)), y)
        probs = model.predict_proba(np.empty((10, 0)))
        np.testing.assert_allclose(probs, 0.3, atol=1e-8)

    def test_matches_direct_likelihood_maximization(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((300, 2))
        y = (rng.uniform(size=300) < expit(0.4 + 0.8 * x[:, 0] - 0.5 * x[:, 1])).astype(int)
        model = logit_fit(x, y)

        xi = np.column_stack([np.ones(300), x])

        def nll(beta):
            eta = xi @ beta
            return float(np.sum(np.log1p(np.exp(-np.abs(eta))) + np.maximum(eta, 0) - y * eta))

        oracle = minimize(nll, np.zeros(3), method="BFGS", options={"gtol": 1e-10}).x
        np.testing.assert_allclose(model.coefficients, oracle, atol=1e-5)

    def test_score_equations_satisfied(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((400, 3))
        y = (rng.uniform(size=400) < expit(0.2 + x @ np.array([0.5, -0.3, 0.1]))).astype(int)
        model = logit_fit(x, y)
        xi = np.column_stack([np.ones(400), x])
        resid = y - expit(xi @ model.coefficients)
        assert np.max(np.abs(xi.T @ resid)) < 1e-6

    def test_independent_covariate_slope_near_zero(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(500)
        y = rng.permutation(np.repeat([0, 1], 250))
        model = logit_fit(x, y, names=("noise",))
        j = model.names.index("noise")
        assert abs(model.coefficients[j]) < 2 * model.se[j] + 1e-9

    def test_perfect_separation_detected(self):
        x = np.linspace(-2, 2, 40)
        y = (x > 0).astype(int)
        with pytest.raises(SeparationError):
            logit_fit(x, y)

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            logit_fit(np.ones((5, 1)), np.ones(5))

    @pytest.mark.parametrize(
        ("treat", "counts"),
        [(np.empty(0), "0 treated of 0"), (np.zeros(4), "0 treated of 4"), (np.ones(3), "3 treated of 3")],
        ids=["no rows", "no treated", "no controls"],
    )
    def test_labels_without_both_classes_name_the_counts(self, treat, counts):
        # zero rows used to raise numpy's own ValueError from ``y.min()``
        with pytest.raises(ValidationError, match=f"^need at least one observation in each class, got {counts}$"):
            logit_fit(np.zeros((len(treat), 1)), treat)

    @pytest.mark.parametrize("covariates", [np.zeros((10, 1)), np.empty((3, 0))])
    def test_row_count_mismatch_rejected(self, covariates):
        # 12 labels against 10 covariate rows, and 12 against 3 rows of no covariates
        y = np.array([0, 1] * 6)
        with pytest.raises(ValidationError, match=f"got 12 treatment labels for {len(covariates)} covariate rows"):
            logit_fit(covariates, y)

    def test_probabilities_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((200, 2))
        y = (rng.uniform(size=200) < expit(x[:, 0])).astype(int)
        probs = logit_fit(x, y).predict_proba(x)
        assert probs.min() > 0.0 and probs.max() < 1.0

    def test_badly_scaled_sample_halves_a_step_and_converges(self):
        x, y = BADLY_SCALED
        xi = np.column_stack([np.ones(len(x)), x])
        # a full Newton step raises the NLL, so the fit halves it
        assert _full_newton_step_rises(xi, y)
        model = logit_fit(x, y)
        assert model.n_iter == 14
        oracle = minimize(lambda b: _nll(xi, y, b), np.zeros(3), method="Nelder-Mead",
                          options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 100_000, "maxfev": 100_000})
        assert oracle.success
        np.testing.assert_allclose(model.coefficients, oracle.x, rtol=0, atol=1e-6)
        assert _nll(xi, y, model.coefficients) <= oracle.fun + 1e-12

    def test_quasi_separated_sample_halves_a_step_and_does_not_converge(self):
        x, y = QUASI_SEPARATED
        # the line x0 = 20 x1 has every treated unit on or above it, one of them on it, and every control below
        side = x @ np.array([1.0, -20.0])
        assert ((side >= 0) == (y == 1)).all() and np.count_nonzero(side == 0) == 1
        assert _full_newton_step_rises(np.column_stack([np.ones(len(x)), x]), y)
        with pytest.raises(SeparationError, match=f"^IRLS did not converge in {IRLS_MAX_ITER} iterations$"):
            logit_fit(x, y)

    @pytest.mark.parametrize("column, collinear", [
        *(pytest.param("flat", lambda a, c=c: np.full_like(a, c), id=f"constant-{c}")
          for c in (0.0, 1.0, 0.3, 5.0, -2.7)),
        pytest.param("copy", lambda a: a.copy(), id="copy"),
        pytest.param("affine", lambda a: 2.0 * a + 1.0, id="affine"),
    ])
    def test_collinear_covariate_is_rank_deficiency_naming_it(self, column, collinear):
        # a constant covariate is collinear with the intercept; before, a separation error
        # whose kind depended on the constant
        rng = np.random.default_rng(0)
        a = rng.standard_normal(40)
        y = (rng.uniform(size=40) < 0.5).astype(int)
        x = np.column_stack([a, collinear(a), rng.standard_normal(40)])
        with pytest.raises(RankDeficiencyError, match=f"^propensity design is rank deficient: {column} is collinear"):
            logit_fit(x, y, names=("a", column, "noise"))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_covariate_named_by_row_and_name(self, value):
        # a nan used to run every IRLS iteration and end as separation
        rng = np.random.default_rng(6)
        x = rng.standard_normal((30, 2))
        y = np.arange(30) % 2
        x[7, 1] = value
        with pytest.raises(ValidationError, match=f"^row 7: b must be finite, got {value}$"):
            logit_fit(x, y, names=("a", "b"))


def _nll(xi: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
    """Logistic negative log-likelihood, written apart from ``logit_fit``'s."""
    eta = xi @ beta
    return float(np.sum(np.logaddexp(0.0, eta) - y * eta))


def _full_newton_step_rises(xi: np.ndarray, y: np.ndarray) -> bool:
    """Whether undamped Newton from zero, in ``logit_fit``'s arithmetic, raises
    the NLL by more than its 1e-12 slack at one of its first IRLS_MAX_ITER steps.

    Up to the first such step undamped and damped Newton take the same steps,
    so a rise is a halving in ``logit_fit``.
    """
    beta = np.zeros(xi.shape[1])
    for _ in range(IRLS_MAX_ITER):
        p = expit(np.clip(xi @ beta, -35.0, 35.0))
        step = np.linalg.solve(xi.T @ (xi * (p * (1.0 - p))[:, None]), xi.T @ (y - p))
        if _nll(xi, y, beta + step) > _nll(xi, y, beta) + 1e-12:
            return True
        beta = beta + step
    return False


#: 8 units with covariates on scales of about 100 and 10, one far out
BADLY_SCALED = (
    np.array([[106.0, -3351.0], [-395.0, -10.0], [21.0, 7.0], [345.0, -11.0],
              [-329.0, -10.0], [-2.0, 13.0], [-64.0, 12.0], [-173.0, 12.0]]),
    np.array([1, 1, 1, 0, 1, 0, 0, 0]),
)

#: 8 units that a line through the origin separates but for one tie
QUASI_SEPARATED = (
    np.array([[-41.0, -322.0], [-20.0, 1.0], [-25.0, 10.0], [-20.0, -1.0],
              [-516.0, -10.0], [350.0, -21.0], [13.0, -6.0], [-52.0, 14.0]]),
    np.array([1, 0, 0, 1, 0, 1, 1, 0]),
)


class TestMatching:
    def test_identical_lists_pair_perfectly(self):
        scores = np.array([0.2, 0.5, 0.8, 0.2, 0.5, 0.8])
        treat = np.array([1, 1, 1, 0, 0, 0])
        res = propensity_match(scores, treat, caliper=0.01)
        assert len(res.pairs) == 3
        assert all(p.distance == 0.0 for p in res.pairs)
        assert not res.dropped_treated

    def test_caliper_arithmetic(self):
        scores = np.array([0.9, 0.9005, 0.1])
        treat = np.array([1, 0, 0])
        res = propensity_match(scores, treat, caliper=2e-4)
        assert not res.pairs
        assert res.dropped_treated == [d for d in res.dropped_treated]
        assert res.dropped_treated[0].unit_id == 0
        assert res.dropped_treated[0].reason == NO_NEIGHBOR

    def test_off_support_dropped_first(self):
        scores = np.array([0.95, 0.5, 0.4, 0.6])
        treat = np.array([1, 1, 0, 0])
        res = propensity_match(scores, treat, caliper=0.5)
        reasons = {d.unit_id: d.reason for d in res.dropped_treated}
        assert reasons[0] == OFF_SUPPORT
        assert len(res.pairs) == 1 and res.pairs[0].treated_id == 1

    def test_empty_sides_rejected(self):
        with pytest.raises(EmptySideError):
            propensity_match(np.array([0.5, 0.6]), np.array([1, 1]), caliper=0.1)
        with pytest.raises(EmptySideError):
            propensity_match(np.array([0.5, 0.6]), np.array([0, 0]), caliper=0.1)
        # all treated off support
        with pytest.raises(EmptySideError):
            propensity_match(np.array([0.9, 0.1, 0.2]), np.array([1, 0, 0]), caliper=0.1)

    def test_caliper_must_be_positive(self):
        with pytest.raises(ValidationError):
            propensity_match(np.array([0.5, 0.5]), np.array([1, 0]), caliper=0.0)

    @pytest.mark.parametrize(
        "caliper, message", [(math.nan, "caliper must be positive, got nan"), (math.inf, "caliper must be finite, got inf")]
    )
    def test_non_finite_caliper_rejected(self, caliper, message):
        # an infinite caliper too: one of 1 already spans the propensity scale, and the
        # manifest records the caliper in JSON, which has no infinity
        with pytest.raises(ValidationError, match=f"^{message}$"):
            propensity_match(np.array([0.5, 0.5]), np.array([1, 0]), caliper=caliper)

    @pytest.mark.parametrize("row", [1, 2])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_score_named_by_row(self, row, value):
        # a nan control score used to empty the support, and a nan treated score was dropped as off-support
        scores = np.array([0.4, 0.5, 0.45, 0.6])
        scores[row] = value
        with pytest.raises(ValidationError, match=f"^row {row}: propensity score must be finite, got {value}$"):
            propensity_match(scores, np.array([1, 0, 1, 0]), caliper=0.1)

    def test_without_replacement_fuzz(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(4, 40))
            scores = rng.uniform(size=n)
            treat = rng.integers(0, 2, size=n)
            if treat.min() == treat.max():
                continue
            caliper = float(rng.uniform(0.01, 0.5))
            try:
                res = propensity_match(scores, treat, caliper)
            except EmptySideError:  # every treated unit off support
                continue
            controls = [p.control_id for p in res.pairs]
            assert len(controls) == len(set(controls))
            assert all(p.distance <= caliper for p in res.pairs)
            assert all(treat[p.treated_id] == 1 and treat[p.control_id] == 0 for p in res.pairs)
            # determinism
            again = propensity_match(scores, treat, caliper)
            assert res.pairs == again.pairs

    def test_tighter_caliper_never_adds_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(8, 60))
            scores = rng.uniform(size=n)
            treat = rng.integers(0, 2, size=n)
            if treat.min() == treat.max():
                continue
            calipers = sorted(rng.uniform(0.001, 0.4, size=3))
            try:
                counts = [len(propensity_match(scores, treat, c).pairs) for c in calipers]
            except EmptySideError:
                continue
            assert counts == sorted(counts)

    def test_equals_brute_force_reference(self):
        rng = np.random.default_rng(23)
        checked = 0
        for case in range(300):
            n = int(rng.integers(2, 60))
            if case % 3 == 0:  # scores on a grid of eighths: equal scores and exactly equal distances
                scores = rng.integers(0, 9, size=n) / 8.0
                caliper = float(rng.choice([0.125, 0.25, rng.uniform(0.01, 0.5)]))
            else:
                scores = rng.uniform(size=n)
                caliper = float(rng.uniform(0.01, 0.5))
            treat = rng.integers(0, 2, size=n)
            if treat.min() == treat.max():
                continue
            try:
                res = propensity_match(scores, treat, caliper)
            except EmptySideError:  # every treated unit off support
                continue
            pairs, drops = reference_match(scores.tolist(), treat.tolist(), caliper)
            assert [(p.treated_id, p.control_id, p.distance) for p in res.pairs] == pairs
            assert [(d.unit_id, d.reason) for d in res.dropped_treated] == drops
            checked += 1
        assert checked > 250

    def test_widest_caliper_never_reuses_a_control(self):
        # a caliper of 1 spans the propensity scale; once the one control is taken, no
        # free control is left within it
        res = propensity_match(np.full(4, 0.5), np.array([1, 1, 1, 0]), caliper=1.0)
        assert [(p.treated_id, p.control_id, p.distance) for p in res.pairs] == [(0, 3, 0.0)]
        assert res.dropped_treated == [DroppedUnit(1, NO_NEIGHBOR), DroppedUnit(2, NO_NEIGHBOR)]

    def test_matching_respects_distance_to_available_controls(self):
        # highest-score treated goes first and takes the closest control
        scores = np.array([0.77, 0.70, 0.78, 0.69])
        treat = np.array([1, 1, 0, 0])
        res = propensity_match(scores, treat, caliper=1.0)
        by_treated = {p.treated_id: p.control_id for p in res.pairs}
        assert by_treated == {0: 2, 1: 3}


class TestBalance:
    def test_formula_check(self):
        x = np.array([0.0, 1.0, 2.0, -1.0, 0.0, 1.0])
        treat = np.array([1, 1, 1, 0, 0, 0])
        res = propensity_match(np.array([0.5, 0.6, 0.7, 0.5, 0.6, 0.7]), treat, caliper=0.01)
        table = balance_table(x, treat, res, names=("v",))
        row = table.rows[0]
        assert row.pre.mean_treated == pytest.approx(1.0)
        assert row.pre.mean_control == pytest.approx(0.0)
        assert row.pre.std_diff == pytest.approx(1.0)

    def test_identical_groups(self):
        x = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
        treat = np.array([1, 1, 1, 0, 0, 0])
        res = propensity_match(np.array([0.4, 0.5, 0.6, 0.4, 0.5, 0.6]), treat, caliper=0.01)
        row = balance_table(x, treat, res, names=("v",)).rows[0]
        assert row.pre.std_diff == pytest.approx(0.0, abs=1e-12)
        assert row.pre.p_value == pytest.approx(1.0, abs=1e-9)

    def test_zero_variance_flagged(self):
        x = np.ones(6)
        treat = np.array([1, 1, 1, 0, 0, 0])
        res = propensity_match(np.full(6, 0.5), treat, caliper=0.01)
        row = balance_table(x, treat, res, names=("v",)).rows[0]
        assert row.pre.degenerate and np.isnan(row.pre.std_diff)

    def test_welch_pvalue_equals_ttest_ind(self):
        rng = np.random.default_rng(17)
        for i in range(300):
            n_t = int(rng.integers(2, 300))
            n_c = n_t + int(rng.integers(1, 100))
            x_t = rng.normal(rng.normal(), rng.uniform(0.1, 3.0), n_t)
            x_c = rng.normal(rng.normal(), rng.uniform(0.1, 3.0), n_c)
            if i % 3 == 0:  # tied values, as in count covariates
                x_t, x_c = np.round(x_t, 1), np.round(x_c, 1)
            for a, b in ((x_t, x_c), (x_c, x_t)):
                assert _balance_side(a, b).p_value == stats.ttest_ind(a, b, equal_var=False).pvalue

    def test_single_value_side_gives_nan_like_ttest_ind(self):
        x_t, x_c = np.array([1.5]), np.array([1.0, 2.0, 4.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert np.isnan(stats.ttest_ind(x_t, x_c, equal_var=False).pvalue)
        assert np.isnan(_balance_side(x_t, x_c).p_value)

    def test_confounded_dgp_balance_restored(self):
        covariates, names, treat = simulate_confounded_workers(1500, seed=11)
        model = logit_fit(covariates, treat, names=names)
        scores = model.predict_proba(covariates)
        res = propensity_match(scores, treat, caliper=0.05)
        table = balance_table(covariates, treat, res, names=names)
        for row in table.rows:
            assert abs(row.pre.std_diff) > 0.3
            assert abs(row.post.std_diff) < 0.1


class TestDeriveCovariates:
    def test_shapes_and_names(self):
        arr = generate_panel_arrays(substitution_config(workers=40, seed=3))
        ids, covariates, names, treat = derive_worker_covariates(arr)
        assert covariates.shape == (80, 4)
        assert len(ids) == 80 and len(treat) == 80
        assert treat.sum() == 40
        assert names == ("log_acc_jobs", "log_tenure", "log_avg_earn", "mean_fjobratio")

    def test_requires_pre_months(self):
        arr = generate_panel_arrays(substitution_config(workers=5, seed=3))
        post_only = arr.subset(arr.post35 == 1)
        with pytest.raises(ValidationError):
            derive_worker_covariates(post_only)

    def test_requires_a_pre_month_naming_the_worker_and_the_months(self):
        # worker ids offset from their codes: the message names the id
        arr = generate_panel_arrays(substitution_config(workers=5, seed=3))
        arr = dataclasses.replace(arr, worker_id=arr.worker_id + 100)
        keep = (arr.worker_id != 102) | (arr.post35 == 1)
        with pytest.raises(ValidationError, match=r"^worker 102 has no row in the pre-shock months \[0, 1, 2, 3, 4, 5\]$"):
            derive_worker_covariates(arr.subset(keep))

    def test_requires_a_row_in_the_last_pre_month(self):
        # without the check, the worker's log tenure would read 0
        arr = generate_panel_arrays(substitution_config(workers=5, seed=3))
        last_pre = arr.month_index[arr.post35 == 0].max()
        worker = arr.worker_id[3 * arr.n_rows // 4]
        keep = (arr.worker_id != worker) | (arr.month_index != last_pre)
        with pytest.raises(ValidationError, match=rf"^worker {worker} has no row in the last pre-shock month {last_pre}$"):
            derive_worker_covariates(arr.subset(keep))
