"""Propensity-score matching: logistic propensity model, greedy 1:1
nearest-neighbor matching with caliper and common support, and balance
diagnostics.

Matching is deliberately sequential and deterministic: treated units are
processed in descending propensity order (the lower id first on ties),
each taking the nearest control still available, without replacement. A
distance tie resolves toward the lower-score control, and controls with
equal scores are taken in (score, id) order outward from the treated
score. The free controls are kept sorted by (score, id); each treated unit
bisects them, and a matched control leaves them. Tightening the caliper
can only remove pairs.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import EmptySideError, RankDeficiencyError, SeparationError, ValidationError
from .panel import PanelArrays, _binary, _finite, _row_label

IRLS_TOL = 1e-8
IRLS_MAX_ITER = 100
SEPARATION_COEF_BOUND = 30.0

OFF_SUPPORT = "off-support"
NO_NEIGHBOR = "no-neighbor-within-caliper"


@dataclass
class PropensityModel:
    """Fitted logistic propensity model (intercept first)."""

    names: tuple[str, ...]
    coefficients: np.ndarray
    se: np.ndarray
    n_iter: int

    def predict_proba(self, covariates: np.ndarray) -> np.ndarray:
        from scipy.special import expit

        x = _with_intercept(np.asarray(covariates, dtype=np.float64))
        return expit(x @ self.coefficients)


def _with_intercept(x: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones(len(x)), x])


def logit_fit(covariates: np.ndarray, treat: np.ndarray, names: tuple[str, ...] | None = None) -> PropensityModel:
    """Fit the propensity model by Newton-Raphson (IRLS).

    ``covariates`` holds one row per label; a 1-D array is one covariate.
    Converges when the largest coefficient update falls below 1e-8. Labels
    without both classes, no rows included, raise :class:`ValidationError`
    naming the counts; a nan or infinite covariate raises it naming its
    row and covariate, and a covariate collinear with the intercept and the
    covariates before it, such as a constant one, raises
    :class:`RankDeficiencyError` naming it. Divergence (any |coefficient|
    above 30, a singular Hessian, or hitting the iteration cap) is
    reported as separation.
    """
    from scipy.special import expit

    x = np.asarray(covariates, dtype=np.float64)
    y = np.asarray(treat, dtype=np.float64)
    if len(x) != len(y):
        raise ValidationError(f"got {len(y)} treatment labels for {len(x)} covariate rows")
    _binary("treatment label", y, _row_label)
    if not 0 < (treated := int(y.sum())) < len(y):
        raise ValidationError(f"need at least one observation in each class, got {treated} treated of {len(y)}")
    xi = _with_intercept(x)
    k = xi.shape[1]
    if names is None:
        names = ("intercept",) + tuple(f"x{j}" for j in range(k - 1))
    else:
        names = ("intercept",) + tuple(names)
        if len(names) != k:
            raise ValidationError(f"got {len(names) - 1} names for {k - 1} covariates")
    _finite(xi, names, _row_label)
    if np.linalg.matrix_rank(xi) < k:
        # the first covariate in the span of the columns before it; the intercept alone has rank 1
        j = next((j for j in range(1, k) if np.linalg.matrix_rank(xi[:, :j + 1]) <= j), k - 1)
        raise RankDeficiencyError(
            f"propensity design is rank deficient: {names[j]} is collinear with the intercept "
            "and the covariates before it", column=names[j],
        )

    def nll(b: np.ndarray) -> float:
        eta = xi @ b
        return float(np.sum(np.log1p(np.exp(-np.abs(eta))) + np.maximum(eta, 0.0) - y * eta))

    beta = np.zeros(k)
    current = nll(beta)
    for it in range(1, IRLS_MAX_ITER + 1):
        eta = np.clip(xi @ beta, -35.0, 35.0)
        p = expit(eta)
        w = p * (1.0 - p)
        hessian = xi.T @ (xi * w[:, None])
        score = xi.T @ (y - p)
        try:
            step = np.linalg.solve(hessian, score)
        except np.linalg.LinAlgError as exc:
            raise SeparationError(f"singular Hessian at iteration {it} (separated data)") from exc
        # halve overshooting Newton steps so far-apart groups don't diverge
        candidate = beta + step
        trial = nll(candidate)
        halvings = 0
        while trial > current + 1e-12 and halvings < 40:
            step = 0.5 * step
            candidate = beta + step
            trial = nll(candidate)
            halvings += 1
        beta, current = candidate, trial
        if np.max(np.abs(beta)) > SEPARATION_COEF_BOUND:
            raise SeparationError(
                f"propensity coefficients diverging (|coef| > {SEPARATION_COEF_BOUND}): separation"
            )
        if np.max(np.abs(step)) < IRLS_TOL:
            break
    else:
        raise SeparationError(f"IRLS did not converge in {IRLS_MAX_ITER} iterations")
    eta = xi @ beta
    p = expit(eta)
    w = p * (1.0 - p)
    cov = np.linalg.inv(xi.T @ (xi * w[:, None]))
    return PropensityModel(
        names=names,
        coefficients=beta,
        se=np.sqrt(np.diag(cov)),
        n_iter=it,
    )


@dataclass(frozen=True)
class MatchedPair:
    treated_id: int
    control_id: int
    distance: float


@dataclass(frozen=True)
class DroppedUnit:
    unit_id: int
    reason: str


@dataclass
class MatchResult:
    """Outcome of one matching run.

    Treated drops carry ``off-support`` or ``no-neighbor-within-caliper``.
    """

    pairs: list[MatchedPair]
    dropped_treated: list[DroppedUnit]

    @property
    def treated_ids(self) -> np.ndarray:
        return np.array([p.treated_id for p in self.pairs], dtype=np.int64)

    @property
    def control_ids(self) -> np.ndarray:
        return np.array([p.control_id for p in self.pairs], dtype=np.int64)


def check_caliper(caliper: float) -> None:
    if not caliper > 0:
        raise ValidationError(f"caliper must be positive, got {caliper}")
    if not math.isfinite(caliper):
        raise ValidationError(f"caliper must be finite, got {caliper}")


def propensity_match(scores: np.ndarray, treat: np.ndarray, caliper: float) -> MatchResult:
    """Greedy 1:1 nearest-neighbor matching without replacement.

    Treated units outside the control score range are dropped first
    (common support); the rest are processed in descending score order,
    each claiming the nearest remaining control if it lies within the
    caliper, by the tie rules of the module docstring. Once every control
    is taken, the remaining treated units are dropped: no free control lies
    within a caliper, which must be finite.
    Unit ids are positions in the input arrays.
    """
    check_caliper(caliper)
    scores = np.asarray(scores, dtype=np.float64)
    treat = np.asarray(treat)
    if scores.shape != treat.shape:
        raise ValidationError("scores and treatment labels must have equal length")
    _finite(scores, ("propensity score",), _row_label)
    treated_ids = np.nonzero(treat == 1)[0]
    control_ids = np.nonzero(treat == 0)[0]
    if treated_ids.size == 0 or control_ids.size == 0:
        raise EmptySideError("matching needs both treated and control units")

    lo, hi = scores[control_ids].min(), scores[control_ids].max()
    on_support = (scores[treated_ids] >= lo) & (scores[treated_ids] <= hi)
    dropped_treated = [DroppedUnit(int(i), OFF_SUPPORT) for i in treated_ids[~on_support]]
    active = treated_ids[on_support]
    if active.size == 0:
        raise EmptySideError("no treated units on common support")

    # free controls sorted by (score, id); a matched control leaves both lists
    order = np.lexsort((control_ids, scores[control_ids]))
    free_ids = control_ids[order].tolist()
    free_scores = scores[free_ids].tolist()
    # descending score; ties resolve to the lower unit id for determinism
    active = active[np.lexsort((active, -scores[active]))]
    pairs: list[MatchedPair] = []
    for tid, s in zip(active.tolist(), scores[active].tolist()):
        pos = bisect_left(free_scores, s)
        d_left = s - free_scores[pos - 1] if pos > 0 else math.inf
        d_right = free_scores[pos] - s if pos < len(free_scores) else math.inf
        if d_left <= d_right:
            pos, dist = pos - 1, d_left
        else:
            dist = d_right
        if dist <= caliper:
            free_scores.pop(pos)
            pairs.append(MatchedPair(tid, free_ids.pop(pos), dist))
        else:
            dropped_treated.append(DroppedUnit(tid, NO_NEIGHBOR))
    return MatchResult(pairs=pairs, dropped_treated=dropped_treated)


@dataclass(frozen=True)
class BalanceSide:
    mean_treated: float
    mean_control: float
    p_value: float
    std_diff: float
    degenerate: bool = False


@dataclass(frozen=True)
class BalanceRow:
    covariate: str
    pre: BalanceSide
    post: BalanceSide


@dataclass
class BalanceTable:
    rows: list[BalanceRow]


def _sample_var(x: np.ndarray, mean: float) -> float:
    """Variance with ``ddof=1`` as ``scipy.stats`` computes it (mean squared
    deviation times ``n/(n-1)``); 0 for a single value."""
    n = len(x)
    return float(np.mean((x - mean) ** 2) * (n / (n - 1))) if n > 1 else 0.0


def _balance_side(x_t: np.ndarray, x_c: np.ndarray) -> BalanceSide:
    from scipy.special import stdtr

    n_t, n_c = len(x_t), len(x_c)
    m_t, m_c = float(x_t.mean()), float(x_c.mean())
    v_t, v_c = _sample_var(x_t, m_t), _sample_var(x_c, m_c)
    pooled = 0.5 * (v_t + v_c)
    if pooled == 0.0:
        return BalanceSide(m_t, m_c, p_value=1.0 if m_t == m_c else 0.0, std_diff=float("nan"), degenerate=True)
    d = (m_t - m_c) / np.sqrt(pooled)
    # Welch's t-test in the arithmetic of scipy.stats.ttest_ind(equal_var=False),
    # whose variance of a single value, and so its p-value, is nan
    p_value = math.nan
    if min(n_t, n_c) > 1:
        vn_t, vn_c = v_t / n_t, v_c / n_c
        df = (vn_t + vn_c) ** 2 / (vn_t**2 / (n_t - 1) + vn_c**2 / (n_c - 1))
        t = (m_t - m_c) / math.sqrt(vn_t + vn_c)
        p_value = float(2.0 * stdtr(df, -abs(t)))
    return BalanceSide(m_t, m_c, p_value=p_value, std_diff=float(d))


def balance_table(
    covariates: np.ndarray,
    treat: np.ndarray,
    result: MatchResult,
    names: tuple[str, ...],
) -> BalanceTable:
    """Pre- and post-matching covariate balance.

    Standardized difference uses the unpooled two-group convention
    ``(mean_T - mean_C) / sqrt((var_T + var_C) / 2)``; p-values are Welch
    two-sample t-tests. A zero-variance covariate is flagged degenerate.
    """
    x = np.asarray(covariates, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    treat = np.asarray(treat)
    if not result.pairs:
        raise ValidationError("balance table needs at least one matched pair")
    t_all = x[treat == 1]
    c_all = x[treat == 0]
    t_post = x[result.treated_ids]
    c_post = x[result.control_ids]
    rows = []
    for j, name in enumerate(names):
        rows.append(
            BalanceRow(
                covariate=name,
                pre=_balance_side(t_all[:, j], c_all[:, j]),
                post=_balance_side(t_post[:, j], c_post[:, j]),
            )
        )
    return BalanceTable(rows)


# ---------------------------------------------------------------------------
# covariate construction


def derive_worker_covariates(panel: PanelArrays) -> tuple[np.ndarray, np.ndarray, tuple[str, ...], np.ndarray]:
    """Worker-level pre-shock covariates from a panel.

    Returns ``(worker_ids, covariates, names, treat)`` where the columns
    are log1p accumulated jobs, log1p tenure at the last pre-shock month,
    log1p average earnings per job, and the mean focal-job share. Every
    worker needs a pre-shock row, and a row in the last pre-shock month of
    the panel; a worker without one is named.
    """
    pre = panel.post35 == 0
    if not pre.any():
        raise ValidationError("panel has no pre-shock months")
    ids, codes = np.unique(panel.worker_id, return_inverse=True)
    w = len(ids)
    pre_codes = codes[pre]
    jobs = np.bincount(pre_codes, weights=panel.fjobnum[pre], minlength=w)
    earn = np.bincount(pre_codes, weights=panel.fjobearn[pre], minlength=w)
    ratio_sum = np.bincount(pre_codes, weights=panel.fjobratio[pre], minlength=w)
    months = np.bincount(pre_codes, minlength=w)
    if (absent := np.flatnonzero(months == 0)).size:
        pre_months = np.unique(panel.month_index[pre]).tolist()
        raise ValidationError(f"worker {ids[absent[0]]} has no row in the pre-shock months {pre_months}")
    last_pre = int(panel.month_index[pre].max())
    at_last = pre & (panel.month_index == last_pre)
    if (missing := np.setdiff1d(np.arange(w), codes[at_last])).size:
        raise ValidationError(f"worker {ids[missing[0]]} has no row in the last pre-shock month {last_pre}")
    tenure_last = np.zeros(w)
    tenure_last[codes[at_last]] = panel.tenure[at_last]
    avg_earn = np.divide(earn, jobs, out=np.zeros(w), where=jobs > 0)
    covariates = np.column_stack(
        [np.log1p(jobs), np.log1p(tenure_last), np.log1p(avg_earn), ratio_sum / months]
    )
    names = ("log_acc_jobs", "log_tenure", "log_avg_earn", "mean_fjobratio")
    treat = np.zeros(w, dtype=np.int64)
    treat[codes[panel.treat == 1]] = 1
    return ids, covariates, names, treat

