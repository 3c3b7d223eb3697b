"""Shared generators and oracles for the test suite.

Everything here is deliberately independent of the package's closed-form
paths: equilibria come from damped best-response iteration, derivatives
from central finite differences, and regression baselines from explicit
dummy matrices, so the library code is checked against a second route.

It also holds the confounded-worker data-generating process
(:func:`simulate_confounded_workers`) that the matching tests use to check
that propensity matching restores covariate balance.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.special import expit

import olmsim
from olmsim import regression
from olmsim.cli import BUILTIN_DEMO, _resolve_config
from olmsim.market import (
    MarketPotentialSpec,
    MarketSpec,
    PotentialFamily,
    eval_potential,
    potential_slope,
)
from olmsim.pipeline import parse_scenario


def fresh_python(*argv: str, env: dict | None = None, check: bool = True) -> subprocess.CompletedProcess:
    """Run ``python *argv`` in a fresh interpreter that imports this olmsim."""
    path = [str(Path(olmsim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, check=check)


def demo_config(workers, seed, control_at=0):
    """The bundled demo scenario at ``workers`` and ``seed``: the control first, then
    one treated market on each of the nine ``SWEEP_PATHS``. ``control_at`` moves the
    control to that position, the treated markets keeping their order."""
    demo = parse_scenario(_resolve_config(BUILTIN_DEMO))
    markets = list(demo.markets[1:])
    markets.insert(control_at, demo.markets[0])
    return dataclasses.replace(demo, markets=tuple(markets), workers_per_market=workers, seed=seed)


def random_quadratic_market(rng: np.random.Generator) -> MarketSpec:
    """Random valid quadratic market with an interior equilibrium everywhere.

    S0 > c keeps S(a) above the marginal cost on the whole interval, so
    the comparative-statics grid has no corner rows.
    """
    c = rng.uniform(0.5, 3.0)
    kappa = 0.5 * c * rng.uniform(1.4, 3.0)
    S0 = max(kappa, c) + rng.uniform(0.3, 2.5)
    n = int(rng.integers(1, 9))
    b = rng.uniform(0.2, 2.0)
    pot = MarketPotentialSpec(PotentialFamily.QUADRATIC, S0=S0, kappa=kappa)
    return MarketSpec(n=n, c=c, b=b, potential=pot)


def random_logistic_market(rng: np.random.Generator) -> MarketSpec:
    """Random valid logistic-adoption market with interior equilibria."""
    for _ in range(200):
        mu = rng.uniform(1.05, 1.5)
        s = rng.uniform(0.15, 0.45)
        S0 = rng.uniform(2.0, 8.0)
        pot = MarketPotentialSpec(PotentialFamily.LOGISTIC_ADOPTION, S0=S0, mu=mu, s=s)
        d0 = abs(potential_slope(pot, 0.0))
        d1 = abs(potential_slope(pot, 1.0))
        c = d0 + rng.uniform(0.35, 0.65) * (d1 - d0)
        if c <= 0:
            continue
        # interior everywhere: S(a) - (1-a)c is smallest at one of the ends
        if eval_potential(pot, 0.0) - c <= 0.05:
            continue
        n = int(rng.integers(1, 9))
        b = rng.uniform(0.2, 2.0)
        return MarketSpec(n=n, c=c, b=b, potential=pot)
    raise AssertionError("could not draw a valid logistic market")


def random_market(rng: np.random.Generator) -> MarketSpec:
    if rng.uniform() < 0.5:
        return random_quadratic_market(rng)
    return random_logistic_market(rng)


def best_response_equilibrium(
    potential_value: float,
    marginal_cost: float,
    b: float,
    n: int,
    rng: np.random.Generator | None = None,
    iters: int = 400,
) -> np.ndarray:
    """Damped simultaneous best-response iteration from a random start.

    The undamped map is unstable for n >= 3; damping with weight
    2 / (n + 1) contracts it for any n.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    q = rng.uniform(0.01, 1.0, size=n) * max(potential_value, 1.0)
    omega = 2.0 / (n + 1)
    for _ in range(iters):
        total = q.sum()
        br = np.maximum(0.0, (potential_value - marginal_cost - b * (total - q)) / (2.0 * b))
        q = (1.0 - omega) * q + omega * br
    return q


def assert_same_fit(a, b) -> None:
    """Two ``FitResult`` objects agree exactly, to the last bit."""
    assert a.terms == b.terms
    assert a.coefficients == b.coefficients
    assert a.se == b.se
    assert a.pvalues == b.pvalues
    assert np.array_equal(a.vcov, b.vcov)
    assert a.within_r2 == b.within_r2
    assert a.converged_fe_iterations == b.converged_fe_iterations
    assert (a.n_obs, a.n_clusters, a.outcome_sd) == (b.n_obs, b.n_clusters, b.outcome_sd)


def spy_blocks(monkeypatch) -> list:
    """Record, in call order, what each call of ``regression._blocks`` returns:
    ``(g, T)`` where a fit sums blocks, None where it falls back to bincounts."""
    results, blocks = [], regression._blocks

    def spy(unit_codes, time_codes):
        results.append(blocks(unit_codes, time_codes))
        return results[-1]

    monkeypatch.setattr(regression, "_blocks", spy)
    return results


def assert_same_columns(a, b, columns) -> None:
    """Two panels or demand series hold the same columns: same dtype, same values."""
    for name in columns:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name


def one_step_best_response(q: np.ndarray, potential_value: float, marginal_cost: float, b: float) -> np.ndarray:
    total = q.sum()
    return np.maximum(0.0, (potential_value - marginal_cost - b * (total - q)) / (2.0 * b))


#: worker-level covariates used by the validation generator, mirroring the
#: pre-shock activity summaries a platform panel supports
CONFOUNDED_COVARIATES = (
    "log_acc_jobs",
    "log_experience",
    "log_avg_price",
    "log_hourly_price",
    "avg_rating",
)


def simulate_confounded_workers(
    n_workers: int, seed: int, confound: float = 1.0
) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
    """Cross-section of workers whose treatment odds rise with latent skill.

    Skill loads on all five covariates, so every one of them is imbalanced
    before matching; the strength scales with ``confound``. Used to
    validate that matching restores balance.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n_workers)
    covariates = np.column_stack(
        [
            2.2 + 0.85 * z + 0.55 * rng.standard_normal(n_workers),
            3.1 + 0.60 * z + 0.50 * rng.standard_normal(n_workers),
            5.6 + 0.75 * z + 0.65 * rng.standard_normal(n_workers),
            2.8 + 0.40 * z + 0.35 * rng.standard_normal(n_workers),
            np.clip(4.78 + 0.09 * z + 0.08 * rng.standard_normal(n_workers), 1.0, 5.0),
        ]
    )
    treat = (rng.uniform(size=n_workers) < expit(-0.8 + confound * 0.9 * z)).astype(np.int64)
    return covariates, CONFOUNDED_COVARIATES, treat
