"""Synthetic worker-month panels and market-week demand series.

The generating process realizes the Cournot model: each market follows an
AI-level path across two successive shocks, the equilibrium quantity sets
the Poisson rate of a worker's monthly job count, and the equilibrium
price maps counts into earnings. Worker and month effects enter the rate
multiplicatively, so two-way fixed-effects estimators are the natural
match for the resulting data.

Counts are drawn by inverse CDF from pre-drawn uniforms. That makes the
whole simulation a deterministic function of ``(config, seed)`` and lets
``ground_truth_att`` rerun the same draws under a counterfactual AI path
(common random numbers), which removes Monte Carlo bias from the oracle.
One table, ``_MARKET_DRAWS``, names every draw of a market in stream
order, so the oracle draws only the prefix of the stream that its outcome
reads, and it inverts the counts of both paths of every treated market,
for a few replications at a time, in one inverse-CDF call. The same
stream, drawn as it is read, gives the panel one market at a time:
``generate_panel_blocks`` yields each market's rows, whose identifiers
and flags repeat or tile per-market and per-month values, with worker ids
offset by the market's index, so a caller that reads one market pair at a
time never holds the panel. ``generate_panel_arrays`` has each block
written into its rows of whole columns. The demand series assembles each
column once for all markets.

The config classes check their ranges on construction, and each message
names the value it rejects: every number field but the seed goes through
:func:`olmsim.market.check_number` once, which applies its range rule, if
any, and holds a float finite; an AI path's levels follow
:func:`olmsim.market.check_ai_level`, the same check on [0, 1].
:func:`config_to_dict` decodes the document it encodes, so a config that a
scenario file cannot hold, such as one with a bool ``noise_sigma``, raises
there rather than being hashed.
"""

from __future__ import annotations

import datetime
import json
import re
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from enum import Enum
from functools import cache, cached_property
from types import UnionType
from typing import Iterator, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .errors import SchemaError, ValidationError
from .market import Equilibrium, MarketSpec, check_ai_level, check_number, cournot_equilibrium
from .panel import (
    MODERATORS, OUTCOME_TRANSFORMS, PANEL_COLUMNS, PANEL_DTYPES, DemandArrays, PanelArrays, check_market_id,
    check_moderator, transform_outcome,
)

#: months covered by the default panel window: six pre-shock months, a
#: two-month gap around the first release, ten post-shock months
DEFAULT_MONTHS = (
    "2022-05", "2022-06", "2022-07", "2022-08", "2022-09", "2022-10",
    "2023-01", "2023-02", "2023-03", "2023-04", "2023-05", "2023-06",
    "2023-07", "2023-08", "2023-09", "2023-10",
)
DEFAULT_SHOCK1_INDEX = 6   # first post-release month
DEFAULT_SHOCK2_INDEX = 8   # second release lands in 2023-03

#: a month label: ``YYYY-MM`` with a year ``datetime.date`` takes (0001-9999)
#: and a month from 01 to 12
_MONTH_LABEL = re.compile(r"(?!0000)[0-9]{4}-(0[1-9]|1[0-2])")

#: weeks in the default market-week demand window
DEFAULT_WEEKS = 95

#: rates above this invert through ``scipy.special.pdtrik`` instead of the
#: term-by-term search
_ICDF_RATE_CUTOFF = 60.0

#: terms the small-rate search adds before the cells still below their
#: uniform take the large-rate recipe's count
ICDF_MAX_TERMS = 2000


def poisson_icdf(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Vectorized Poisson inverse CDF: smallest k with CDF(k) >= u.

    :func:`_term_search` gives scipy's ``poisson.ppf`` count to every rate
    above :data:`_ICDF_RATE_CUTOFF` and to every cell its search has not
    finished after :data:`ICDF_MAX_TERMS` terms. A rate that is negative,
    infinite or nan, or a uniform outside [0, 1) or nan, raises
    :class:`ValidationError` naming the value, and rates that do not
    broadcast to the uniforms' shape raise it naming both shapes.
    """
    u = np.asarray(u, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    try:  # a broadcast rate is a view that repeats cells; the search runs on a full array
        lam = np.ascontiguousarray(np.broadcast_to(lam, u.shape))
    except ValueError:
        raise ValidationError(
            f"poisson rates of shape {lam.shape} do not broadcast to the uniforms' shape {u.shape}"
        ) from None
    good = (lam >= 0) & (lam < np.inf)  # false for nan
    if not good.all():
        raise ValidationError(f"poisson rate must be finite and nonnegative, got {lam[~good][0]}")
    valid = (u >= 0) & (u < 1)  # false for nan
    if not valid.all():
        raise ValidationError(f"poisson uniform must lie in [0, 1), got {u[~valid][0]}")
    return _term_search(u, lam)


def _ppf_recipe(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """scipy's ``poisson.ppf`` count: the ceiling of ``pdtrik``, stepped back
    one where the CDF already reaches ``u``."""
    from scipy import special

    upper = np.ceil(special.pdtrik(u, lam))
    lower = np.maximum(upper - 1, 0)
    return np.where(special.pdtr(lower, lam) >= u, lower, upper).astype(np.int64)


def _term_search(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Smallest k with ``sum_{i <= k} exp(-lam) lam^i / i! >= u``, cell by cell.

    One pass over the cells: each cell's cumulative sum only grows, so once
    it reaches ``u`` the cell stays reached and its count stops, while the
    cells still below add their next term, in place. Once fewer than a
    quarter of the searched cells are still below, the search gathers
    their rates, terms, sums, uniforms and counts and goes on with those
    alone, scattering their counts back by flat index; each cell
    still runs the same term sequence, so compacting moves no count. Two
    kinds of cell take :func:`_ppf_recipe`'s count instead: a rate above
    :data:`_ICDF_RATE_CUTOFF`, up front, and, since next to ``u = 1`` the
    rounded sum can stop growing below ``u``, a cell still below after
    :data:`ICDF_MAX_TERMS` terms.
    """
    shape, u, lam = u.shape, u.reshape(-1), lam.reshape(-1)
    k = out = np.zeros(u.size, dtype=np.int64)
    p = np.exp(-lam)
    cum = p.copy()
    big = lam > _ICDF_RATE_CUTOFF
    if big.any():
        k[big] = _ppf_recipe(u[big], lam[big])
        cum[big] = np.inf  # above every uniform at every term, so the search drops them
    below = cum < u
    cells = None  # flat indices of the searched cells once compacted; until then every cell
    for i in range(1, ICDF_MAX_TERMS + 1):
        searching = np.count_nonzero(below)
        if not searching:
            break
        if 4 * searching < below.size:
            keep = np.flatnonzero(below)
            if cells is not None:
                out[cells] = k  # the finished cells' counts; the rest are written again later
            cells = keep if cells is None else cells[keep]
            lam, p, cum, u, k = lam[keep], p[keep], cum[keep], u[keep], k[keep]
            below = np.ones(searching, dtype=bool)
        k += below
        p *= lam / i
        cum += p
        np.less(cum, u, out=below)
    else:
        k[below] = _ppf_recipe(u[below], lam[below])
    if cells is not None:
        out[cells] = k
    return out.reshape(shape)


@dataclass(frozen=True)
class AiPath:
    """AI levels before the first shock and after each of the two shocks."""

    a_pre: float
    a_post35: float
    a_post40: float

    def __post_init__(self):
        for name in ("a_pre", "a_post35", "a_post40"):
            check_ai_level(getattr(self, name), f"a_path {name}")
        if not self.a_pre <= self.a_post35 <= self.a_post40:
            raise ValidationError(
                f"a_path must be nondecreasing, got ({self.a_pre}, {self.a_post35}, {self.a_post40})"
            )

    @property
    def constant(self) -> bool:
        return self.a_pre == self.a_post35 == self.a_post40

    def frozen_at_pre(self) -> "AiPath":
        return AiPath(self.a_pre, self.a_pre, self.a_pre)

    def level_at(self, month: int, shock1: int, shock2: int) -> float:
        if month < shock1:
            return self.a_pre
        if month < shock2:
            return self.a_post35
        return self.a_post40


@dataclass(frozen=True)
class MarketScenario:
    """One market in a scenario: its structure, AI path, and worker-level mean."""

    market_id: str
    market: MarketSpec
    a_path: AiPath
    worker_fe_mean: float = 0.0

    def __post_init__(self):
        check_market_id(self.market_id)
        check_number(self.worker_fe_mean, "worker_fe_mean")


@dataclass(frozen=True)
class ModeratorBoost:
    """Subgroup whose effective AI-shock exposure is scaled by ``multiplier``."""

    column: str
    multiplier: float

    def __post_init__(self):
        check_moderator(self.column)
        check_number(self.multiplier, "moderator multiplier", "be nonnegative")


#: the range rule of each number field of :class:`ScenarioConfig` but the seed
_CONFIG_RULES = {
    "workers_per_market": "be positive",
    **dict.fromkeys(("worker_fe_sigma", "month_fe_sigma", "noise_sigma", "background_rate"), "be nonnegative"),
    **dict.fromkeys(("jobs_scale", "weekly_scale"), "be positive"),
    **dict.fromkeys(("us_share", "experienced_share"), "lie in [0, 1]"),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of a multi-market data-generating process."""

    markets: tuple[MarketScenario, ...]
    control_market_id: str
    workers_per_market: int = 500
    months: tuple[str, ...] = DEFAULT_MONTHS
    shock1_index: int = DEFAULT_SHOCK1_INDEX
    shock2_index: int = DEFAULT_SHOCK2_INDEX
    worker_fe_sigma: float = 0.4
    month_fe_sigma: float = 0.05
    noise_sigma: float = 0.3
    seed: int = 0
    jobs_scale: float = 4.0
    background_rate: float = 2.0
    weekly_scale: float = 5.0
    us_share: float = 0.3
    experienced_share: float = 0.5
    moderator_boost: ModeratorBoost | None = None

    def __post_init__(self):
        if not self.markets:
            raise ValidationError(f"scenario needs at least one market, got {len(self.markets)}")
        ids = [m.market_id for m in self.markets]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"market ids must be unique, got {ids}")
        if self.control_market_id not in ids:
            raise ValidationError(f"control market {self.control_market_id!r} not among {ids}")
        control = self.market(self.control_market_id)
        if not control.a_path.constant:
            raise ValidationError(f"control market must have a constant a_path, got {control.a_path}")
        n_months = len(self.months)
        if n_months < 2:
            raise ValidationError(f"need at least 2 months, got {n_months}")
        if bad := [m for m in self.months if not (isinstance(m, str) and _MONTH_LABEL.fullmatch(m))]:
            raise ValidationError(f"months must be YYYY-MM labels, year 0001-9999 and month 01-12, got {bad[0]!r}")
        if any(a >= b for a, b in zip(self.months, self.months[1:])):
            raise ValidationError(f"months must be strictly increasing, got {list(self.months)}")
        if not (1 <= self.shock1_index <= self.shock2_index < n_months):
            raise ValidationError(
                f"need 1 <= shock1_index <= shock2_index < {n_months}, "
                f"got {self.shock1_index}, {self.shock2_index}"
            )
        for name, rule in _CONFIG_RULES.items():
            check_number(getattr(self, name), name, rule)
        if self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.moderator_boost is not None:
            for m in self.markets:
                boosted = _boost_level(m.a_path.a_post40, m.a_path.a_pre, self.moderator_boost.multiplier)
                if boosted > 1.0:
                    raise ValidationError(
                        f"moderator boost pushes market {m.market_id!r} past a=1 ({boosted:.3f})"
                    )

    def market(self, market_id: str) -> MarketScenario:
        for m in self.markets:
            if m.market_id == market_id:
                return m
        raise ValidationError(f"unknown market {market_id!r}")

    @property
    def n_months(self) -> int:
        return len(self.months)

    def treated_ids(self) -> list[str]:
        return [m.market_id for m in self.markets if m.market_id != self.control_market_id]

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, seed=seed)


def _boost_level(a: float, a_pre: float, multiplier: float) -> float:
    return a_pre + multiplier * (a - a_pre)


def _month_day_offsets(months: Sequence[str]) -> np.ndarray:
    """Days elapsed at each month label relative to the first label.

    The labels are the ``YYYY-MM`` calendar months, strictly increasing, that
    :class:`ScenarioConfig` requires, so every offset is a calendar span.
    Registration dates in days plus these offsets give a months-since-
    registration tenure that is not an exact unit-plus-time function, so
    tenure survives two-way absorption as a control.
    """
    dates = [datetime.date(int(m[:4]), int(m[5:7]), 1) for m in months]
    return np.array([(d - dates[0]).days for d in dates], dtype=np.float64)


#: share of the earnings-noise variance that is a persistent worker trait,
#: giving the cross-worker price dispersion real panels show
EARN_NOISE_WORKER_SHARE = 0.5


#: every draw of one market, in stream order: name -> draw(rng, config, market)
_MARKET_DRAWS = {
    "worker_fe": lambda rng, c, m: m.worker_fe_mean + rng.standard_normal(c.workers_per_market) * c.worker_fe_sigma,
    "reg_day": lambda rng, c, m: rng.integers(0, 3650, size=c.workers_per_market),
    "us": lambda rng, c, m: (rng.uniform(size=c.workers_per_market) < c.us_share).astype(np.int64),
    "experienced": lambda rng, c, m: (rng.uniform(size=c.workers_per_market) < c.experienced_share).astype(np.int64),
    "earn_trait": lambda rng, c, m: rng.standard_normal(c.workers_per_market),
    "u_jobs": lambda rng, c, m: rng.uniform(size=(c.workers_per_market, c.n_months)),
    "eps": lambda rng, c, m: rng.standard_normal((c.workers_per_market, c.n_months)),
    "u_bg": lambda rng, c, m: rng.uniform(size=(c.workers_per_market, c.n_months)),
}


def _draw(config: ScenarioConfig, seed: int, stop: tuple[int, str] | None = None) -> Iterator:
    """All randomness for one panel replication, drawn as it is read, in a
    fixed order: the month effects, then one dict of :data:`_MARKET_DRAWS`
    per market.

    ``stop``, a (market index, draw name) pair, ends the stream after that
    market's draw: its later draws and later markets are absent. What is
    drawn is a prefix of the full stream, so it equals the full draw's
    arrays bit for bit.
    """
    rng = np.random.default_rng([seed, 1])
    yield rng.standard_normal(config.n_months) * config.month_fe_sigma
    for idx, scenario in enumerate(config.markets):
        drawn = {}
        for name, draw in _MARKET_DRAWS.items():
            drawn[name] = draw(rng, config, scenario)
            if (idx, name) == stop:
                yield drawn
                return
        yield drawn


def _equilibria(market: MarketSpec, levels: Sequence[float]) -> list[Equilibrium]:
    """``cournot_equilibrium`` at each level, solving each distinct level once."""
    solved = {a: cournot_equilibrium(market, a) for a in dict.fromkeys(levels)}
    return [solved[a] for a in levels]


def _equilibrium_levels(scenario: MarketScenario, config: ScenarioConfig, path: AiPath):
    """Per-month (q, p) for the base path and, if boosted, the scaled path."""
    base = [path.level_at(month, config.shock1_index, config.shock2_index) for month in range(config.n_months)]
    boost = config.moderator_boost
    scaled = base if boost is None else [_boost_level(a, path.a_pre, boost.multiplier) for a in base]
    eqs = _equilibria(scenario.market, base + scaled)
    q = np.array([eq.q for eq in eqs]).reshape(2, -1)
    p = np.array([eq.p for eq in eqs]).reshape(2, -1)
    return q, p


#: the last draw that each outcome's cells read; a draw stopped after it
#: gives the outcome its full-draw values
_LAST_DRAW = {"fjobnum": "u_jobs", "fjobearn": "eps", "fjobratio": "u_bg"}


class _MarketCells:
    """The generating formulas for one market's cells on months ``cols``.

    Rates, job counts, earnings and job ratios are computed here and only
    here. The path-independent factors (worker-month activity, the earnings
    noise factor, background counts) are computed once and shared by every
    AI path evaluated on the same draws.
    """

    def __init__(self, config: ScenarioConfig, month_fe: np.ndarray, d: dict, cols: slice):
        self.config, self.d, self.cols = config, d, cols
        boost = config.moderator_boost
        self.boosted = np.zeros(len(d["worker_fe"]), dtype=np.int64) if boost is None else d[boost.column]
        self.activity = np.exp(d["worker_fe"][:, None] + month_fe[None, cols])

    @property
    def u_jobs(self) -> np.ndarray:
        return self.d["u_jobs"][:, self.cols]

    @property
    def u_bg(self) -> np.ndarray:
        return self.d["u_bg"][:, self.cols]

    def rate(self, q: np.ndarray) -> np.ndarray:
        # row 0 of the (2, t) levels is the base path, row 1 the boosted one
        return q[:, self.cols][self.boosted] * self.config.jobs_scale * self.activity

    def jobs(self, q: np.ndarray) -> np.ndarray:
        return poisson_icdf(self.u_jobs, self.rate(q))

    @cached_property
    def earn_factor(self) -> np.ndarray:
        # earnings noise splits into a persistent worker trait and a cell
        # shock; marginally it stays Normal(0, noise_sigma)
        share = EARN_NOISE_WORKER_SHARE
        earn_noise = np.sqrt(share) * self.d["earn_trait"][:, None] + np.sqrt(1.0 - share) * self.d["eps"][:, self.cols]
        return np.exp(self.config.noise_sigma * earn_noise)

    @cached_property
    def background(self) -> np.ndarray:
        # the oracle sets it from its chunked inverse-CDF call instead
        return poisson_icdf(self.u_bg, self.config.background_rate)

    def earn(self, jobs: np.ndarray, p: np.ndarray) -> np.ndarray:
        return jobs * p[:, self.cols][self.boosted] * self.earn_factor

    def ratio(self, jobs: np.ndarray) -> np.ndarray:
        total = jobs + self.background
        return np.divide(jobs, total, out=np.zeros(total.shape), where=total > 0)

    def outcome(self, name: str, jobs: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Outcome ``name`` of the cells whose job counts are ``jobs``."""
        if name == "fjobnum":
            return jobs
        return self.earn(jobs, p) if name == "fjobearn" else self.ratio(jobs)


def _market_block(config: ScenarioConfig, idx: int, month_fe: np.ndarray, d: dict, columns: dict | None) -> PanelArrays:
    """Market ``idx``'s rows of the panel, from its draws ``d``, in new arrays
    or, given ``columns``, written into its rows of them.

    It empties ``d``, which the draw stream holds until its next draw, so no
    draw outlives its block.
    """
    w, t = config.workers_per_market, config.n_months
    rows, scenario, months = slice(idx * w * t, (idx + 1) * w * t), config.markets[idx], np.arange(t)
    block = {name: np.empty(w * t, dtype) if columns is None else columns[name][rows]
             for name, dtype in PANEL_DTYPES.items()}
    cells = {name: block[name].reshape(w, t) for name in PANEL_COLUMNS}  # each row a worker
    q, p = _equilibrium_levels(scenario, config, scenario.a_path)
    market = _MarketCells(config, month_fe, d, slice(None))
    jobs = market.jobs(q)
    for name in _LAST_DRAW:
        cells[name][:] = market.outcome(name, jobs, p)
    cells["worker_id"][:] = np.arange(idx * w, (idx + 1) * w)[:, None]
    cells["month_index"][:] = months
    cells["post35"][:] = months >= config.shock1_index
    cells["post40"][:] = months >= config.shock2_index
    cells["tenure"][:] = ((d["reg_day"][:, None] + _month_day_offsets(config.months)[None, :]) // 30).astype(np.int64)
    for name in MODERATORS:
        cells[name][:] = d[name][:, None]
    block["market_id"][:] = scenario.market_id
    block["treat"][:] = scenario.market_id != config.control_market_id
    d.clear()
    return PanelArrays(**block)


def generate_panel_blocks(config: ScenarioConfig, columns: dict[str, np.ndarray] | None = None
                          ) -> Iterator[PanelArrays]:
    """The panel of :func:`generate_panel_arrays`, one market's rows at a time,
    in market order; only the market being built is held.

    Rows run by worker, then month; worker ids are offset by the market's
    index times ``workers_per_market``. Each block's columns are new arrays,
    or, given ``columns``, whole-panel arrays of the ``PANEL_DTYPES`` dtypes,
    views of the block's rows of them, written in place.
    """
    stream = _draw(config, config.seed)
    month_fe = next(stream)
    for idx in range(len(config.markets)):
        # no block or draw is bound here, so the caller alone decides how long a block lives
        yield _market_block(config, idx, month_fe, next(stream), columns)


def generate_panel_arrays(config: ScenarioConfig) -> PanelArrays:
    """Columnar panel for one scenario; deterministic given the config seed.

    Rows run by market, then worker, then month: the blocks of
    :func:`generate_panel_blocks`, each written into its rows of the columns.
    """
    n = len(config.markets) * config.workers_per_market * config.n_months
    columns = {name: np.empty(n, dtype) for name, dtype in PANEL_DTYPES.items()}
    list(generate_panel_blocks(config, columns))  # each block is a view of its rows
    return PanelArrays(**columns)


@dataclass(frozen=True)
class GroundTruth:
    """Monte Carlo estimate of the treated-post average treatment effect."""

    att: float
    mc_se: float
    reps: int


#: replications whose job counts the oracle inverts in one call
_ORACLE_CHUNK = 4


def ground_truth_att(config: ScenarioConfig, outcome: str = "fjobnum", reps: int = 200) -> GroundTruth:
    """ATT oracle: factual minus frozen-at-pre outcome under shared draws.

    Replication ``r`` redraws the generating process's randomness from
    seed ``seed ^ r`` and evaluates the outcome twice on the same draws,
    once with the configured AI paths and once with every path frozen at
    its pre level. It draws only the prefix of the stream that the
    outcome reads, up to the last treated market's last draw for that
    outcome, and that prefix equals the full draw. Only the cells the
    average reads are computed: the treated markets' post-shock months, in
    panel order (markets, then workers, then months). Each treated market's
    equilibrium levels on both paths are solved once per call; the job
    counts of every treated market on both paths, and for ``fjobratio``
    its background counts, for up to :data:`_ORACLE_CHUNK` replications at
    a time, come from one inverse-CDF call, and the other path-independent
    factors are computed once per replication. Each replication's
    difference of the transformed outcome is averaged over its own cells,
    so how replications are chunked moves no bit.

    Replication streams are ``seed ^ r``, so with seed 0 replication ``r``
    reuses the draws of ``config.with_seed(r)``.
    """
    if reps < 1:
        raise ValidationError(f"reps must be positive, got {reps}")
    if outcome not in OUTCOME_TRANSFORMS:
        raise ValidationError(f"outcome must be one of {sorted(OUTCOME_TRANSFORMS)}, got {outcome!r}")
    transform = OUTCOME_TRANSFORMS[outcome]
    treated = []  # (market index, [(q, p) factual, (q, p) frozen])
    for idx, scenario in enumerate(config.markets):
        if scenario.market_id != config.control_market_id:
            paths = (scenario.a_path, scenario.a_path.frozen_at_pre())
            treated.append((idx, [_equilibrium_levels(scenario, config, path) for path in paths]))
    if not treated:
        raise ValidationError(
            f"ground truth needs a treated market; the scenario has only the control {config.control_market_id!r}"
        )
    stop = (treated[-1][0], _LAST_DRAW[outcome])
    cols = slice(config.shock1_index, None)
    n_cells = config.workers_per_market * (config.n_months - config.shock1_index)
    ratio = outcome == "fjobratio"  # a market's background counts join its job counts' call
    background_rate = [np.full(n_cells, config.background_rate).reshape(config.workers_per_market, -1)] if ratio else []
    cell_diffs = np.empty(len(treated) * n_cells)
    diffs = np.empty(reps)
    for start in range(0, reps, _ORACLE_CHUNK):
        chunk = range(start, min(start + _ORACLE_CHUNK, reps))
        markets = []  # per replication: each treated market's cells and levels
        for r in chunk:
            month_fe, *draws = _draw(config, config.seed ^ r, stop)
            markets.append([(_MarketCells(config, month_fe, draws[idx], cols), levels) for idx, levels in treated])
        # the chunk's counts in one call; axes: replication, market, count, worker, month. A market's
        # counts are its job counts on each path, then, for ``fjobratio``, its background counts
        lam = np.stack([[[cells.rate(q) for q, _ in levels] + background_rate for cells, levels in rep]
                        for rep in markets])
        u = np.stack([[[cells.u_jobs] * len(levels) + ([cells.u_bg] if ratio else []) for cells, levels in rep]
                      for rep in markets])
        for r, rep, counts in zip(chunk, markets, poisson_icdf(u, lam)):
            for k, ((cells, levels), jobs) in enumerate(zip(rep, counts)):
                if ratio:
                    cells.background = jobs[-1]
                y1, y0 = (transform_outcome(cells.outcome(outcome, n, p), transform) for n, (_, p) in zip(jobs, levels))
                cell_diffs[k * n_cells:(k + 1) * n_cells] = (y1 - y0).reshape(-1)
            diffs[r] = float(np.mean(cell_diffs))
    se = float(diffs.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
    return GroundTruth(att=float(diffs.mean()), mc_se=se, reps=reps)


def generate_demand_arrays(config: ScenarioConfig, weeks: int = DEFAULT_WEEKS) -> DemandArrays:
    """Market-week fulfilled-posting counts; deterministic given the seed.

    The weekly rate is the market-level transaction volume ``n * q`` at
    the week's AI level, scaled and shifted by a common week effect. The
    shocks fall at week ``weeks // 2`` and ``max(1, weeks // 6)`` weeks
    later, mirroring the panel window proportions.
    """
    if weeks < 8:
        raise ValidationError(f"demand series needs at least 8 weeks, got {weeks}")
    s1 = weeks // 2
    s2 = s1 + max(1, weeks // 6)
    rng = np.random.default_rng([config.seed, 2])
    week_fe = rng.standard_normal(weeks) * config.month_fe_sigma
    # row m holds market m's weeks: the stream that one draw per market, in market order, reads
    u = rng.uniform(size=(len(config.markets), weeks))
    levels = [[m.a_path.level_at(wk, s1, s2) for wk in range(weeks)] for m in config.markets]
    volume = [[m.market.n * eq.q for eq in _equilibria(m.market, a)] for m, a in zip(config.markets, levels)]
    lam = np.array(volume) * config.weekly_scale * np.exp(week_fe)
    week_index, ids = np.arange(weeks), np.array([m.market_id for m in config.markets], dtype=object)
    return DemandArrays(
        market_id=np.repeat(ids, weeks),
        week_index=np.tile(week_index, len(config.markets)),
        postnum=poisson_icdf(u, lam).reshape(-1),
        treat=np.repeat((ids != config.control_market_id).astype(np.int64), weeks),
        post=np.tile((week_index >= s1).astype(np.int64), len(config.markets)),
    )


# ---------------------------------------------------------------------------
# serialization
#
# One codec maps every config dataclass to and from JSON by its own fields
# and annotations, so adding a field needs no serializer edit. It also owns
# the scenario-file rules: ``config_to_dict`` decodes what it encodes, so a
# config built in Python that no scenario file can hold is refused by every
# caller (``config_hash``, ``write_scenario``, ``run_pipeline``) alike.


@cache
def _hints(cls: type) -> dict:
    return get_type_hints(cls)


def _optional(tp):
    """``X`` for an ``X | None`` annotation, else None."""
    if get_origin(tp) is UnionType:
        return next(arg for arg in get_args(tp) if arg is not type(None))
    return None


def _encode(value):
    if is_dataclass(value):
        hints = _hints(type(value))
        out = {}
        for f in fields(value):
            item = getattr(value, f.name)
            # unset optional numbers are left out; unset optional objects are null
            if item is None and not is_dataclass(_optional(hints[f.name])):
                continue
            # a number in a float field is written as a float, so 0 and 0.0 hash alike
            tp = _optional(hints[f.name]) or hints[f.name]
            out[f.name] = float(item) if tp is float and _is_number(item) else _encode(item)
        return out
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    return value.value if isinstance(value, Enum) else value


def _is_number(value) -> bool:
    # a finite JSON number; bool is an int subclass but never a number here
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


#: annotation -> (description, JSON value check, conversion)
_SCALARS = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool), int),
    float: ("a finite number", _is_number, float),
    str: ("a string", lambda v: isinstance(v, str), str),
}


def _mismatch(path: str, expected: str, value) -> SchemaError:
    return SchemaError(f"{path or 'scenario'}: expected {expected}, got {json.dumps(value)}")


def _decode(tp, value, path: str):
    """Build an instance of annotation ``tp`` from JSON ``value`` found at ``path``."""
    inner = _optional(tp)
    if inner is not None:
        return None if value is None else _decode(inner, value, path)
    if get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise _mismatch(path, "an array", value)
        return tuple(_decode(get_args(tp)[0], item, f"{path}[{i}]") for i, item in enumerate(value))
    if is_dataclass(tp):
        return _decode_object(tp, value, path)
    if issubclass(tp, Enum):
        choices = [member.value for member in tp]
        if value not in choices:
            raise _mismatch(path, f"one of {json.dumps(choices)}", value)
        return tp(value)
    expected, check, convert = _SCALARS[tp]
    if not check(value):
        raise _mismatch(path, expected, value)
    return convert(value)


def _decode_object(cls: type, value, path: str):
    if not isinstance(value, dict):
        raise _mismatch(path, "an object", value)
    prefix = f"{path}." if path else ""
    hints = _hints(cls)
    for key in value:
        if key not in hints:
            raise SchemaError(f"{prefix}{key}: unknown field; expected one of {', '.join(hints)}")
    kwargs = {}
    for f in fields(cls):
        if f.name in value:
            kwargs[f.name] = _decode(hints[f.name], value[f.name], prefix + f.name)
        elif f.default is MISSING:
            raise SchemaError(f"{prefix}{f.name}: missing required field")
    try:
        return cls(**kwargs)
    except ValidationError as exc:
        if not path:
            raise
        raise type(exc)(f"{path}: {exc}") from exc


def config_to_dict(config: ScenarioConfig) -> dict:
    """Encode a config as a scenario document, and decode the document back:
    a config built in Python that a scenario file cannot hold (say a nan
    ``noise_sigma`` or a ``workers_per_market`` of ``50.0``) raises the
    SchemaError or ValidationError that :func:`config_from_dict` gives the file."""
    data = _encode(config)
    config_from_dict(data)
    return data


def config_from_dict(data: dict) -> ScenarioConfig:
    """Decode a scenario document; a malformed field raises SchemaError naming its path."""
    return _decode(ScenarioConfig, data, "")
