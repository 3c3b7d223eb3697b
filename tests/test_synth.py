import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_same_columns, demo_config
from scipy import special, stats

from olmsim import synth
from olmsim.errors import ValidationError
from olmsim.market import cournot_equilibrium
from olmsim.panel import DEMAND_COLUMNS, PANEL_COLUMNS, DemandArrays
from olmsim.regression import RegressionSpec, did_fit
from olmsim.scenarios import (
    CROSSING_PATH,
    honeymoon_config,
    null_config,
    reference_market,
    substitution_config,
    two_market_config,
)
from olmsim.synth import (
    AiPath,
    MarketScenario,
    ModeratorBoost,
    ScenarioConfig,
    generate_demand_arrays,
    generate_panel_arrays,
    ground_truth_att,
    poisson_icdf,
)


class TestPoissonIcdf:
    def test_matches_scipy_ppf_oracle(self):
        rng = np.random.default_rng(0)
        u = rng.uniform(size=20000)
        lam = rng.uniform(0.0, 60.0, size=20000)
        expected = stats.poisson.ppf(u, lam)
        np.testing.assert_array_equal(poisson_icdf(u, lam), expected)

    def test_high_rate_and_extreme_quantiles(self):
        u = np.array([0.0, 1e-12, 0.5, 0.999999, 0.9999999999])
        lam = np.full(5, 150.0)
        got = poisson_icdf(u, lam)
        # scipy's ppf returns its boundary value -1 at u = 0; the smallest k
        # with CDF(k) >= 0 is 0
        assert got[0] == 0
        np.testing.assert_array_equal(got[1:], stats.poisson.ppf(u[1:], lam[1:]))

    def test_zero_quantile_is_zero_on_both_sides_of_cutoff(self):
        lam = np.array([synth._ICDF_RATE_CUTOFF - 1.0, synth._ICDF_RATE_CUTOFF + 1.0])
        got = poisson_icdf(np.zeros(2), lam)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, [0, 0])

    def test_large_rates_match_scipy_ppf(self):
        rng = np.random.default_rng(3)
        u = rng.uniform(size=20000)
        lam = rng.uniform(synth._ICDF_RATE_CUTOFF, 5000.0, size=20000)
        np.testing.assert_array_equal(poisson_icdf(u, lam), stats.poisson.ppf(u, lam))

    def test_zero_rate(self):
        out = poisson_icdf(np.array([0.0, 0.3, 0.99]), np.zeros(3))
        np.testing.assert_array_equal(out, 0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            poisson_icdf(np.array([0.5]), np.array([-1.0]))

    @pytest.mark.parametrize("good", [10.0, 100.0])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_rate_not_finite_and_nonnegative_rejected(self, bad, good):
        # a good rate on either side of the cutoff sits next to the bad one
        assert 10.0 < synth._ICDF_RATE_CUTOFF < 100.0
        with pytest.raises(ValidationError, match=f"must be finite and nonnegative, got {bad}"):
            poisson_icdf(np.array([0.5, 0.5]), np.array([good, bad]))

    def test_non_contiguous_slice_matches_contiguous_copy(self):
        rng = np.random.default_rng(1)
        u = rng.uniform(size=(40, 30))
        lam = rng.uniform(0.0, 20.0, size=(40, 30))
        for view in ((slice(None), slice(3, None, 2)), (slice(None, None, -3), slice(5, None))):
            got = poisson_icdf(u[view], lam[view])
            assert got.shape == u[view].shape
            np.testing.assert_array_equal(
                got, poisson_icdf(np.ascontiguousarray(u[view]), np.ascontiguousarray(lam[view]))
            )
        np.testing.assert_array_equal(poisson_icdf(u.T, lam.T), poisson_icdf(u, lam).T)

    def test_mixed_rates_2d_match_scipy_ppf(self):
        rng = np.random.default_rng(2)
        u = rng.uniform(size=(50, 40))
        lam = rng.uniform(0.0, 2 * synth._ICDF_RATE_CUTOFF, size=(50, 40))
        assert (lam > synth._ICDF_RATE_CUTOFF).any() and (lam <= synth._ICDF_RATE_CUTOFF).any()
        np.testing.assert_array_equal(poisson_icdf(u, lam), stats.poisson.ppf(u, lam))

    @pytest.mark.parametrize("lam", [10.0, 100.0])
    @pytest.mark.parametrize("bad", [1.0, 1.5, -0.1, float("nan")])
    def test_uniform_outside_unit_interval_rejected(self, bad, lam):
        # rates 10 and 100 lie on either side of the cutoff
        assert 10.0 < synth._ICDF_RATE_CUTOFF < 100.0
        with pytest.raises(ValidationError, match=f"must lie in \\[0, 1\\), got {bad}"):
            poisson_icdf(np.array([0.5, bad]), np.array([lam, lam]))

    def test_equals_per_cell_reference(self):
        cut = synth._ICDF_RATE_CUTOFF
        rates = [0.0, 1e-12, 0.5, 3.0, 25.0, np.nextafter(cut, 0), cut, np.nextafter(cut, np.inf), cut + 1e-9, 150.0]
        uniforms = [0.0, 1e-300, 0.3, 0.5, 0.999999, np.nextafter(1.0, 0.0)]
        u, lam = (a.ravel() for a in np.meshgrid(uniforms, rates))
        stalled = [i for i in range(len(u)) if lam[i] <= cut and _term_reference(u[i], lam[i]) is None]
        # at the cutoff itself the search's rounded sum stalls below the largest uniform,
        # so that cell takes the recipe's count
        assert [(lam[i], u[i]) for i in stalled] == [(cut, np.nextafter(1.0, 0.0))]
        for i in stalled:
            assert poisson_icdf(u[i:i + 1], lam[i:i + 1]).tolist() == [_recipe_reference(u[i], lam[i])]
        np.testing.assert_array_equal(poisson_icdf(u, lam), [_icdf_reference(ui, li) for ui, li in zip(u, lam)])
        # one call in which the recipe's cells, the stalled one (its count 133) among them, sit
        # beside small-rate cells that still search: the search adds none of its terms to them
        top = np.nextafter(1.0, 0.0)
        assert _recipe_reference(top, cut) == 133
        u = np.array([0.3, top, 0.999, top, 0.99, 0.2, 0.9])
        lam = np.array([2.0, cut, 150.0, 80.0, 30.0, np.nextafter(cut, np.inf), 40.0])
        assert poisson_icdf(u, lam).tolist() == [_icdf_reference(ui, li) for ui, li in zip(u, lam)]
        # a heavy-tailed draw: a few cells need many more terms than the rest
        rng = np.random.default_rng(4)
        u, lam = rng.uniform(size=3000), rng.exponential(10.0, size=3000)
        assert (lam > cut).any()
        np.testing.assert_array_equal(poisson_icdf(u, lam), [_icdf_reference(ui, li) for ui, li in zip(u, lam)])

    def test_stacked_paths_equal_per_slice_calls(self):
        # paths x workers x months, as the oracle stacks them
        rng = np.random.default_rng(5)
        u = rng.uniform(size=(2, 30, 10))
        lam = rng.uniform(0.0, 1.5 * synth._ICDF_RATE_CUTOFF, size=(2, 30, 10))
        got = poisson_icdf(u, lam)
        assert got.shape == u.shape
        np.testing.assert_array_equal(got, [poisson_icdf(u[k], lam[k]) for k in range(2)])

    def test_max_terms_exceeded_takes_recipe(self, monkeypatch):
        # the cells still below their uniform after ICDF_MAX_TERMS terms take
        # the recipe's count, whether half the cells or one in five are still
        # below, and in a 2-D array, whose own shape the recipe's mask has
        monkeypatch.setattr(synth, "ICDF_MAX_TERMS", 5)
        half_still_below = ([0.5, 0.999, 0.99, 0.5], [1.0, 30.0, 20.0, 1.0])
        most_cells_finished = ([0.5, 0.999, 0.5, 0.5, 0.5], [1.0, 30.0, 1.0, 1.0, 1.0])
        stalled_in_2d = ([[0.5, 0.999, 0.5], [0.99, 0.5, 0.999]], [[1.0, 30.0, 1.0], [20.0, 1.0, 11.0]])
        for u, lam in (half_still_below, most_cells_finished, stalled_in_2d):
            u, lam = np.array(u), np.array(lam)
            unfinished = lam > 10
            assert [_term_reference(ui, li) is None for ui, li in zip(u.flat, lam.flat)] == unfinished.ravel().tolist()
            got = poisson_icdf(u, lam)
            assert got.shape == u.shape
            assert got.ravel().tolist() == [_icdf_reference(ui, li) for ui, li in zip(u.flat, lam.flat)]
            assert got[unfinished].tolist() == stats.poisson.ppf(u[unfinished], lam[unfinished]).tolist()

    def test_compacted_search_equals_per_cell_reference(self, monkeypatch):
        # most cells finish at once and the rest thin out geometrically, so the search compacts
        # again and again; rates above the cutoff sit among them, and the cells with rate 25
        # and uniform 0.999 are still below after the patched ICDF_MAX_TERMS terms, by
        # which time they have been compacted, so they take the recipe's count
        monkeypatch.setattr(synth, "ICDF_MAX_TERMS", 30)
        rng = np.random.default_rng(8)
        groups = [(600, 0.5, 0.0, 0.6), (150, 2.0, 0.5, 0.9), (40, 10.0, 0.5, 0.99), (8, 25.0, 0.999, 0.9995),
                  (20, 150.0, 0.0, 1.0)]
        u = np.concatenate([rng.uniform(lo, hi, size=n) for n, _, lo, hi in groups])
        lam = np.concatenate([np.full(n, rate) for n, rate, _, _ in groups])
        order = rng.permutation(u.size)
        u, lam = u[order].reshape(2, -1), lam[order].reshape(2, -1)
        counts = [_term_reference(ui, li) for ui, li in zip(u.flat, lam.flat)]
        small = (lam <= synth._ICDF_RATE_CUTOFF).ravel()
        assert [li for li, k, s in zip(lam.flat, counts, small) if s and k is None] == [25.0] * 8
        # the search's rule, replayed on the reference counts: a cell is still below at term
        # i when it needs at least i terms or stalls; it compacts whenever fewer than a
        # quarter of the searched cells are still below
        searched, compactions = u.size, 0
        for i in range(1, synth.ICDF_MAX_TERMS + 1):
            below = sum(1 for k, s in zip(counts, small) if s and (k is None or k >= i))
            if 4 * below < searched:
                searched, compactions = below, compactions + 1
        assert compactions >= 2
        got = poisson_icdf(u, lam)
        assert got.shape == u.shape
        assert got.ravel().tolist() == [_icdf_reference(ui, li) for ui, li in zip(u.flat, lam.flat)]

    def test_zero_d_input_gives_zero_d_count(self):
        # a rate below and one above the cutoff
        for u, lam in ((0.5, 1.0), (0.5, 100.0)):
            got = poisson_icdf(u, lam)
            assert got.shape == ()
            assert got.tolist() == poisson_icdf(np.array([u]), np.array([lam])).tolist()[0]


def _icdf_reference(u: float, lam: float) -> int:
    """``poisson_icdf`` one cell at a time: scipy's recipe above the cutoff
    and where the term recurrence stalls, the recurrence elsewhere."""
    if lam <= synth._ICDF_RATE_CUTOFF and (k := _term_reference(u, lam)) is not None:
        return k
    return _recipe_reference(u, lam)


def _recipe_reference(u: float, lam: float) -> int:
    upper = np.ceil(special.pdtrik(u, lam))
    lower = max(upper - 1, 0.0)
    return int(lower if special.pdtr(lower, lam) >= u else upper)


def _term_reference(u: float, lam: float) -> int | None:
    """The small-rate term recurrence for one cell; None past ICDF_MAX_TERMS terms."""
    p = float(np.exp(-np.array([lam]))[0])  # numpy's exp, as the kernel's
    cum, k = p, 0
    while cum < u:
        k += 1
        if k > synth.ICDF_MAX_TERMS:
            return None
        p *= lam / k
        cum += p
    return k


class TestConfigValidation:
    def test_a_path_nondecreasing(self):
        with pytest.raises(ValidationError, match="nondecreasing"):
            AiPath(0.4, 0.3, 0.5)

    def test_a_path_range(self):
        with pytest.raises(ValidationError):
            AiPath(-0.1, 0.2, 0.3)

    def test_control_must_be_constant(self):
        market = reference_market()
        message = "control market must have a constant a_path, got AiPath(a_pre=0.1, a_post35=0.2, a_post40=0.2)"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ScenarioConfig(
                markets=(
                    MarketScenario("t", market, AiPath(0.1, 0.3, 0.3)),
                    MarketScenario("c", market, AiPath(0.1, 0.2, 0.2)),
                ),
                control_market_id="c",
            )

    def test_control_must_exist(self):
        market = reference_market()
        with pytest.raises(ValidationError, match="not among"):
            ScenarioConfig(
                markets=(MarketScenario("t", market, AiPath(0.1, 0.1, 0.1)),),
                control_market_id="zzz",
            )

    @pytest.mark.parametrize("market_id", ["olm,01", 'olm"01', "olm\n01", "olm/01", ""])
    def test_market_id_outside_the_csv_and_file_name_characters_rejected(self, market_id):
        with pytest.raises(ValidationError, match="market id") as info:
            MarketScenario(market_id, reference_market(), AiPath(0.1, 0.1, 0.1))
        assert repr(market_id) in str(info.value)

    def test_market_id_of_allowed_characters_accepted(self):
        assert MarketScenario("Olm_0.1-b", reference_market(), AiPath(0.1, 0.1, 0.1)).market_id == "Olm_0.1-b"

    def test_duplicate_ids_rejected(self):
        market = reference_market()
        with pytest.raises(ValidationError, match="unique"):
            ScenarioConfig(
                markets=(
                    MarketScenario("t", market, AiPath(0.1, 0.1, 0.1)),
                    MarketScenario("t", market, AiPath(0.1, 0.1, 0.1)),
                ),
                control_market_id="t",
            )

    def test_shock_ordering(self):
        with pytest.raises(ValidationError, match="shock"):
            substitution_config(workers=10).__class__(
                **{**substitution_config(workers=10).__dict__, "shock1_index": 9, "shock2_index": 3}
            )

    def test_moderator_boost_bounds(self):
        with pytest.raises(ValidationError, match="past a=1"):
            two_market_config(AiPath(0.1, 0.6, 0.6), workers=10,
                              moderator_boost=ModeratorBoost("us", 2.5))

    def test_default_months_with_their_gap_valid(self):
        config = substitution_config(workers=10)
        assert config.months == synth.DEFAULT_MONTHS
        # 2022-10 to 2023-01 is one step of the panel and 92 calendar days
        gap = synth.DEFAULT_MONTHS.index("2023-01")
        assert np.diff(synth._month_day_offsets(config.months))[gap - 1] == 92

    @pytest.mark.parametrize("first, second", [
        ("2022-05", "2022-13"),  # no month 13
        ("2022-5", "2022-06"),  # not zero-padded
        ("0000-01", "2022-06"),  # no year 0 in the calendar
        ("2022-06", "2022-05"),  # a reversed pair
        ("2022-05", "2022-05"),  # a repeated month
    ])
    def test_months_not_increasing_calendar_labels_rejected(self, first, second):
        months = (first, second, *synth.DEFAULT_MONTHS[2:])
        with pytest.raises(ValidationError, match="^months must be"):
            dataclasses.replace(substitution_config(workers=10), months=months)

    def test_moderator_column_checked(self):
        with pytest.raises(ValidationError, match=r"^moderator must be one of \('us', 'experienced'\), got 'tenure'$"):
            ModeratorBoost("tenure", 1.5)


def _config_with(**changes) -> ScenarioConfig:
    return dataclasses.replace(substitution_config(workers=10), **changes)


#: one out-of-range value of a config field, a boost, the oracle or the
#: Poisson inverse CDF, and the whole message, which names the value, or,
#: for rates that do not broadcast to the uniforms, both shapes
RANGE_RULES = {
    "no markets": (lambda: ScenarioConfig(markets=(), control_market_id="c"),
                   "scenario needs at least one market, got 0"),
    "no workers": (lambda: _config_with(workers_per_market=0), "workers_per_market must be positive, got 0"),
    "one month": (lambda: _config_with(months=("2022-05",)), "need at least 2 months, got 1"),
    "worker_fe_sigma": (lambda: _config_with(worker_fe_sigma=-0.4), "worker_fe_sigma must be nonnegative, got -0.4"),
    "month_fe_sigma": (lambda: _config_with(month_fe_sigma=-1), "month_fe_sigma must be nonnegative, got -1"),
    "noise_sigma": (lambda: _config_with(noise_sigma=-0.3), "noise_sigma must be nonnegative, got -0.3"),
    "background_rate": (lambda: _config_with(background_rate=-2.0), "background_rate must be nonnegative, got -2.0"),
    "jobs_scale": (lambda: _config_with(jobs_scale=0.0), "jobs_scale must be positive, got 0.0"),
    "weekly_scale": (lambda: _config_with(weekly_scale=-5.0), "weekly_scale must be positive, got -5.0"),
    "us_share": (lambda: _config_with(us_share=1.5), "us_share must lie in [0, 1], got 1.5"),
    "experienced_share": (lambda: _config_with(experienced_share=-0.1),
                          "experienced_share must lie in [0, 1], got -0.1"),
    "seed": (lambda: _config_with(seed=-1), "seed must be a nonnegative integer, got -1"),
    "a_path level": (lambda: AiPath(0.1, 0.2, float("nan")), "a_path a_post40 must lie in [0, 1], got nan"),
    "boost multiplier": (lambda: ModeratorBoost("us", -0.5), "moderator multiplier must be nonnegative, got -0.5"),
    "oracle reps": (lambda: ground_truth_att(null_config(workers=5), reps=0), "reps must be positive, got 0"),
    "poisson rates too few": (lambda: poisson_icdf(np.full(3, 0.5), np.ones(2)),
                              "poisson rates of shape (2,) do not broadcast to the uniforms' shape (3,)"),
    "poisson rates too many": (lambda: poisson_icdf(np.full(3, 0.5), np.ones((2, 3))),
                               "poisson rates of shape (2, 3) do not broadcast to the uniforms' shape (3,)"),
}


@pytest.mark.parametrize("case", RANGE_RULES)
def test_range_rule_names_the_value(case):
    build, message = RANGE_RULES[case]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build()


class TestGeneratePanel:
    def test_deterministic_given_seed(self):
        config = substitution_config(workers=40, seed=123)
        assert_same_columns(generate_panel_arrays(config), generate_panel_arrays(config), PANEL_COLUMNS)

    @pytest.mark.parametrize(
        "config",
        [
            demo_config(workers=6, seed=5),
            substitution_config(workers=8, seed=3),
            demo_config(workers=5, seed=1, control_at=4),
        ],
        ids=["control-first", "control-last", "control-middle"],
    )
    def test_blocks_assemble_to_the_panel(self, config):
        blocks = list(synth.generate_panel_blocks(config))
        # one block per market, in market order
        assert [b.market_id.tolist() for b in blocks] == [[m.market_id] * b.n_rows for m, b in zip(config.markets, blocks)]
        panel = generate_panel_arrays(config)
        for name in PANEL_COLUMNS:
            column, parts = getattr(panel, name), [getattr(b, name) for b in blocks]
            assert {part.dtype for part in parts} == {column.dtype}, name
            joined = np.concatenate(parts)
            assert (joined.tolist() == column.tolist() if column.dtype == object
                    else joined.tobytes() == column.tobytes()), name

    def test_different_seeds_differ(self):
        a = generate_panel_arrays(substitution_config(workers=40, seed=1))
        b = generate_panel_arrays(substitution_config(workers=40, seed=2))
        assert not np.array_equal(a.fjobnum, b.fjobnum)

    def test_shape_and_flags(self):
        config = substitution_config(workers=30, seed=5)
        arr = generate_panel_arrays(config)
        assert arr.n_rows == 2 * 30 * 16
        np.testing.assert_array_equal(np.unique(arr.month_index), np.arange(16))
        assert set(np.unique(arr.market_id)) == {"treated", "control"}
        # post flags follow the shock indices
        assert np.all((arr.month_index >= 6) == (arr.post35 == 1))
        assert np.all((arr.month_index >= 8) == (arr.post40 == 1))
        assert np.all((arr.market_id != "control") == (arr.treat == 1))

    def test_schema_invariants_fuzz(self):
        rng = np.random.default_rng(77)
        total = 0
        while total < 10_000:
            a_pre = rng.uniform(0.0, 0.7)
            jump = rng.uniform(0.0, 0.9 - a_pre)
            config = two_market_config(
                AiPath(a_pre, a_pre + 0.5 * jump, a_pre + jump),
                workers=int(rng.integers(5, 40)),
                seed=int(rng.integers(0, 2**31)),
                noise_sigma=float(rng.uniform(0, 0.6)),
                worker_fe_sigma=float(rng.uniform(0, 0.8)),
                background_rate=float(rng.uniform(0, 4)),
            )
            arr = generate_panel_arrays(config)
            arr.validate()
            total += arr.n_rows

    def test_degenerate_noise_free_earnings_equal_price_times_jobs(self):
        config = null_config(
            workers=25, seed=3, a_level=0.3,
            noise_sigma=0.0, worker_fe_sigma=0.0, month_fe_sigma=0.0,
        )
        arr = generate_panel_arrays(config)
        price = cournot_equilibrium(reference_market(), 0.3).p
        has_jobs = arr.fjobnum > 0
        np.testing.assert_allclose(arr.fjobearn[has_jobs] / arr.fjobnum[has_jobs], price, rtol=1e-12)
        # constant rate over months: every worker-month cell shares one lambda,
        # so the per-month mean count is flat up to Poisson noise
        lam = cournot_equilibrium(reference_market(), 0.3).q * config.jobs_scale
        monthly = [arr.fjobnum[arr.month_index == t].mean() for t in range(16)]
        se = np.sqrt(lam / (2 * 25))
        assert np.max(np.abs(np.array(monthly) - lam)) < 5 * se

    def test_tenure_nondecreasing_and_usable_as_control(self):
        config = substitution_config(workers=50, seed=11)
        arr = generate_panel_arrays(config)
        for wid in np.unique(arr.worker_id)[:10]:
            ten = arr.tenure[arr.worker_id == wid]
            months = arr.month_index[arr.worker_id == wid]
            assert np.all(np.diff(ten[np.argsort(months)]) >= 0)
        fit = did_fit(arr, RegressionSpec(outcome="fjobnum", transform="log1p", controls=("tenure",)))
        assert "tenure" in fit.coefficients

    def test_treated_mean_rises_in_honeymoon_phase(self):
        # mean log1p(count) for treated rises post-shock relative to control:
        # Monte Carlo average of the raw DiD over 200 replications
        diffs = []
        for rep in range(200):
            config = two_market_config(AiPath(0.2, 0.4, 0.4), workers=60, seed=10_000 + rep)
            arr = generate_panel_arrays(config)
            y = np.log1p(arr.fjobnum.astype(float))
            t, p = arr.treat == 1, arr.post35 == 1
            diffs.append(
                (y[t & p].mean() - y[t & ~p].mean()) - (y[~t & p].mean() - y[~t & ~p].mean())
            )
        diffs = np.array(diffs)
        assert diffs.mean() > 3 * diffs.std(ddof=1) / np.sqrt(len(diffs))
        assert diffs.mean() > 0


class TestGroundTruth:
    def test_no_treatment_gives_exact_zero(self):
        config = null_config(workers=30, seed=2)
        gt = ground_truth_att(config, outcome="fjobnum", reps=5)
        assert gt.att == 0.0 and gt.mc_se == 0.0

    def test_noise_free_att_matches_exact_poisson_expectation(self):
        config = substitution_config(
            workers=150, seed=21,
            noise_sigma=0.0, worker_fe_sigma=0.0, month_fe_sigma=0.0,
        )
        market = reference_market()
        lam1 = cournot_equilibrium(market, 0.85).q * config.jobs_scale
        lam0 = cournot_equilibrium(market, 0.60).q * config.jobs_scale
        ks = np.arange(0, 200)

        def mean_log1p(lam):
            return float(np.sum(np.log1p(ks) * stats.poisson.pmf(ks, lam)))

        exact = mean_log1p(lam1) - mean_log1p(lam0)
        gt = ground_truth_att(config, outcome="fjobnum", reps=120)
        assert gt.att == pytest.approx(exact, abs=max(4 * gt.mc_se, 1e-4))

    def test_honeymoon_earnings_att_positive(self):
        gt = ground_truth_att(honeymoon_config(workers=150, seed=4), outcome="fjobearn", reps=500)
        assert gt.att > 4 * gt.mc_se > 0

    def test_att_sign_matches_phase_on_path_grid(self):
        # nine configs: three honeymoon, three substitution, three crossing
        market = reference_market()
        honeymoon = [AiPath(0.05, 0.20, 0.20), AiPath(0.10, 0.30, 0.30), AiPath(0.20, 0.45, 0.45)]
        substitution = [AiPath(0.55, 0.75, 0.75), AiPath(0.60, 0.85, 0.85), AiPath(0.70, 0.95, 0.95)]
        crossing = [AiPath(0.30, 0.75, 0.75), AiPath(0.15, 0.80, 0.80), AiPath(0.45, 0.65, 0.65)]
        for group, expected_sign in (("honeymoon", 1), ("substitution", -1), ("crossing", 0)):
            paths = {"honeymoon": honeymoon, "substitution": substitution, "crossing": crossing}[group]
            for path in paths:
                config = two_market_config(path, workers=80, seed=31)
                gt = ground_truth_att(config, outcome="fjobnum", reps=80)
                if expected_sign == 0:
                    q1 = cournot_equilibrium(market, path.a_post35).q
                    q0 = cournot_equilibrium(market, path.a_pre).q
                    sign = np.sign(q1 - q0)
                else:
                    sign = expected_sign
                assert np.sign(gt.att) == sign, (group, path)
                assert abs(gt.att) > 3 * gt.mc_se

    def test_outcome_name_checked(self):
        with pytest.raises(ValidationError):
            ground_truth_att(null_config(workers=5), outcome="bogus", reps=2)

    def test_no_treated_market_rejected(self):
        config = ScenarioConfig(
            markets=(MarketScenario("ctrl", reference_market(), AiPath(0.3, 0.3, 0.3)),),
            control_market_id="ctrl", workers_per_market=5,
        )
        with pytest.raises(ValidationError, match="only the control 'ctrl'"):
            ground_truth_att(config, reps=2)

    def test_seed_0_equals_the_golden_oracle(self):
        # the oracle of the montecarlo benchmark's seed 0; perfbench/record_golden.py alone writes it
        path = Path(__file__).parents[1] / "perfbench" / "golden.json"
        golden = json.loads(path.read_text(encoding="utf-8"))["montecarlo"]["0"]
        gt = ground_truth_att(substitution_config(workers=250, seed=0), reps=400)
        assert (gt.att, gt.mc_se) == (golden["att"], golden["mc_se"])


_DRAW_CONFIGS = pytest.mark.parametrize(
    "config",
    [
        demo_config(workers=6, seed=5),
        substitution_config(workers=8, seed=3),
        two_market_config(CROSSING_PATH, workers=7, seed=2, moderator_boost=ModeratorBoost("experienced", 1.2)),
    ],
    ids=["control-first", "control-last", "experienced-boost"],
)


@_DRAW_CONFIGS
def test_draw_stopped_is_a_prefix_of_the_full_draw(config):
    full_fe, *full = synth._draw(config, 9)
    names = list(synth._MARKET_DRAWS)
    for idx in range(len(config.markets)):
        for pos, name in enumerate(names):
            month_fe, *cut = synth._draw(config, 9, (idx, name))
            assert np.array_equal(month_fe, full_fe)
            assert len(cut) == idx + 1
            for m in range(idx + 1):
                # the stopped market holds its draws up to the stop, in stream order
                drawn = names[:pos + 1] if m == idx else names
                assert list(cut[m]) == drawn, (idx, name, m)
                for field in drawn:
                    assert np.array_equal(cut[m][field], full[m][field]), (idx, name, field)


@_DRAW_CONFIGS
@pytest.mark.parametrize("outcome", ["fjobnum", "fjobearn", "fjobratio"])
def test_last_draw_of_each_outcome_is_the_first_stop_that_gives_its_cells(config, outcome):
    idx = max(i for i, m in enumerate(config.markets) if m.market_id != config.control_market_id)
    scenario = config.markets[idx]
    q, p = synth._equilibrium_levels(scenario, config, scenario.a_path)
    cols = slice(config.shock1_index, None)

    def cells_outcome(draws):
        month_fe, *markets = draws
        cells = synth._MarketCells(config, month_fe, markets[idx], cols)
        return cells.outcome(outcome, cells.jobs(q), p)

    full = cells_outcome(synth._draw(config, 4))
    for name in synth._MARKET_DRAWS:
        try:
            got = cells_outcome(synth._draw(config, 4, (idx, name)))
        except KeyError:  # the outcome reads a draw after this stop
            continue
        if np.array_equal(got, full):
            break
    assert name == synth._LAST_DRAW[outcome]


def _reference_att(config, outcome, reps):
    """The oracle spelled out on full panels: the factual panel and the panel of
    every market's path frozen at its pre level, treated post cells masked."""
    transform = np.log1p if outcome in ("fjobnum", "fjobearn") else (lambda x: x)
    markets = tuple(dataclasses.replace(m, a_path=m.a_path.frozen_at_pre()) for m in config.markets)
    frozen_config = dataclasses.replace(config, markets=markets)
    diffs = np.empty(reps)
    for r in range(reps):
        factual = generate_panel_arrays(config.with_seed(config.seed ^ r))
        frozen = generate_panel_arrays(frozen_config.with_seed(config.seed ^ r))
        cells = (factual.treat == 1) & (factual.post35 == 1)
        y1 = transform(factual.column(outcome).astype(np.float64))
        y0 = transform(frozen.column(outcome).astype(np.float64))
        diffs[r] = float(np.mean(y1[cells] - y0[cells]))
    return float(diffs.mean()), float(diffs.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0


@pytest.mark.parametrize("outcome", ["fjobnum", "fjobearn", "fjobratio"])
@pytest.mark.parametrize(
    "config",
    [
        demo_config(workers=12, seed=5),
        substitution_config(workers=30),
        two_market_config(AiPath(0.3, 0.5, 0.6), workers=30, seed=11, moderator_boost=ModeratorBoost("us", 1.5)),
        two_market_config(CROSSING_PATH, workers=30, seed=2, moderator_boost=ModeratorBoost("experienced", 1.2)),
    ],
    ids=["sweep", "substitution", "us-boost", "experienced-boost"],
)
@pytest.mark.parametrize("reps", [1, 4, 5, 6])
def test_oracle_equals_full_panel_reference(config, outcome, reps):
    # the oracle inverts up to 4 replications' counts in one call; 1, 5 and 6 end on a part chunk
    assert synth._ORACLE_CHUNK == 4
    gt = ground_truth_att(config, outcome=outcome, reps=reps)
    assert (gt.att, gt.mc_se) == _reference_att(config, outcome, reps=reps)


def _reference_demand(config, weeks):
    """The demand series spelled out market by market: each market's uniforms
    drawn and inverted on their own, its equilibria solved week by week, and
    its columns built on their own and concatenated."""
    s1 = weeks // 2
    s2 = s1 + max(1, weeks // 6)
    rng = np.random.default_rng([config.seed, 2])
    week_fe = rng.standard_normal(weeks) * config.month_fe_sigma
    pieces = []
    for m in config.markets:
        rate = np.array([
            m.market.n * cournot_equilibrium(m.market, m.a_path.level_at(wk, s1, s2)).q * config.weekly_scale
            for wk in range(weeks)
        ])
        pieces.append({
            "market_id": np.full(weeks, m.market_id, dtype=object),
            "week_index": np.arange(weeks),
            "postnum": poisson_icdf(rng.uniform(size=weeks), rate * np.exp(week_fe)),
            "treat": np.full(weeks, int(m.market_id != config.control_market_id)),
            "post": (np.arange(weeks) >= s1).astype(np.int64),
        })
    return DemandArrays(**{name: np.concatenate([piece[name] for piece in pieces]) for name in DEMAND_COLUMNS})


@_DRAW_CONFIGS
@pytest.mark.parametrize("weeks", [8, 40])
def test_demand_equals_per_market_reference(config, weeks):
    assert_same_columns(generate_demand_arrays(config, weeks=weeks), _reference_demand(config, weeks), DEMAND_COLUMNS)


class TestDemandSeries:
    def test_deterministic(self):
        config = substitution_config(workers=5, seed=8)
        a, b = generate_demand_arrays(config, weeks=40), generate_demand_arrays(config, weeks=40)
        assert_same_columns(a, b, DEMAND_COLUMNS)

    def test_schema_and_flags(self):
        config = substitution_config(workers=5, seed=8)
        arr = generate_demand_arrays(config, weeks=40)
        assert arr.n_rows == 2 * 40
        assert np.all((arr.week_index >= 20) == (arr.post == 1))
        assert np.all(arr.postnum >= 0)

    def test_stationary_mean_under_constant_path(self):
        config = null_config(workers=5, seed=14, a_level=0.3, month_fe_sigma=0.0)
        arr = generate_demand_arrays(config, weeks=400)
        market = reference_market()
        lam = market.n * cournot_equilibrium(market, 0.3).q * config.weekly_scale
        for mid in ("treated", "control"):
            counts = arr.postnum[arr.market_id == mid]
            assert counts.mean() == pytest.approx(lam, abs=4 * np.sqrt(lam / len(counts)))

    def test_substitution_shock_lowers_treated_mean(self):
        diffs = []
        for rep in range(200):
            config = substitution_config(workers=5, seed=20_000 + rep)
            arr = generate_demand_arrays(config, weeks=60)
            t, p = arr.treat == 1, arr.post == 1
            y = np.log1p(arr.postnum.astype(float))
            diffs.append((y[t & p].mean() - y[t & ~p].mean()) - (y[~t & p].mean() - y[~t & ~p].mean()))
        diffs = np.array(diffs)
        assert diffs.mean() < -3 * diffs.std(ddof=1) / np.sqrt(len(diffs))

    def test_week_count_validated(self):
        with pytest.raises(ValidationError):
            generate_demand_arrays(substitution_config(workers=5), weeks=4)
