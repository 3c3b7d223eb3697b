import dataclasses
import math
import re

import numpy as np
import pytest
from conftest import (
    best_response_equilibrium,
    one_step_best_response,
    random_logistic_market,
    random_market,
    random_quadratic_market,
)
from scipy.optimize import brentq
from scipy.special import expit

from olmsim.errors import BoundaryConditionError, ValidationError
from olmsim.market import (
    INFLECTION_TOL,
    MarketPotentialSpec,
    MarketSpec,
    Phase,
    PotentialFamily,
    _expit,
    check_ai_level,
    cournot_equilibrium,
    equilibrium_from_primitives,
    eval_potential,
    inflection_point,
    potential_slope,
    sweep_comparative_statics,
)

QUAD = MarketPotentialSpec(PotentialFamily.QUADRATIC, S0=10.0, kappa=2.0)
LOGI = MarketPotentialSpec(PotentialFamily.LOGISTIC_ADOPTION, S0=10.0, mu=1.5, s=0.3)


class TestPotential:
    def test_quadratic_values(self):
        assert eval_potential(QUAD, 0.0) == 10.0
        assert eval_potential(QUAD, 0.5) == 9.5

    def test_logistic_value_against_cdf_oracle(self):
        # independent logistic CDF evaluation
        z = (1.0 - 1.5) / 0.3
        expected = 10.0 * (1.0 - 1.0 / (1.0 + math.exp(-z)))
        assert eval_potential(LOGI, 1.0) == pytest.approx(expected, rel=1e-12)
        assert eval_potential(LOGI, 1.0) == pytest.approx(8.41, abs=5e-3)

    def test_quadratic_slope(self):
        assert potential_slope(QUAD, 0.5) == -2.0
        assert potential_slope(QUAD, 0.0) == 0.0

    @pytest.mark.parametrize("spec", [QUAD, LOGI])
    def test_slope_matches_central_difference(self, spec):
        # abs floor covers the cancellation noise of the FD oracle where
        # the slope itself vanishes (quadratic family near a = 0)
        h = 1e-6
        for a in np.linspace(h, 1.0 - h, 23):
            fd = (eval_potential(spec, a + h) - eval_potential(spec, a - h)) / (2 * h)
            assert potential_slope(spec, a) == pytest.approx(fd, rel=1e-6, abs=1e-7)

    def test_logistic_slope_closed_form(self):
        z = (1.0 - 1.5) / 0.3
        l = 1.0 / (1.0 + math.exp(-z))
        expected = -(10.0 / 0.3) * l * (1.0 - l)
        assert potential_slope(LOGI, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_monotone_and_concave_on_grid(self):
        rng = np.random.default_rng(7)
        grid = np.linspace(0.0, 1.0, 1001)
        for _ in range(10):
            spec = random_market(rng).potential
            vals = np.array([eval_potential(spec, a) for a in grid])
            slopes = np.array([potential_slope(spec, a) for a in grid])
            assert np.all(np.diff(vals) < 0)
            assert np.all(np.diff(slopes) < 0)
            assert np.all(vals > 0)

    def test_invalid_specs(self):
        with pytest.raises(ValidationError):
            MarketPotentialSpec(PotentialFamily.QUADRATIC, S0=10.0, kappa=0.0)
        with pytest.raises(ValidationError):
            MarketPotentialSpec(PotentialFamily.QUADRATIC, S0=2.0, kappa=2.5)
        with pytest.raises(ValidationError):
            MarketPotentialSpec(PotentialFamily.LOGISTIC_ADOPTION, S0=10.0, mu=0.5, s=0.3)
        with pytest.raises(ValidationError):
            MarketPotentialSpec(PotentialFamily.LOGISTIC_ADOPTION, S0=-1.0, mu=1.5, s=0.3)
        with pytest.raises(ValidationError, match="unknown potential family 'cubic'"):
            MarketPotentialSpec("cubic", S0=1.0)

    def test_ai_level_range_checked(self):
        with pytest.raises(ValidationError):
            eval_potential(QUAD, 1.2)
        with pytest.raises(ValidationError):
            potential_slope(QUAD, -0.1)

    @pytest.mark.parametrize("a", [1.2, -0.1, math.nan])
    def test_check_ai_level_names_what_and_the_value(self, a):
        with pytest.raises(ValidationError, match=rf"^AI level must lie in \[0, 1\], got {a}$"):
            check_ai_level(a)
        with pytest.raises(ValidationError, match=rf"^a_path a_pre must lie in \[0, 1\], got {a}$"):
            check_ai_level(a, "a_path a_pre")
        assert check_ai_level(1) == 1.0 and type(check_ai_level(1)) is float


#: one bad field of a valid market (``MarketSpec(n=4, c=2.0, b=1.0, QUAD)``), and the whole message
BAD_MARKETS = {
    "no workers": ({"n": 0}, "worker count n must be a positive integer, got 0"),
    "fractional workers": ({"n": 2.5}, "worker count n must be a positive integer, got 2.5"),
    "zero cost": ({"c": 0.0}, "baseline marginal cost c must be positive, got 0.0"),
    "negative cost": ({"c": -1.0}, "baseline marginal cost c must be positive, got -1.0"),
    "zero demand slope": ({"b": 0.0}, "demand slope b must be positive, got 0.0"),
    "negative demand slope": ({"b": -0.5}, "demand slope b must be positive, got -0.5"),
}


@pytest.mark.parametrize("case", BAD_MARKETS)
def test_market_range_rule_names_the_value(case):
    changes, message = BAD_MARKETS[case]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        MarketSpec(**{"n": 4, "c": 2.0, "b": 1.0, "potential": QUAD, **changes})


@pytest.mark.parametrize("s", [None, 0.0, -0.3])
def test_logistic_scale_must_be_positive(s):
    with pytest.raises(ValidationError, match=rf"^logistic family needs scale s > 0, got {s}$"):
        MarketPotentialSpec(PotentialFamily.LOGISTIC_ADOPTION, S0=10.0, mu=1.5, s=s)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", ["kappa", "mu", "s"])
@pytest.mark.parametrize("spec", [QUAD, LOGI], ids=["quadratic", "logistic"])
def test_non_finite_potential_parameter_rejected_naming_it(spec, field, value):
    # mu = inf and s = inf passed the logistic rules and made the potential flat; a
    # field the family does not read, or a value its own rule rejects, is named too
    with pytest.raises(ValidationError, match=rf"\b{field}\b"):
        dataclasses.replace(spec, **{field: value})


@pytest.mark.parametrize("field", ["mu", "s"])
def test_infinite_logistic_parameter_fails_the_finiteness_rule(field):
    with pytest.raises(ValidationError, match=rf"^{field} must be finite, got inf$"):
        dataclasses.replace(LOGI, **{field: math.inf})


class TestExpit:
    """``market._expit`` is bit for bit ``scipy.special.expit`` on a float."""

    @pytest.mark.parametrize(
        "x", [0.0, -0.0, 1e-300, -1e-300, 709.78, -709.78, 710.0, -710.0, 800.0, -800.0, math.inf, -math.inf, math.nan]
    )
    def test_edge_values(self, x):
        assert _expit(x).hex() == float(expit(x)).hex()

    def test_overflow_gives_zero(self):
        # math.exp(800.0) raises OverflowError, where expit gives 0.0
        assert _expit(-800.0) == 0.0

    def test_normal_draws(self):
        xs = np.random.default_rng(11).normal(size=100_000)
        assert [_expit(x).hex() for x in xs.tolist()] == [v.hex() for v in expit(xs).tolist()]


class TestEquilibrium:
    def test_constant_potential_example(self):
        eq = equilibrium_from_primitives(10.0, 2.0, b=1.0, n=4)
        assert eq.q == pytest.approx(1.6, abs=1e-12)
        assert eq.p == pytest.approx(3.6, abs=1e-12)
        assert eq.profit == pytest.approx(2.56, abs=1e-12)
        assert eq.revenue == pytest.approx(5.76, abs=1e-12)
        assert not eq.corner

    def test_constant_potential_against_br_oracle(self):
        q_oracle = best_response_equilibrium(10.0, 2.0, b=1.0, n=4)
        assert np.allclose(q_oracle, 1.6, atol=1e-9)

    def test_quadratic_monopoly_example(self):
        pot = MarketPotentialSpec(PotentialFamily.QUADRATIC, S0=10.0, kappa=3.0)
        market = MarketSpec(n=1, c=2.0, b=1.0, potential=pot)
        eq = cournot_equilibrium(market, 1.0)
        assert eq.q == pytest.approx(3.5, abs=1e-12)
        assert eq.p == pytest.approx(3.5, abs=1e-12)
        assert eq.profit == pytest.approx(12.25, abs=1e-12)
        q_oracle = best_response_equilibrium(7.0, 0.0, b=1.0, n=1)
        assert np.allclose(q_oracle, 3.5, atol=1e-9)

    def test_monopoly_reduces_to_textbook_formula(self):
        pot = MarketPotentialSpec(PotentialFamily.QUADRATIC, S0=8.0, kappa=1.5)
        market = MarketSpec(n=1, c=2.0, b=0.7, potential=pot)
        a = 0.3
        s = eval_potential(pot, a)
        mc = (1 - a) * 2.0
        eq = cournot_equilibrium(market, a)
        assert eq.q == pytest.approx((s - mc) / (2 * 0.7), rel=1e-12)

    def test_closed_form_matches_br_oracle_random_specs(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            market = random_market(rng)
            a = rng.uniform(0.0, 1.0)
            eq = cournot_equilibrium(market, a)
            s = eval_potential(market.potential, a)
            mc = market.marginal_cost(a)
            q_oracle = best_response_equilibrium(s, mc, market.b, market.n, rng)
            assert np.allclose(q_oracle, eq.q, atol=1e-9)

    def test_closed_form_is_best_response_fixed_point(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            market = random_market(rng)
            a = rng.uniform(0.0, 1.0)
            eq = cournot_equilibrium(market, a)
            q_vec = np.full(market.n, eq.q)
            s = eval_potential(market.potential, a)
            updated = one_step_best_response(q_vec, s, market.marginal_cost(a), market.b)
            assert np.allclose(updated, q_vec, atol=1e-9)

    def test_profit_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            market = random_market(rng)
            eq = cournot_equilibrium(market, rng.uniform(0, 1))
            if not eq.corner:
                assert abs(eq.profit - market.b * eq.q**2) < 1e-12
                assert eq.p >= market.marginal_cost(0.0) * 0  # p nonnegative
                assert eq.p >= (eq.p - market.b * eq.q)  # sanity

    def test_price_covers_marginal_cost_when_interior(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            market = random_market(rng)
            a = rng.uniform(0, 1)
            eq = cournot_equilibrium(market, a)
            if not eq.corner:
                assert eq.p >= market.marginal_cost(a)

    def test_corner_when_demand_below_cost(self):
        eq = equilibrium_from_primitives(1.0, 2.0, b=1.0, n=3)
        assert eq.corner
        assert eq.q == 0.0 and eq.profit == 0.0 and eq.revenue == 0.0
        assert eq.p == 1.0


class TestInflection:
    def test_quadratic_analytic(self):
        pot = MarketPotentialSpec(PotentialFamily.QUADRATIC, S0=10.0, kappa=1.0)
        market = MarketSpec(n=4, c=1.0, b=1.0, potential=pot)
        assert inflection_point(market) == pytest.approx(0.5, abs=1e-10)

        pot2 = MarketPotentialSpec(PotentialFamily.QUADRATIC, S0=10.0, kappa=5.0)
        market2 = MarketSpec(n=4, c=2.0, b=1.0, potential=pot2)
        assert inflection_point(market2) == pytest.approx(0.2, abs=1e-10)

    def test_quadratic_analytic_random(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            market = random_quadratic_market(rng)
            expected = market.c / (2.0 * market.potential.kappa)
            assert inflection_point(market) == pytest.approx(expected, abs=1e-8)

    def test_boundary_violation_raises(self):
        pot = MarketPotentialSpec(PotentialFamily.QUADRATIC, S0=10.0, kappa=0.4)
        with pytest.raises(BoundaryConditionError):
            MarketSpec(n=4, c=1.0, b=1.0, potential=pot)

    def test_logistic_root_residual(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            market = random_logistic_market(rng)
            a_star = inflection_point(market)
            assert 0.0 < a_star < 1.0
            assert abs(potential_slope(market.potential, a_star) + market.c) < 1e-10

    @pytest.mark.parametrize("draw", [random_quadratic_market, random_logistic_market])
    def test_closed_form_matches_brentq(self, draw):
        rng = np.random.default_rng(29)
        for _ in range(200):
            market = draw(rng)
            root = brentq(
                lambda a: potential_slope(market.potential, a) + market.c, 0.0, 1.0,
                xtol=1e-14, rtol=8.9e-16, maxiter=200,
            )
            assert abs(inflection_point(market) - root) < INFLECTION_TOL

    def test_derivative_sign_matches_slope_gap(self):
        # sign of dq/da equals sign of S'(a) + c away from a*
        rng = np.random.default_rng(23)
        h = 1e-5
        checked = 0
        while checked < 100:
            market = random_market(rng)
            a_star = inflection_point(market)
            a = rng.uniform(2 * h, 1 - 2 * h)
            if abs(a - a_star) <= 2 * h:
                continue
            lo = cournot_equilibrium(market, a - h)
            hi = cournot_equilibrium(market, a + h)
            if lo.corner or hi.corner:
                continue
            gap = potential_slope(market.potential, a) + market.c
            assert math.copysign(1.0, hi.q - lo.q) == math.copysign(1.0, gap)
            checked += 1


class TestPhase:
    MARKET = MarketSpec(n=4, c=1.0, b=1.0, potential=MarketPotentialSpec(PotentialFamily.QUADRATIC, S0=10.0, kappa=1.0))

    @classmethod
    def phases(cls) -> dict[float, Phase]:
        """Phase by AI level on an 11-point grid, which holds a* = c / (2 kappa) = 0.5."""
        assert inflection_point(cls.MARKET) == 0.5
        return {row.a: row.phase for row in sweep_comparative_statics(cls.MARKET, 11)}

    def test_below_is_honeymoon(self):
        phases = self.phases()
        assert phases[0.3] is Phase.HONEYMOON
        assert all(phase is Phase.HONEYMOON for a, phase in phases.items() if a < 0.5)

    def test_above_is_substitution(self):
        phases = self.phases()
        assert phases[0.7] is Phase.SUBSTITUTION
        assert all(phase is Phase.SUBSTITUTION for a, phase in phases.items() if a > 0.5)

    def test_tie_is_substitution(self):
        assert self.phases()[0.5] is Phase.SUBSTITUTION


class TestSweep:
    def test_grid_size_validated(self):
        with pytest.raises(ValidationError):
            sweep_comparative_statics(TestPhase.MARKET, 2)

    def test_argmax_profit_near_inflection(self):
        market = TestPhase.MARKET
        rows = sweep_comparative_statics(market, 1001)
        profits = np.array([r.profit for r in rows])
        a_grid = np.array([r.a for r in rows])
        assert abs(a_grid[int(np.argmax(profits))] - 0.5) <= 1e-3 + 1e-12

    def test_point_comparisons(self):
        market = TestPhase.MARKET
        q = {a: cournot_equilibrium(market, a).q for a in (0.4, 0.5, 0.6)}
        assert q[0.4] < q[0.5] and q[0.6] < q[0.5]
        r = {a: cournot_equilibrium(market, a).revenue for a in (0.6, 0.9)}
        assert r[0.9] < r[0.6]

    @pytest.mark.parametrize("sampler", [random_quadratic_market, random_logistic_market])
    def test_monotone_pattern_both_families(self, sampler):
        rng = np.random.default_rng(31)
        for _ in range(10):
            market = sampler(rng)
            a_star = inflection_point(market)
            rows = sweep_comparative_statics(market, 1001)
            a = np.array([r.a for r in rows])
            q = np.array([r.q for r in rows])
            profit = np.array([r.profit for r in rows])
            revenue = np.array([r.revenue for r in rows])
            below = a < a_star
            above = a > a_star
            both_below = below[:-1] & below[1:]
            both_above = above[:-1] & above[1:]
            assert np.all(np.diff(q)[both_below] > 0)
            assert np.all(np.diff(profit)[both_below] > 0)
            assert np.all(np.diff(q)[both_above] < 0)
            assert np.all(np.diff(profit)[both_above] < 0)
            assert np.all(np.diff(revenue)[both_above] < 0)
            # argmax within one grid step of a*
            step = a[1] - a[0]
            assert abs(a[int(np.argmax(q))] - a_star) <= step + 1e-12
            assert abs(a[int(np.argmax(profit))] - a_star) <= step + 1e-12

    def test_phase_column(self):
        rows = sweep_comparative_statics(TestPhase.MARKET, 11)
        phases = [r.phase for r in rows]
        assert phases[:5] == [Phase.HONEYMOON] * 5
        assert phases[5:] == [Phase.SUBSTITUTION] * 6
