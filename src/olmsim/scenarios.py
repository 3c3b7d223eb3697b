"""Ready-made scenario configurations.

All numeric values here are the package's own calibration choices for a
well-behaved demonstration market; nothing is fitted to any real
platform. The reference market is quadratic with S0=2.5, kappa=2, c=2,
so its inflection point sits at a* = 0.5, and the equilibrium quantity
q(a) = (0.5 + 2a - 2a^2) / 1.55 is single-peaked there.
"""

from __future__ import annotations

from .market import MarketPotentialSpec, MarketSpec, PotentialFamily
from .synth import AiPath, MarketScenario, ModeratorBoost, ScenarioConfig

#: paths for the three canonical regimes of the reference market
SUBSTITUTION_PATH = AiPath(0.60, 0.85, 0.85)
HONEYMOON_PATH = AiPath(0.05, 0.20, 0.20)
CROSSING_PATH = AiPath(0.15, 0.45, 0.80)

#: nine nondecreasing paths straddling a* = 0.5 in every pattern: three
#: staying below (productivity twice), three crossing between the shocks
#: (productivity then displacement), three at or above (displacement twice)
SWEEP_PATHS = (
    AiPath(0.05, 0.20, 0.35),
    AiPath(0.10, 0.25, 0.40),
    AiPath(0.05, 0.30, 0.45),
    AiPath(0.25, 0.50, 0.75),
    AiPath(0.15, 0.40, 0.80),
    AiPath(0.40, 0.60, 0.90),
    AiPath(0.55, 0.75, 0.95),
    AiPath(0.60, 0.80, 0.95),
    AiPath(0.50, 0.70, 0.90),
)


def reference_market() -> MarketSpec:
    return MarketSpec(
        n=30,
        c=2.0,
        b=0.05,
        potential=MarketPotentialSpec(PotentialFamily.QUADRATIC, S0=2.5, kappa=2.0),
    )


def two_market_config(
    a_path: AiPath,
    workers: int = 800,
    seed: int = 0,
    moderator_boost: ModeratorBoost | None = None,
    **overrides,
) -> ScenarioConfig:
    """One treated market against one control frozen at the same pre level."""
    market = reference_market()
    return ScenarioConfig(
        markets=(
            MarketScenario("treated", market, a_path),
            MarketScenario("control", market, a_path.frozen_at_pre()),
        ),
        control_market_id="control",
        workers_per_market=workers,
        seed=seed,
        moderator_boost=moderator_boost,
        **overrides,
    )


def substitution_config(workers: int = 800, seed: int = 0, **kw) -> ScenarioConfig:
    return two_market_config(SUBSTITUTION_PATH, workers=workers, seed=seed, **kw)


def honeymoon_config(workers: int = 800, seed: int = 0, **kw) -> ScenarioConfig:
    return two_market_config(HONEYMOON_PATH, workers=workers, seed=seed, **kw)


def null_config(workers: int = 800, seed: int = 0, a_level: float = 0.3, **kw) -> ScenarioConfig:
    """Both markets frozen at the same level: no treatment effect anywhere."""
    return two_market_config(AiPath(a_level, a_level, a_level), workers=workers, seed=seed, **kw)

