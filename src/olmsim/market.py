"""Cournot market model with AI-dependent demand and costs.

A market has ``n`` identical workers selling one service. The AI level
``a`` in [0, 1] is the fraction of tasks automation completes: it lowers
each worker's marginal cost to ``(1 - a) * c`` while eroding the demand
intercept ``S(a)``. Inverse demand is ``p = S(a) - b * total_quantity``.

Because S is decreasing and concave while the cost relief is linear, the
net effect of better AI on workers flips sign exactly once, at the AI
level where ``S'(a) + c = 0``. Below that inflection point workers gain
from AI improvements (honeymoon phase); above it they lose (substitution
phase).

All functions here are pure; there is no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import BoundaryConditionError, ValidationError

#: absolute tolerance on S'(a*) + c accepted from the closed-form root
INFLECTION_TOL = 1e-10

#: |a - a*| window treated as "exactly at the inflection point"
BOUNDARY_ATOL = 1e-12


class PotentialFamily(str, Enum):
    """Functional family of the market-potential curve S(a)."""

    QUADRATIC = "quadratic"
    LOGISTIC_ADOPTION = "logistic_adoption"


class Phase(str, Enum):
    HONEYMOON = "honeymoon"
    SUBSTITUTION = "substitution"


@dataclass(frozen=True)
class MarketPotentialSpec:
    """Market potential S(a), decreasing and concave on (0, 1].

    Two families are supported behind the same interface:

    * ``QUADRATIC``: ``S(a) = S0 - kappa * a**2``.
    * ``LOGISTIC_ADOPTION``: ``S(a) = S0 * (1 - L((a - mu) / s))`` with L
      the standard logistic CDF, modelling employer-side AI adoption that
      accelerates as the technology matures. ``mu >= 1`` keeps S concave
      on the whole unit interval.
    """

    family: PotentialFamily
    S0: float
    kappa: float | None = None
    mu: float | None = None
    s: float | None = None

    def __post_init__(self):
        check_number(self.S0, "S0", "be positive")
        if self.family == PotentialFamily.QUADRATIC:
            if self.kappa is None or not self.kappa > 0:
                raise ValidationError(f"quadratic family needs kappa > 0, got {self.kappa}")
            if self.S0 <= self.kappa:
                raise ValidationError(
                    f"quadratic family needs S0 > kappa so S(1) > 0, got S0={self.S0}, kappa={self.kappa}"
                )
        elif self.family == PotentialFamily.LOGISTIC_ADOPTION:
            if self.s is None or not self.s > 0:
                raise ValidationError(f"logistic family needs scale s > 0, got {self.s}")
            if self.mu is None or not self.mu >= 1.0:
                raise ValidationError(
                    f"logistic family needs adoption midpoint mu >= 1 for concavity on [0, 1], got {self.mu}"
                )
        else:  # a family given as a string that names no member, e.g. "cubic"
            raise ValidationError(f"unknown potential family {self.family!r}")
        for name in ("kappa", "mu", "s"):  # the family rules above let an infinity through
            check_number(getattr(self, name), name)


#: the range rules a scenario number may follow, by the words of their
#: message; each is false for nan
NUMBER_RULES = {
    "be nonnegative": lambda v: v >= 0,
    "be positive": lambda v: v > 0,
    "lie in [0, 1]": lambda v: 0.0 <= v <= 1.0,
}


def check_number(value, what: str, rule: str | None = None):
    """Return ``value``, a scenario number named ``what``, once it follows
    ``rule``, a key of :data:`NUMBER_RULES` or None for no range, and, as a
    float, is finite: a rule such as ``v > 0`` lets an infinity through. A
    value of another type is left to the scenario codec's type rule."""
    if rule is not None and not NUMBER_RULES[rule](value):
        raise ValidationError(f"{what} must {rule}, got {value}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {value}")
    return value


def check_ai_level(a: float, what: str = "AI level") -> float:
    """Reject an AI level outside [0, 1], nan included; return it as a float."""
    return float(check_number(a, what, "lie in [0, 1]"))


def _expit(x: float) -> float:
    """The standard logistic CDF, bit for bit ``scipy.special.expit`` on a
    float: 0.0 where ``exp(-x)`` overflows, as there."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def eval_potential(spec: MarketPotentialSpec, a: float) -> float:
    """Evaluate S(a). Strictly decreasing in ``a`` on (0, 1]."""
    a = check_ai_level(a)
    if spec.family == PotentialFamily.QUADRATIC:
        return spec.S0 - spec.kappa * a * a
    return spec.S0 * (1.0 - _expit((a - spec.mu) / spec.s))


def potential_slope(spec: MarketPotentialSpec, a: float) -> float:
    """Analytic derivative S'(a) of the market potential."""
    a = check_ai_level(a)
    if spec.family == PotentialFamily.QUADRATIC:
        return -2.0 * spec.kappa * a
    level = _expit((a - spec.mu) / spec.s)
    return -(spec.S0 / spec.s) * (level * (1.0 - level))


@dataclass(frozen=True)
class MarketSpec:
    """One occupation-level market: worker count, cost, demand slope, potential.

    Construction enforces the boundary conditions ``|S'(0)| < c`` and
    ``|S'(1)| > c``; together with concavity of S they guarantee a unique
    interior inflection point.
    """

    n: int
    c: float
    b: float
    potential: MarketPotentialSpec

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValidationError(f"worker count n must be a positive integer, got {self.n}")
        check_number(self.c, "baseline marginal cost c", "be positive")
        check_number(self.b, "demand slope b", "be positive")
        s0 = abs(potential_slope(self.potential, 0.0))
        s1 = abs(potential_slope(self.potential, 1.0))
        if s0 >= self.c or s1 <= self.c:
            raise BoundaryConditionError(
                f"boundary conditions violated: need |S'(0)| < c < |S'(1)|, "
                f"got |S'(0)|={s0:.6g}, c={self.c:.6g}, |S'(1)|={s1:.6g}"
            )

    def marginal_cost(self, a: float) -> float:
        return (1.0 - a) * self.c


@dataclass(frozen=True)
class Equilibrium:
    """Symmetric per-worker Cournot outcome at one AI level."""

    q: float
    p: float
    profit: float
    revenue: float
    corner: bool = False


def equilibrium_from_primitives(potential_value: float, marginal_cost: float, b: float, n: int) -> Equilibrium:
    """Closed-form symmetric Cournot equilibrium for given primitives.

    Each worker's best response to the others' total quantity Q is
    ``q = (S - mc - b*Q) / (2b)``; imposing symmetry yields
    ``q = (S - mc) / (b * (n + 1))``. When demand cannot cover the
    marginal cost the equilibrium is the corner ``q = 0``.
    """
    if potential_value <= marginal_cost:
        return Equilibrium(q=0.0, p=potential_value, profit=0.0, revenue=0.0, corner=True)
    q = (potential_value - marginal_cost) / (b * (n + 1))
    p = (potential_value + n * marginal_cost) / (n + 1)
    profit = b * q * q
    return Equilibrium(q=q, p=p, profit=profit, revenue=p * q, corner=False)


def cournot_equilibrium(market: MarketSpec, a: float) -> Equilibrium:
    """Symmetric equilibrium of ``market`` at AI level ``a``."""
    a = check_ai_level(a)
    return equilibrium_from_primitives(
        eval_potential(market.potential, a), market.marginal_cost(a), market.b, market.n
    )


def inflection_point(market: MarketSpec) -> float:
    """The unique root a* of S'(a) + c = 0 in (0, 1), in closed form.

    Quadratic family: ``a* = c / (2 kappa)``. Logistic family:
    ``S'(a) = -(S0/s) L(1 - L)`` with ``L = L((a - mu)/s)``, so a* solves
    ``L(1 - L) = c s / S0`` for the root ``L <= 1/2`` (``a <= 1 <= mu``)
    and ``a* = mu + s logit(L)``. A root leaving ``|S'(a*) + c|`` at or
    above :data:`INFLECTION_TOL` raises :class:`BoundaryConditionError`.
    """
    spec = market.potential
    if spec.family == PotentialFamily.QUADRATIC:
        root = market.c / (2.0 * spec.kappa)
    else:
        r = market.c * spec.s / spec.S0
        # the smaller root of L**2 - L + r, written without cancellation
        level = 2.0 * r / (1.0 + math.sqrt(1.0 - 4.0 * r))
        root = spec.mu + spec.s * math.log(level / (1.0 - level))
    residual = potential_slope(spec, root) + market.c
    if abs(residual) >= INFLECTION_TOL:
        raise BoundaryConditionError(
            f"inflection solve left residual {residual:.3e} >= {INFLECTION_TOL}"
        )
    return float(root)


def _phase(a: float, a_star: float) -> Phase:
    """Honeymoon more than :data:`BOUNDARY_ATOL` below ``a_star``, else substitution."""
    return Phase.HONEYMOON if a < a_star - BOUNDARY_ATOL else Phase.SUBSTITUTION


@dataclass(frozen=True)
class StaticsRow:
    a: float
    q: float
    p: float
    profit: float
    revenue: float
    phase: Phase


def sweep_comparative_statics(market: MarketSpec, grid_size: int) -> list[StaticsRow]:
    """Equilibrium outcomes on a uniform AI-level grid over [0, 1].

    Per-worker quantity and profit rise with ``a`` on grid points below
    the inflection point and fall above it; revenue falls above it. Each
    row's phase is honeymoon below the inflection point and substitution
    at or above it, a grid point within :data:`BOUNDARY_ATOL` of it
    included.
    """
    if grid_size < 3:
        raise ValidationError(f"grid_size must be at least 3, got {grid_size}")
    a_star = inflection_point(market)
    rows = []
    for k in range(grid_size):
        a = k / (grid_size - 1)
        eq = cournot_equilibrium(market, a)
        rows.append(StaticsRow(a=a, q=eq.q, p=eq.p, profit=eq.profit, revenue=eq.revenue, phase=_phase(a, a_star)))
    return rows
