"""Quadrant classification and the text of every result table a run writes.

Every result CSV (fits, statics, matches, balance, quadrants) is rendered
through ``csv_lines``, floats to 10 significant digits (6 for statics),
and the aligned text tables of ``tables.txt`` are rendered here too. The
data CSVs (panel, demand), which hold exact floats, and the TOST JSON,
which is a ``TostResult``'s own fields, are written by ``olmsim.pipeline``.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import ValidationError
from .market import StaticsRow
from .matching import BalanceTable, MatchResult
from .regression import FitResult, check_alpha


class QuadrantLabel(str, Enum):
    """Sign pattern of the two successive shock effects.

    The first sign is the first-shock effect, the second the incremental
    second-shock effect. A displacement-to-productivity reversal is the
    pattern the single-peaked model rules out.
    """

    PROD_TO_PROD = "ProdToProd"
    PROD_TO_DISP = "ProdToDisp"
    DISP_TO_DISP = "DispToDisp"
    DISP_TO_PROD = "DispToProd"
    INCONCLUSIVE = "Inconclusive"


def classify_quadrant(
    beta11: float, p11: float, beta12: float, p12: float, alpha: float = 0.05
) -> QuadrantLabel:
    """Classify a (first-shock, second-shock) coefficient pair by sign.

    A coefficient whose p-value is at or above ``alpha`` is gated to zero;
    any gated (or exactly zero) coefficient makes the pair inconclusive.
    """
    check_alpha(alpha)
    for v in (beta11, p11, beta12, p12):
        if not math.isfinite(v):
            raise ValidationError("coefficients and p-values must be finite")
    s1 = 0 if p11 >= alpha or beta11 == 0.0 else (1 if beta11 > 0 else -1)
    s2 = 0 if p12 >= alpha or beta12 == 0.0 else (1 if beta12 > 0 else -1)
    if s1 == 0 or s2 == 0:
        return QuadrantLabel.INCONCLUSIVE
    if s1 > 0:
        return QuadrantLabel.PROD_TO_PROD if s2 > 0 else QuadrantLabel.PROD_TO_DISP
    return QuadrantLabel.DISP_TO_PROD if s2 > 0 else QuadrantLabel.DISP_TO_DISP


def significance_stars(p: float) -> str:
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    if p < 0.1:
        return "*"
    return ""


# ---------------------------------------------------------------------------
# CSV emission (deterministic formatting)


def csv_lines(header: str, rows, digits: int = 10) -> list[str]:
    """``header``, then one comma-joined line per row: each float (numpy's
    included) to ``digits`` significant digits, any other value as ``str``."""
    spec = f".{digits}g"
    return [header, *(",".join([format(v, spec) if isinstance(v, float) else str(v) for v in row]) for row in rows)]


def fit_csv_lines(fit: FitResult) -> list[str]:
    rows = ((t, fit.coefficients[t], fit.se[t], fit.pvalues[t]) for t in fit.terms)
    return csv_lines("term,estimate,se,p", rows)


def statics_csv_lines(rows: list[StaticsRow]) -> list[str]:
    cells = ((r.a, r.q, r.p, r.profit, r.revenue, r.phase.value) for r in rows)
    return csv_lines("a,q,p,profit,revenue,phase", cells, digits=6)


def balance_csv_lines(table: BalanceTable) -> list[str]:
    header = ("covariate,mean_treated_pre,mean_control_pre,p_pre,std_diff_pre,"
              "mean_treated_post,mean_control_post,p_post,std_diff_post")
    rows = ((r.covariate, r.pre.mean_treated, r.pre.mean_control, r.pre.p_value, r.pre.std_diff,
             r.post.mean_treated, r.post.mean_control, r.post.p_value, r.post.std_diff) for r in table.rows)
    return csv_lines(header, rows)


def match_csv_lines(result: MatchResult) -> list[str]:
    """The matched pairs, then one line per dropped treated unit: no
    ``control_id``, and the drop reason in the ``distance`` column."""
    rows = [(p.treated_id, p.control_id, p.distance) for p in result.pairs]
    rows += [(d.unit_id, "", d.reason) for d in result.dropped_treated]
    return csv_lines("treated_id,control_id,distance", rows)


# ---------------------------------------------------------------------------
# aligned text tables


def fit_text_table(fit: FitResult, title: str) -> str:
    width = max([len(t) for t in fit.terms] + [12])
    lines = [title, "-" * (width + 36)]
    lines.append(f"{'term':<{width}}  {'estimate':>12}  {'se':>12}  {'p':>7}")
    for term in fit.terms:
        est = f"{fit.coefficients[term]:.4f}{significance_stars(fit.pvalues[term])}"
        lines.append(
            f"{term:<{width}}  {est:>12}  {'(' + format(fit.se[term], '.4f') + ')':>12}  "
            f"{fit.pvalues[term]:>7.4f}"
        )
    lines.append("-" * (width + 36))
    lines.append(
        f"observations {fit.n_obs} | clusters {fit.n_clusters} | "
        f"within R2 {fit.within_r2:.4f} | FE iterations {fit.converged_fe_iterations}"
    )
    lines.append("* p<0.1, ** p<0.05, *** p<0.01; clustered SE in parentheses")
    return "\n".join(lines)


def balance_text_table(table: BalanceTable, title: str) -> str:
    width = max([len(r.covariate) for r in table.rows] + [10])
    header = (
        f"{'covariate':<{width}}  "
        f"{'mean T':>9} {'mean C':>9} {'p>|t|':>7} {'std diff':>9} | "
        f"{'mean T':>9} {'mean C':>9} {'p>|t|':>7} {'std diff':>9}"
    )
    bar = "-" * len(header)
    lines = [title, f"{'':<{width}}  {'pre-matching':^37} | {'post-matching':^37}", bar, header, bar]
    for r in table.rows:
        def side(s):
            d = "     n/a " if math.isnan(s.std_diff) else f"{s.std_diff:>9.3f}"
            return f"{s.mean_treated:>9.3f} {s.mean_control:>9.3f} {s.p_value:>7.3f} {d}"

        lines.append(f"{r.covariate:<{width}}  {side(r.pre)} | {side(r.post)}")
    lines.append(bar)
    return "\n".join(lines)


def quadrant_csv_lines(rows: list[tuple[str, str, float, float, float, float, QuadrantLabel]]) -> list[str]:
    """Rows are (market_id, outcome, beta35, p35, beta40, p40, label)."""
    header = "market_id,outcome,beta_post35,p_post35,beta_post40,p_post40,label"
    return csv_lines(header, ((m, o, b1, p1, b2, p2, label.value) for m, o, b1, p1, b2, p2, label in rows))
