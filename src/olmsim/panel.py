"""Columnar containers for worker-month panels and market-week series.

``PanelArrays`` and ``DemandArrays`` are the only panel and demand types:
the generator builds them, ``ingest_panel_csv`` returns them, and every
match, fit and CSV writer reads their columns. The CSV column orders
``PANEL_COLUMNS`` and ``DEMAND_COLUMNS`` are their field orders.

The model also states what both sides of it read: the rule a market id
follows, and the transform each outcome is fitted on, which the generator's
ground-truth oracle averages too.

It owns every input rule: what makes a panel or demand row invalid, which
transforms and moderators exist, and how an error names the first offending
row. ``PanelArrays.validate`` runs every panel rule; the fits in
:mod:`olmsim.regression` and the scenario's moderator boost call the rules
they read from here, so each rule has one message.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError

TRANSFORMS = ("log1p", "identity")

#: the outcomes every estimation stage reports, in report order, and the
#: transform each is fitted on; the ground-truth oracle averages the same
#: transformed outcomes
OUTCOME_TRANSFORMS = {"fjobnum": "log1p", "fjobratio": "identity", "fjobearn": "log1p"}


def check_transform(transform: str) -> None:
    """Reject a transform that is not one of :data:`TRANSFORMS`."""
    if transform not in TRANSFORMS:
        raise ValidationError(f"transform must be one of {TRANSFORMS}, got {transform!r}")


def transform_outcome(values: np.ndarray, transform: str) -> np.ndarray:
    """The outcome under ``transform`` (one of :data:`TRANSFORMS`), row for row."""
    check_transform(transform)
    values = np.asarray(values, dtype=np.float64)
    return np.log1p(values) if transform == "log1p" else values


#: a market id: it is a cell of the data CSVs and part of output file names
_MARKET_ID = re.compile(r"[A-Za-z0-9_.-]+")


def check_market_id(value, what: str = "market id") -> None:
    """Reject a market id that is not a string of one or more id characters."""
    if not (isinstance(value, str) and _MARKET_ID.fullmatch(value)):
        raise ValidationError(f"{what} must be one or more of A-Z, a-z, 0-9, '_', '.' and '-', got {value!r}")


def _row_label(i: int) -> str:
    return f"row {i}"


def _reject(bad: np.ndarray, where, message) -> None:
    """Reject the first row where ``bad`` holds, named by ``where(row)``,
    with ``message(row)``."""
    rows = np.flatnonzero(bad)
    if rows.size:
        raise ValidationError(f"{where(rows[0])}: {message(rows[0])}")


def _binary(name: str, arr: np.ndarray, where) -> None:
    _reject((arr != 0) & (arr != 1), where, lambda i: f"{name} must be 0/1, got {arr[i]}")


def _check_columns(arrays) -> None:
    """Make every field of a container an array as long as its first field."""
    columns = fields(arrays)
    n = len(getattr(arrays, columns[0].name))
    for f in columns:
        arr = np.asarray(getattr(arrays, f.name))
        if arr.shape != (n,):
            raise ValidationError(f"column {f.name} has shape {arr.shape}, expected ({n},)")
        object.__setattr__(arrays, f.name, arr)


#: the binary worker-level columns that a heterogeneity fit interacts with
#: the shock and that a moderator boost scales the exposure of
MODERATORS = ("us", "experienced")


def check_moderator(moderator: str) -> None:
    """Reject a moderator that is not one of :data:`MODERATORS`."""
    if moderator not in MODERATORS:
        raise ValidationError(f"moderator must be one of {MODERATORS}, got {moderator!r}")


def _group_first_rows(*keys: np.ndarray) -> np.ndarray:
    """For each row, the index of the first row in row order with the same key values."""
    order = np.lexsort(keys[::-1])  # stable: rows with equal keys keep their order
    new_group = np.zeros(len(order), dtype=bool)
    new_group[:1] = True
    for key in keys:
        ordered = key[order]
        new_group[1:] |= ordered[1:] != ordered[:-1]
    first = np.empty_like(order)
    first[order] = order[new_group][np.cumsum(new_group) - 1]
    return first


def _one_row_per(arrays, keys: tuple[str, ...], where) -> None:
    """Reject the first row whose ``keys`` values an earlier row already holds."""
    values = [getattr(arrays, key) for key in keys]
    first = _group_first_rows(*values)
    _reject(first != np.arange(len(first)), where, lambda i: f"duplicate {','.join(keys)} cell "
            f"({', '.join(str(v[i]) for v in values)}), first at {where(first[i])}")


def _same_within(arrays, key: str, names: tuple[str, ...], where) -> None:
    """Reject the first row whose value of a column in ``names`` differs from
    the first row in row order with the same ``key``."""
    groups = getattr(arrays, key)
    first = _group_first_rows(groups)
    for name in names:
        values = getattr(arrays, name)
        _reject(values != values[first], where, lambda i: f"{name} must be the same on every row of {key} "
                f"{groups[i]}, got {values[i]} here and {values[first[i]]} at {where(first[i])}")


def check_flags(arrays, where=_row_label) -> None:
    """Reject the first row whose ``treat``, ``post35`` or ``post40`` is not
    0/1, or whose ``post40`` is 1 while its ``post35`` is 0. Every panel fit
    runs this rule: its shock terms are products of these flags."""
    for name in ("treat", "post35", "post40"):
        _binary(name, getattr(arrays, name), where)
    _reject(arrays.post40 > arrays.post35, where, lambda i: "post40=1 requires post35=1")


@dataclass
class PanelArrays:
    """Columnar worker-month panel."""

    worker_id: np.ndarray
    market_id: np.ndarray
    month_index: np.ndarray
    treat: np.ndarray
    post35: np.ndarray
    post40: np.ndarray
    fjobnum: np.ndarray
    fjobearn: np.ndarray
    fjobratio: np.ndarray
    tenure: np.ndarray
    us: np.ndarray
    experienced: np.ndarray

    def __post_init__(self):
        _check_columns(self)

    @property
    def n_rows(self) -> int:
        return len(self.worker_id)

    def column(self, name: str) -> np.ndarray:
        if name not in PANEL_COLUMNS:
            raise ValidationError(f"unknown panel column {name!r}")
        return getattr(self, name)

    def validate(self, where=_row_label) -> None:
        """Check every invariant of a panel, naming the first offending row by ``where(index)``.

        The row checks come first: market ids that follow
        :func:`check_market_id`, finite earnings and ratios, the shock flags
        of :func:`check_flags`, 0/1 moderators, nonnegative counts,
        ``fjobratio`` in [0, 1] and no earnings without jobs. Then the panel-level
        ones: each (worker, month) cell appears once, ``treat``,
        ``market_id``, ``us`` and ``experienced`` are fixed within a worker,
        and ``post35`` and ``post40`` within a month.
        """
        ids = self.market_id.tolist()
        for value in dict.fromkeys(ids):  # distinct ids, in order of first row
            try:
                check_market_id(value, "market_id")
            except ValidationError as exc:  # only a bad id pays for finding its row
                raise ValidationError(f"{where(ids.index(value))}: {exc}") from None
        for name in ("fjobearn", "fjobratio"):
            values = self.column(name)
            _reject(~np.isfinite(values), where, lambda i: f"{name} must be finite, got {values[i]}")
        check_flags(self, where)
        for name in MODERATORS:
            _binary(name, self.column(name), where)
        for name in ("fjobnum", "fjobearn", "tenure"):
            values = self.column(name)
            _reject(values < 0, where, lambda i: f"{name} must be nonnegative, got {values[i]}")
        ratio, earn = self.fjobratio, self.fjobearn
        _reject((ratio < 0) | (ratio > 1), where, lambda i: f"fjobratio must lie in [0, 1], got {ratio[i]}")
        _reject((self.fjobnum == 0) & (earn != 0), where,
                lambda i: f"fjobearn must be 0 when fjobnum is 0, got fjobearn={earn[i]}")
        _one_row_per(self, ("worker_id", "month_index"), where)
        _same_within(self, "worker_id", ("treat", "market_id", *MODERATORS), where)
        _same_within(self, "month_index", ("post35", "post40"), where)

    def subset(self, mask: np.ndarray) -> "PanelArrays":
        return PanelArrays(**{f.name: getattr(self, f.name)[mask] for f in fields(self)})


@dataclass
class DemandArrays:
    """Columnar market-week demand series."""

    market_id: np.ndarray
    week_index: np.ndarray
    postnum: np.ndarray
    treat: np.ndarray
    post: np.ndarray

    def __post_init__(self):
        _check_columns(self)

    @property
    def n_rows(self) -> int:
        return len(self.market_id)

    def validate(self) -> None:
        """Check every invariant of a demand series, naming the first offending row.

        ``postnum`` is a nonnegative integer, ``treat`` and ``post`` are
        0/1, and each (market_id, week_index) cell appears once.
        """
        postnum = self.postnum
        _reject(~(np.isfinite(postnum) & (postnum >= 0) & (np.floor(postnum) == postnum)), _row_label,
                lambda i: f"postnum must be a nonnegative integer, got {postnum[i]}")
        for name in ("treat", "post"):
            _binary(name, getattr(self, name), _row_label)
        _one_row_per(self, ("market_id", "week_index"), _row_label)

    def subset(self, mask: np.ndarray) -> "DemandArrays":
        return DemandArrays(**{f.name: getattr(self, f.name)[mask] for f in fields(self)})


#: CSV column orders: the field orders of the two containers
PANEL_COLUMNS = tuple(f.name for f in fields(PanelArrays))
DEMAND_COLUMNS = tuple(f.name for f in fields(DemandArrays))
