"""Columnar containers for worker-month panels and market-week series.

``PanelArrays`` and ``DemandArrays`` are the only panel and demand types:
the generator builds them, ``ingest_panel_csv`` returns them, and every
match, fit and CSV writer reads their columns. The CSV column orders
``PANEL_COLUMNS`` and ``DEMAND_COLUMNS`` are their field orders.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError


def _row_label(i: int) -> str:
    return f"row {i}"


def _binary(name: str, arr: np.ndarray, where) -> None:
    bad = np.nonzero((arr != 0) & (arr != 1))[0]
    if bad.size:
        raise ValidationError(f"{where(bad[0])}: {name} must be 0/1, got {arr[bad[0]]}")


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

#: columns that must take one value per worker, and one value per month
_WORKER_CONSTANT = ("treat", "market_id", *MODERATORS)
_MONTH_CONSTANT = ("post35", "post40")


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
    dup = np.flatnonzero(first != np.arange(len(first)))
    if dup.size:
        i = dup[0]
        cell = ", ".join(str(v[i]) for v in values)
        raise ValidationError(f"{where(i)}: duplicate {','.join(keys)} cell ({cell}), first at {where(first[i])}")


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

        The row checks come first: 0/1 flags, nonnegative counts, finite
        earnings and ratios, ``fjobratio`` in [0, 1], no earnings without
        jobs, and ``post40`` nested in ``post35``. Then the panel-level
        ones: each (worker, month) cell appears once, ``treat``,
        ``market_id``, ``us`` and ``experienced`` are fixed within a worker,
        and ``post35`` and ``post40`` within a month.
        """
        for name in ("fjobearn", "fjobratio"):
            values = self.column(name)
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ValidationError(f"{where(bad[0])}: {name} must be finite, got {values[bad[0]]}")
        for name in ("treat", "post35", "post40", *MODERATORS):
            _binary(name, self.column(name), where)
        for name, arr in (("fjobnum", self.fjobnum), ("fjobearn", self.fjobearn), ("tenure", self.tenure)):
            bad = np.nonzero(arr < 0)[0]
            if bad.size:
                raise ValidationError(f"{where(bad[0])}: {name} must be nonnegative, got {arr[bad[0]]}")
        bad = np.nonzero((self.fjobratio < 0) | (self.fjobratio > 1))[0]
        if bad.size:
            raise ValidationError(f"{where(bad[0])}: fjobratio must lie in [0, 1], got {self.fjobratio[bad[0]]}")
        bad = np.nonzero((self.fjobnum == 0) & (self.fjobearn != 0))[0]
        if bad.size:
            raise ValidationError(
                f"{where(bad[0])}: fjobearn must be 0 when fjobnum is 0, got fjobearn={self.fjobearn[bad[0]]}"
            )
        bad = np.nonzero((self.post40 == 1) & (self.post35 == 0))[0]
        if bad.size:
            raise ValidationError(f"{where(bad[0])}: post40=1 requires post35=1")
        _one_row_per(self, ("worker_id", "month_index"), where)
        for key, names in (("worker_id", _WORKER_CONSTANT), ("month_index", _MONTH_CONSTANT)):
            groups = self.column(key)
            first = _group_first_rows(groups)
            for name in names:
                values = self.column(name)
                bad = np.flatnonzero(values != values[first])
                if bad.size:
                    i = bad[0]
                    raise ValidationError(
                        f"{where(i)}: {name} must be the same on every row of {key} {groups[i]}, "
                        f"got {values[i]} here and {values[first[i]]} at {where(first[i])}"
                    )

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
        bad = np.flatnonzero(~(np.isfinite(postnum) & (postnum >= 0) & (np.floor(postnum) == postnum)))
        if bad.size:
            raise ValidationError(f"{_row_label(bad[0])}: postnum must be a nonnegative integer, got {postnum[bad[0]]}")
        for name in ("treat", "post"):
            _binary(name, getattr(self, name), _row_label)
        _one_row_per(self, ("market_id", "week_index"), _row_label)

    def subset(self, mask: np.ndarray) -> "DemandArrays":
        return DemandArrays(**{f.name: getattr(self, f.name)[mask] for f in fields(self)})


#: CSV column orders: the field orders of the two containers
PANEL_COLUMNS = tuple(f.name for f in fields(PanelArrays))
DEMAND_COLUMNS = tuple(f.name for f in fields(DemandArrays))
