"""Row and columnar containers for worker-month panels and market-week series.

``PanelRow`` / ``DemandRow`` are the record types used at the file
boundary; ``PanelArrays`` / ``DemandArrays`` hold the same data as numpy
columns for estimation and simulation. Conversion between the two is
lossless and the columnar side is what every fit consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import ValidationError

PANEL_COLUMNS = (
    "worker_id",
    "market_id",
    "month_index",
    "treat",
    "post35",
    "post40",
    "fjobnum",
    "fjobearn",
    "fjobratio",
    "tenure",
    "us",
    "experienced",
)

DEMAND_COLUMNS = ("market_id", "week_index", "postnum", "treat", "post")


@dataclass(frozen=True, slots=True)
class PanelRow:
    """One worker-month observation."""

    worker_id: int
    market_id: str
    month_index: int
    treat: int
    post35: int
    post40: int
    fjobnum: int
    fjobearn: float
    fjobratio: float
    tenure: int
    us: int
    experienced: int


@dataclass(frozen=True, slots=True)
class DemandRow:
    """One market-week count of fulfilled job postings."""

    market_id: str
    week_index: int
    postnum: int
    treat: int
    post: int


#: column dtype of each row-field annotation
_DTYPES = {"int": np.int64, "str": object, "float": np.float64}


def _to_rows(arrays, row_type) -> list:
    names = [f.name for f in fields(row_type)]
    return [row_type(*values) for values in zip(*(getattr(arrays, name).tolist() for name in names))]


def _from_rows(rows: Sequence, row_type) -> dict[str, np.ndarray]:
    return {f.name: np.array([getattr(r, f.name) for r in rows], dtype=_DTYPES[f.type]) for f in fields(row_type)}


def _binary(name: str, arr: np.ndarray, where) -> None:
    bad = np.nonzero((arr != 0) & (arr != 1))[0]
    if bad.size:
        raise ValidationError(f"{where} {bad[0]}: {name} must be 0/1, got {arr[bad[0]]}")


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
        n = len(self.worker_id)
        for f in fields(self):
            arr = np.asarray(getattr(self, f.name))
            if arr.shape != (n,):
                raise ValidationError(f"column {f.name} has shape {arr.shape}, expected ({n},)")
            object.__setattr__(self, f.name, arr)

    @property
    def n_rows(self) -> int:
        return len(self.worker_id)

    def column(self, name: str) -> np.ndarray:
        if name not in PANEL_COLUMNS:
            raise ValidationError(f"unknown panel column {name!r}")
        return getattr(self, name)

    def validate(self, where: str = "row") -> None:
        """Check the per-row invariants, reporting the first offending row."""
        for name in ("treat", "post35", "post40", "us", "experienced"):
            _binary(name, self.column(name), where)
        for name, arr in (("fjobnum", self.fjobnum), ("fjobearn", self.fjobearn), ("tenure", self.tenure)):
            bad = np.nonzero(arr < 0)[0]
            if bad.size:
                raise ValidationError(f"{where} {bad[0]}: {name} must be nonnegative, got {arr[bad[0]]}")
        bad = np.nonzero((self.fjobratio < 0) | (self.fjobratio > 1))[0]
        if bad.size:
            raise ValidationError(f"{where} {bad[0]}: fjobratio must lie in [0, 1], got {self.fjobratio[bad[0]]}")
        bad = np.nonzero((self.fjobnum == 0) & (self.fjobearn != 0))[0]
        if bad.size:
            raise ValidationError(
                f"{where} {bad[0]}: fjobearn must be 0 when fjobnum is 0, got fjobearn={self.fjobearn[bad[0]]}"
            )
        bad = np.nonzero((self.post40 == 1) & (self.post35 == 0))[0]
        if bad.size:
            raise ValidationError(f"{where} {bad[0]}: post40=1 requires post35=1")

    def to_rows(self) -> list[PanelRow]:
        return _to_rows(self, PanelRow)

    @classmethod
    def from_rows(cls, rows: Sequence[PanelRow]) -> "PanelArrays":
        return cls(**_from_rows(rows, PanelRow))

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

    @property
    def n_rows(self) -> int:
        return len(self.market_id)

    def to_rows(self) -> list[DemandRow]:
        return _to_rows(self, DemandRow)

    @classmethod
    def from_rows(cls, rows: Sequence[DemandRow]) -> "DemandArrays":
        return cls(**_from_rows(rows, DemandRow))

    def subset(self, mask: np.ndarray) -> "DemandArrays":
        return DemandArrays(**{f.name: getattr(self, f.name)[mask] for f in fields(self)})


def as_panel_arrays(panel) -> PanelArrays:
    """Accept either ``PanelArrays`` or an iterable of ``PanelRow``."""
    if isinstance(panel, PanelArrays):
        return panel
    return PanelArrays.from_rows(list(panel))


def as_demand_arrays(series) -> DemandArrays:
    if isinstance(series, DemandArrays):
        return series
    return DemandArrays.from_rows(list(series))
