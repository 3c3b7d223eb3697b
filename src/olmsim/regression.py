"""Panel regression engine: two-way fixed effects, cluster-robust inference,
event studies, dual-shock designs, demand regressions, moderation, and
pre-trend equivalence testing.

Every fit runs through one path: stack the transformed outcomes with the
union of the columns of every requested design, all on the sample's own
rows, absorb the fixed effects of that stack once by alternating demeaning,
factor each design once by pivoted QR, then solve and compute a clustered
sandwich covariance per outcome. :func:`fit_designs` fits several outcomes
and designs of one sample this way, as the pipeline does for each matched
sample. :data:`DESIGNS` is the one table of panel designs, and every fit
names its designs from it: the single-fit functions are the same path with
one outcome and one named design, and a heterogeneity fit is
``fit_designs(panel, {outcome: transform}, ("het_us",), controls)``. Every
fit is a pure function of its inputs.

The input rules a fit reads are :mod:`olmsim.panel`'s: every panel fit runs
its shock-flag and one-row-per-cell rules, a ``het_*`` design its moderator
rules, and each outcome its transform rule, so a fit and
``PanelArrays.validate`` reject a bad row with the same message.
:func:`absorb_two_way` and :func:`ols_fit`, called on their own, reject a
nan or infinite cell by its row and column before any pass or
factorization.

Group sums take one of two paths, chosen by an O(n) check of a fit's own
codes (:func:`_blocks`), with the same bits on either. Rows that run unit by
unit in strictly increasing unit codes, every one of ``g >= 2`` units
holding the same ``T >= 2`` strictly increasing times (every generated and
matched panel), are summed as axes of a ``(g, T)`` view, in row order, and
hold each cell once without a sort. Panel fits cluster on those units.
The demand fit codes its markets in sorted id order, as ``np.unique``
does, so a market pair's absorption takes the block path when the rows of
the id that sorts first come first. Any other rows, such as a shuffled or
unbalanced ingested panel, a one-month panel, a demand pair in the other
order, or the demand fit's row clusters, are mapped with ``np.unique`` and
summed with ``np.bincount``.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
import math
import re
import threading
from collections.abc import Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConvergenceError,
    RankDeficiencyError,
    SingleClusterError,
    ValidationError,
)
from .panel import (
    MODERATORS, OUTCOME_TRANSFORMS, DemandArrays, PanelArrays, _binary, _finite, _one_row_per, _reject, _row_label,
    _same_within, check_flags, check_transform, transform_outcome,
)

#: a column stops absorbing once no cell moves by more than this fraction
#: of the column's largest absolute input value
ABSORB_TOL = 1e-10
ABSORB_MAX_ITER = 10_000

#: the relative month the event study omits: the last month before the
#: first shock
EVENT_BASELINE = -1

#: default equivalence bound for pre-trend TOST, as a multiple of the
#: outcome standard deviation
TOST_SD_MULTIPLE = 0.36

_REL_TERM = re.compile(r"^treat_rel\[(-?\d+)\]$")


# ---------------------------------------------------------------------------
# kernel operations


@dataclass
class AbsorbResult:
    values: np.ndarray
    #: passes each column took
    column_iterations: np.ndarray = field(repr=False)


def _blocks(unit_codes, time_codes) -> tuple[int, int] | None:
    """``(g, T)`` when the rows run unit by unit in strictly increasing unit
    codes and each of the ``g >= 2`` units holds the same ``T >= 2``
    strictly increasing time codes; else None.

    A passing sample holds each (unit, time) cell once, and its group sums
    are sums over one axis of a ``(g, T)`` view.
    """
    units, times = np.asarray(unit_codes), np.asarray(time_codes)
    T = int(np.argmax(units != units[0])) if units.size else 0  # rows of the first unit; 0 for one unit
    if T < 2 or units.size % T:
        return None
    u, t = units.reshape(-1, T), times.reshape(-1, T)
    if (u == u[:, :1]).all() and (u[1:, 0] > u[:-1, 0]).all() and (t == t[0]).all() and (t[0, 1:] > t[0, :-1]).all():
        return len(u), T
    return None


def _block_sums(v: np.ndarray) -> np.ndarray:
    """Sums over axis 1 of ``v``, added in order onto zeros: for rows that run
    block by block, the bits ``np.bincount`` gives per block."""
    out = np.zeros(v.shape[:1] + v.shape[2:])
    for t in range(v.shape[1]):
        out += v[:, t]
    return out


def absorb_two_way(matrix: np.ndarray, unit_codes: np.ndarray, time_codes: np.ndarray) -> AbsorbResult:
    """Residualize the columns of ``matrix`` on unit and time effects.

    Alternates group demeaning over the two dimensions. Each column stops
    once a pass moves none of its cells by more than :data:`ABSORB_TOL`
    times the column's largest absolute input value, so where a column
    stops depends neither on its scale nor on the other columns. Balanced
    panels stop after the second pass; a column still moving after
    :data:`ABSORB_MAX_ITER` passes raises :class:`ConvergenceError`. A
    matrix without rows, or a nan or infinite cell, raises
    :class:`ValidationError`, the latter naming the cell's row and column.

    The result is a new column-major array, ``(n, k)`` for a 2-D matrix and
    ``(n, 1)`` for a 1-D one; the input is left as it was.
    """
    # a private column-major copy, where each column is contiguous, demeaned in place and returned
    m = np.array(matrix, dtype=np.float64, order="F")
    if m.ndim == 1:
        m = m[:, None]
    if m.shape[0] == 0:
        raise ValidationError("two-way absorption needs at least one row, got 0")
    for codes in (unit_codes, time_codes):
        if np.shape(codes) != (m.shape[0],):
            raise ValidationError(f"fixed-effect codes have shape {np.shape(codes)}, expected ({m.shape[0]},)")
    k = m.shape[1]
    column_iterations = np.zeros(k, dtype=np.int64)
    blocks = _blocks(unit_codes, time_codes)
    # rows in blocks are summed over the axes of a (g, T) view, any others by their compacted codes
    compact = [] if blocks else [np.unique(np.asarray(c), return_inverse=True)[1] for c in (unit_codes, time_codes)]
    dims = [(codes, np.bincount(codes).astype(np.float64)) for codes in compact]

    def demean(col: np.ndarray) -> None:
        if blocks:
            v = col.reshape(blocks)  # a view: the column is contiguous
            v -= (_block_sums(v) / blocks[1])[:, None]
            v -= np.add.reduce(v, axis=0, initial=0.0) / blocks[0]  # row by row onto zeros, as ``bincount`` sums
        for codes, counts in dims:
            means = np.bincount(codes, weights=col) / counts
            col -= means[codes]

    # a pass's moves are taken in one more column; every column's arithmetic is its own,
    # so the layout changes no result
    moved = np.empty(m.shape[0])
    for j in range(k):
        col = m[:, j]
        peak = np.abs(col, out=moved).max()  # nan or inf on a column no pass can settle
        if not np.isfinite(peak):
            _finite(col, (f"column {j}",), _row_label)
        bound = ABSORB_TOL * peak
        for it in range(1, ABSORB_MAX_ITER + 1):
            moved[:] = col
            demean(col)
            moved -= col
            if np.abs(moved, out=moved).max() <= bound:
                column_iterations[j] = it
                break
        else:
            raise ConvergenceError(
                f"two-way absorption of column {j} did not converge within {ABSORB_MAX_ITER} iterations",
                iterations=ABSORB_MAX_ITER,
            )
    return AbsorbResult(m, column_iterations)


@dataclass
class OlsResult:
    coefficients: np.ndarray
    residuals: np.ndarray


def _pivoted_qr(X: np.ndarray, names: Sequence[str] | None):
    """Economic pivoted QR of ``X``, a column-major array whose cells the
    caller has checked are finite and which it gives up: ``X`` is factored
    in place. Raises on a rank-deficient design.

    The factor is ``scipy.linalg.qr(X, mode="economic", pivoting=True,
    overwrite_a=True)``'s, bit for bit: :func:`_economic_qr` makes the same
    LAPACK calls in the same library, and only where scipy bundles no
    OpenBLAS does the fit call ``scipy.linalg``.
    """
    n, k = X.shape
    if _lapack():
        q, r, piv = _economic_qr(X)
    else:
        import scipy.linalg

        q, r, piv = scipy.linalg.qr(X, mode="economic", pivoting=True, overwrite_a=True, check_finite=False)
    diag = np.abs(np.diag(r))
    scale = diag.max() if diag.size else 0.0
    rank_tol = max(n, k) * np.finfo(np.float64).eps * scale
    rank = int(np.sum(diag > rank_tol))
    if rank < k:
        col = int(piv[rank])
        label = names[col] if names is not None else f"column {col}"
        raise RankDeficiencyError(
            f"design matrix is rank deficient: {label} is collinear after absorption", column=label
        )
    return q, r, piv


def _solve(q: np.ndarray, r: np.ndarray, piv: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients of ``y`` on the design that :func:`_pivoted_qr` factored,
    by ``scipy.linalg.solve_triangular(r, q.T @ y)``'s LAPACK call, bit for
    bit, in scipy's bundled OpenBLAS where it has one."""
    beta = np.empty(r.shape[1])
    if _lapack():
        beta[piv] = _solve_triangular(r, q.T @ y)
    else:
        import scipy.linalg

        beta[piv] = scipy.linalg.solve_triangular(r, q.T @ y)
    return beta


def _economic_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``scipy.linalg.qr(a, mode="economic", pivoting=True, overwrite_a=True,
    check_finite=False)``, call for call: for a column-major float64 ``a``,
    ``dgeqp3`` factors ``a`` in place, R is the upper triangle of its first
    ``min(m, n)`` rows, and ``dorgqr`` forms Q in place in its first
    ``min(m, n)`` columns. The pivots are 0-based int32, as scipy's. Any
    other ``a`` is factored in a column-major float64 copy, as scipy's
    wrapper copies it."""
    a = np.asfortranarray(a, dtype=np.float64)
    m, n = a.shape
    kk = min(m, n)
    if a.size == 0:
        return np.empty((m, kk)), np.empty((kk, n)), np.arange(n, dtype=np.int32)
    jpvt, tau = np.zeros(n, dtype=np.int32), np.empty(kk)  # a zero pivot leaves its column free
    _lapack_with_workspace("dgeqp3", m, n, a, m, jpvt, tau)
    r = np.triu(a[:kk])
    q = a[:, :kk]
    _lapack_with_workspace("dorgqr", m, kk, kk, q, m, tau)
    jpvt -= 1
    return q, r, jpvt


def _solve_triangular(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.solve_triangular(r, b)`` of an upper-triangular ``r``
    and a vector ``b``, solved in place where ``b`` is a contiguous float64
    array: the same finite check, and the same ``dtrtrs`` call, on ``r.T``
    as a lower triangle where ``r`` is row-major, as scipy solves it."""
    r, b = np.asarray(r, dtype=np.float64), np.ascontiguousarray(b, dtype=np.float64)
    if r.shape != (len(b), len(b)):
        raise ValueError(f"shapes of a {r.shape} and b {b.shape} are incompatible")
    if not (np.isfinite(r).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    if b.size:
        uplo, trans, a = (b"U", b"N", r) if r.flags.f_contiguous else (b"L", b"T", np.asfortranarray(r.T))
        _lapack_call("dtrtrs", uplo, trans, b"N", len(b), 1, a, len(b), b, len(b))
    return b


def _lapack_call(name: str, *args) -> None:
    """Call routine ``name`` of :func:`_lapack` with its Fortran arguments,
    as :data:`_LAPACK_SIGNATURES` lists them, then ``info`` and the
    options' lengths. Raises as scipy does on a nonzero ``info``."""
    signature, info = _LAPACK_SIGNATURES[name], ctypes.c_int()
    fortran = [_LAPACK_KINDS[kind][1](arg) for kind, arg in zip(signature, args, strict=True)]
    _lapack()[name](*fortran, ctypes.byref(info), *[1] * signature.count("c"))
    if info.value < 0:
        raise ValueError(f"illegal value in {-info.value}th argument of internal {name}")
    if info.value > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info.value - 1}")


def _lapack_with_workspace(name: str, *args) -> None:
    """:func:`_lapack_call` after an ``lwork = -1`` query, with the workspace
    the routine asks for, as scipy's wrappers call it."""
    work = np.empty(1)
    _lapack_call(name, *args, work, -1)
    lwork = int(work[0])
    _lapack_call(name, *args, np.empty(max(lwork, 1)), lwork)


def _cluster_codes(cluster_ids: np.ndarray) -> tuple[np.ndarray, int]:
    """Cluster codes ``0..g-1`` and the cluster count ``g``; needs ``g >= 2``."""
    codes = np.unique(np.asarray(cluster_ids), return_inverse=True)[1]
    if codes.size == 0:
        raise ValidationError("cluster-robust covariance needs at least one row, got 0")
    g = int(codes.max()) + 1
    if g < 2:
        raise SingleClusterError("cluster-robust covariance needs at least 2 clusters")
    return codes, g


def ols_fit(X: np.ndarray, y: np.ndarray, names: list[str] | None = None) -> OlsResult:
    """Least squares via pivoted QR, with rank-deficiency detection.

    Raises :class:`RankDeficiencyError` naming the first column that the
    pivoting identifies as linearly dependent on the preceding ones, and
    :class:`ValidationError` naming the row counts of ``X`` and ``y`` when
    they differ, or the first row and column of ``X``, or row of ``y``,
    that holds a nan or an infinity.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if len(y) != len(X):
        raise ValidationError(f"got {len(y)} outcome rows for {len(X)} design rows")
    if names is not None and len(names) != X.shape[1]:
        raise ValidationError(f"got {len(names)} names for {X.shape[1]} columns")
    _finite(X, names or [f"column {j}" for j in range(X.shape[1])], _row_label)
    _finite(y, ("y",), _row_label)
    # never ``np.asfortranarray``: an (n, 1) C-ordered ``X`` is F-contiguous, so it returns ``X``
    beta = _solve(*_pivoted_qr(np.array(X, order="F"), names), y)
    return OlsResult(coefficients=beta, residuals=y - X @ beta)


def _sandwich(X: np.ndarray, e: np.ndarray, codes: np.ndarray | None, g: int, bread: np.ndarray) -> np.ndarray:
    """Cluster-robust covariance of the coefficients of ``X``, with residuals
    ``e``, cluster codes from :func:`_cluster_codes` and ``bread = inv(X'X)``.
    ``codes`` None means the rows run cluster by cluster, ``n // g`` each.
    The scores are summed column by column, or month by month on rows in
    blocks, so no n-by-k product of ``X`` and ``e`` is held.

    The CR1 small-sample factor ``G/(G-1) * (N-1)/(N-K)`` counts only the
    columns of ``X`` in ``K``; absorbed fixed effects are not charged
    against the degrees of freedom.
    """
    n, k = X.shape
    if codes is None:  # onto zeros month by month: ``_block_sums`` of ``X * e``, product for product
        x, e = X.reshape(g, n // g, k), e.reshape(g, n // g, 1)
        scores = np.zeros((g, k))
        for t in range(n // g):
            scores += x[:, t] * e[:, t]
    else:
        scores = np.column_stack([np.bincount(codes, weights=X[:, j] * e, minlength=g) for j in range(k)])
    meat = scores.T @ scores
    factor = (g / (g - 1.0)) * ((n - 1.0) / (n - k))
    v = factor * bread @ meat @ bread
    return 0.5 * (v + v.T)


def coef_to_percent(beta: float) -> float:
    """Percent change implied by a log-outcome coefficient: ``e**beta - 1``."""
    if not math.isfinite(beta):
        raise ValidationError(f"coefficient must be finite, got {beta}")
    return math.expm1(beta)


# ---------------------------------------------------------------------------
# fit specifications and results


@dataclass(frozen=True)
class RegressionSpec:
    """Outcome, transform and controls of a panel fit.

    ``transform`` is applied to the outcome column: ``log1p`` (default,
    keeps zero-count months) or ``identity``. Neither drops a row, so every
    fit runs on every row of its panel; to fit the log of a positive
    outcome, subset the panel to its positive rows, replace the outcome
    column by its log and fit that with ``identity``. ``controls`` name
    panel columns that follow the interest terms in every design.
    """

    outcome: str = "fjobnum"
    transform: str = "log1p"
    controls: tuple[str, ...] = ("tenure",)

    def __post_init__(self):
        check_transform(self.transform)


@dataclass
class FitResult:
    """Coefficients and cluster-robust inference for one regression."""

    coefficients: dict[str, float]
    se: dict[str, float]
    pvalues: dict[str, float]
    n_obs: int
    n_clusters: int
    within_r2: float
    converged_fe_iterations: int
    outcome_sd: float
    vcov: np.ndarray = field(repr=False, default=None)

    @property
    def terms(self) -> tuple[str, ...]:
        """The coefficient names, in design order."""
        return tuple(self.coefficients)


@dataclass(frozen=True)
class TostPeriod:
    sigma: int
    estimate: float
    se: float
    passed: bool


@dataclass
class TostResult:
    """Equivalence test over the pre-shock event-study coefficients."""

    periods: list[TostPeriod]
    overall_pass: bool
    delta: float
    alpha: float


def _pvalues(beta: np.ndarray, se: np.ndarray, df: int) -> np.ndarray:
    """Two-sided t-test p-values; a zero SE gives 0 (nonzero beta) or 1."""
    from scipy import special

    with np.errstate(divide="ignore", invalid="ignore"):
        p = 2.0 * special.stdtr(df, -np.abs(beta / se))
    return np.where(se == 0.0, np.where(beta != 0.0, 0.0, 1.0), p)


#: the OpenBLAS builds bundled in the numpy and scipy wheels: package ->
#: (library path relative to the package's parent, thread-count symbol suffix)
_OPENBLAS_LIBS = {
    "numpy": ("numpy.libs/libscipy_openblas64_*.so", "64_"),
    "scipy": ("scipy.libs/libscipy_openblas-*.so", ""),
}


@functools.cache
def _bundled_openblas(package: str) -> ctypes.CDLL | None:
    """``package``'s bundled OpenBLAS, loaded, or None where it bundles
    none. ``importlib.util.find_spec`` locates the package without
    importing any module of it, so scipy's library loads without
    ``scipy.linalg``."""
    spec = importlib.util.find_spec(package)
    if spec is None or spec.origin is None:
        return None
    for path in sorted(Path(spec.origin).parent.parent.glob(_OPENBLAS_LIBS[package][0])):
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            continue
    return None


#: the Fortran arguments before ``info`` of each LAPACK routine the fits
#: call: ``i`` an int by reference, ``a`` an array, ``c`` a one-letter option
_LAPACK_SIGNATURES = {"dgeqp3": "iiaiaaai", "dorgqr": "iiiaiaai", "dtrtrs": "ccciiaiai"}
#: each kind of argument's ctypes type, and how a Python value is passed as it
_LAPACK_KINDS = {
    "i": (ctypes.POINTER(ctypes.c_int), lambda v: ctypes.byref(ctypes.c_int(v))),
    "a": (ctypes.c_void_p, lambda v: v.ctypes.data),
    "c": (ctypes.c_char_p, lambda v: v),
}


@functools.cache
def _lapack() -> dict | None:
    """The LAPACK routines of :data:`_LAPACK_SIGNATURES` (LP64), bound in
    scipy's bundled OpenBLAS, the library ``scipy.linalg`` calls them in;
    None where it lacks any of them, and the fits call ``scipy.linalg``."""
    lib = _bundled_openblas("scipy")
    if not all(hasattr(lib, f"scipy_{name}_") for name in _LAPACK_SIGNATURES):
        return None
    routines = {}
    for name, signature in _LAPACK_SIGNATURES.items():
        routine = routines[name] = getattr(lib, f"scipy_{name}_")
        # then ``info``, then each option's length, as gfortran passes them
        routine.argtypes = [*(_LAPACK_KINDS[kind][0] for kind in (*signature, "i")),
                            *[ctypes.c_size_t] * signature.count("c")]
        routine.restype = None
    return routines


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of numpy's and scipy's bundled
    OpenBLAS, each loaded by :func:`_bundled_openblas`; empty with another
    BLAS."""
    controls = []
    for package, (_, suffix) in _OPENBLAS_LIBS.items():
        lib = _bundled_openblas(package)
        try:
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_threads = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except AttributeError:  # also where ``lib`` is None
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        controls.append((get, set_threads))
    return tuple(controls)


#: how many blocks are inside ``_one_blas_thread``, and the thread counts
#: the first of them saved; the counts are process-wide, so their users are
#: too, and ``_blas_lock`` guards both
_blas_lock = threading.Lock()
_blas_users = 0
_blas_saved: list[int] = []


@contextmanager
def _one_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread.

    The fits are many small, tall least-squares problems, which one thread
    solves faster than several. Blocks that overlap, in one thread or in
    several, share the pinned count: the first one in saves each library's
    count and sets it to 1, and the last one out restores it, also when a
    block raises.
    """
    global _blas_users, _blas_saved
    controls = _openblas_thread_controls()
    with _blas_lock:
        if _blas_users == 0:
            _blas_saved = [get() for get, _ in controls]
            for _, set_threads in controls:
                set_threads(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                for (_, set_threads), count in zip(controls, _blas_saved):
                    set_threads(count)


@_one_blas_thread()
def _fit_columns(
    outcomes: dict[str, np.ndarray], columns: dict[str, np.ndarray], designs: dict[str, Sequence[str]],
    unit_codes, time_codes, cluster_ids=None,
) -> dict[tuple[str, str], FitResult]:
    """Fit every design (a list of regressor names) on every outcome, keyed
    ``(design, outcome)``.

    ``outcomes`` and ``columns`` share one row set. They are absorbed
    together once, and each design is factored once for all outcomes, on
    one BLAS thread. ``cluster_ids`` None clusters on the units, as rows in
    :func:`_blocks` without a sort.

    So that no input outlives its copy, the fit empties ``outcomes`` and
    ``columns`` as it fills one column-major stack with them, and drops the
    stack once :func:`absorb_two_way` has absorbed its own copy of it. The
    stack holds the outcomes, then the columns that the largest design (the
    first on a tie) does not use, in their order, then that design's terms.
    The fit's arithmetic reads one row-major copy of the absorbed values.
    The largest design is fitted first: it is factored in place in its
    columns of the column-major values, which go with its factor, and reads
    its columns of the row-major values as a view. Every other design is a
    copy of its columns, factored in a column-major copy of its own. At its
    peak the fit holds about two copies of the stack, plus any input its
    caller still references; the copied designs come after the
    column-major values are gone, so a rank-deficient largest design is
    the one reported when several are.
    """
    largest = max(designs, key=lambda kind: len(designs[kind]))
    names = [*outcomes, *(name for name in columns if name not in designs[largest]), *designs[largest]]
    position = {name: i for i, name in enumerate(names)}
    n, n_outcomes, start = len(unit_codes), len(outcomes), len(names) - len(designs[largest])
    # column-major, so each column ``absorb_two_way`` demeans is contiguous
    stack = np.empty((n, len(names)), order="F")
    for j, name in enumerate(names):
        stack[:, j] = outcomes.pop(name) if j < n_outcomes else columns.pop(name)
    # ``absorb_two_way`` rejects a non-finite cell too, before any pass, but by
    # its column number; this scan stays because it names the fit column
    if not np.isfinite(stack).all():
        i, j = np.argwhere(~np.isfinite(stack))[0]
        raise ValidationError(f"fit column {names[j]} must be finite, got {stack[i, j]} at row {i} of the sample")
    # after the scan, so a non-finite outcome fails by name, not in a warning
    outcome_sds = [float(np.std(stack[:, j], ddof=1)) if n > 1 else 0.0 for j in range(n_outcomes)]
    blocks = _blocks(unit_codes, time_codes) if cluster_ids is None else None
    codes, g = (None, blocks[0]) if blocks else _cluster_codes(unit_codes if cluster_ids is None else cluster_ids)
    absorbed = absorb_two_way(stack, unit_codes, time_codes)
    del stack
    iterations, tail = absorbed.column_iterations, absorbed.values
    del absorbed
    # the arithmetic reads row-major values: on column-major columns ``X @ beta`` sums in another order
    values = np.ascontiguousarray(tail)
    fits: dict[tuple[str, str], FitResult] = {}
    # the largest design first: the column-major values go with its factor before any other design is copied
    for kind in (largest, *(kind for kind in designs if kind != largest)):
        terms = designs[kind]
        idx = [position[t] for t in terms]
        # the largest design as a view, any other as a copy. One column stays a copy: numpy
        # forms its ``X.T @ X`` as a dot product, which sums a strided column in another order
        X = values[:, start:] if kind == largest and len(terms) > 1 else np.take(values, idx, axis=1)
        if kind == largest:
            qr = _pivoted_qr(tail[:, start:], terms)
            del tail
        else:
            qr = _pivoted_qr(np.array(X, order="F"), terms)
        bread = np.linalg.inv(X.T @ X)
        for j, outcome in enumerate(names[:n_outcomes]):
            ya = values[:, j]
            beta = _solve(*qr, ya)
            residuals = ya - X @ beta
            vcov = _sandwich(X, residuals, codes, g, bread)
            se = np.sqrt(np.diag(vcov))
            ss_tot, ss_res = float(ya @ ya), float(residuals @ residuals)
            fits[(kind, outcome)] = FitResult(
                coefficients=dict(zip(terms, beta.tolist())),
                se=dict(zip(terms, se.tolist())),
                pvalues=dict(zip(terms, _pvalues(beta, se, g - 1).tolist())),
                n_obs=n, n_clusters=g,
                within_r2=1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0,
                converged_fe_iterations=int(iterations[[j, *idx]].max()),
                outcome_sd=outcome_sds[j],
                vcov=vcov,
            )
        del X, qr  # the largest design's factor is the last hold on the column-major values
    return {(kind, outcome): fits[(kind, outcome)] for kind in designs for outcome in names[:n_outcomes]}


def _did_terms(arrays: PanelArrays) -> dict[str, np.ndarray]:
    return {"treat_x_post35": arrays.treat * arrays.post35}


def _dual_terms(arrays: PanelArrays) -> dict[str, np.ndarray]:
    return {"treat_x_post35": arrays.treat * arrays.post35, "treat_x_post40": arrays.treat * arrays.post40}


def _event_terms(arrays: PanelArrays) -> dict[str, np.ndarray]:
    post_months = arrays.month_index[arrays.post35 == 1]
    if post_months.size == 0:
        raise ValidationError("panel has no post-shock months (post35 never 1)")
    rel = arrays.month_index - int(post_months.min())
    present = np.unique(rel)
    expected = np.arange(present.min(), present.max() + 1)
    missing = sorted(set(expected.tolist()) - set(present.tolist()))
    if missing:
        raise ValidationError(f"relative periods missing from panel: {missing}")
    if EVENT_BASELINE not in present:
        raise ValidationError(f"baseline period {EVENT_BASELINE} not present in panel")
    cols: dict[str, np.ndarray] = {}
    for sigma in present:
        if sigma == EVENT_BASELINE:
            continue
        cols[f"treat_rel[{int(sigma)}]"] = np.multiply(arrays.treat, rel == sigma, dtype=np.float64)
    return cols


def _heterogeneity_terms(arrays: PanelArrays, moderator: str) -> dict[str, np.ndarray]:
    mod = arrays.column(moderator)
    _binary(moderator, mod, _row_label)
    _same_within(arrays, "worker_id", (moderator,), _row_label)
    gpt = arrays.treat * arrays.post35
    return {f"{moderator}_x_treat_x_post35": mod * gpt, "treat_x_post35": gpt,
            f"{moderator}_x_post35": mod * arrays.post35}


#: interest-term builders of the named panel designs, one ``het_<moderator>``
#: design per entry of :data:`~olmsim.panel.MODERATORS`; the spec's controls
#: follow the interest terms in every design. A ``het_*`` design reports the
#: moderated treatment effect and the moderator-by-post term; the worker
#: fixed effect absorbs the moderator's main effect
DESIGNS = {"did": _did_terms, "dual": _dual_terms, "event": _event_terms,
           **{f"het_{m}": functools.partial(_heterogeneity_terms, moderator=m) for m in MODERATORS}}


def fit_designs(
    panel: PanelArrays, outcomes: Mapping[str, str] = OUTCOME_TRANSFORMS, designs=("did", "dual", "event"),
    controls: tuple[str, ...] = RegressionSpec.controls,
) -> dict[tuple[str, str], FitResult]:
    """Fit each design on each outcome, keyed ``(design, outcome)``.

    ``outcomes`` maps each outcome column to its transform, as
    :data:`~olmsim.panel.OUTCOME_TRANSFORMS` does, ``designs`` names
    entries of :data:`DESIGNS`, and ``controls`` names the panel columns
    that follow the interest terms in every design; each outcome and
    control must be a numeric panel column. Every fit runs on all of the
    panel's rows, which must pass :func:`~olmsim.panel.check_flags`, hold
    each (worker, month) cell once, and whose ``log1p`` outcomes must
    exceed -1: the outcomes and the design columns are absorbed together,
    once, with worker and month effects, and every fit clusters on workers.
    The designs' columns are merged in design order, and
    :func:`_fit_columns` lays out the stack from them.
    """
    if unknown := [kind for kind in designs if kind not in DESIGNS]:
        raise ValidationError(f"unknown design(s) {unknown}; known: {', '.join(DESIGNS)}")
    if not outcomes:
        raise ValidationError("fit_designs needs at least one outcome")
    if not designs:
        raise ValidationError("fit_designs needs at least one design")
    check_flags(panel)
    if _blocks(panel.worker_id, panel.month_index) is None:  # rows in blocks hold each cell once
        _one_row_per(panel, ("worker_id", "month_index"), _row_label)
    for name in (*outcomes, *controls):  # bool, integer or float columns
        if (dtype := panel.column(name).dtype).kind not in "biuf":
            raise ValidationError(f"fit column {name} must be numeric, got dtype {dtype}")
    for outcome, transform in outcomes.items():  # log1p is nan or -inf at or below -1
        if transform == "log1p":
            y = panel.column(outcome)
            _reject(y <= -1, _row_label, lambda i: f"{outcome} must exceed -1 for log1p, got {y[i]}")
    ys = {outcome: transform_outcome(panel.column(outcome), transform) for outcome, transform in outcomes.items()}
    controls = {name: panel.column(name).astype(np.float64) for name in controls}
    designed = {kind: DESIGNS[kind](panel) for kind in designs}
    terms = {kind: [*cols, *controls] for kind, cols in designed.items()}
    columns = {name: v for cols in designed.values() for name, v in cols.items()} | controls
    del designed, controls  # ``_fit_columns`` frees each column once its stack holds it
    return _fit_columns(ys, columns, terms, panel.worker_id, panel.month_index)


def _fit_one(panel: PanelArrays, spec: RegressionSpec | None, kind: str) -> FitResult:
    spec = spec or RegressionSpec()
    return fit_designs(panel, {spec.outcome: spec.transform}, (kind,), spec.controls)[(kind, spec.outcome)]


def did_fit(panel: PanelArrays, spec: RegressionSpec | None = None) -> FitResult:
    """Two-way fixed-effects difference-in-differences.

    The interest term ``treat_x_post35`` is the interaction of the treated
    flag with the first-shock post indicator; the spec's controls follow it.
    """
    return _fit_one(panel, spec, "did")


def dual_shock_fit(panel: PanelArrays, spec: RegressionSpec | None = None) -> FitResult:
    """DiD with both shock indicators.

    ``treat_x_post35`` carries the first-shock effect; because the second
    indicator is nested in the first, ``treat_x_post40`` is the incremental
    effect after the second release.
    """
    return _fit_one(panel, spec, "dual")


def event_study_fit(panel: PanelArrays, spec: RegressionSpec | None = None) -> FitResult:
    """Relative-time (lead/lag) model around the first shock.

    One ``treat_rel[s]`` coefficient per relative month ``s``, omitting
    :data:`EVENT_BASELINE` (``-1``, the last pre-shock month).
    """
    return _fit_one(panel, spec, "event")


def demand_did_fit(series: DemandArrays) -> FitResult:
    """Market-week DiD on log1p fulfilled postings with market and week effects.

    The one term is ``treat_x_post``. Inference clusters on rows: the
    generating process draws every market-week cell independently. The
    series is checked with :meth:`DemandArrays.validate` first.
    """
    series.validate()
    markets, market_codes = np.unique(series.market_id, return_inverse=True)
    if len(markets) < 2:
        raise ValidationError("demand DiD needs at least 2 markets")
    if series.post.min() == series.post.max():
        raise ValidationError("demand window must span the shock (post must vary)")
    y = {"postnum": np.log1p(series.postnum.astype(np.float64))}
    cols = {"treat_x_post": series.treat * series.post}
    rows = np.arange(series.n_rows)
    fits = _fit_columns(y, cols, {"demand": list(cols)}, market_codes, series.week_index, rows)
    return fits[("demand", "postnum")]


# ---------------------------------------------------------------------------
# pre-trend equivalence


def pre_period_terms(fit: FitResult) -> list[tuple[int, str]]:
    """(sigma, term) pairs for the pre-shock event-study coefficients."""
    out = []
    for term in fit.terms:
        match = _REL_TERM.match(term)
        if match and int(match.group(1)) < 0:
            out.append((int(match.group(1)), term))
    return sorted(out)


def check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")


def check_bounds(delta: float) -> None:
    if not (delta > 0 and math.isfinite(delta)):
        raise ValidationError(f"equivalence bound `bounds` must be positive and finite, got {delta}")


def tost_pretrends(fit: FitResult, bounds: float | None = None, alpha: float = 0.05) -> TostResult:
    """Two one-sided tests of equivalence on every pre-shock coefficient.

    Each period passes when ``(b + delta)/se`` exceeds the upper critical
    value and ``(b - delta)/se`` falls below the lower one, i.e. the
    coefficient is bounded inside ``(-delta, +delta)`` at level ``alpha``.
    The default ``delta`` is 0.36 times the outcome standard deviation, so
    a fit of a constant outcome needs an explicit ``bounds``.
    """
    from scipy import special

    check_alpha(alpha)
    if bounds is None and not fit.outcome_sd > 0:
        raise ValidationError(
            f"the default equivalence bound, {TOST_SD_MULTIPLE} x the outcome SD, needs a positive SD, "
            f"got outcome SD {fit.outcome_sd}; pass `bounds`"
        )
    delta = TOST_SD_MULTIPLE * fit.outcome_sd if bounds is None else float(bounds)
    check_bounds(delta)
    pre = pre_period_terms(fit)
    if not pre:
        raise ValidationError("fit has no pre-shock relative-time coefficients")
    df = fit.n_clusters - 1
    t_crit = float(special.stdtrit(df, 1.0 - alpha))
    periods = []
    for sigma, term in pre:
        b = fit.coefficients[term]
        s = fit.se[term]
        if s == 0.0:
            ok = abs(b) < delta
        else:
            ok = (b + delta) / s > t_crit and (b - delta) / s < -t_crit
        periods.append(TostPeriod(sigma=sigma, estimate=b, se=s, passed=bool(ok)))
    return TostResult(
        periods=periods,
        overall_pass=all(p.passed for p in periods),
        delta=delta,
        alpha=alpha,
    )
