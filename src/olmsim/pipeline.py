"""Batch front door: scenario files, CSV ingestion, end-to-end runs, and
reproducibility manifests.

Panels and demand series stay columnar (``PanelArrays``, ``DemandArrays``)
from generation to output: ``ingest_panel_csv`` returns the validated
columns it parsed, and the CSV writer formats blocks of rows column by
column, which ``simulate`` writes to disk one block at a time. A numeric
column with few distinct values in a block goes through a value table
(each distinct value, floats keyed by bit pattern, is formatted once);
every cell is ``str`` of its value either way. Market
ids, which are CSV cells and parts of file names, are limited to
``[A-Za-z0-9_.-]`` by ``panel.check_market_id``, which both a
``MarketScenario`` and an ingested panel pass, so the writer never has
to quote one. Every file is read and written as UTF-8, whatever the
locale, and each output's manifest hash is of the bytes written.

A run executes stages from one table, ``STAGES``: simulate -> match ->
estimate -> tost -> report, mapping each token to the fit kinds it reads;
a token runs the method of the private run object that its stem, the
text before any ``_``, names. No stage holds the whole panel: ``simulate``
streams ``panel.csv`` from the generator's market blocks, and the run
object streams them a second time to compute, once per market pair and on
first use, its match, balance table and fits, from the two markets'
blocks; it keeps only those products and the demand series, never a
pair's rows. The stages write every artifact into one output directory.
A stage reads each run option through the run object, which records it in
the manifest, so the manifest holds exactly the options the stages that
ran read. Every file's contents
depend only on the config, the seed, the options read and the package
version, except ``tables.txt``, which holds the tables of the stages that
ran in that call. The manifest lists the stages that ran, in table order,
and its hash covers the config hash, stages, options, and output file
hashes, so two identical runs produce identical manifests (timings are
recorded but excluded from the hash).
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .errors import OlmsimError, PipelineError, SchemaError, ValidationError
from .market import sweep_comparative_statics
from .matching import balance_table, check_caliper, derive_worker_covariates, logit_fit, propensity_match
from .panel import DEMAND_COLUMNS, OUTCOME_TRANSFORMS, PANEL_COLUMNS, PANEL_DTYPES, DemandArrays, PanelArrays
from .regression import check_alpha, check_bounds, demand_did_fit, fit_designs, tost_pretrends
from .report import (
    balance_csv_lines,
    balance_text_table,
    classify_quadrant,
    fit_csv_lines,
    fit_text_table,
    match_csv_lines,
    quadrant_csv_lines,
    statics_csv_lines,
)
from .synth import (
    DEFAULT_WEEKS,
    ScenarioConfig,
    config_from_dict,
    config_to_dict,
    generate_demand_arrays,
    generate_panel_blocks,
)

STATICS_GRID = 101

#: rows the CSV writer formats and ``simulate`` writes at a time;
#: whole-column formatting holds every cell's string at once and raises
#: peak memory
_CSV_BLOCK_ROWS = 4096

#: table titles of the fit kinds fitted on the matched samples, in the
#: order every estimation stage emits them
FIT_TITLES = {"did": "did", "event": "event study", "dual": "dual shock"}


# ---------------------------------------------------------------------------
# scenario and CSV files


@contextmanager
def _writing(path: Path):
    """Report an ``OSError`` of the block as a ``ValidationError`` naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write(path: Path, lines: Iterable[str]) -> str:
    """Write ``lines`` to ``path`` in UTF-8, each ending in a newline, and
    return the SHA-256 hex digest of the bytes written; every file olmsim
    writes goes through here.

    A line may be a block of lines joined by newlines. Each is encoded,
    hashed and written as it comes, so a file streamed in blocks is never
    held whole, in text or in bytes.
    """
    digest = hashlib.sha256()
    with _writing(path), path.open("wb") as handle:
        for line in lines:
            data = (line + "\n").encode()
            digest.update(data)
            handle.write(data)
    return digest.hexdigest()


@contextmanager
def _reading(path: str | Path):
    """Report a missing, unopenable or non-UTF-8 input file read in the block
    as a ``SchemaError`` naming ``path``."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def parse_scenario(path: str | Path) -> ScenarioConfig:
    """Load and fully validate a scenario JSON file."""
    with _reading(path):
        text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a syntax error (its message gives line and column), an integer past the
        # interpreter's digit limit, or nesting past its recursion limit
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def write_scenario(config: ScenarioConfig, path: str | Path) -> None:
    """Write ``config`` as a scenario JSON file that :func:`parse_scenario` reads
    back; a config that breaks a rule of the file raises before anything is written."""
    _write(Path(path), [json.dumps(config_to_dict(config), indent=2, sort_keys=True)])


def _cells(column: np.ndarray) -> Iterable[str]:
    """``str`` of each value of ``column`` as a Python scalar.

    A bool, integer or float64 column with at most half its cells distinct
    formats each distinct value once, through a value table. Floats are
    keyed by bit pattern: ``-0.0 == 0.0``, but their strings differ.
    """
    if column.dtype.kind in "biu" or column.dtype == np.float64:
        keys = column.view(np.int64) if column.dtype.kind == "f" else column
        distinct, inverse = np.unique(keys, return_inverse=True)
        if 2 * len(distinct) <= len(keys):
            table = np.array([str(v) for v in distinct.view(column.dtype).tolist()], dtype=object)
            return table[inverse].tolist()
    # strings, and blocks of mostly distinct values: a table saves nothing.
    # Lazily, each cell's string is freed once its line is built; holding a
    # block's strings in a list raised the demo's peak RSS by 2-3 MB.
    return map(str, column.tolist())


def _csv_blocks(parts: Iterable[PanelArrays | DemandArrays], columns: tuple[str, ...]) -> Iterator[list[str]]:
    """The header line, then the lines of each ``_CSV_BLOCK_ROWS`` rows of
    each of ``parts`` in turn, one list at a time."""
    # the data CSVs' own writer, apart from ``report.csv_lines``: they must read
    # back exactly, and str of a Python float is its repr, the shortest such form
    yield [",".join(columns)]
    for arrays in parts:
        values = [getattr(arrays, name) for name in columns]
        for start in range(0, arrays.n_rows, _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            yield list(map(",".join, zip(*(_cells(column[block]) for column in values))))


def panel_csv_lines(arrays: PanelArrays) -> list[str]:
    return [line for block in _csv_blocks([arrays], PANEL_COLUMNS) for line in block]


def demand_csv_lines(arrays: DemandArrays) -> list[str]:
    return [line for block in _csv_blocks([arrays], DEMAND_COLUMNS) for line in block]


def _csv_line(i: int) -> str:
    """The CSV line of data row ``i``: the header is line 1."""
    return f"line {i + 2}"


def _parse_column(name: str, cells: tuple[str, ...]) -> np.ndarray:
    """One panel CSV column as an array of its ``PANEL_DTYPES`` dtype."""
    dtype = PANEL_DTYPES[name]
    try:
        return np.array(cells, dtype=dtype)
    except (ValueError, OverflowError):
        # only a column that fails is read cell by cell, to name the first bad line
        what = "numeric" if dtype is np.float64 else "a 64-bit integer"
        for i, cell in enumerate(cells):
            try:
                np.array(cell, dtype=dtype)
            except (ValueError, OverflowError):
                raise ValidationError(f"{_csv_line(i)}: {name} must be {what}, got {cell!r}") from None
        raise


def ingest_panel_csv(path: str | Path) -> PanelArrays:
    """Read a panel CSV into columns, enforcing the exact schema and every
    invariant of :meth:`PanelArrays.validate`, row and panel level alike.

    An error in a data row names its CSV line; an unreadable file, or one
    the csv module cannot split into fields, is a ``SchemaError``.
    """
    with _reading(path), open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            lines = list(reader)
        except csv.Error as exc:
            raise SchemaError(f"{path} line {reader.line_num}: {exc}") from exc
    if not lines:
        raise SchemaError(f"{path} is empty")
    header, rows = lines[0], lines[1:]
    if tuple(header) != PANEL_COLUMNS:
        raise SchemaError(f"{path} header mismatch: expected {','.join(PANEL_COLUMNS)}, got {','.join(header)}")
    if not rows:
        raise SchemaError(f"{path} has no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(PANEL_COLUMNS):
            raise SchemaError(f"{path} {_csv_line(i)}: expected {len(PANEL_COLUMNS)} fields, got {len(row)}")
    arrays = PanelArrays(**{name: _parse_column(name, cells) for name, cells in zip(PANEL_COLUMNS, zip(*rows))})
    arrays.validate(where=_csv_line)
    return arrays


# ---------------------------------------------------------------------------
# run manifest


@dataclass
class RunManifest:
    """Reproducibility record of one pipeline run."""

    config_hash: str
    seed: int
    version: str
    stages: list[str]
    options: dict
    outputs: dict[str, str] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    def _hashed(self) -> dict:
        """Every field but the timings: what the manifest hash covers."""
        return {
            "config_hash": self.config_hash,
            "seed": self.seed,
            "version": self.version,
            "stages": self.stages,
            "options": self.options,
            "outputs": dict(sorted(self.outputs.items())),
        }

    @property
    def manifest_hash(self) -> str:
        return _digest(self._hashed())

    def to_dict(self) -> dict:
        return {**self._hashed(), "timings": self.timings, "manifest_hash": self.manifest_hash}


def _digest(obj) -> str:
    """SHA-256 of the canonical JSON of ``obj``: sorted keys, no whitespace."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def config_hash(config: ScenarioConfig) -> str:
    """SHA-256 of the config's scenario document; a config that breaks a rule of
    the scenario files raises, as :func:`config_to_dict` does."""
    return _digest(config_to_dict(config))


# ---------------------------------------------------------------------------
# pipeline


@contextmanager
def _naming_market(market_id: str):
    """Report an ``OlmsimError`` of the block as a ``PipelineError`` that names
    the market pair; its ``__cause__`` is the error."""
    try:
        yield
    except OlmsimError as exc:
        raise PipelineError(f"market {market_id}: {exc}") from exc


@dataclass
class _Run:
    """One run: its settings, the products its stages share, and the stages.

    Each product is computed on first use, so a stage can read an upstream
    product without that upstream stage writing its files; the first stage
    that reads a product carries its time and its failures. The products are
    the demand series and ``pairs``, one entry per market pair; the panel is
    no product, but the market blocks that ``simulate`` and ``pairs`` each
    stream from the generator.
    The fit kinds come from the ``STAGES`` rows of the tokens in
    ``manifest.stages``.
    """

    config: ScenarioConfig
    out: Path
    manifest: RunManifest
    #: every run option by name; stages read them through ``option``
    options: dict
    #: text tables of the stages that ran, written by ``report``
    tables: list[str] = field(default_factory=list, init=False)

    def option(self, name: str):
        """The run option ``name``, recorded in the manifest as read."""
        self.manifest.options[name] = self.options[name]
        return self.options[name]

    @cached_property
    def demand(self) -> DemandArrays:
        return generate_demand_arrays(self.config, weeks=self.option("weeks"))

    def _kinds(self, stem: str = "") -> set[str]:
        """The fit kinds the running tokens that start with ``stem`` read."""
        return {kind for token in self.manifest.stages if token.startswith(stem) for kind in STAGES[token]}

    @cached_property
    def pairs(self) -> dict:
        """Per treated market, in ``treated_ids`` order: ``(result, balance,
        fits)``, the match against the control market, its balance table, and
        the fits of every outcome, keyed ``(kind, outcome)``, of the designs
        the running tokens read.

        The panel's blocks are generated one market at a time. The run holds
        the control's block, and each treated block drawn before the control
        until the control arrives; a treated block goes with its pair."""
        kinds = tuple(kind for kind in FIT_TITLES if kind in self._kinds())
        control, held, pairs = self.config.control_market_id, {}, {}
        blocks = generate_panel_blocks(self.config)
        for scenario in self.config.markets:
            held[scenario.market_id] = next(blocks)
            if control in held:
                for market_id in [m for m in held if m != control]:
                    pairs[market_id] = self._match_and_fit(market_id, held, kinds)
        return pairs

    def _match_and_fit(self, market_id: str, held: dict, kinds: tuple[str, ...]) -> tuple:
        """Match one treated market against the control market, then fit ``kinds``
        together, once, on the matched sample (every row of a matched worker).

        The pair is the rows of the two markets' blocks in ``held``, in market
        order; the treated block leaves ``held``, and the pair's rows are
        dropped before the fits."""
        pair = PanelArrays.joined([held[m] for m in held if m in (market_id, self.config.control_market_id)])
        del held[market_id]
        with _naming_market(market_id):
            ids, covariates, names, treat = derive_worker_covariates(pair)
            model = logit_fit(covariates, treat, names=names)
            scores = model.predict_proba(covariates)
            result = propensity_match(scores, treat, self.option("caliper"))
            balance = balance_table(covariates, treat, result, names=names)
            matched = ids[np.concatenate([result.treated_ids, result.control_ids])]
            sample = pair.subset(np.isin(pair.worker_id, matched))
            del pair
            return result, balance, fit_designs(sample, OUTCOME_TRANSFORMS, kinds) if kinds else {}

    def _emit(self, name: str, lines: Iterable[str]) -> None:
        """Write ``lines`` as the output file ``name`` and list it in the manifest."""
        self.manifest.outputs[name] = _write(self.out / name, lines)

    def _emit_fit(self, name: str, fit, title: str) -> None:
        self._emit(name, fit_csv_lines(fit))
        self.tables.append(fit_text_table(fit, title))

    def _sample_fits(self, kind: str) -> list[tuple[str, str, object]]:
        """(market, outcome, fit) of one kind, sorted by market and outcome."""
        pairs = sorted(self.pairs.items())
        return [(m, o, fits[(kind, o)]) for m, (_, _, fits) in pairs for o in sorted(OUTCOME_TRANSFORMS)]

    def simulate(self) -> None:
        # streamed a block at a time: a file's text is never held whole
        self._emit("panel.csv", map("\n".join, _csv_blocks(generate_panel_blocks(self.config), PANEL_COLUMNS)))
        self._emit("demand.csv", map("\n".join, _csv_blocks([self.demand], DEMAND_COLUMNS)))
        for scenario in self.config.markets:
            rows = sweep_comparative_statics(scenario.market, STATICS_GRID)
            self._emit(f"statics_{scenario.market_id}.csv", statics_csv_lines(rows))

    def match(self) -> None:
        for market_id, (result, balance, _) in self.pairs.items():
            self._emit(f"match_{market_id}.csv", match_csv_lines(result))
            self._emit(f"balance_{market_id}.csv", balance_csv_lines(balance))
            self.tables.append(balance_text_table(balance, f"balance: {market_id} vs control"))

    def estimate(self) -> None:
        kinds = self._kinds("estimate")
        sample_kinds = [kind for kind in FIT_TITLES if kind in kinds]
        if sample_kinds:
            for market_id, (_, _, fits) in self.pairs.items():
                for outcome, transform in OUTCOME_TRANSFORMS.items():
                    label = f"{market_id}_{outcome}"
                    for kind in sample_kinds:
                        title = f"{FIT_TITLES[kind]}: {label} ({transform})"
                        self._emit_fit(f"fit_{kind}_{label}.csv", fits[(kind, outcome)], title)
        if "demand" in kinds:
            demand = self.demand
            for market_id in self.config.treated_ids():
                pair = demand.subset(np.isin(demand.market_id, (market_id, self.config.control_market_id)))
                with _naming_market(market_id):
                    fit = demand_did_fit(pair)
                self._emit_fit(f"fit_demand_{market_id}.csv", fit, f"demand: {market_id} vs control")

    def tost(self) -> None:
        for market_id, outcome, fit in self._sample_fits("event"):
            result = tost_pretrends(fit, bounds=self.option("bounds"), alpha=self.option("alpha"))
            self._emit(f"tost_{market_id}_{outcome}.json", [json.dumps(asdict(result), indent=2, sort_keys=True)])

    def report(self) -> None:
        rows = []
        for market_id, outcome, fit in self._sample_fits("dual"):
            b1 = fit.coefficients["treat_x_post35"]
            p1 = fit.pvalues["treat_x_post35"]
            b2 = fit.coefficients["treat_x_post40"]
            p2 = fit.pvalues["treat_x_post40"]
            rows.append((market_id, outcome, b1, p1, b2, p2, classify_quadrant(b1, p1, b2, p2, self.option("alpha"))))
        self._emit("quadrant.csv", quadrant_csv_lines(rows))
        if self.tables:
            self._emit("tables.txt", ["\n\n".join(self.tables)])


#: the fit kinds of the ``estimate`` stage: all but ``demand`` are fitted on
#: the matched samples
_ESTIMATE_KINDS = (*FIT_TITLES, "demand")

#: the stages in run order: token -> fit kinds it reads; a token runs the
#: ``_Run`` method its stem names, so ``estimate_KIND`` is the ``estimate``
#: stage restricted to one kind
STAGES = {
    "simulate": (),
    "match": (),
    "estimate": _ESTIMATE_KINDS,
    **{f"estimate_{kind}": (kind,) for kind in _ESTIMATE_KINDS},
    "tost": ("event",),
    "report": ("dual",),
}


def run_pipeline(
    config: ScenarioConfig | str | Path,
    out_dir: str | Path,
    seed: int | None = None,
    stages=None,
    alpha: float = 0.05,
    caliper: float = 0.02,
    bounds: float | None = None,
) -> RunManifest:
    """Run the requested stages and write their artifacts plus a manifest.

    ``config`` may be a scenario path or an already-validated config; an
    explicit ``seed`` overrides the one in the file. ``stages`` defaults to
    every stage but the ``estimate_KIND`` ones; they run once each, in
    ``STAGES`` order, and the tokens requested together that share a stem
    run its method once, timed under the first of them, so ``estimate*``
    tokens make one ``estimate`` call over the union of their kinds.
    Upstream products are computed as needed but only the requested
    stages write files. A config that breaks a rule of the
    scenario files, or a bad ``alpha``, ``caliper`` or given ``bounds``,
    is rejected before ``out_dir`` is created.
    """
    if not isinstance(config, ScenarioConfig):
        config = parse_scenario(config)
    if seed is not None:
        config = config.with_seed(seed)
    digest = config_hash(config)  # a config built in Python meets the rules a scenario file meets
    requested = [token for token in STAGES if not token.startswith("estimate_")] if stages is None else list(stages)
    for token in requested:
        if token not in STAGES:
            raise ValidationError(f"unknown stage {token!r}; valid stages: {', '.join(STAGES)}")
    ran = [token for token in STAGES if token in requested]
    check_alpha(alpha)
    check_caliper(caliper)
    if bounds is not None:
        check_bounds(bounds)
    out = Path(out_dir)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)

    manifest = RunManifest(
        config_hash=digest,
        seed=config.seed,
        version=__version__,
        stages=ran,
        options={},
    )
    options = {"alpha": alpha, "caliper": caliper, "bounds": bounds, "weeks": DEFAULT_WEEKS}
    run = _Run(config, out, manifest, options)
    # stem -> first token that runs it: tokens sharing a stem run its method once
    calls: dict[str, str] = {}
    for token in ran:
        calls.setdefault(token.partition("_")[0], token)
    for stem, token in calls.items():
        start = time.perf_counter()
        try:
            getattr(run, stem)()
        except OlmsimError as exc:
            # a pair's error already names its market, and its cause is the error the pair raised
            cause = exc.__cause__ if isinstance(exc, PipelineError) else exc
            raise PipelineError(f"stage {token!r}: {exc}") from cause
        manifest.timings[token] = round(time.perf_counter() - start, 6)

    _write(out / "manifest.json", [json.dumps(manifest.to_dict(), indent=2, sort_keys=True)])
    return manifest

