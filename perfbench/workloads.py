"""The four benchmark workloads (``demo-10x`` and ``ingest`` are runnable
but not in BENCHMARK.json; see README.md).

Every workload is a closed loop in one process: the next operation starts
only after the previous one has finished. The run's seed fixes an order of
input seeds drawn from the workload's pool; each operation's output is
compared with the golden set recorded for its input seed in
``golden.json`` (written by ``record_golden.py``), so every operation of
every run is checked, whatever the run's seed.

Why these workloads:

- ``demo`` is what ``olmsim run`` users run: ``run_pipeline`` on the
  bundled ten-market scenario. Per-fit overhead in ``regression``
  dominates.
- ``demo-10x`` is the same scenario at 4,000 workers per market: per-row
  cost dominates (CSV emission, absorption, QR), so a change that trims
  per-call overhead shows on ``demo`` and not here.
- ``montecarlo`` is a recovery study: the ground-truth oracle plus
  replicated DiD and event-study fits with pre-trend tests. It is the
  only workload where the oracle, ``cournot_equilibrium`` and
  ``poisson_icdf`` carry the time; it writes no files and does no
  matching.
- ``ingest`` is the read path: parse the demo panel CSV, then fit on the
  returned records. It is the read counterpart of the write path that
  ``demo-10x`` stresses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from olmsim import pipeline, regression, scenarios, synth

PERFBENCH = Path(__file__).resolve().parent

#: relative tolerance for numeric golden values (estimates and the oracle)
REL_TOL = 1e-9


@dataclass(frozen=True)
class Size:
    """Input sizes and golden pools; ``tiny`` exists for the smoke test."""

    demo_workers: int | None  # None keeps the bundled scenario's 400
    wide_workers: int
    oracle_workers: int
    oracle_reps: int
    panel_workers: int
    replications: int
    demo_pool: tuple[int, ...]
    wide_pool: tuple[int, ...]
    study_pool: tuple[int, ...]


SIZES = {
    "full": Size(None, 4000, 250, 400, 1000, 10, tuple(range(8)), tuple(range(4)), tuple(range(8))),
    "tiny": Size(40, 80, 40, 10, 100, 2, (0, 1, 2), (0, 1), (0, 1, 2)),
}


@dataclass
class OpResult:
    rows: int
    summary: dict
    timings: dict = field(default_factory=dict)


def compare(expected, actual, where: str = "") -> list[str]:
    """Differences between a golden value and an operation's summary."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected an object, got {type(actual).__name__}"]
        problems = [f"{where}/{k}: missing" for k in sorted(expected.keys() - actual.keys())]
        problems += [f"{where}/{k}: not in the golden set" for k in sorted(actual.keys() - expected.keys())]
        for k in sorted(expected.keys() & actual.keys()):
            problems += compare(expected[k], actual[k], f"{where}/{k}")
        return problems
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: expected a list of {len(expected)}"]
        return [p for i, (e, a) in enumerate(zip(expected, actual)) for p in compare(e, a, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, float):
        if abs(expected - actual) <= REL_TOL * max(abs(expected), abs(actual)):
            return []
    elif expected == actual and type(expected) is type(actual):
        return []
    return [f"{where}: expected {expected!r}, got {actual!r}"]


def _n_rows(panel) -> int:
    n = getattr(panel, "n_rows", None)
    return n if n is not None else len(panel)


def _cells(config) -> int:
    return len(config.markets) * config.workers_per_market * config.n_months


def _file_hashes(out: Path) -> dict[str, str]:
    """sha256 of every file an operation wrote, other than its manifest."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir()) if path.is_file() and path.name != "manifest.json"}


def _fit_summary(fit) -> dict:
    return {"coefficients": fit.coefficients, "se": fit.se}


class Workload:
    """Inputs, one operation and its golden check for one workload.

    ``work`` is this workload's scratch directory; everything it writes
    goes there.
    """

    name = ""
    pool_name = "demo_pool"
    spec = regression.RegressionSpec(outcome="fjobnum", transform="log1p", controls=("tenure",))

    def __init__(self, size: str, work: Path, golden: dict, golden_path: Path):
        self.size_name = size
        self.size = SIZES[size]
        self.work = work
        self.golden = golden
        self.golden_path = golden_path
        self.out = work / "out"
        self.bundled = Path(str(resources.files("olmsim").joinpath("data/demo_scenario.json")))
        demo = pipeline.parse_scenario(self.bundled)
        if self.size.demo_workers is not None:
            demo = dataclasses.replace(demo, workers_per_market=self.size.demo_workers)
        self.demo_config = demo
        self.demo_path = self.bundled if self.size.demo_workers is None else work / "demo.json"

    @property
    def pool(self) -> tuple[int, ...]:
        return getattr(self.size, self.pool_name)

    def order(self, seed: int) -> list[int]:
        """The run's input seeds: a permutation of the pool fixed by ``seed``."""
        rng = np.random.default_rng([seed, 20231207])
        return [int(s) for s in rng.permutation(self.pool)]

    def roles(self, order: list[int]) -> tuple[int, list[int]]:
        """Seed of the warm-up and seeds of the timed loop's cycles."""
        return order[0], order[1:] + order[:1]

    def prepare(self, order: list[int]) -> None:
        """Set-up before anything is timed: scenario files and input files."""
        self.work.mkdir(parents=True, exist_ok=True)
        if self.demo_path != self.bundled:
            pipeline.write_scenario(self.demo_config, self.demo_path)

    def clean(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def compare_golden(self, section: str, seed: int, summary: dict) -> list[str]:
        expected = self.golden.get(section, {}).get(str(seed))
        if expected is None:
            return [f"{section}: no golden entry for seed {seed}"]
        return [f"{section} seed {seed}{p}" for p in compare(expected, summary)]

    def check(self, seed: int, result: OpResult, section: str | None = None) -> list[str]:
        """Differences between an operation's output and the golden set."""
        return self.compare_golden(section or self.name, seed, result.summary)

    # -- the parts each workload defines

    def op(self, seed: int) -> OpResult:
        raise NotImplementedError

    def warm_up(self, seed: int) -> tuple[OpResult, str]:
        """Discarded operation before timing; returns it with its golden section."""
        return self.op(seed), self.name

    def setup_args(self) -> list[str]:
        return ["--config", str(self.demo_path)]

    def cold_argv(self, seed: int) -> list[str]:
        """A fresh-interpreter run of one operation on ``seed``."""
        return [sys.executable, str(PERFBENCH / "probe.py"), "op", "--workload", self.name,
                "--size", self.size_name, "--seed", str(seed), "--work", str(self.work),
                "--golden", str(self.golden_path)]

    def cold_problems(self, seed: int, stdout: str) -> list[str]:
        return json.loads(stdout.strip().splitlines()[-1])["problems"]


class Demo(Workload):
    name = "demo"

    @property
    def config(self):
        return self.demo_config

    @property
    def scenario_token(self) -> str:
        return "builtin:demo" if self.demo_path == self.bundled else str(self.demo_path)

    def op(self, seed: int) -> OpResult:
        return self._run(self.config, seed)

    def _run(self, config, seed: int) -> OpResult:
        config = config.with_seed(seed)
        manifest = pipeline.run_pipeline(config, self.out)
        summary = {"manifest_hash": manifest.manifest_hash, "outputs": dict(sorted(manifest.outputs.items()))}
        timings = {f"stage.{k}": v for k, v in manifest.timings.items()}
        return OpResult(_cells(config), summary, timings)

    def cold_argv(self, seed: int) -> list[str]:
        return [sys.executable, "-m", "olmsim.cli", "run", "--config", self.scenario_token,
                "--out", str(self.out), "--seed", str(seed)]

    def check(self, seed: int, result: OpResult, section: str | None = None) -> list[str]:
        """Compare the bytes on disk with the golden hashes, and the manifest's account of them."""
        written = _file_hashes(self.out)
        problems = self.compare_golden(section or self.name, seed, {**result.summary, "outputs": written})
        if result.summary["outputs"] != written:
            problems.append(f"seed {seed}: the manifest's output hashes differ from the files written")
        return problems

    def cold_problems(self, seed: int, stdout: str) -> list[str]:
        manifest = json.loads((self.out / "manifest.json").read_text())
        summary = {"manifest_hash": manifest["manifest_hash"], "outputs": manifest["outputs"]}
        return self.check(seed, OpResult(0, summary))


class DemoWide(Demo):
    name = "demo-10x"
    pool_name = "wide_pool"

    def __init__(self, size: str, work: Path, golden: dict, golden_path: Path):
        super().__init__(size, work, golden, golden_path)
        self.wide_config = dataclasses.replace(self.demo_config, workers_per_market=self.size.wide_workers)
        self.wide_path = work / "demo-10x.json"

    @property
    def config(self):
        return self.wide_config

    @property
    def scenario_token(self) -> str:
        return str(self.wide_path)

    def prepare(self, order: list[int]) -> None:
        super().prepare(order)
        pipeline.write_scenario(self.wide_config, self.wide_path)

    def setup_args(self) -> list[str]:
        return ["--config", str(self.wide_path)]

    def warm_up(self, seed: int) -> tuple[OpResult, str]:
        # a 1x demo run warms the same code paths in a sixth of the time;
        # the wide pool is a subset of the demo pool
        return self._run(self.demo_config, seed), "demo"


class MonteCarlo(Workload):
    name = "montecarlo"
    pool_name = "study_pool"

    def op(self, seed: int) -> OpResult:
        size = self.size
        config = scenarios.substitution_config(workers=size.oracle_workers, seed=seed)
        truth = synth.ground_truth_att(config, reps=size.oracle_reps)
        rows = 2 * truth.reps * _cells(config)
        reps = []
        for r in range(size.replications):
            panel = synth.generate_panel_arrays(scenarios.substitution_config(workers=size.panel_workers, seed=seed + r))
            did = regression.did_fit(panel, self.spec)
            event = regression.event_study_fit(panel, self.spec)
            tost = regression.tost_pretrends(event)
            rows += _n_rows(panel)
            reps.append([did.coefficients["treat_x_post35"], did.se["treat_x_post35"], tost.overall_pass])
        summary = {"att": truth.att, "mc_se": truth.mc_se, "replications": reps}
        return OpResult(rows, summary)

    def setup_args(self) -> list[str]:
        return ["--oracle-workers", str(self.size.oracle_workers), "--panel-workers", str(self.size.panel_workers)]


class Ingest(Workload):
    name = "ingest"

    def csv_path(self, seed: int) -> Path:
        return self.work / f"input-{seed}" / "panel.csv"

    def prepare(self, order: list[int]) -> None:
        # the run reads one panel CSV, written here by the simulate stage
        super().prepare(order)
        pipeline.run_pipeline(self.demo_config.with_seed(order[0]), self.csv_path(order[0]).parent,
                              stages=["simulate"])

    def roles(self, order: list[int]) -> tuple[int, list[int]]:
        return order[0], [order[0]]

    def op(self, seed: int) -> OpResult:
        rows = pipeline.ingest_panel_csv(self.csv_path(seed))
        did = regression.did_fit(rows, self.spec)
        dual = regression.dual_shock_fit(rows, self.spec)
        n = _n_rows(rows)
        return OpResult(n, {"rows": n, "did": _fit_summary(did), "dual": _fit_summary(dual)})


WORKLOADS = {cls.name: cls for cls in (Demo, DemoWide, MonteCarlo, Ingest)}


def make(name: str, size: str, work: Path, golden_path: Path) -> Workload:
    golden = json.loads(golden_path.read_text())
    if golden.get("size") != size:
        raise ValueError(f"{golden_path} holds the {golden.get('size')!r} golden set, not {size!r}")
    return WORKLOADS[name](size, work, golden, golden_path)
