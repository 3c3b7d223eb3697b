"""olmsim benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --all --seed 1 [--trace 1]

One run of a workload goes through these steps in one process:

1. set-up, not timed: scenario files and input files are written;
2. one discarded warm-up operation;
3. the timed loop, for ``--seconds``: cycles of one warm operation and
   one cold run, a fresh interpreter that runs one operation on the same
   seed (``python -m olmsim.cli run`` on ``demo`` and ``demo-10x``).

Set-up probes, fresh interpreters that import olmsim and load and
validate the workload's config, are taken before step 2, after the first
cycle to end past each quarter of step 3, and after it. The end-to-end
metrics:

- ``run_s``: the median time of the warm operations;
  ``rows_per_s``: their panel rows over their total time;
- ``setup_s`` and ``cold_run_s``: the median wall time of the set-up
  probes and of the cold runs;
- ``peak_rss_mb``: the peak resident memory of this process.

With ``--trace 1`` each cycle runs its seed twice, once traced and once
not, the traced one first on every other cycle; the traced operations
give the per-layer metrics, which are then the ones printed, and the
differences within cycles give ``trace.overhead_s``.
``cli.first_call_s`` is the median, over cycles, of the cold run minus
``setup_s`` minus the untraced warm operation of its cycle.

Every operation's output is compared with ``golden.json``. The last line
of standard output is the result JSON; the line before it is the
environment block. The exit code is 1 when any operation failed or
differed from the golden set, 2 when olmsim cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOAD_NAMES = ("demo", "demo-10x", "montecarlo", "ingest")
CHILD_TIMEOUT_S = 150
LOOP_SETUP_PROBES = 3  # set-up probes inside the timed loop, evenly spaced

END_TO_END = {
    "run_s": "s",
    "rows_per_s": "rows/s",
    "setup_s": "s",
    "cold_run_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("csv_mb_per_s"):
        return "MB/s"
    if name.endswith("rows_per_s"):
        return "rows/s"
    if name.endswith("_s") or ".fit_s." in name:
        return "s"
    if name.endswith("_rate"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run a fresh interpreter to completion; return its wall time and the finished process."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = "unknown"  # the checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                 timeout=30).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "olmsim").rglob("*")):
        if path.suffix in (".py", ".json"):
            source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "default",
        "machine": platform.machine(),
    }


class Tally:
    """Operations attempted and failed; problems go to standard error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems[:10]:
                print(f"FAIL {label}: {problem}", file=sys.stderr)
            if len(problems) > 10:
                print(f"FAIL {label}: ... {len(problems) - 10} more", file=sys.stderr)

    def guarded(self, label: str, fn):
        """Call ``fn``; a raise counts as a failed operation and returns None."""
        try:
            return fn()
        except Exception:
            self.record(label, [traceback.format_exc()])
            return None


def measure(args, workloads, tracing) -> tuple[dict, dict | None, dict, Tally]:
    """Run one workload; return end-to-end metrics, per-layer metrics, raw samples and the tally.

    The host's speed changes by up to half over seconds to minutes, so warm
    operations and cold runs alternate for the whole timed loop and see the
    same phases, and set-up probes are spread from its start to its end.
    """
    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    bench = workloads.make(args.workload, args.size, work, Path(args.golden))
    warm_seed, loop_seeds = bench.roles(bench.order(args.seed))
    tracer = tracing.Tracer() if args.trace else None
    tally = Tally()
    setup_runs = []  # (wall time, import time) of each set-up probe
    cold_runs = []  # (untraced warm operation of the same cycle, wall time) of each cold run
    times, traced_times, per_op = [], [], []
    rows = 0

    def setup_probe() -> None:
        elapsed, proc = run_child([sys.executable, str(PERFBENCH / "probe.py"), "setup",
                                   "--workload", args.workload] + bench.setup_args())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        setup_runs.append((elapsed, json.loads(proc.stdout.strip().splitlines()[-1])["import_s"]))

    def warm_op(seed: int, traced: bool) -> None:
        # only the operation itself is timed, not its golden check or clean-up
        nonlocal rows
        gc.collect()
        error = None
        mark = len(tracer.spans) if traced else 0
        with tracer.installed() if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                result = bench.op(seed)
            except Exception:
                result, error = None, traceback.format_exc()
            elapsed = time.perf_counter() - t0
        tally.record(f"{'traced ' if traced else ''}operation seed {seed}",
                     [error] if error else bench.check(seed, result))
        bench.clean()
        if traced:
            traced_times.append(elapsed)
            per_op.append(tracing.op_metrics(tracer.spans, mark, result.timings if result else {}))
        else:
            times.append(elapsed)
            rows += result.rows if result is not None else 0

    def cold_run(seed: int) -> None:
        elapsed, proc = run_child(bench.cold_argv(seed))
        if proc.returncode != 0:
            problems = [f"exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
        else:
            problems = bench.cold_problems(seed, proc.stdout)
        tally.record(f"cold run seed {seed}", problems)
        bench.clean()
        cold_runs.append((times[-1], elapsed))

    try:
        bench.prepare([warm_seed, *loop_seeds])
        setup_probe()
        warm = tally.guarded("warm-up", lambda: bench.warm_up(warm_seed))
        if warm is not None:
            tally.record(f"warm-up seed {warm_seed}", bench.check(warm_seed, *warm))
        bench.clean()

        # the timed loop: cycles of a warm operation and a cold run on one
        # seed, until --seconds have passed; with tracing, a cycle runs its
        # seed traced and untraced, the traced one first on every other cycle
        start = time.perf_counter()
        next_probe = args.seconds / (LOOP_SETUP_PROBES + 1)
        for cycle in itertools.count():
            seed = loop_seeds[cycle % len(loop_seeds)]
            for traced in ((False,) if tracer is None else (cycle % 2 == 0, cycle % 2 == 1)):
                warm_op(seed, traced)
            cold_run(seed)
            elapsed = time.perf_counter() - start
            if next_probe <= elapsed < args.seconds:
                setup_probe()
                next_probe += args.seconds / (LOOP_SETUP_PROBES + 1)
            if elapsed >= args.seconds:
                break
        setup_probe()

        setup_s = statistics.median(s for s, _ in setup_runs)
        end_to_end = {
            "run_s": statistics.median(times),
            "rows_per_s": rows / sum(times),
            "setup_s": setup_s,
            "cold_run_s": statistics.median(c for _, c in cold_runs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        first_call = [cold - setup_s - warm for warm, cold in cold_runs]
        samples = {"setup_s": [s for s, _ in setup_runs], "cold_run_s": [c for _, c in cold_runs],
                   "op_s": times, "first_call_s": first_call}

        per_layer = None
        if tracer is not None:
            tracer.write(OUT / "traces" / f"{args.workload}.jsonl")  # the latest traced run only
            # each traced operation against the untraced one of its cycle
            overhead = [traced - plain for traced, plain in zip(traced_times, times)]
            per_layer = tracing.median_metrics(per_op)
            per_layer["import.olmsim_s"] = statistics.median(i for _, i in setup_runs)
            per_layer["cli.first_call_s"] = statistics.median(first_call)
            per_layer["trace.overhead_s"] = statistics.median(overhead)
            per_layer = dict(sorted(per_layer.items()))
            samples["traced_op_s"] = traced_times
            samples["trace_overhead_s"] = overhead
        return end_to_end, per_layer, samples, tally
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_one(args) -> int:
    if not (SRC / "olmsim" / "__init__.py").is_file():
        print(f"error: no olmsim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import olmsim

    if not Path(olmsim.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: olmsim was imported from {olmsim.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    env = environment()
    end_to_end, per_layer, samples, tally = measure(args, workloads, tracing)
    chosen = per_layer if args.trace else end_to_end
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": END_TO_END.get(name) or layer_unit(name)}
                    for name, value in chosen.items()},
    }
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "size": args.size,
              "environment": env, "end_to_end": end_to_end, "per_layer": per_layer, "samples": samples,
              **result}
    OUT.joinpath("results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps({"environment": env, "end_to_end": end_to_end,
                      **{k: samples[k] for k in ("first_call_s", "trace_overhead_s") if k in samples}}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def paired(name: str, value: float, samples: list[float]) -> str:
    """A median of paired differences with its samples; unresolved when the
    samples are fewer than three or disagree in sign."""
    resolved = len(samples) >= 3 and (min(samples) > 0 or max(samples) < 0)
    return (f"{name} {value:.4g} (paired samples: {', '.join(f'{v:.3g}' for v in samples)})"
            + ("" if resolved else "; unresolved: inside the noise of its samples"))


def run_all(args) -> int:
    """Run every workload in its own process and print each metric with its unit."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
                "--golden", args.golden]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            print(f"{name}: no result (exit {proc.returncode})")
            status = 1
            continue
        context = json.loads(lines[-2])
        if name == WORKLOAD_NAMES[0]:
            print(json.dumps({"environment": context["environment"]}))
        result = json.loads(lines[-1])
        error_rate = result["failed"] / result["attempted"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} error_rate={error_rate:.4g}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<32} {entry['value']:>16.6g} {entry['unit']}")
        if args.trace:
            e2e = context["end_to_end"]
            layers = {m: e["value"] for m, e in result["metrics"].items()}
            print(f"  cold/warm: setup_s {e2e['setup_s']:.4g} (import {layers['import.olmsim_s']:.4g}), "
                  f"run_s {e2e['run_s']:.4g}, cold_run_s {e2e['cold_run_s']:.4g}")
            print("  " + paired("first call", layers["cli.first_call_s"], context["first_call_s"]))
            print("  " + paired("trace overhead", layers["trace.overhead_s"], context["trace_overhead_s"]))
        if proc.returncode != 0 or not result["correct"]:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOAD_NAMES)
    which.add_argument("--all", action="store_true", help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--golden", default=str(PERFBENCH / "golden.json"))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
