"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --runs 10 [--workloads demo,ingest] [--first-seed 100] [--out FILE]

Runs the benchmark once per seed on each workload, one process each, and
reports for every end-to-end metric its median, its quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json. With
``--out`` the runs and the summary are saved as JSON, for example as the
baseline a later change is compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in benchmark["workloads"]))
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    report = {"run_seconds": benchmark["run_seconds"], "workloads": {}}
    status = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(benchmark["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            report.setdefault("environment", json.loads(lines[-2])["environment"])
            runs.append({"seed": seed, **{k: result[k] for k in ("correct", "attempted", "failed")},
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()),
                  file=sys.stderr)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            verdict = "below a third of the bound" if spread < bound / 3 else (
                "within the bound" if spread <= bound else "WIDER THAN THE BOUND")
            print(f"{workload:<11} {name:<12} median {median:<12.6g} spread {spread:.4f} bound {bound} {verdict}")
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
