"""Record the golden set: each workload's output for every seed in its pool.

    python3 perfbench/record_golden.py [--size full|tiny] [--out PATH]

Run it only when an output change is intended and justified; the
benchmark fails every operation whose output differs from this set.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402


def record(size: str, out: Path) -> dict:
    work = run.OUT / "work" / "golden"
    shutil.rmtree(work, ignore_errors=True)
    golden = {"size": size, "environment": run.environment()}
    try:
        for name, cls in workloads.WORKLOADS.items():
            bench = cls(size, work, golden, out)
            section = golden[name] = {}
            for seed in bench.pool:
                bench.prepare([seed])
                result = bench.op(seed)
                section[str(seed)] = result.summary
                # what the benchmark checks beyond the summary, such as the files on disk
                problems = bench.check(seed, result)
                if problems:
                    raise RuntimeError(f"{name} seed {seed}: " + "; ".join(problems))
                bench.clean()
                print(f"{name} seed {seed}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return golden


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--out", default=str(run.PERFBENCH / "golden.json"))
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.write_text(json.dumps(record(args.size, out), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
