"""Fresh-interpreter probes started by ``run.py``.

``probe.py setup --workload W [--config PATH] [--size S]`` imports olmsim
and loads and validates the workload's config, then prints the import and
config times as JSON. Its parent times the whole process as ``setup_s``.
Only the standard library is imported before olmsim, so ``import_s`` is
the full cost of ``import olmsim``.

``probe.py op --workload W --seed N ...`` runs one operation of the
``montecarlo`` or ``ingest`` workload in a fresh interpreter and prints
its golden-check problems as JSON; the parent times it as ``cold_run_s``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _setup(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import olmsim  # noqa: F401
    t1 = time.perf_counter()
    if args.workload == "montecarlo":
        from olmsim.scenarios import substitution_config

        substitution_config(workers=args.oracle_workers)
        substitution_config(workers=args.panel_workers)
    else:
        from olmsim.pipeline import parse_scenario

        parse_scenario(args.config)
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "config_s": t2 - t1}


def _op(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    bench = workloads.make(args.workload, args.size, Path(args.work), Path(args.golden))
    result = bench.op(args.seed)
    return {"problems": bench.check(args.seed, result)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=["setup", "op"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", help="scenario JSON to load (setup mode)")
    parser.add_argument("--oracle-workers", type=int, default=0)
    parser.add_argument("--panel-workers", type=int, default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--golden")
    parser.add_argument("--work")
    args = parser.parse_args(argv)
    out = _setup(args) if args.mode == "setup" else _op(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
