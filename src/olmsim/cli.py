"""Command-line interface.

Stage-oriented subcommands over one scenario file::

    olmsim simulate --config scenario.json --out runs/simulate
    olmsim estimate did --config scenario.json --out runs/did
    olmsim run --config scenario.json --out runs/demo --seed 11

Give each call its own ``--out``: a call's ``manifest.json`` lists only
the files that call wrote, so files an earlier call left in the same
directory sit beside a manifest that does not name them.

Each subcommand takes ``--config``, ``--out`` and ``--seed``, plus the
options its stage reads: ``--caliper`` from ``match`` on, ``--alpha``
for ``tost``, ``report`` and ``run``, and ``--bounds`` for ``tost`` and
``run``. ``--config builtin:demo`` (the default) loads the bundled
demonstration scenario. Exit codes: 0 success, 2 validation error
(including an ``--out`` that cannot be written), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

from .errors import OlmsimError, PipelineError, ValidationError
from .pipeline import STAGES, run_pipeline

BUILTIN_DEMO = "builtin:demo"


def _resolve_config(token: str) -> Path:
    if token == BUILTIN_DEMO:
        return Path(str(resources.files("olmsim").joinpath("data/demo_scenario.json")))
    return Path(token)


#: the options a stage may read, beyond --config, --out and --seed, with
#: their help; an option not given is left to ``run_pipeline``'s default
_OPTIONS = {
    "caliper": "matching caliper on the propensity scale",
    "bounds": "TOST equivalence bound (default: 0.36 x outcome SD)",
    "alpha": "significance level",
}

#: subcommand -> (help, the ``_OPTIONS`` its stage reads)
SUBCOMMANDS = {
    "simulate": ("write the panel, demand series, and comparative-statics tables", ()),
    "match": ("run propensity matching and write balance tables", ("caliper",)),
    "estimate": ("fit one family of regressions", ("caliper",)),
    "tost": ("pre-trend equivalence tests from the event-study fits", ("caliper", "bounds", "alpha")),
    "report": ("write the quadrant classification report", ("caliper", "alpha")),
    "run": ("run every stage", ("caliper", "bounds", "alpha")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="olmsim", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "estimate":
            p.add_argument("kind", choices=STAGES["estimate"])
        p.add_argument("--config", default=BUILTIN_DEMO, help=f"scenario JSON path (default: {BUILTIN_DEMO})")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        for option in options:
            p.add_argument(f"--{option}", type=float, default=argparse.SUPPRESS, help=_OPTIONS[option])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # ``run`` runs every stage; any other subcommand names its stage's token
    token = f"estimate_{args.kind}" if args.command == "estimate" else args.command
    stages = None if token == "run" else [token]

    try:
        manifest = run_pipeline(
            _resolve_config(args.config),
            args.out,
            seed=args.seed,
            stages=stages,
            **{option: value for option, value in vars(args).items() if option in _OPTIONS},
        )
    except OlmsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.__cause__ if isinstance(exc, PipelineError) else exc
        return 2 if isinstance(cause, ValidationError) else 3
    print(f"wrote {len(manifest.outputs)} files to {args.out} (manifest {manifest.manifest_hash[:12]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
