"""Spans around the calls into each olmsim layer, recorded from outside.

The traced pass wraps public functions where their callers look them up,
for example ``olmsim.pipeline.did_fit`` (the pipeline's reference) and
``olmsim.regression.did_fit`` (the benchmark's own calls), so the program
is unchanged. A target that a later version of the package no longer
has is skipped and its metrics read 0. Spans stay in memory until the
pass ends; ``Tracer.write`` then dumps them as JSON lines.

A layer's self time is the time of its spans minus the time of their
direct child spans, so the self times of all layers add up to the traced
time spent inside olmsim.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("market", "synth", "panel", "matching", "regression", "report", "pipeline")
FIT_KINDS = ("did", "dual", "event", "demand")
STAGES = ("simulate", "match", "estimate", "tost", "report")


def _rows(args, kwargs, result) -> dict:
    n = getattr(result, "n_rows", None)
    return {"rows": n if n is not None else len(result)}


def _oracle(args, kwargs, result) -> dict:
    config = args[0]
    cells = len(config.markets) * config.workers_per_market * config.n_months
    # each replication assembles the factual and the frozen-at-pre panel
    return {"reps": result.reps, "rows": 2 * result.reps * cells}


def _csv_bytes(args, kwargs, result) -> dict:
    return {"bytes": sum(len(line) + 1 for line in result)}


def _logit(args, kwargs, result) -> dict:
    return {"iterations": result.n_iter}


def _match(args, kwargs, result) -> dict:
    treat = args[1] if len(args) > 1 else kwargs["treat"]
    return {"pairs": len(result.pairs), "treated": int((treat == 1).sum())}


def _fit(args, kwargs, result) -> dict:
    return {"fe_iterations": result.converged_fe_iterations}


def _targets():
    """(module, attribute, span name, attribute extractor) for each wrapped function."""
    targets = [
        ("olmsim.synth", "cournot_equilibrium", "market.equilibrium", None),
        ("olmsim.market", "cournot_equilibrium", "market.equilibrium", None),
        ("olmsim.pipeline", "sweep_comparative_statics", "market.statics", None),
        ("olmsim.pipeline", "generate_panel_arrays", "synth.panel", _rows),
        ("olmsim.synth", "generate_panel_arrays", "synth.panel", _rows),
        ("olmsim.pipeline", "generate_demand_arrays", "synth.demand", None),
        ("olmsim.synth", "poisson_icdf", "synth.poisson_icdf", None),
        ("olmsim.synth", "ground_truth_att", "synth.oracle", _oracle),
        ("olmsim.pipeline", "run_pipeline", "pipeline.run", None),
        ("olmsim.pipeline", "panel_csv_lines", "pipeline.panel_csv", _csv_bytes),
        ("olmsim.pipeline", "ingest_panel_csv", "pipeline.ingest", _rows),
        ("olmsim.pipeline", "derive_worker_covariates", "matching.covariates", None),
        ("olmsim.pipeline", "logit_fit", "matching.logit", _logit),
        ("olmsim.pipeline", "propensity_match", "matching.match", _match),
        ("olmsim.pipeline", "balance_table", "matching.balance", None),
        ("olmsim.regression", "absorb_two_way", "regression.absorb", None),
        ("olmsim.regression", "ols_fit", "regression.solve", None),
        ("olmsim.regression", "cluster_vcov", "regression.vcov", None),
    ]
    fits = (("did", "did_fit"), ("dual", "dual_shock_fit"), ("event", "event_study_fit"), ("demand", "demand_did_fit"))
    for module in ("olmsim.pipeline", "olmsim.regression"):
        targets += [(module, attr, f"regression.fit.{kind}", _fit) for kind, attr in fits]
        targets.append((module, "tost_pretrends", "regression.tost", None))
    for attr in ("fit_csv_lines", "fit_text_table", "balance_csv_lines", "balance_text_table",
                 "quadrant_csv_lines", "statics_csv_lines", "tost_as_dict"):
        targets.append(("olmsim.pipeline", attr, "report.format", None))
    return targets


#: (class name in olmsim.panel, method, span name, attribute extractor)
_METHOD_TARGETS = (
    ("PanelArrays", "subset", "panel.subset", None),
    ("DemandArrays", "subset", "panel.subset", None),
    ("PanelArrays", "from_rows", "panel.rows_to_arrays", None),
    ("PanelArrays", "to_rows", "panel.arrays_to_rows", None),
)


class Tracer:
    """In-memory span recorder.

    Each span is ``[name, start, end, parent index, attributes, raised]``;
    the parent is the span open on the call stack when it started.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, extract=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, open_[-1] if open_ else -1, None, False]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if extract is not None:
                span[4] = extract(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        undo = []
        try:
            for module_name, attr, name, extract in _targets():
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                undo.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, extract))
            panel = importlib.import_module("olmsim.panel")
            for cls_name, attr, name, extract in _METHOD_TARGETS:
                cls = getattr(panel, cls_name, None)
                original = cls.__dict__.get(attr) if cls is not None else None
                if original is None:
                    continue
                undo.append((cls, attr, original))
                if isinstance(original, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, original.__func__, extract)))
                else:
                    setattr(cls, attr, self.wrap(name, original, extract))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for i, (name, start, end, parent, attrs, raised) in enumerate(self.spans):
                record = {"id": i, "name": name, "start": start, "end": end, "parent": parent}
                if attrs:
                    record["attrs"] = attrs
                if raised:
                    record["raised"] = True
                handle.write(json.dumps(record) + "\n")


def op_metrics(spans: list[list], first: int, timings: dict) -> dict[str, float]:
    """Per-layer metrics of one operation from its spans ``spans[first:]``.

    ``timings`` carries what the operation reported itself, here the
    pipeline's per-stage times from its manifest.
    """
    op_spans = spans[first:]
    child = [0.0] * len(op_spans)
    for name, start, end, parent, _, _ in op_spans:
        if parent >= first:
            child[parent - first] += end - start
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, float] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    failed = dict.fromkeys(LAYERS, 0)
    fit_self = 0.0
    for i, (name, start, end, _, extra, raised) in enumerate(op_spans):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        self_s[layer] += end - start - child[i]
        failed[layer] += raised
        if name.startswith("regression.fit."):
            fit_self += end - start - child[i]
        for key, value in (extra or {}).items():
            attrs[f"{name}.{key}"] = attrs.get(f"{name}.{key}", 0) + value

    def s(name):
        return total.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def a(key):
        return attrs.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "market.equilibrium_calls": n("market.equilibrium"),
        "market.equilibrium_s": s("market.equilibrium"),
        "market.statics_s": s("market.statics"),
        "synth.panel_s": s("synth.panel"),
        "synth.demand_s": s("synth.demand"),
        "synth.poisson_icdf_s": s("synth.poisson_icdf"),
        "synth.poisson_icdf_calls": n("synth.poisson_icdf"),
        "synth.oracle_s": s("synth.oracle"),
        "synth.oracle_rep_s": ratio(s("synth.oracle"), a("synth.oracle.reps")),
        "synth.rows": a("synth.panel.rows") + a("synth.oracle.rows"),
        "panel.subset_s": s("panel.subset"),
        "panel.subset_calls": n("panel.subset"),
        "panel.rows_to_arrays_s": s("panel.rows_to_arrays"),
        "panel.arrays_to_rows_s": s("panel.arrays_to_rows"),
        "pipeline.panel_csv_s": s("pipeline.panel_csv"),
        "pipeline.csv_bytes": a("pipeline.panel_csv.bytes"),
        "pipeline.csv_mb_per_s": ratio(a("pipeline.panel_csv.bytes") / 1e6, s("pipeline.panel_csv")),
        "pipeline.ingest_s": s("pipeline.ingest"),
        "pipeline.ingest_rows_per_s": ratio(a("pipeline.ingest.rows"), s("pipeline.ingest")),
        "matching.covariates_s": s("matching.covariates"),
        "matching.logit_s": s("matching.logit"),
        "matching.logit_iterations": a("matching.logit.iterations"),
        "matching.match_s": s("matching.match"),
        "matching.balance_s": s("matching.balance"),
        "matching.pairs": a("matching.match.pairs"),
        "matching.match_rate": ratio(a("matching.match.pairs"), a("matching.match.treated")),
        "regression.absorb_s": s("regression.absorb"),
        "regression.absorb_calls": n("regression.absorb"),
        "regression.absorb_iterations": sum(a(f"regression.fit.{k}.fe_iterations") for k in FIT_KINDS),
        "regression.solve_s": s("regression.solve"),
        "regression.vcov_s": s("regression.vcov"),
        "regression.fit_self_s": fit_self,
        "regression.tost_s": s("regression.tost"),
        "report.format_s": s("report.format"),
        "trace.spans": len(op_spans),
    }
    for kind in FIT_KINDS:
        m[f"regression.fits.{kind}"] = n(f"regression.fit.{kind}")
        m[f"regression.fit_s.{kind}"] = s(f"regression.fit.{kind}")
    for stage in STAGES:
        m[f"pipeline.stage.{stage}_s"] = float(timings.get(f"stage.{stage}", 0.0))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.failed"] = failed[layer]
    return m


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median over operations of each per-operation metric."""
    return {key: statistics.median(op[key] for op in per_op) for key in per_op[0]}
