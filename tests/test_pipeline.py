import argparse
import csv
import dataclasses
import hashlib
import inspect
import json
import re
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from conftest import (
    assert_same_columns, assert_same_fit, demo_config, fresh_python, random_logistic_market, spy_blocks,
)

from olmsim import pipeline, regression
from olmsim.cli import BUILTIN_DEMO, SUBCOMMANDS, _resolve_config, build_parser, main
from olmsim.errors import BoundaryConditionError, PipelineError, SchemaError, ValidationError
from olmsim.market import MarketPotentialSpec, PotentialFamily
from olmsim.matching import derive_worker_covariates
from olmsim.panel import DEMAND_COLUMNS, OUTCOME_TRANSFORMS, PANEL_COLUMNS, DemandArrays, PanelArrays
from olmsim.pipeline import (
    _CSV_BLOCK_ROWS,
    FIT_TITLES,
    STAGES,
    RunManifest,
    _Run,
    _csv_blocks,
    config_hash,
    ingest_panel_csv,
    parse_scenario,
    run_pipeline,
    write_scenario,
)
from olmsim.regression import RegressionSpec, did_fit, dual_shock_fit, event_study_fit
from olmsim.scenarios import honeymoon_config, reference_market, substitution_config, two_market_config
from olmsim.synth import (
    DEFAULT_WEEKS,
    AiPath,
    MarketScenario,
    ModeratorBoost,
    ScenarioConfig,
    config_from_dict,
    config_to_dict,
    generate_demand_arrays,
    generate_panel_arrays,
)


def small_config(seed=5):
    return two_market_config(AiPath(0.2, 0.45, 0.6), workers=40, seed=seed)


#: the run options each stage token reads, as the manifest records them;
#: ``None`` is a full run
OPTIONS_READ = {
    "simulate": {"weeks"},
    "match": {"caliper"},
    "estimate": {"caliper", "weeks"},
    "estimate_did": {"caliper"},
    "estimate_event": {"caliper"},
    "estimate_dual": {"caliper"},
    "estimate_demand": {"weeks"},
    "tost": {"alpha", "bounds", "caliper"},
    "report": {"alpha", "caliper"},
    None: {"alpha", "bounds", "caliper", "weeks"},
}


def subcommand_flags(command: str) -> set[str]:
    """The option flags of ``command``: what the tokens it may run read,
    except ``weeks``, which no subcommand sets."""
    tokens = {"estimate": [f"estimate_{kind}" for kind in STAGES["estimate"]], "run": [None]}.get(command, [command])
    return {f"--{option}" for token in tokens for option in OPTIONS_READ[token] - {"weeks"}}


class TestScenarioFiles:
    def test_round_trip(self, tmp_path):
        config = small_config()
        path = tmp_path / "scenario.json"
        write_scenario(config, path)
        assert parse_scenario(path) == config

    def test_dict_round_trip_fields(self):
        logistic = random_logistic_market(np.random.default_rng(0))
        configs = (
            honeymoon_config(workers=10, seed=3),
            ScenarioConfig(
                markets=(
                    MarketScenario("treated", logistic, AiPath(0.1, 0.3, 0.5), worker_fe_mean=0.2),
                    MarketScenario("control", logistic, AiPath(0.1, 0.1, 0.1)),
                ),
                control_market_id="control",
                workers_per_market=10,
            ),
            two_market_config(AiPath(0.2, 0.45, 0.6), workers=10, moderator_boost=ModeratorBoost("us", 1.5)),
        )
        for config in configs:
            assert config_from_dict(config_to_dict(config)) == config

    def test_demo_scenario_bytes_pinned(self, tmp_path):
        # the encoder's output is hashed into every manifest: pin its bytes
        bundled = _resolve_config(BUILTIN_DEMO)
        demo = parse_scenario(bundled)
        path = tmp_path / "demo.json"
        write_scenario(demo, path)
        assert path.read_bytes() == bundled.read_bytes()
        assert config_hash(demo) == "b5b791ecfaaf0dfe76098afbb07a4f870d0d3d1c129094cd3438e36ac77c9643"

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"markets": [,]}')
        with pytest.raises(SchemaError, match="line 1"):
            parse_scenario(path)

    @pytest.mark.parametrize(
        ("content", "message"),
        [
            (b'{"seed": 1' + b"1" * 5000 + b"}", "not valid JSON"),
            (b"[" * 200_000 + b"]" * 200_000, "not valid JSON"),
            (b'{"seed": "\xff"}', "cannot read"),
        ],
        ids=["integer-past-digit-limit", "nesting-past-recursion-limit", "not-utf8"],
    )
    def test_unparseable_file_is_schema_error(self, tmp_path, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(SchemaError, match=message):
            parse_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read"):
            parse_scenario(tmp_path / "nope.json")

    def test_unwritable_path_is_validation_error_naming_it(self, tmp_path):
        # as for every other file olmsim writes, an OSError names the path, and the CLI exits 2
        path = tmp_path / "missing" / "s.json"
        with pytest.raises(ValidationError) as exc:
            write_scenario(small_config(), path)
        assert str(exc.value).startswith(f"cannot write {path}: ")
        assert isinstance(exc.value.__cause__, FileNotFoundError)

    def test_decreasing_a_path_rejected(self, tmp_path):
        data = config_to_dict(small_config())
        data["markets"][0]["a_path"]["a_post35"] = 0.05  # below a_pre
        path = tmp_path / "bad_path.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match="nondecreasing"):
            parse_scenario(path)

    def test_boundary_violation_surfaces_at_parse(self, tmp_path):
        data = config_to_dict(small_config())
        data["markets"][0]["market"]["c"] = 1.0
        data["markets"][0]["market"]["potential"] = {"family": "quadratic", "S0": 10.0, "kappa": 0.4}
        path = tmp_path / "bad_boundary.json"
        path.write_text(json.dumps(data))
        with pytest.raises(BoundaryConditionError):
            parse_scenario(path)

    def test_missing_field_named(self, tmp_path):
        data = config_to_dict(small_config())
        del data["control_market_id"]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match="control_market_id"):
            parse_scenario(path)


def _potential(data):
    return data["markets"][0]["market"]["potential"]


#: one edit each to a valid scenario document, and the field path the error must name
MALFORMED = {
    "missing S0": (lambda d: _potential(d).pop("S0"), "markets[0].market.potential.S0"),
    "boost without column": (lambda d: d.update(moderator_boost={"multiplier": 1.5}), "moderator_boost.column"),
    "string integer": (lambda d: d.update(workers_per_market="many"), "workers_per_market"),
    "null number": (lambda d: d["markets"][0]["market"].update(c=None), "markets[0].market.c"),
    "market not an object": (lambda d: d.update(markets=[1]), "markets[0]"),
    "markets not an array": (lambda d: d.update(markets=5), "markets"),
    "months not an array": (lambda d: d.update(months=5), "months"),
    "fractional integer": (lambda d: d["markets"][0]["market"].update(n=30.7), "markets[0].market.n"),
    "boost not an object": (lambda d: d.update(moderator_boost="us"), "moderator_boost"),
    "unknown key": (lambda d: d.update(worker_fe_sigmaa=0.4), "worker_fe_sigmaa"),
    "unknown family": (lambda d: _potential(d).update(family="cubic"), "markets[0].market.potential.family"),
    "negative seed": (lambda d: d.update(seed=-1), "seed"),
    "comma in market id": (lambda d: d["markets"][0].update(market_id="olm,01"), "markets[0]: market id"),
    "month 13": (lambda d: d["months"].__setitem__(3, "2022-13"), "months"),
    "months reversed": (lambda d: d["months"].reverse(), "months"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_scenario_exits_2_naming_field(tmp_path, capsys, case):
    edit, field_path = MALFORMED[case]
    data = config_to_dict(small_config())
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert field_path in capsys.readouterr().err


#: a change to a config built in Python that breaks a scenario file's rule, and the field the error names
PYTHON_BUILT = {
    "bool background rate": ({"background_rate": True}, "background_rate"),
    "float worker count": ({"workers_per_market": 50.0}, "workers_per_market"),
    "fractional seed": ({"seed": 1.5}, "seed"),
}


@pytest.mark.parametrize("case", PYTHON_BUILT)
def test_python_built_config_held_to_the_file_rules(tmp_path, case):
    changes, field = PYTHON_BUILT[case]
    config = dataclasses.replace(small_config(), **changes)
    out = tmp_path / "out"
    with pytest.raises(SchemaError, match=f"^{field}: expected "):
        run_pipeline(config, out)
    assert not out.exists()
    path = tmp_path / "s.json"
    with pytest.raises(SchemaError, match=f"^{field}: expected "):
        write_scenario(config, path)
    assert not path.exists()
    # the codec itself refuses it: config_to_dict used to return, and config_hash to hash, e.g. NaN
    for encode in (config_to_dict, config_hash):
        with pytest.raises(SchemaError, match=f"^{field}: expected "):
            encode(config)


_LOGISTIC = MarketPotentialSpec(PotentialFamily.LOGISTIC_ADOPTION, S0=10.0, mu=1.5, s=0.3)

#: each range-checked float field -> (a valid object holding it, the message a nan in it raises)
NAN_RULES = {
    **{name: (small_config(), f"{name} must be nonnegative, got nan")
       for name in ("worker_fe_sigma", "month_fe_sigma", "noise_sigma", "background_rate")},
    **{name: (small_config(), f"{name} must be positive, got nan") for name in ("jobs_scale", "weekly_scale")},
    "multiplier": (ModeratorBoost("us", 1.5), "moderator multiplier must be nonnegative, got nan"),
    "c": (reference_market(), "baseline marginal cost c must be positive, got nan"),
    "b": (reference_market(), "demand slope b must be positive, got nan"),
    "S0": (reference_market().potential, "S0 must be positive, got nan"),
    "kappa": (reference_market().potential, "quadratic family needs kappa > 0, got nan"),
    "s": (_LOGISTIC, "logistic family needs scale s > 0, got nan"),
    "mu": (_LOGISTIC, "logistic family needs adoption midpoint mu >= 1 for concavity on [0, 1], got nan"),
}


@pytest.mark.parametrize("field", NAN_RULES)
def test_nan_fails_the_range_rule_on_construction(field):
    # a rule written ``v < 0`` lets nan through, and an object built in Python
    # meets the codec's finiteness check only on its way to a file or a run
    valid, message = NAN_RULES[field]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(valid, **{field: float("nan")})


#: each float field that a range rule lets an infinity through, or that has no
#: range rule -> (a valid object holding it, the name its message gives)
FINITE_RULES = {
    **{name: (small_config(), name) for name in
       ("worker_fe_sigma", "month_fe_sigma", "noise_sigma", "background_rate", "jobs_scale", "weekly_scale")},
    "multiplier": (ModeratorBoost("us", 1.5), "moderator multiplier"),
    "c": (reference_market(), "baseline marginal cost c"),
    "b": (reference_market(), "demand slope b"),
    "S0": (reference_market().potential, "S0"),
    "worker_fe_mean": (small_config().markets[0], "worker_fe_mean"),
}


@pytest.mark.parametrize(
    "field, value",
    [*((field, float("inf")) for field in FINITE_RULES), ("worker_fe_mean", float("-inf")),
     ("worker_fe_mean", float("nan"))],
)
def test_non_finite_value_fails_on_construction(field, value):
    # ``v > 0`` holds for inf, so each of these constructed, and the generator
    # turned an infinite sigma or scale into inf and nan outcome cells
    valid, name = FINITE_RULES[field]
    with pytest.raises(ValidationError, match=f"^{re.escape(name)} must be finite, got {value}$"):
        dataclasses.replace(valid, **{field: value})


#: every ``float`` field of the scenario classes, read from their annotations,
#: with a valid object holding it: a field added later is checked here too
FLOAT_FIELDS = [
    (valid, name)
    for valid in (small_config(), small_config().markets[0], ModeratorBoost("us", 1.5), AiPath(0.2, 0.45, 0.6),
                  reference_market(), reference_market().potential)
    for name, annotation in get_type_hints(type(valid)).items() if annotation is float
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("valid, field", FLOAT_FIELDS, ids=[f"{type(v).__name__}.{f}" for v, f in FLOAT_FIELDS])
def test_every_float_field_rejects_a_non_finite_value(valid, field, value):
    # each message names the field, whether its range rule or the finiteness rule rejects the value
    with pytest.raises(ValidationError, match=rf"(^|\s){field} must "):
        dataclasses.replace(valid, **{field: value})


def test_python_built_config_runs_as_given(tmp_path):
    # an int in a float field encodes as a float, so the config, its decoded copy
    # and the same config given 0.0 share one hash
    config = dataclasses.replace(small_config(), noise_sigma=0)
    as_float = dataclasses.replace(small_config(), noise_sigma=0.0)
    assert config_hash(config) == config_hash(config_from_dict(config_to_dict(config))) == config_hash(as_float)
    assert run_pipeline(config, tmp_path / "out", stages=["simulate"]).config_hash == config_hash(as_float)


def test_pipeline_fits_take_the_block_path(tmp_path, monkeypatch):
    # every matched sample runs unit by unit in equal time blocks, so each fit's layout check,
    # cluster scores and absorption sum (g, T) blocks, not bincounts
    results = spy_blocks(monkeypatch)
    config = small_config()
    manifest = run_pipeline(config, tmp_path / "out", stages=[f"estimate_{kind}" for kind in FIT_TITLES])
    fits = [name for name in manifest.outputs if name.startswith("fit_")]
    assert len(fits) == 9 * len(config.treated_ids())
    assert None not in results
    # three checks per matched sample, in its one fit_designs call
    assert [T for _, T in results] == [config.n_months] * 3 * len(config.treated_ids())


def test_montecarlo_fits_take_the_block_path(monkeypatch):
    # the benchmark's recovery study fits did and event on whole generated panels
    results = spy_blocks(monkeypatch)
    for seed in (0, 1):
        config = substitution_config(workers=30, seed=seed)
        panel = generate_panel_arrays(config)
        did_fit(panel)
        event_study_fit(panel)
    assert results == [(2 * 30, config.n_months)] * 12


class TestPanelCsv:
    def test_write_then_ingest_round_trip(self, tmp_path):
        arrays = generate_panel_arrays(small_config())
        path = tmp_path / "panel.csv"
        path.write_text(csv_text(arrays) + "\n")
        # floats too: the writer's shortest repr reads back exactly
        assert_same_columns(ingest_panel_csv(path), arrays, PANEL_COLUMNS)

    def test_invariant_violation_reported_with_row(self, tmp_path):
        arrays = generate_panel_arrays(small_config())
        arrays.fjobnum[3] = 0
        arrays.fjobearn[3] = 5.0
        path = tmp_path / "panel.csv"
        path.write_text(csv_text(arrays) + "\n")
        with pytest.raises(ValidationError, match="fjobearn must be 0"):
            ingest_panel_csv(path)

    def test_invariant_violation_names_csv_line(self, tmp_path):
        arrays = generate_panel_arrays(small_config())
        arrays.fjobnum[3] = 0
        arrays.fjobearn[3] = 5.0
        path = tmp_path / "panel.csv"
        path.write_text(csv_text(arrays) + "\n")
        # data row 3 follows the header and rows 0-2: CSV line 5
        with pytest.raises(ValidationError, match=r"^line 5: fjobearn must be 0"):
            ingest_panel_csv(path)

    def test_shuffled_header_rejected(self, tmp_path):
        arrays = generate_panel_arrays(small_config())
        lines = csv_text(arrays).split("\n")
        header = lines[0].split(",")
        header[0], header[1] = header[1], header[0]
        path = tmp_path / "panel.csv"
        path.write_text("\n".join([",".join(header)] + lines[1:]) + "\n")
        with pytest.raises(SchemaError, match="header mismatch"):
            ingest_panel_csv(path)

    @pytest.mark.parametrize(
        "n_lines, message", [(0, "is empty"), (1, "has no data rows"), (3, "line 3: expected 12 fields, got 11")]
    )
    def test_schema_errors(self, tmp_path, n_lines, message):
        # the file's first ``n_lines`` lines; a last data line loses its last field
        lines = csv_text(generate_panel_arrays(small_config())).split("\n")[:n_lines]
        if n_lines > 1:
            lines[-1] = lines[-1].rsplit(",", 1)[0]
        path = tmp_path / "panel.csv"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(SchemaError, match=message):
            ingest_panel_csv(path)

    @pytest.mark.parametrize(
        "make, message",
        [
            pytest.param(lambda path: None, "No such file", id="missing"),
            pytest.param(lambda path: path.mkdir(), "Is a directory", id="directory"),
            pytest.param(lambda path: path.write_bytes(b"worker_id\xff\n"), "can't decode", id="not-utf8"),
        ],
    )
    def test_unreadable_file_is_schema_error(self, tmp_path, make, message):
        path = tmp_path / "panel.csv"
        make(path)
        with pytest.raises(SchemaError, match=rf"^cannot read {path}: .*{message}"):
            ingest_panel_csv(path)

    def test_field_past_csv_limit_is_schema_error_naming_line(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(",".join(PANEL_COLUMNS) + "\n" + "9" * 200_000 + "\n")
        with pytest.raises(SchemaError, match=rf"^{path} line 2: field larger than field limit"):
            ingest_panel_csv(path)

    @pytest.mark.parametrize(
        "column, cell, message",
        [
            pytest.param("fjobnum", "many", "fjobnum must be a 64-bit integer", id="fjobnum-not-integer"),
            pytest.param("fjobnum", "2.5", "fjobnum must be a 64-bit integer", id="fjobnum-fraction"),
            pytest.param("fjobearn", "lots", "fjobearn must be numeric", id="fjobearn-not-numeric"),
            pytest.param("worker_id", "9" * 20, "worker_id must be a 64-bit integer", id="worker_id-overflow"),
            pytest.param("fjobearn", "nan", "fjobearn must be finite", id="fjobearn-nan"),
            pytest.param("fjobearn", "inf", "fjobearn must be finite", id="fjobearn-inf"),
            pytest.param("fjobratio", "nan", "fjobratio must be finite", id="fjobratio-nan"),
            pytest.param("fjobratio", "inf", "fjobratio must be finite", id="fjobratio-inf"),
        ],
    )
    def test_bad_field_reports_line(self, tmp_path, column, cell, message):
        lines = csv_text(generate_panel_arrays(small_config())).split("\n")
        # data row 5, CSV line 7; a later bad cell too: the first one is named
        for row in (5, 9):
            parts = lines[row + 1].split(",")
            parts[PANEL_COLUMNS.index(column)] = cell
            lines[row + 1] = ",".join(parts)
        path = tmp_path / "panel.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=rf"^line 7: {message}, got "):
            ingest_panel_csv(path)


def csv_text(arrays, columns=PANEL_COLUMNS) -> str:
    """A data CSV's text without its last newline: the writer's blocks, joined."""
    return "\n".join(_csv_blocks([arrays], columns))


def reference_csv_lines(arrays, columns) -> list[str]:
    """The CSV lines formatted one row at a time."""
    lines = [",".join(columns)]
    for i in range(arrays.n_rows):
        cells = (getattr(arrays, name)[i] for name in columns)
        lines.append(",".join(repr(float(v)) if isinstance(v, np.floating) else str(v) for v in cells))
    return lines


class TestCsvWriter:
    """The block-wise writer against a per-row formatter, at sizes around the block."""

    SIZES = (1, 100, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS + 17)

    CONFIG = two_market_config(AiPath(0.2, 0.45, 0.6), workers=300, seed=3)

    @pytest.mark.parametrize("n", SIZES)
    def test_panel_lines_match_per_row_reference(self, n):
        panel = generate_panel_arrays(self.CONFIG)  # 9,600 rows
        part = panel.subset(np.arange(panel.n_rows) < n)
        assert csv_text(part) == "\n".join(reference_csv_lines(part, PANEL_COLUMNS))

    @pytest.mark.parametrize("n", SIZES)
    def test_demand_lines_match_per_row_reference(self, n):
        demand = generate_demand_arrays(self.CONFIG, weeks=4200)  # 8,400 rows
        part = demand.subset(np.arange(demand.n_rows) < n)
        assert csv_text(part, DEMAND_COLUMNS) == "\n".join(reference_csv_lines(part, DEMAND_COLUMNS))


def edge_panel(n: int) -> PanelArrays:
    """``n`` rows whose columns reach every path of the writer: few and many
    distinct values per block, signed zeros, non-finite floats, integers past
    2**53 and a string column."""
    rows = np.arange(n)
    rng = np.random.default_rng(n)
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 0.1, -2.5e-300, 1e16])
    return PanelArrays(
        worker_id=2**53 + 1 + rows // 16,
        market_id=np.array(["olm01", "control"], dtype=object)[rows // 7 % 2],
        month_index=rows % 16,
        treat=rows // 7 % 2,
        post35=rows % 16 >= 6,
        post40=np.zeros(n, dtype=np.int64),
        fjobnum=rng.integers(0, 2**62, n),
        fjobearn=rng.normal(size=n),
        fjobratio=specials[rows % len(specials)],
        tenure=2**63 - 1 - rows,
        us=np.ones(n, dtype=np.int64),
        experienced=rows % 3 == 0,
    )


class TestCsvWriterEdgeValues:
    """The value-table writer against the per-row formatter on values a table can get wrong."""

    SIZES = (0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1)

    @pytest.mark.parametrize("n", SIZES)
    def test_panel_lines_match_per_row_reference(self, n):
        panel = edge_panel(n)
        assert csv_text(panel) == "\n".join(reference_csv_lines(panel, PANEL_COLUMNS))

    @pytest.mark.parametrize("n", SIZES)
    def test_demand_lines_match_per_row_reference(self, n):
        panel = edge_panel(n)
        demand = DemandArrays(
            market_id=panel.market_id, week_index=panel.worker_id, postnum=panel.fjobratio,
            treat=panel.treat, post=panel.fjobearn,
        )
        assert csv_text(demand, DEMAND_COLUMNS) == "\n".join(reference_csv_lines(demand, DEMAND_COLUMNS))

    def test_signed_zeros_keep_their_sign(self):
        lines = csv_text(edge_panel(_CSV_BLOCK_ROWS)).split("\n")
        ratios = [line.split(",")[PANEL_COLUMNS.index("fjobratio")] for line in lines[1:9]]
        assert ratios == ["0.0", "-0.0", "nan", "inf", "-inf", "0.1", "-2.5e-300", "1e+16"]


class TestStreamedDataFiles:
    """``simulate`` streams its data files a block at a time onto disk."""

    # small_config's 1,280 panel rows: exactly four blocks, or one block and one more row
    @pytest.mark.parametrize("block_rows", [320, 1279])
    def test_files_are_the_joined_lines_and_their_digests_are_listed(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(pipeline, "_CSV_BLOCK_ROWS", block_rows)
        manifest = run_pipeline(small_config(), tmp_path, stages=["simulate"])
        panel = generate_panel_arrays(small_config())
        assert panel.n_rows % block_rows in (0, 1)
        demand = generate_demand_arrays(small_config(), weeks=DEFAULT_WEEKS)
        for name, text in (("panel.csv", csv_text(panel)), ("demand.csv", csv_text(demand, DEMAND_COLUMNS))):
            data = (tmp_path / name).read_bytes()
            assert data == (text + "\n").encode(), name
            assert manifest.outputs[name] == hashlib.sha256(data).hexdigest(), name

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
    def test_write_error_mid_stream_exits_2_naming_the_path(self, tmp_path, monkeypatch, capsys):
        # every write to /dev/full fails with ENOSPC; the header and the first small
        # blocks fit in the file buffer, so the error comes from a later block
        monkeypatch.setattr(pipeline, "_CSV_BLOCK_ROWS", 64)
        config_path, out = tmp_path / "scenario.json", tmp_path / "out"
        write_scenario(small_config(), config_path)
        out.mkdir()
        (out / "panel.csv").symlink_to("/dev/full")
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 2
        assert f"cannot write {out / 'panel.csv'}: No space left on device" in capsys.readouterr().err


class TestPanelInvariants:
    """Cross-row invariants of a panel, each naming the first bad CSV line or row."""

    @staticmethod
    def write(tmp_path, lines):
        path = tmp_path / "panel.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_duplicate_cell_rejected(self, tmp_path):
        lines = csv_text(generate_panel_arrays(small_config())).split("\n")
        lines.insert(40, lines[20])  # data row 19 again, as CSV line 41
        with pytest.raises(ValidationError, match=r"line 41: duplicate worker_id,month_index .*first at line 21"):
            ingest_panel_csv(self.write(tmp_path, lines))

    @pytest.mark.parametrize("column", ["treat", "market_id", "us", "experienced"])
    def test_worker_constant_column_varying_rejected(self, tmp_path, column):
        arrays = generate_panel_arrays(small_config())
        row = 3 * 16 + 9  # worker 3, month 9: mid-panel
        values = arrays.column(column)
        values[row] = "control" if column == "market_id" else 1 - values[row]
        values[row + 2] = values[row]  # a later bad row too: the first one is named
        message = rf"line {row + 2}: {column} must be the same on every row of worker_id 3"
        with pytest.raises(ValidationError, match=message):
            ingest_panel_csv(self.write(tmp_path, csv_text(arrays).split("\n")))

    @pytest.mark.parametrize("column, month, value", [("post35", 6, 0), ("post40", 7, 1)])
    def test_post_flag_not_a_function_of_month_rejected(self, tmp_path, column, month, value):
        arrays = generate_panel_arrays(small_config())
        row = 5 * 16 + month
        arrays.column(column)[row] = value
        message = rf"line {row + 2}: {column} must be the same on every row of month_index {month}"
        with pytest.raises(ValidationError, match=message):
            ingest_panel_csv(self.write(tmp_path, csv_text(arrays).split("\n")))

    def test_validate_names_duplicate_cell_row(self):
        arrays = generate_panel_arrays(small_config())
        panel = arrays.subset(np.r_[np.arange(arrays.n_rows), 19])  # row 19 again, last
        message = rf"row {arrays.n_rows}: duplicate worker_id,month_index cell .*first at row 19"
        with pytest.raises(ValidationError, match=message):
            panel.validate()

    def test_validate_names_row_where_treat_varies_within_worker(self):
        arrays = generate_panel_arrays(small_config())
        row = 3 * 16 + 9  # worker 3, month 9
        arrays.treat[row] = 1 - arrays.treat[row]
        with pytest.raises(ValidationError, match=rf"row {row}: treat must be the same on every row of worker_id 3"):
            arrays.validate()

    @pytest.mark.parametrize("market_id", ["olm,01", "", "olm/01", 'olm"01'])
    def test_market_id_the_writer_cannot_write_back_rejected(self, tmp_path, market_id):
        # the csv module reads such an id from a quoted cell, but the writer
        # writes ids unquoted and into file names
        rows = [line.split(",") for line in csv_text(generate_panel_arrays(small_config())).split("\n")]
        first_market = rows[1][1]
        for row in rows[1:]:
            row[1] = market_id if row[1] == first_market else row[1]
        path = tmp_path / "panel.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)
        message = rf"^line 2: market_id must be one or more of .*, got {re.escape(repr(market_id))}$"
        with pytest.raises(ValidationError, match=message):
            ingest_panel_csv(path)

    def test_validate_names_first_row_of_bad_market_id(self):
        arrays = generate_panel_arrays(small_config())
        arrays.market_id[arrays.market_id == arrays.market_id[-1]] = "olm 01"
        first = int(np.flatnonzero(arrays.market_id == "olm 01")[0])
        with pytest.raises(ValidationError, match=rf"^row {first}: market_id must be one or more of .*, got 'olm 01'$"):
            arrays.validate()


class TestRunPipeline:
    def test_manifest_hash_deterministic(self, tmp_path):
        config = small_config()
        m1 = run_pipeline(config, tmp_path / "a")
        m2 = run_pipeline(config, tmp_path / "b")
        assert m1.manifest_hash == m2.manifest_hash
        assert m1.outputs == m2.outputs
        # and the files themselves are byte-identical
        for name in m1.outputs:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_demo_seed_0_writes_the_golden_bytes(self, tmp_path):
        # the hashes CI's golden step compares with; perfbench/record_golden.py alone writes them
        golden = json.loads((Path(__file__).parents[1] / "perfbench" / "golden.json").read_text())["demo"]["0"]
        manifest = run_pipeline(_resolve_config(BUILTIN_DEMO), tmp_path, seed=0)
        written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in tmp_path.iterdir() if path.name != "manifest.json"}
        assert written == golden["outputs"]
        assert manifest.manifest_hash == golden["manifest_hash"]

    def test_seed_override_changes_hash(self, tmp_path):
        config = small_config()
        m1 = run_pipeline(config, tmp_path / "a", seed=1)
        m2 = run_pipeline(config, tmp_path / "b", seed=2)
        assert m1.manifest_hash != m2.manifest_hash
        assert m1.seed == 1 and m2.seed == 2

    def test_simulate_stage_writes_only_simulation_files(self, tmp_path):
        out = tmp_path / "sim"
        manifest = run_pipeline(small_config(), out, stages=["simulate"])
        names = set(manifest.outputs)
        assert "panel.csv" in names and "demand.csv" in names
        assert any(n.startswith("statics_") for n in names)
        assert not any(n.startswith(("fit_", "match_", "balance_", "tost_", "quadrant")) for n in names)
        assert (out / "manifest.json").exists()

    def test_estimate_dual_stage_only(self, tmp_path):
        manifest = run_pipeline(small_config(), tmp_path / "dual", stages=["estimate_dual"])
        names = set(manifest.outputs)
        assert any(n.startswith("fit_dual_") for n in names)
        assert not any(n.startswith(("fit_did_", "fit_event_", "panel")) for n in names)

    def test_batched_fits_equal_single_fits(self, tmp_path):
        single = {"did": did_fit, "dual": dual_shock_fit, "event": event_study_fit}
        # the fitted designs are those the running tokens read: ``estimate`` reads every kind
        manifest = RunManifest(config_hash="", seed=5, version="", stages=["estimate"], options={})
        config = small_config()
        run = _Run(config, tmp_path, manifest, {"caliper": 0.02})
        panel = generate_panel_arrays(config)
        for market_id, (result, _, fits) in run.pairs.items():
            # the run keeps no rows: rebuild the pair from the whole panel, and its sample from the match
            pair = panel.subset((panel.market_id == market_id) | (panel.market_id == config.control_market_id))
            ids = derive_worker_covariates(pair)[0]
            matched = ids[np.concatenate([result.pairs.treated_id, result.pairs.control_id])]
            sample = pair.subset(np.isin(pair.worker_id, matched))
            for outcome, transform in OUTCOME_TRANSFORMS.items():
                for kind, fit_fn in single.items():
                    assert_same_fit(fits[(kind, outcome)], fit_fn(sample, RegressionSpec(outcome, transform)))

    def test_run_reaches_no_panel_rows_after_any_stage(self, tmp_path):
        # each stage streams the panel's blocks: no block, pair or matched sample outlives its stage
        manifest = RunManifest(config_hash="", seed=5, version="", stages=list(STAGES), options={})
        options = {"alpha": 0.05, "caliper": 0.02, "bounds": None, "weeks": DEFAULT_WEEKS}
        run = _Run(demo_config(workers=30, seed=5), tmp_path, manifest, options)
        for stem in dict.fromkeys(token.partition("_")[0] for token in STAGES):
            getattr(run, stem)()
            found, seen, todo = [], set(), list(vars(run).values())
            while todo:
                obj = todo.pop()
                if id(obj) in seen:
                    continue
                seen.add(id(obj))
                if isinstance(obj, PanelArrays):
                    found.append(obj)
                if isinstance(obj, dict):
                    todo.extend([*obj.keys(), *obj.values()])
                elif isinstance(obj, (list, tuple, set)):
                    todo.extend(obj)
                elif hasattr(obj, "__dict__"):
                    todo.extend(vars(obj).values())
            assert found == [], stem
        assert len(run.pairs) == len(run.config.treated_ids())

    @pytest.mark.parametrize("stems", [["simulate"], ["simulate", "match", "estimate", "tost", "report"]],
                             ids=["simulate", "full"])
    def test_traced_peak_is_flat_in_the_number_of_markets(self, tmp_path, stems):
        # Besides its products (the demand series, each pair's match, balance and fits, and the
        # text tables), a run holds one market pair's rows at a time, not the panel: from 3 to 10
        # markets, its traced peak less those products grows by less than one market's block. The
        # caliper is wide, so each matched sample is about its pair's rows and every pair's fits
        # take about the same working set.
        run_pipeline(demo_config(workers=30, seed=5), tmp_path / "warm")  # the lazy imports are not the run's
        options = {"alpha": 0.05, "caliper": 1.0, "bounds": None, "weeks": DEFAULT_WEEKS}
        transient = []
        for n in (3, 10):
            demo = demo_config(workers=200, seed=1)
            config = dataclasses.replace(demo, markets=demo.markets[:n])
            manifest = RunManifest(config_hash="", seed=1, version="", stages=stems, options={})
            run = _Run(config, tmp_path / str(n), manifest, options)
            run.out.mkdir()
            tracemalloc.start()
            try:
                for stem in stems:
                    getattr(run, stem)()
                held, peak = tracemalloc.get_traced_memory()
                for product in ("demand", "pairs"):
                    run.__dict__.pop(product, None)
                run.tables.clear()
                transient.append(peak - (held - tracemalloc.get_traced_memory()[0]))
            finally:
                tracemalloc.stop()
        panel = generate_panel_arrays(config)
        block_bytes = sum(getattr(panel, name).nbytes for name in PANEL_COLUMNS) // len(config.markets)
        assert transient[1] - transient[0] < block_bytes

    @pytest.mark.parametrize("control_at", [0, 4, 9], ids=["control-first", "control-middle", "control-last"])
    def test_each_pair_is_the_masked_subset_of_the_whole_panel(self, tmp_path, monkeypatch, control_at):
        # the pair built from two markets' blocks equals the rows of the two markets in the whole panel;
        # so does each demand pair, from the demand series
        config = demo_config(workers=12, seed=2, control_at=control_at)
        pairs = {"panel": [], "demand": []}

        def recording(kind, fn):
            def record(rows):
                pairs[kind].append(rows)
                return fn(rows)
            return record

        monkeypatch.setattr(pipeline, "derive_worker_covariates", recording("panel", pipeline.derive_worker_covariates))
        monkeypatch.setattr(pipeline, "demand_did_fit", recording("demand", pipeline.demand_did_fit))
        run_pipeline(config, tmp_path, stages=["match", "estimate_demand"])
        whole = {"panel": (generate_panel_arrays(config), PANEL_COLUMNS),
                 "demand": (generate_demand_arrays(config, DEFAULT_WEEKS), DEMAND_COLUMNS)}
        for kind, (rows, columns) in whole.items():
            assert len(pairs[kind]) == len(config.treated_ids()), kind
            for market_id, pair in zip(config.treated_ids(), pairs[kind]):
                mask = (rows.market_id == market_id) | (rows.market_id == config.control_market_id)
                assert_same_columns(pair, rows.subset(mask), columns)

    @pytest.mark.parametrize(
        "stages, designs",
        [(["match"], None), (["estimate_did"], ("did",)), (["tost"], ("event",)), (["report"], ("dual",)),
         (None, ("did", "event", "dual"))],
    )
    def test_each_token_fits_its_designs_once_per_pair(self, tmp_path, monkeypatch, stages, designs):
        # one fit_designs call per treated market, in market order, over the kinds the tokens read
        calls, fit = [], pipeline.fit_designs

        def counting(sample, outcomes, kinds):
            calls.append((set(sample.market_id.tolist()) - {config.control_market_id}, kinds))
            return fit(sample, outcomes, kinds)

        monkeypatch.setattr(pipeline, "fit_designs", counting)
        config = demo_config(workers=30, seed=5)
        run_pipeline(config, tmp_path, stages=stages)
        assert calls == ([] if designs is None else [({m}, designs) for m in config.treated_ids()])

    @pytest.mark.parametrize("stages, blamed", [(None, "match"), (["estimate"], "estimate"), (["tost"], "tost")])
    def test_a_fit_failure_names_the_first_stage_that_reads_the_fits(self, tmp_path, monkeypatch, stages, blamed):
        # the fits are part of each pair's product, so a full run fits them in ``match``
        def failing(sample, outcomes, kinds):
            raise ValidationError("no fit today")

        monkeypatch.setattr(pipeline, "fit_designs", failing)
        with pytest.raises(PipelineError, match=f"^stage '{blamed}': market treated: no fit today$") as exc:
            run_pipeline(small_config(), tmp_path, stages=stages)
        assert type(exc.value.__cause__) is ValidationError

    @pytest.mark.parametrize(
        "stages", [["tost"], ["estimate_dual", "report"], *([token] for token in STAGES if token != "tost")]
    )
    def test_stage_subset_writes_full_run_bytes(self, tmp_path, stages):
        full = run_pipeline(small_config(), tmp_path / "full")
        part = run_pipeline(small_config(), tmp_path / "part", stages=stages)
        # tables.txt collects the tables of the stages that ran, so it differs
        names = set(part.outputs) - {"tables.txt"}
        assert names and names <= set(full.outputs)
        for name in names:
            assert (tmp_path / "part" / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name

    def test_manifest_lists_stages_that_ran_in_table_order(self, tmp_path):
        forward = run_pipeline(small_config(), tmp_path / "a", stages=["simulate", "report"])
        backward = run_pipeline(small_config(), tmp_path / "b", stages=["report", "simulate", "simulate"])
        assert forward.stages == backward.stages == ["simulate", "report"]
        assert list(backward.timings) == ["simulate", "report"]
        assert forward.outputs == backward.outputs
        assert forward.manifest_hash == backward.manifest_hash

    def test_estimate_tokens_requested_together_run_once(self, tmp_path, monkeypatch):
        written = Counter()
        emit = _Run._emit

        def counting_emit(run, name, text):
            written[name] += 1
            emit(run, name, text)

        monkeypatch.setattr(_Run, "_emit", counting_emit)
        manifest = run_pipeline(small_config(), tmp_path, stages=["estimate", "estimate_did", "report"])
        assert written["fit_did_treated_fjobnum.csv"] == 1
        assert set(written.values()) == {1}
        titles = [table.split("\n", 1)[0] for table in (tmp_path / "tables.txt").read_text().split("\n\n")]
        assert "did: treated_fjobnum (log1p)" in titles
        assert len(titles) == len(set(titles))
        assert manifest.stages == ["estimate", "estimate_did", "report"]
        assert list(manifest.timings) == ["estimate", "report"]

    def test_unknown_stage_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown stage"):
            run_pipeline(small_config(), tmp_path / "x", stages=["compile"])

    @pytest.mark.parametrize("token, read", OPTIONS_READ.items())
    def test_manifest_records_the_options_its_stages_read(self, tmp_path, token, read):
        manifest = run_pipeline(small_config(), tmp_path, stages=None if token is None else [token])
        assert set(manifest.options) == read
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert set(on_disk["options"]) == read

    def test_option_no_stage_reads_leaves_the_hash(self, tmp_path):
        default = run_pipeline(small_config(), tmp_path / "a", stages=["simulate"])
        unread = run_pipeline(small_config(), tmp_path / "b", stages=["simulate"], alpha=0.1, bounds=0.3)
        assert unread.options == default.options == {"weeks": 95}
        assert unread.manifest_hash == default.manifest_hash

    @pytest.mark.parametrize(
        "option, value, message",
        [("alpha", 2.0, "alpha must lie in"), ("alpha", 0.0, "alpha must lie in"),
         ("bounds", float("inf"), "`bounds` must be positive"), ("bounds", -1.0, "`bounds` must be positive"),
         ("caliper", 0.0, "caliper must be positive"), ("caliper", float("nan"), "caliper must be positive"),
         ("caliper", float("inf"), "caliper must be finite")],
    )
    def test_bad_option_rejected_before_out_is_created(self, tmp_path, option, value, message):
        with pytest.raises(ValidationError, match=message):
            run_pipeline(small_config(), tmp_path / "out", stages=["simulate"], **{option: value})
        assert not (tmp_path / "out").exists()

    def test_manifest_json_matches_object(self, tmp_path):
        out = tmp_path / "m"
        manifest = run_pipeline(small_config(), out, stages=["simulate"])
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk["manifest_hash"] == manifest.manifest_hash
        assert on_disk["seed"] == manifest.seed
        assert set(on_disk["outputs"]) == set(manifest.outputs)


class TestCli:
    @pytest.mark.parametrize("kind", ["did", "event", "dual", "demand"])
    def test_simulate_and_estimate(self, tmp_path, kind):
        config_path = tmp_path / "scenario.json"
        write_scenario(small_config(), config_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        assert (out / "panel.csv").exists()
        assert main(["estimate", kind, "--config", str(config_path), "--out", str(out)]) == 0
        assert any(p.name.startswith(f"fit_{kind}_") for p in out.iterdir())
        assert json.loads((out / "manifest.json").read_text())["stages"] == [f"estimate_{kind}"]

    def test_report_quadrant(self, tmp_path):
        config_path = tmp_path / "scenario.json"
        write_scenario(two_market_config(AiPath(0.2, 0.45, 0.6), workers=60, seed=9), config_path)
        out = tmp_path / "out"
        assert main(["report", "--config", str(config_path), "--out", str(out)]) == 0
        assert (out / "quadrant.csv").exists()

    @pytest.mark.parametrize("command, options", [(command, subcommand_flags(command)) for command in SUBCOMMANDS])
    def test_each_subcommand_takes_the_options_its_stage_reads(self, command, options):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        parser = sub.choices[command]
        taken = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        assert taken == {"--config", "--out", "--seed"} | options
        positionals = [a.dest for a in parser._actions if not a.option_strings]
        assert positionals == (["kind"] if command == "estimate" else [])

    def test_every_stage_token_names_a_run_method(self):
        # a token runs the no-argument ``_Run`` method its stem names; a token added
        # without one would fail only when a run requests it
        for token in STAGES:
            method = getattr(_Run, token.partition("_")[0], None)
            assert callable(method), token
            assert list(inspect.signature(method).parameters) == ["self"], token
        assert [t for t in STAGES if t.startswith("estimate_")] == [f"estimate_{k}" for k in STAGES["estimate"]]
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        (kind,) = [a for a in sub.choices["estimate"]._actions if a.dest == "kind"]
        assert list(kind.choices) == list(STAGES["estimate"])

    @pytest.mark.parametrize(
        "argv, unread",
        [(["simulate", "--alpha", "0.1"], "--alpha 0.1"), (["match", "--bounds", "0.3"], "--bounds 0.3"),
         (["report", "quadrant"], "quadrant")],
    )
    def test_argument_its_stage_does_not_read_exits_2(self, tmp_path, capsys, argv, unread):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {unread}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("blocked", ["out", "out/panel.csv", "out/manifest.json"])
    def test_unwritable_out_exits_2_naming_the_path(self, tmp_path, capsys, blocked):
        # a file where the output directory goes, or a directory where a file goes
        config_path = tmp_path / "scenario.json"
        write_scenario(small_config(), config_path)
        path = tmp_path / blocked
        if blocked == "out":
            path.write_text("")
        else:
            path.mkdir(parents=True)
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"cannot write {path}: " in err
        assert ("stage 'simulate'" in err) == (blocked == "out/panel.csv")

    @pytest.mark.parametrize("option, value", [("alpha", "2"), ("bounds", "inf"), ("caliper", "0")])
    def test_bad_option_exits_2_before_writing(self, tmp_path, capsys, option, value):
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), f"--{option}", value]) == 2
        assert option in capsys.readouterr().err
        assert not out.exists()

    def test_option_its_stage_does_not_read_leaves_the_hash(self, tmp_path):
        config_path = tmp_path / "scenario.json"
        write_scenario(small_config(), config_path)
        argv = ["estimate", "demand", "--config", str(config_path)]
        assert main([*argv, "--out", str(tmp_path / "a")]) == 0
        assert main([*argv, "--out", str(tmp_path / "b"), "--caliper", "0.5"]) == 0
        a, b = (json.loads((tmp_path / d / "manifest.json").read_text()) for d in "ab")
        assert a["options"] == b["options"] == {"weeks": 95}
        assert a["manifest_hash"] == b["manifest_hash"]

    def test_validation_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        # a treated group shifted far beyond the control separates the
        # propensity model, a numeric failure in the match stage
        import dataclasses

        config = small_config()
        markets = tuple(
            dataclasses.replace(m, worker_fe_mean=6.0) if m.market_id == "treated" else m
            for m in config.markets
        )
        config = dataclasses.replace(config, markets=markets, worker_fe_sigma=0.2)
        path = tmp_path / "separated.json"
        write_scenario(config, path)
        assert main(["match", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        # the error names the market pair that failed
        assert capsys.readouterr().err == (
            "error: stage 'match': market treated: propensity coefficients diverging (|coef| > 30.0): separation\n"
        )

    def test_a_pair_input_error_names_its_market_and_exits_2(self, tmp_path, capsys, monkeypatch):
        def failing(series):
            raise ValidationError("no demand fit today")

        monkeypatch.setattr(pipeline, "demand_did_fit", failing)
        path = tmp_path / "scenario.json"
        write_scenario(small_config(), path)
        assert main(["estimate", "demand", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: stage 'estimate_demand': market treated: no demand fit today\n"

    def test_match_and_tost_subcommands(self, tmp_path):
        config_path = tmp_path / "scenario.json"
        write_scenario(two_market_config(AiPath(0.2, 0.45, 0.6), workers=60, seed=4), config_path)
        out = tmp_path / "out"
        assert main(["match", "--config", str(config_path), "--out", str(out)]) == 0
        assert (out / "balance_treated.csv").exists()
        assert main(["tost", "--config", str(config_path), "--out", str(out), "--bounds", "0.3"]) == 0
        assert (out / "tost_treated_fjobnum.json").exists()

    @pytest.mark.parametrize(
        "command, option, value, rule",
        [("tost", "bounds", "nan", "must be positive"), ("tost", "bounds", "inf", "must be positive"),
         ("match", "caliper", "nan", "must be positive"), ("match", "caliper", "inf", "must be finite")],
    )
    def test_non_finite_option_exits_2_naming_it(self, tmp_path, capsys, command, option, value, rule):
        config_path = tmp_path / "scenario.json"
        write_scenario(two_market_config(AiPath(0.2, 0.45, 0.6), workers=60, seed=4), config_path)
        argv = [command, "--config", str(config_path), "--out", str(tmp_path / "out"), f"--{option}", value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert option in err and rule in err

    def test_package_import_loads_no_numerics_and_exports_only_the_version(self):
        code = (
            "import sys, olmsim; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))); "
            "print(sorted(n for n in vars(olmsim) if not n.startswith('_')))"
        )
        assert fresh_python("-c", code).stdout.split("\n")[:2] == ["[]", "[]"]

    def test_loading_and_validating_a_scenario_loads_no_scipy(self):
        # scipy is loaded by the first logit, balance table, fit or large-rate
        # Poisson draw; the CLI, a scenario and the market model need none of it
        code = (
            "import sys, olmsim.cli\n"
            "from olmsim import market, scenarios\n"
            "from olmsim.pipeline import parse_scenario\n"
            "config = parse_scenario(olmsim.cli._resolve_config(olmsim.cli.BUILTIN_DEMO))\n"
            "scenarios.substitution_config(workers=250)\n"
            "market.sweep_comparative_statics(config.markets[1].market, 21)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert fresh_python("-c", code).stdout.strip() == "[]"

    @pytest.mark.skipif(regression._lapack() is None, reason="scipy bundles no OpenBLAS")
    def test_run_loads_no_scipy_linalg(self, tmp_path):
        # the fits call LAPACK in scipy's bundled OpenBLAS themselves; the run loads scipy.special only
        config_path = tmp_path / "scenario.json"
        write_scenario(two_market_config(AiPath(0.2, 0.45, 0.6), workers=60, seed=4), config_path)
        code = (
            "import sys\n"
            "from olmsim.cli import main\n"
            f"code = main(['run', '--config', {str(config_path)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
            "print(code, 'scipy.special' in sys.modules, 'scipy.linalg' in sys.modules)"
        )
        assert fresh_python("-c", code).stdout.strip().split("\n")[-1] == "0 True False"

    def test_run_opens_no_file_in_the_locale_encoding(self, tmp_path):
        # the default-encoding warning, raised as an error, fails any open that leaves the encoding to the locale
        argv = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "olmsim.cli", "run",
                "--config", BUILTIN_DEMO, "--out", str(tmp_path / "out")]
        result = fresh_python(*argv, check=False)
        assert result.returncode == 0, result.stderr

    def test_builtin_demo_resolves(self, tmp_path):
        # simulate only, small enough to run quickly
        from olmsim.cli import _resolve_config

        path = _resolve_config("builtin:demo")
        assert path.exists()
        config = parse_scenario(path)
        assert len(config.markets) == 10

    def test_subcommands_are_the_stages(self, capsys):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == {"simulate", "match", "estimate", "tost", "report", "run"}
        with pytest.raises(SystemExit) as exc:
            main(["selftest"])
        assert exc.value.code == 2
        assert "invalid choice: 'selftest'" in capsys.readouterr().err
