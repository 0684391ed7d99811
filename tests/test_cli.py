import csv
import dataclasses
import datetime as dt
import hashlib
import importlib.util
import io
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import demandcast.evaluate
from demandcast.artifacts import read_residuals_csv, write_sales_csv
from demandcast.cli import main
from demandcast.config import MODEL_CONFIGS, RunConfig
from demandcast.data import SalesTable
from demandcast.inventory import ReplenishmentPolicy
from demandcast.synthetic import generate_sales_table

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "sales.csv"
    table = generate_sales_table(
        n_stores=1, n_items=2, start=dt.date(2015, 1, 1), end=dt.date(2015, 12, 31)
    )
    write_sales_csv(table, path, raw=True)
    return path


def small_config(tmp_path, small_csv, out_name="out", **extra):
    doc = {
        "data_path": str(small_csv),
        "train_end": "2015-11-30",
        "test_end": "2015-12-31",
        "models": ["gbdt", "arimax", "naive"],
        "model_overrides": {"gbdt": {"n_trees": 20, "max_depth": 3}},
        "output_dir": str(tmp_path / out_name),
    }
    doc.update(extra)
    path = tmp_path / f"config_{out_name}.json"
    path.write_text(json.dumps(doc))
    return path, Path(doc["output_dir"])


def read_metrics(out_dir):
    lines = (out_dir / "metrics.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_ingest_writes_cleaned_table_and_summary(tmp_path, small_csv):
    cfg, out = small_config(tmp_path, small_csv, "ingest")
    assert main(["ingest", "--config", str(cfg)]) == 0
    assert (out / "cleaned_sales.csv").exists()
    summary = json.loads((out / "ingest_summary.json").read_text())
    assert summary["rows_read"] == 2 * 365
    assert summary["total_imputed"] == 0  # gapless input
    assert summary["series_count"] == 2


def test_ingest_fills_gaps_and_reports_counts(tmp_path):
    csv_path = tmp_path / "gappy.csv"
    csv_path.write_text(
        "date,store,item,sales\n"
        "2015-01-01,1,1,10\n"
        "2015-01-04,1,1,16\n"
        "2015-01-05,1,1,20\n"
    )
    out = tmp_path / "out"
    assert main(["ingest", "--data", str(csv_path), "--out", str(out)]) == 0
    summary = json.loads((out / "ingest_summary.json").read_text())
    assert summary["total_imputed"] == 2
    cleaned = (out / "cleaned_sales.csv").read_text().strip().splitlines()
    assert len(cleaned) == 6  # header + 5 days
    assert cleaned[2].startswith("2015-01-02,1,1,12.0,1")


def test_ids_holding_a_bar_are_malformed(tmp_path, capsys):
    # Store "a|b" with item "c" and store "a" with item "b|c" would share the
    # series key "a|b|c": one residual std in report.json, one imputed count
    # in ingest_summary.json, and one sigma for both series in simulate.
    days = [dt.date(2015, 1, 1) + dt.timedelta(days=i) for i in range(365)]
    header = "date,store,item,sales"
    small = [f"{d},a|b,c,{20 + i % 7}" for i, d in enumerate(days)]
    large = [f"{d},a,b|c,{2000 + 70 * (i % 7)}" for i, d in enumerate(days)]
    path = tmp_path / "colliding.csv"
    path.write_text("\n".join([header, *small, *large]) + "\n")
    cfg, out = small_config(tmp_path, path, "bar", models=["arimax", "naive"])
    message = (
        "730 of 730 rows malformed (> 1% threshold): "
        "730 store or item id holding '|' (first at line 2)"
    )
    for command in ("ingest", "evaluate"):
        assert main([command, "--config", str(cfg)]) == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error == {"code": "E_INPUT", "message": message}
    assert not (out / "report.json").exists()
    # Beside a clean series, each such row is skipped with its own reason.
    clean = [f"{d},1,1,{20 + i % 7}" for i, d in enumerate(days)]
    path.write_text("\n".join([header, *clean, small[0], large[0]]) + "\n")
    assert main(["ingest", "--config", str(cfg)]) == 0
    summary = json.loads((out / "ingest_summary.json").read_text())
    reason = "store or item id holding '|'"
    assert summary["malformed_rows"] == [{"line": 367, "reason": reason}, {"line": 368, "reason": reason}]
    assert summary["series_count"] == 1


def test_missing_data_file_exits_3_with_error_document(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["ingest", "--data", str(tmp_path / "nope.csv"), "--out", str(out)])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["code"] == "E_INPUT"


def test_data_path_naming_a_directory_exits_3(tmp_path, capsys):
    for command in ("ingest", "evaluate"):
        assert main([command, "--data", str(tmp_path), "--out", str(tmp_path / "out")]) == 3
        error = last_error(capsys)
        assert error["code"] == "E_INPUT"
        assert "Is a directory" in error["message"]


def test_data_that_is_not_utf8_exits_3_naming_the_byte(tmp_path, capsys):
    data = tmp_path / "sales.csv"
    data.write_bytes(b"date,store,item,sales\n2015-01-01,1,1,5\n2015-01-02,1,1,\xff\n")
    assert main(["ingest", "--data", str(data), "--out", str(tmp_path / "out")]) == 3
    error = last_error(capsys)
    assert error["code"] == "E_INPUT"
    assert error["message"] == "input is not UTF-8: invalid start byte at byte offset 54 (line 3)"


def test_ingest_accepts_a_leading_byte_order_mark(tmp_path, small_csv):
    data = tmp_path / "bom.csv"
    data.write_bytes(b"\xef\xbb\xbf" + small_csv.read_bytes())
    for name, path in (("plain", small_csv), ("bom", data)):
        assert main(["ingest", "--data", str(path), "--out", str(tmp_path / name)]) == 0
    for output in ("cleaned_sales.csv", "ingest_summary.json"):
        assert (tmp_path / "bom" / output).read_bytes() == (tmp_path / "plain" / output).read_bytes()


BAD_CONFIGS = [
    ("evaluate", {"granularity": "weekly"}),
    ("evaluate", {"train_end": 20170731}),
    ("evaluate", {"workers": "2"}),
    ("evaluate", {"workers": 0}),
    ("evaluate", {"model_overrides": {"gbdt": {"bogus": 1}}}),
    ("evaluate", {"model_overrides": {"gbdt": {"n_trees": -1}}}),
    ("evaluate", {"model_overrides": {"gbdt": 5}}),
    ("evaluate", {"model_overrides": {"xgboost": {"n_trees": 5}}}),
    ("evaluate", {"scenarios": ["S1", "S3"]}),
    ("evaluate", {"scenarios": ["S1", "S1"]}),
    ("evaluate", {"scenarios": []}),
    ("evaluate", {"models": ["gbdt", "nope"]}),
    ("evaluate", {"models": ["naive", "naive"]}),
    ("evaluate", {"models": []}),
    ("simulate", {"simulation": {"review_period": 0}}),
    ("simulate", {"simulation": {"lead_time": "1"}}),
    ("simulate", {"simulation": {"reorder_point": 3}}),
    # Each top-level value must have its field's JSON type.
    ("simulate", {"simulation": [1]}),
    ("evaluate", {"model_overrides": ["gbdt"]}),
    ("evaluate", {"schema": ["date"]}),
    ("evaluate", {"extra_columns": 5}),
    ("evaluate", {"holiday_calendar_path": 5}),
    ("evaluate", {"save_models": "yes"}),
    # Settings the program no longer has: unknown keys, as "seed" is.
    ("evaluate", {"test_start": "2017-08-01"}),
    ("evaluate", {"arimax_forecast_mode": "recursive"}),
    ("evaluate", {"fill_method": "linear-interpolate"}),
    ("evaluate", {"model_overrides": {"trend_seasonal": {"seasonality_mode": "bogus"}}}),
    ("evaluate", {"model_overrides": {"trend_seasonal": {"interval_level": 0.9}}}),
    ("evaluate", {"model_overrides": {"trend_seasonal": {"changepoint_range": 0.9}}}),
    # Out-of-range numbers.
    ("evaluate", {"model_overrides": {"svr": {"smo_tolerance": -1.0}}}),
    ("evaluate", {"model_overrides": {"gbdt": {"gamma_split_threshold": -1.0}}}),
    ("evaluate", {"model_overrides": {"trend_seasonal": {"weekly_fourier_order": -3}}}),
    ("evaluate", {"model_overrides": {"trend_seasonal": {"yearly_fourier_order": -1}}}),
    ("simulate", {"simulation": {"holding_cost": -1.0}}),
    ("simulate", {"simulation": {"emergency_cost": -5.0}}),
    ("simulate", {"simulation": {"overstock_multiplier": -2.0}}),
    # NaN and the infinities, which json.dumps writes but JSON has not.
    ("evaluate", {"model_overrides": {"svr": {"C": float("nan")}}}),
    ("evaluate", {"model_overrides": {"svr": {"smo_tolerance": float("nan")}}}),
    ("simulate", {"simulation": {"holding_cost": float("inf")}}),
    ("simulate", {"simulation": {"emergency_cost": float("-inf")}}),
]

# Values one level down, each with the field and key its message must name.
NESTED_BAD_CONFIGS = [
    ("simulate", {"simulation": {"lead_time": 1.5}}, "simulation.lead_time"),
    ("simulate", {"simulation": {"review_period": 1.5}}, "simulation.review_period"),
    ("simulate", {"simulation": {"scenario": 5}}, "simulation.scenario"),
    ("simulate", {"simulation": {"scenario": "S3"}}, "simulation.scenario"),
    ("evaluate", {"model_overrides": {"svr": {"max_train_rows": 2.5}}}, "model_overrides.svr.max_train_rows"),
    ("evaluate", {"model_overrides": {"svr": {"rbf_gamma": "auto"}}}, "model_overrides.svr.rbf_gamma"),
    ("evaluate", {"model_overrides": {"gbdt": {"n_trees": "5"}}}, "model_overrides.gbdt.n_trees"),
    ("evaluate", {"model_overrides": {"gbdt": {"max_depth": True}}}, "model_overrides.gbdt.max_depth"),
    ("evaluate", {"model_overrides": {"trend_seasonal": {"seasonality_mode": 1}}}, "seasonality_mode"),
    ("evaluate", {"scenarios": [["S1"]]}, "scenarios"),
    ("evaluate", {"models": ["naive", 5]}, "models"),
    ("evaluate", {"schema": {"date": 5}}, "schema"),
    ("evaluate", {"extra_columns": [5]}, "extra_columns"),
    ("evaluate", {"extra_columns": ["promo"]}, "extra_columns"),
    # Two logical columns read from one header would make store == item.
    ("ingest", {"schema": {"store": "item"}}, "store and item"),
]


def test_bad_config_exits_2(tmp_path, capsys):
    # Each is caught when the config loads, before any output is written.
    cfg = tmp_path / "bad.json"
    cases = [(command, doc, None) for command, doc in BAD_CONFIGS] + NESTED_BAD_CONFIGS
    for command, doc, name in cases:
        cfg.write_text(json.dumps({**doc, "output_dir": str(tmp_path / "out")}))
        assert main([command, "--config", str(cfg)]) == 2, doc
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["code"] == "E_CONFIG", doc
        assert name is None or name in err["error"]["message"], (doc, err)
        assert not (tmp_path / "out").exists(), doc


def test_nested_numbers_follow_their_defaults():
    # A float setting takes a JSON integer, and rbf_gamma a number or null.
    for overrides in ({"safety_factor": 1}, {"initial_stock": 2.5, "scenario": "S1"}):
        RunConfig(simulation=overrides).validate()
    for gamma in (None, 1, 0.5):
        RunConfig(model_overrides={"svr": {"rbf_gamma": gamma, "C": 2}}).validate()


def test_bad_date_error_names_its_field(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    for value in (20170731, "2017-07-32"):
        cfg.write_text(json.dumps({"train_end": value, "output_dir": str(tmp_path / "out")}))
        assert main(["evaluate", "--config", str(cfg)]) == 2
        assert "train_end" in last_error(capsys)["message"], value


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"granularty": "per-series"}))
    assert main(["evaluate", "--config", str(cfg)]) == 2
    # seed was a reserved key that nothing read; it is no longer accepted
    cfg.write_text(json.dumps({"seed": 0}))
    assert main(["evaluate", "--config", str(cfg)]) == 2


def test_unreadable_config_exits_2(tmp_path, capsys):
    # A directory, and a file that is not UTF-8, each fail to read.
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b'{"models": ["na\xefve"]}\xff')
    for path in (tmp_path, undecodable):
        assert main(["evaluate", "--config", str(path)]) == 2
        error = last_error(capsys)
        assert error["code"] == "E_CONFIG"
        assert error["message"].startswith(f"cannot read config file {path}: "), error


def test_every_config_key_is_documented():
    # A key the README does not name is a setting no user can find: each
    # top-level key, each model_overrides setting and each simulation one.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    names = [
        f.name
        for cls in (RunConfig, *MODEL_CONFIGS.values(), ReplenishmentPolicy)
        for f in dataclasses.fields(cls)
    ]
    missing = [name for name in [*names, "scenario"] if f"`{name}`" not in readme]
    assert not missing, missing


def last_error(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]


def test_test_window_without_data_exits_3(tmp_path, capsys):
    # The bundled sample ends on 2017-12-31, so no series has a test row.
    cfg = tmp_path / "late.json"
    doc = {
        "train_end": "2017-12-31",
        "test_end": "2018-03-31",
        "models": ["naive"],
        "output_dir": str(tmp_path / "out"),
    }
    cfg.write_text(json.dumps(doc))
    assert main(["evaluate", "--config", str(cfg)]) == 3
    error = last_error(capsys)
    assert error["code"] == "E_INPUT"
    assert "no series has rows" in error["message"]


BAD_CALENDARS = [
    ("header", b"date,label\n2015-01-26,Republic Day\n", 1),
    ("date", b"date,name\n2015-01-26,Republic Day\n2015-13-01,Bad\n", 3),
    ("duplicate", b"date,name\n2015-01-26,Republic Day\n2015-01-26,Again\n", 3),
    ("one_field", b"date,name\n2015-01-26\n", 2),
    ("empty_name", b"date,name\n2015-01-26,Republic Day\n2015-01-27, \n", 3),
    ("empty", b"", 1),
    ("not_utf8", b"date,name\n2015-01-26,R\xe9publique\n", 2),
    ("not_utf8_cr", b"date,name\r2015-01-26,R\xe9publique\r", 2),
    ("date_cr", b"date,name\r2015-01-26,Republic Day\r2015-13-01,Bad\r", 3),
    # A row on two lines is named by the first: before, the last.
    ("date_on_two_lines", b'date,name\n2015-01-26,"Republic\nDay"\n2015-13-01,"Bad\nDay"\n', 4),
]


@pytest.mark.parametrize("name, content, line", BAD_CALENDARS, ids=[case[0] for case in BAD_CALENDARS])
def test_malformed_holiday_calendar_exits_3_naming_the_line(tmp_path, small_csv, capsys, name, content, line):
    calendar = tmp_path / f"{name}.csv"
    calendar.write_bytes(content)
    cfg, _ = small_config(tmp_path, small_csv, models=["naive"], holiday_calendar_path=str(calendar))
    assert main(["evaluate", "--config", str(cfg)]) == 3
    error = last_error(capsys)
    assert error["code"] == "E_INPUT"
    assert error["message"].startswith(f"holiday calendar {calendar}")
    assert f"line {line}" in error["message"]


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory, small_csv):
    tmp_path = tmp_path_factory.mktemp("run")
    cfg, out = small_config(tmp_path, small_csv, "eval")
    assert main(["evaluate", "--config", str(cfg)]) == 0
    return cfg, out


def test_evaluate_metrics_rows(evaluated):
    _, out = evaluated
    rows = read_metrics(out)
    # 3 models x 2 scenarios
    assert len(rows) == 6
    assert {r["scenario"] for r in rows} == {"S1", "S2"}
    assert all(r["error"] == "" for r in rows)
    assert all(float(r["mae"]) > 0 for r in rows)
    naive_maes = {r["scenario"]: r["mae"] for r in rows if r["model"] == "naive"}
    assert naive_maes["S1"] == naive_maes["S2"]


def test_evaluate_writes_expected_artifacts(evaluated):
    _, out = evaluated
    for name in (
        "metrics.csv",
        "runtimes.csv",
        "importance.csv",
        "report.json",
        "manifest.json",
        "residuals_gbdt_S2.csv",
        "histogram_gbdt_S2.csv",
        "actual_vs_predicted_naive_S1.csv",
    ):
        assert (out / name).exists(), name
    assert not list(out.glob("models_*.json"))  # save_models is off by default
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["data_fingerprint"]
    assert manifest["config_fingerprint"]


def test_actual_vs_predicted_sums_series(evaluated):
    _, out = evaluated
    lines = (out / "actual_vs_predicted_naive_S1.csv").read_text().strip().splitlines()
    assert lines[0] == "date,actual,predicted"
    assert len(lines) == 32  # 31 December days + header
    residuals = (out / "residuals_naive_S1.csv").read_text().strip().splitlines()
    assert len(residuals) == 2 * 31 + 1  # two series


def test_evaluate_scenario_filter(tmp_path, small_csv):
    cfg, out = small_config(
        tmp_path, small_csv, "s2only", scenarios=["S2"], models=["naive"]
    )
    assert main(["evaluate", "--config", str(cfg)]) == 0
    rows = read_metrics(out)
    assert {r["scenario"] for r in rows} == {"S2"}


def test_evaluate_rerun_is_byte_identical(tmp_path, small_csv):
    cfg, out = small_config(tmp_path, small_csv, "rerun", models=["naive", "arimax"])
    assert main(["evaluate", "--config", str(cfg)]) == 0
    first = (out / "metrics.csv").read_bytes()
    assert main(["evaluate", "--config", str(cfg)]) == 0
    assert (out / "metrics.csv").read_bytes() == first


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc")
def test_cli_import_pins_openblas_to_one_thread():
    # No code path calls BLAS, so importing the CLI leaves OpenBLAS one
    # thread; a count the environment sets still wins.
    code = "import os, demandcast.cli; print(len(os.listdir('/proc/self/task')))"
    src = str(Path(demandcast.evaluate.__file__).resolve().parents[1])
    counts = []
    for threads in (None, "2"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        counts.append(int(run.stdout))
    assert counts == [1, min(2, len(os.sched_getaffinity(0)))]


def test_evaluate_does_not_depend_on_blas_threads(tmp_path):
    # Every model on four series, evaluated in two processes that differ only
    # in the BLAS thread count; no deterministic artifact may differ.
    data = tmp_path / "sales.csv"
    table = generate_sales_table(
        n_stores=2, n_items=2, start=dt.date(2015, 1, 1), end=dt.date(2015, 12, 31), seed=5
    )
    write_sales_csv(table, data, raw=True)
    src = str(Path(demandcast.evaluate.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        cfg, out = small_config(
            tmp_path, data, f"threads{threads}", models=list(demandcast.evaluate.MODEL_NAMES),
            save_models=True,
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-m", "demandcast.cli", "evaluate", "--config", str(cfg)],
            env=env, capture_output=True, check=True,
        )
        outputs.append(
            {
                path.name: path.read_bytes()
                for path in sorted(out.iterdir())
                if path.name not in ("runtimes.csv", "manifest.json")
            }
        )
    assert {"metrics.csv", "residuals_svr_S2.csv", "models_trend_seasonal_S2.json"} <= set(outputs[0])
    assert all(row["error"] == "" for row in read_metrics(out))
    assert outputs[0] == outputs[1]


# sha256 of each models_*.json that evaluate writes on small_csv with every
# model and save_models set, at both worker counts.
MODEL_DOCUMENT_SHA256 = {
    "models_arimax_S1.json": "dfa061ad2cfd375442d710da7d79edc03cfb3131657d9e6693ff8cad39b00e81",
    "models_arimax_S2.json": "74b5e34d1f2ca86eea29235f78d87442996c19c31ca147fee3bdd19145ce71ae",
    "models_gbdt_S1.json": "d296aa7ea3ab3fd6e9a634144b57d9633c75ae8f013e644c0a3fed6d9e9b42e8",
    "models_gbdt_S2.json": "6354b6234dbba8f1693805c7af5a7a32bff8a278b4d93c9e459cf56a59fb3ef6",
    "models_naive_S1.json": "c53c2f52b647aa99e42192e7cdff2bdc00e81d2e1f61016f5a75801e206a9522",
    "models_naive_S2.json": "c53c2f52b647aa99e42192e7cdff2bdc00e81d2e1f61016f5a75801e206a9522",
    "models_svr_S1.json": "07b69fc07185c9b7f5df56d64fdf1159ffc4fa835e80b8676edb3f0b15ab683f",
    "models_svr_S2.json": "2957690d89b103c4a4b4821f056a3939558c9f2373677e391d986325568bdef4",
    "models_trend_seasonal_S1.json": "8270866a3940f0c944d2f6ef71b1fd3a427b7add9866debf689cf6713e238e1e",
    "models_trend_seasonal_S2.json": "7d5cd02eeb7362f359afd856f3963fd6f91042df693ac4a2b3f515c95f43b853",
}


@pytest.mark.parametrize("workers", [1, 2])
def test_saved_model_documents_pinned(tmp_path, small_csv, workers):
    cfg, out = small_config(
        tmp_path, small_csv, models=list(demandcast.evaluate.MODEL_NAMES), save_models=True,
        workers=workers,
    )
    assert main(["evaluate", "--config", str(cfg)]) == 0
    assert {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.glob("models_*.json"))
    } == MODEL_DOCUMENT_SHA256


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("status", ["proc_status", "no_proc_status", "non_ascii_name"])
def test_manifest_records_each_process_peak_rss(tmp_path, small_csv, monkeypatch, workers, status):
    # The parent's VmHWM and the largest of its pool workers'; without a
    # pool no worker reports, and without /proc/self/status nothing is known.
    # The Name: line holds the process name's raw bytes, which need not be
    # ASCII or even UTF-8; the fork workers inherit the fake file.
    if status == "proc_status" and not Path("/proc/self/status").is_file():
        pytest.skip("reads /proc/self/status")
    if status == "no_proc_status":
        def fake_status(*args, **kwargs):
            raise FileNotFoundError("/proc/self/status")

        monkeypatch.setattr(demandcast.evaluate, "open", fake_status, raising=False)
    if status == "non_ascii_name":
        def fake_status(path, mode="r", encoding=None, **kwargs):
            data = io.BytesIO(b"Name:\td\xc3\xa9mand\nUmask:\t0022\nVmHWM:\t   61440 kB\n")
            return data if "b" in mode else io.TextIOWrapper(data, encoding=encoding)

        monkeypatch.setattr(demandcast.evaluate, "open", fake_status, raising=False)
    cfg, out = small_config(tmp_path, small_csv, models=["naive", "arimax"], workers=workers)
    assert main(["evaluate", "--config", str(cfg)]) == 0
    peaks = json.loads((out / "manifest.json").read_text())["peak_rss_mb"]
    if status == "no_proc_status":
        assert peaks == {"parent": None, "largest_worker": None}
        return
    if status == "non_ascii_name":
        assert peaks == {"parent": 60.0, "largest_worker": None if workers == 1 else 60.0}
        return
    assert 0 < peaks["parent"] <= demandcast.evaluate.peak_rss_mb()
    if workers == 1:
        assert peaks["largest_worker"] is None
    else:
        assert peaks["largest_worker"] > 0


def test_evaluate_aggregate_granularity(tmp_path, small_csv):
    cfg, out = small_config(
        tmp_path, small_csv, "agg", granularity="aggregate", models=["naive"], scenarios=["S1"]
    )
    assert main(["evaluate", "--config", str(cfg)]) == 0
    residuals = (out / "residuals_naive_S1.csv").read_text().strip().splitlines()
    assert len(residuals) == 31 + 1  # one pooled series
    assert residuals[1].split(",")[0] == "ALL"


def test_short_series_contributes_no_rows(tmp_path, caplog):
    # A 20-day series beside a full year: the lags leave it no rows, and
    # every model is scored on the full series' December alone.
    path = tmp_path / "sales.csv"
    table = generate_sales_table(
        n_stores=1, n_items=1, start=dt.date(2015, 1, 1), end=dt.date(2015, 12, 31)
    )
    write_sales_csv(table, path, raw=True)
    with open(path, "a", encoding="utf-8") as fh:
        for d in range(20):
            fh.write(f"{dt.date(2015, 12, 12) + dt.timedelta(days=d)},1,2,5\n")
    cfg, out = small_config(tmp_path, path, "short", models=["arimax", "naive"])
    assert main(["evaluate", "--config", str(cfg)]) == 0
    rows = read_metrics(out)
    assert len(rows) == 4 and all(r["error"] == "" and r["n"] == "31" for r in rows)
    assert "1|2" in caplog.text


def test_simulate_requires_evaluation(tmp_path, small_csv, capsys):
    cfg, out = small_config(tmp_path, small_csv, "nosim")
    code = main(["simulate", "--config", str(cfg)])
    assert code == 3


def test_simulate_writes_ledgers_and_impact(evaluated):
    cfg, out = evaluated
    assert main(["simulate", "--config", str(cfg)]) == 0
    impact = json.loads((out / "impact.json").read_text())
    assert set(impact["models"]) == {"gbdt", "arimax"}
    assert (out / "impact_table.csv").exists()
    assert (out / "ledger_naive_S2.csv").exists()
    assert (out / "ledger_gbdt_S2.csv").exists()
    rows = (out / "impact_table.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2 * 4  # header + 2 models x 4 metrics


# sha256 of what simulate writes and prints on small_csv under a policy other
# than the default: a longer lead time and review period, a larger safety
# factor, and the S1 forecasts.
NON_DEFAULT_POLICY_SHA256 = {
    "impact.json": "f6e6b59b76fea6a32ae510018abaa28b50491d34e9bede1e0083d8438a8478b5",
    "impact_table.csv": "e9a78dec825fc40f3b5945bbebf53af9a49fe5a4f176d52df795d51a44abab22",
    "ledger_arimax_S1.csv": "2b12da437b4923734f00bffce062d6b1822f2332fa01712aa568e7572bf6bc05",
    "ledger_gbdt_S1.csv": "581343fdd0e30cdb95f273a9de7a4a5e7519486b3665e8fb604c4685b99d3cff",
    "ledger_naive_S1.csv": "769252229a65ec09e90822e9b99f41d7a85fe9034504944f9018e80745edfe67",
    "stdout": "6f27d11fd6273f55ea812ee6cf2dc3ab2d0d90474c3a28cf191756c9fbd87ea7",
}


def test_simulate_under_non_default_policy_pinned(tmp_path, small_csv, capsys):
    policy = {"lead_time": 3, "review_period": 2, "safety_factor": 1.0, "scenario": "S1"}
    cfg, out = small_config(tmp_path, small_csv, "policy", simulation=policy)
    assert main(["evaluate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg)]) == 0
    stdout = capsys.readouterr().out
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted([out / "impact.json", out / "impact_table.csv", *out.glob("ledger_*.csv")])
    }
    digests["stdout"] = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    assert digests == NON_DEFAULT_POLICY_SHA256


def test_simulate_missing_model_forecasts(tmp_path, small_csv, capsys):
    cfg, out = small_config(
        tmp_path, small_csv, "missing", models=["naive"], scenarios=["S2"]
    )
    assert main(["evaluate", "--config", str(cfg)]) == 0
    cfg2, _ = small_config(
        tmp_path, small_csv, "missing", models=["svr", "naive"], scenarios=["S2"]
    )
    code = main(["simulate", "--config", str(cfg2)])
    assert code == 3


def test_simulate_rejects_model_missing_from_report_despite_leftover_file(tmp_path, small_csv, capsys):
    cfg, out = small_config(tmp_path, small_csv, "leftover", scenarios=["S2"])
    assert main(["evaluate", "--config", str(cfg)]) == 0
    cfg2, _ = small_config(
        tmp_path, small_csv, "partial", models=["naive", "arimax"], scenarios=["S2"], output_dir=str(out)
    )
    assert main(["evaluate", "--config", str(cfg2)]) == 0
    assert (out / "residuals_gbdt_S2.csv").exists()
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg)]) == 3
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["code"] == "E_INPUT"
    assert "'gbdt'" in error["message"]
    assert not (out / "impact.json").exists()


def fail_in_evaluate(monkeypatch, name):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(demandcast.evaluate, name, boom)


def test_simulate_skips_models_that_failed_in_evaluate(tmp_path, small_csv, monkeypatch, capsys):
    fail_in_evaluate(monkeypatch, "fit_gbdt")
    cfg, out = small_config(tmp_path, small_csv, "failed", scenarios=["S2"])
    assert main(["evaluate", "--config", str(cfg)]) == 0
    assert main(["simulate", "--config", str(cfg)]) == 0
    impact = json.loads((out / "impact.json").read_text())
    assert set(impact["models"]) == {"arimax"}
    assert impact["skipped"] == {"gbdt": "RuntimeError: synthetic failure"}
    assert (out / "ledger_arimax_S2.csv").exists()
    assert not (out / "ledger_gbdt_S2.csv").exists()
    assert "gbdt" in capsys.readouterr().err


def test_failed_model_report_is_strict_json(tmp_path, small_csv, monkeypatch):
    # More changepoints than training days fails trend_seasonal on every series.
    changepoints = small_config(
        tmp_path,
        small_csv,
        "strict",
        models=["trend_seasonal", "naive"],
        model_overrides={"trend_seasonal": {"n_changepoints": 5000}},
    )
    assert main(["evaluate", "--config", str(changepoints[0])]) == 0
    # So does an infinite forecast, which would score inf.
    forecast = demandcast.evaluate.forecast_trend_seasonal

    def infinite_first_day(*args, **kwargs):
        predictions, lower, upper = forecast(*args, **kwargs)
        return np.concatenate([[np.inf], predictions[1:]]), lower, upper

    monkeypatch.setattr(demandcast.evaluate, "forecast_trend_seasonal", infinite_first_day)
    infinite = small_config(tmp_path, small_csv, "infinite", models=["trend_seasonal", "naive"])
    assert main(["evaluate", "--config", str(infinite[0])]) == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    for _, out in (changepoints, infinite):
        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        for scenario in report["scenarios"].values():
            failed = scenario["models"]["trend_seasonal"]
            assert failed["error"] is not None
            assert failed["train_residual_std"] is None
            assert scenario["models"]["naive"]["train_residual_std"] > 0


# sha256 of what evaluate writes on small_csv when arimax fails on item 2,
# the series selling about 26 a day, and only the model and scenario columns
# of runtimes.csv.  The same at both worker counts.
FAILED_MODEL_SHA256 = {
    "metrics.csv": "83f8228ee24f48b6ae575b8d1267101117b6a721504396908edd2347767f8f9a",
    "report.json": "ea3aecee62f5f02719e1a3b08cc595e5fbc11fc89bd6c586f404440667d9babb",
    "importance.csv": "fdf53527a477fa3aed0b1c347f5d177d5f7630a9bacdaa576592dc36d835c9ee",
    "runtimes.csv": "021b80b518d7dfded8088544a2f604c5cf143adf36599f1bc9ca4c09f002656f",
}


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_model_artifacts_pinned(tmp_path, small_csv, monkeypatch, workers):
    fit_arimax = demandcast.evaluate.fit_arimax

    def fails_on_item_2(y, *args, **kwargs):
        if y.mean() > 22.0:
            raise RuntimeError("synthetic failure on item 2")
        return fit_arimax(y, *args, **kwargs)

    monkeypatch.setattr(demandcast.evaluate, "fit_arimax", fails_on_item_2)
    cfg, out = small_config(tmp_path, small_csv, workers=workers)
    assert main(["evaluate", "--config", str(cfg)]) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("metrics.csv", "report.json", "importance.csv")
    }
    with open(out / "runtimes.csv", newline="") as fh:
        runs = "".join(f"{row['model']},{row['scenario']}\n" for row in csv.DictReader(fh))
    digests["runtimes.csv"] = hashlib.sha256(runs.encode()).hexdigest()
    assert digests == FAILED_MODEL_SHA256


def test_simulate_requires_naive_forecasts(tmp_path, small_csv, monkeypatch):
    fail_in_evaluate(monkeypatch, "seasonal_naive_forecast")
    cfg, out = small_config(tmp_path, small_csv, "nonaive", scenarios=["S2"])
    assert main(["evaluate", "--config", str(cfg)]) == 0
    assert main(["simulate", "--config", str(cfg)]) == 3
    assert not (out / "impact.json").exists()


def test_simulate_reports_one_clamp_tally_per_model(tmp_path, small_csv, monkeypatch, caplog):
    # arimax forecasts pushed below zero in both series: one warning carries
    # the model's pooled count, not one warning per series.
    forecast_arimax = demandcast.evaluate.forecast_arimax
    monkeypatch.setattr(
        demandcast.evaluate, "forecast_arimax", lambda *a, **k: forecast_arimax(*a, **k) - 1e4
    )
    cfg, out = small_config(tmp_path, small_csv, "clamp", models=["arimax", "naive"], scenarios=["S2"])
    assert main(["evaluate", "--config", str(cfg)]) == 0
    with caplog.at_level(logging.WARNING):
        assert main(["simulate", "--config", str(cfg)]) == 0
    lines = [r.getMessage() for r in caplog.records if "clamped" in r.getMessage()]
    clamped = json.loads((out / "impact.json").read_text())["models"]["arimax"]["negative_forecast_days"]
    assert lines == [f"arimax: clamped {clamped} negative forecast values to zero"]
    rows = [line.split(",") for line in (out / "residuals_arimax_S2.csv").read_text().splitlines()[1:]]
    assert len({(store, item) for store, item, _, _, predicted, _ in rows if float(predicted) < 0}) == 2


def test_simulate_rejects_forecast_file_without_rows(tmp_path, small_csv, capsys):
    cfg, out = small_config(tmp_path, small_csv, "norows", models=["naive"], scenarios=["S2"])
    assert main(["evaluate", "--config", str(cfg)]) == 0
    path = out / "residuals_naive_S2.csv"
    path.write_text(path.read_text().splitlines()[0] + "\n")
    assert main(["simulate", "--config", str(cfg)]) == 3
    error = last_error(capsys)
    assert error["code"] == "E_INPUT" and str(path) in error["message"]


def load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_other_readers_read_every_artifact(tmp_path, capsys):
    # Ids holding a comma, a quote, a lone CR and an LF.  Before, an LF file
    # left a lone CR unquoted, so csv.reader split its row in two.
    table = generate_sales_table(n_stores=1, n_items=2, start=dt.date(2015, 1, 1), end=dt.date(2015, 12, 31))
    stores = np.full(len(table.dates), 's,"1')
    items = np.where(table.item_ids == "1", "i\n1", "i\r2")
    data = tmp_path / "sales.csv"
    write_sales_csv(SalesTable(table.dates, stores, items, table.quantities), data, raw=True)
    cfg, out = small_config(tmp_path, data, "readers", models=["arimax", "naive"])
    for command in ("ingest", "evaluate", "simulate"):
        assert main([command, "--config", str(cfg)]) == 0
    capsys.readouterr()
    keys = {('s,"1', "i\n1"), ('s,"1', "i\r2")}
    residuals = sorted(out.glob("residuals_*.csv"))
    ledgers = sorted(out.glob("ledger_*.csv"))
    assert [p.name for p in residuals] == [f"residuals_{m}_{s}.csv" for m in ("arimax", "naive") for s in ("S1", "S2")]
    assert [p.name for p in ledgers] == ["ledger_arimax_S2.csv", "ledger_naive_S2.csv"]
    for path in [out / "cleaned_sales.csv", *residuals, *ledgers]:
        with open(path, encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh, strict=True)
        assert {len(row) for row in rows} == {len(header)}, path.name
        assert {(row[header.index("store")], row[header.index("item")]) for row in rows} == keys, path.name
    checks = load_checks()
    for path in residuals:
        keys, lengths, _, _ = read_residuals_csv(path)
        assert checks.residual_columns(path)["keys"] == [
            key for key, length in zip(keys, lengths.tolist()) for _ in range(length)
        ]
    assert checks.check_pooled_metrics(out) == []
    assert checks.check_ledgers(out) == []


def test_simulate_rejects_series_without_residual_std(tmp_path, small_csv, capsys):
    # Before, a series that report.json does not list was replayed with a
    # residual std of 0.0.
    cfg, out = small_config(tmp_path, small_csv, "nostd", models=["naive"], scenarios=["S2"])
    assert main(["evaluate", "--config", str(cfg)]) == 0
    path = out / "residuals_naive_S2.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()]
    path.write_text("".join(",".join([store, "9" if item == "2" else item, *rest]) + "\n" for store, item, *rest in rows))
    assert main(["simulate", "--config", str(cfg)]) == 3
    error = last_error(capsys)
    assert error["code"] == "E_INPUT"
    assert error["message"] == f"forecast file {path}: series '1|9' has no train residual std in {out / 'report.json'}"
    assert not (out / "impact.json").exists()


@pytest.mark.parametrize(
    "line, damage, message",
    [
        pytest.param(-1, lambda cells: cells[:5], " line {line}: 5 fields, the header has 6", id="last_row_cut_to_5"),
        pytest.param(3, lambda cells: cells[:4], " line {line}: 4 fields, the header has 6", id="row_cut_to_4"),
        pytest.param(
            2,
            lambda cells: [*cells[:4], "n/a", cells[5]],
            " line {line}: predicted 'n/a' is not a number",
            id="predicted_not_a_number",
        ),
        pytest.param(
            2,
            lambda cells: [*cells[:4], "nan", cells[5]],
            " line {line}: predicted 'nan' is not a finite number",
            id="predicted_nan",
        ),
        pytest.param(
            3,
            lambda cells: [*cells[:3], "inf", *cells[4:]],
            " line {line}: actual 'inf' is not a finite number",
            id="actual_inf",
        ),
        pytest.param(
            2,
            lambda cells: [*cells[:3], "-inf", *cells[4:]],
            " line {line}: actual '-inf' is not a finite number",
            id="actual_minus_inf",
        ),
        pytest.param(
            3,
            lambda cells: [*cells[:4], "1e400", cells[5]],
            " line {line}: predicted '1e400' is not a finite number",
            id="predicted_overflows",
        ),
        pytest.param(
            4,
            lambda cells: [*cells[:4], "\udcff", cells[5]],
            ": input is not UTF-8: invalid start byte at byte offset {offset} (line {line})",
            id="predicted_not_utf8",
        ),
        pytest.param(
            -1,
            lambda cells: [cells[0], "1", *cells[2:]],
            " line {line}: series ('1', '1') appears again after other series",
            id="series_in_two_runs",
        ),
    ],
)
def test_simulate_rejects_damaged_forecast_file(tmp_path, small_csv, capsys, line, damage, message):
    # Before, a short last row was replayed without its residual column, a
    # series in two runs kept only its last, a non-finite cell reached
    # impact.json as NaN or Infinity, and the others ended in a traceback.
    # "\udcff" is written as the byte 0xff.
    cfg, out = small_config(tmp_path, small_csv, "damaged", models=["naive"], scenarios=["S2"])
    assert main(["evaluate", "--config", str(cfg)]) == 0
    path = out / "residuals_naive_S2.csv"
    lines = path.read_text().splitlines()
    lines[line] = ",".join(damage(lines[line].split(",")))
    data = ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")
    path.write_bytes(data)
    assert main(["simulate", "--config", str(cfg)]) == 3
    error = last_error(capsys)
    number = line + 1 if line >= 0 else len(lines)
    assert error["code"] == "E_INPUT"
    assert error["message"] == f"forecast file {path}" + message.format(line=number, offset=data.find(b"\xff"))
    assert not (out / "impact.json").exists()


def test_report_renders_comparison_and_importance(evaluated, capsys):
    cfg, out = evaluated
    assert main(["report", "--config", str(cfg)]) == 0
    text = (out / "report.md").read_text()
    assert "Model comparison" in text
    assert "gbdt" in text
    assert "Feature importance" in text
    assert "deviation_flag" in text


def test_report_is_deterministic(evaluated):
    cfg, out = evaluated
    assert main(["report", "--config", str(cfg)]) == 0
    first = (out / "report.md").read_bytes()
    assert main(["report", "--config", str(cfg)]) == 0
    assert (out / "report.md").read_bytes() == first


def test_report_marks_absent_simulation(tmp_path, small_csv):
    cfg, out = small_config(tmp_path, small_csv, "nosimrep", models=["naive"], scenarios=["S1"])
    assert main(["evaluate", "--config", str(cfg)]) == 0
    assert main(["report", "--config", str(cfg)]) == 0
    assert "Simulation section absent" in (out / "report.md").read_text()


def test_evaluate_again_drops_the_earlier_simulation(tmp_path, small_csv):
    # A second evaluate into the same directory replaces the forecasts that
    # simulate replayed, so its ledgers, impact files and report.md go.
    cfg, out = small_config(tmp_path, small_csv, "rerun", models=["naive", "arimax"])
    assert main(["evaluate", "--config", str(cfg)]) == 0
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["report", "--config", str(cfg)]) == 0
    assert "| arimax |" in (out / "report.md").read_text()
    cfg, out = small_config(tmp_path, small_csv, "rerun", models=["naive", "trend_seasonal"])
    assert main(["evaluate", "--config", str(cfg)]) == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert not {"impact.json", "impact_table.csv", "report.md"} & set(outputs)
    assert not [name for name in outputs if name.startswith("ledger_")]
    assert not list(out.glob("ledger_*"))
    assert main(["report", "--config", str(cfg)]) == 0
    text = (out / "report.md").read_text()
    assert "Simulation section absent" in text
    assert "| arimax |" not in text
