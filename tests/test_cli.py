import datetime as dt
import json
from pathlib import Path

import numpy as np
import pytest

import demandcast.evaluate
from demandcast.cli import main
from demandcast.synthetic import generate_sales_table, write_sales_csv_plain


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "sales.csv"
    table = generate_sales_table(
        n_stores=1, n_items=2, start=dt.date(2015, 1, 1), end=dt.date(2015, 12, 31)
    )
    write_sales_csv_plain(table, path)
    return path


def small_config(tmp_path, small_csv, out_name="out", **extra):
    doc = {
        "data_path": str(small_csv),
        "train_end": "2015-11-30",
        "test_start": "2015-12-01",
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


def test_missing_data_file_exits_3_with_error_document(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["ingest", "--data", str(tmp_path / "nope.csv"), "--out", str(out)])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["code"] == "E_INPUT"


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"granularity": "weekly"}))
    assert main(["evaluate", "--config", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["code"] == "E_CONFIG"


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"granularty": "per-series"}))
    assert main(["evaluate", "--config", str(cfg)]) == 2
    # seed was a reserved key that nothing read; it is no longer accepted
    cfg.write_text(json.dumps({"seed": 0}))
    assert main(["evaluate", "--config", str(cfg)]) == 2


def last_error(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]


def test_gap_between_train_and_test_exits_2(tmp_path, capsys):
    cfg = tmp_path / "gap.json"
    doc = {"test_start": "2017-08-15", "models": ["naive"], "output_dir": str(tmp_path / "out")}
    cfg.write_text(json.dumps(doc))
    assert main(["evaluate", "--config", str(cfg)]) == 2
    error = last_error(capsys)
    assert error["code"] == "E_CONFIG"
    assert "day after train_end" in error["message"]


def test_test_window_without_data_exits_3(tmp_path, capsys):
    # The bundled sample ends on 2017-12-31, so no series has a test row.
    cfg = tmp_path / "late.json"
    doc = {
        "train_end": "2017-12-31",
        "test_start": "2018-01-01",
        "test_end": "2018-03-31",
        "models": ["naive"],
        "output_dir": str(tmp_path / "out"),
    }
    cfg.write_text(json.dumps(doc))
    assert main(["evaluate", "--config", str(cfg)]) == 3
    error = last_error(capsys)
    assert error["code"] == "E_INPUT"
    assert "no series has rows" in error["message"]


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


def test_evaluate_aggregate_granularity(tmp_path, small_csv):
    cfg, out = small_config(
        tmp_path, small_csv, "agg", granularity="aggregate", models=["naive"], scenarios=["S1"]
    )
    assert main(["evaluate", "--config", str(cfg)]) == 0
    residuals = (out / "residuals_naive_S1.csv").read_text().strip().splitlines()
    assert len(residuals) == 31 + 1  # one pooled series
    assert residuals[1].split(",")[0] == "ALL"


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


def test_simulate_requires_naive_forecasts(tmp_path, small_csv, monkeypatch):
    fail_in_evaluate(monkeypatch, "seasonal_naive_forecast")
    cfg, out = small_config(tmp_path, small_csv, "nonaive", scenarios=["S2"])
    assert main(["evaluate", "--config", str(cfg)]) == 0
    assert main(["simulate", "--config", str(cfg)]) == 3
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
