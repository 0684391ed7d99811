"""The traced benchmark's hooks still reach the calls they are meant to time.

``perfbench/tracing.py`` wraps each layer's functions where the program
looks them up at call time.  A renamed function, or a dispatch table that
captures a function when its module is imported, would leave those spans
silently empty; these tests fail first.
"""

import datetime as dt
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np

import demandcast.cli as cli
import demandcast.evaluate as ev
from demandcast.artifacts import write_sales_csv
from demandcast.data import SplitSpec
from demandcast.evaluate import ScenarioSpec, run_scenario
from demandcast.features import HolidayCalendar
from demandcast.synthetic import generate_sales_table

from conftest import make_table

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_call_exists():
    for module_name, attr, span in load_tracing().LAYER_CALLS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr} ({span}) is gone"


# Called once per scenario; every other hooked call runs once per series at
# workers=1.  No model predicts its training rows again: each fit returns
# its in-sample values.
PER_SCENARIO = {"aggregate", "build_train_test_matrices"}


def test_run_scenario_calls_each_patched_model_function(monkeypatch):
    start = dt.date(2015, 1, 1)
    rng = np.random.default_rng(3)
    table = make_table(
        [
            (start + dt.timedelta(days=i), store, "1", float(rng.poisson(30)))
            for store in ("1", "2", "3")
            for i in range(435)
        ]
    )
    calls = {}

    def counting(attr, fn):
        def wrapper(*args, **kwargs):
            calls[attr] = calls.get(attr, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    patched = [attr for module, attr, _ in load_tracing().LAYER_CALLS if module == "demandcast.evaluate"]
    for attr in patched:
        monkeypatch.setattr(ev, attr, counting(attr, getattr(ev, attr)))
    split = SplitSpec(dt.date(2015, 12, 31), dt.date(2016, 3, 10))
    report = run_scenario(table, ScenarioSpec("S2", split), HolidayCalendar.bundled(), workers=1)
    assert all(entry["error"] is None for entry in report.doc["models"].values())
    expected = {attr: 1 if attr in PER_SCENARIO else 3 for attr in patched}
    assert calls == expected



def test_ingest_calls_each_patched_cli_function(tmp_path, monkeypatch):
    calls = {}

    def counting(attr, fn):
        def wrapper(*args, **kwargs):
            calls[attr] = calls.get(attr, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    patched = [attr for module, attr, _ in load_tracing().LAYER_CALLS if module == "demandcast.cli"]
    for attr in patched:
        monkeypatch.setattr(cli, attr, counting(attr, getattr(cli, attr)))
    assert cli.main(["ingest", "--out", str(tmp_path)]) == 0
    # The summary goes through write_json, which the trace counts as an artifact write.
    assert calls == {
        "parse_sales_csv": 1,
        "sort_chronological": 1,
        "fill_gaps": 1,
        "write_sales_csv": 1,
        "write_json": 1,
    }


def test_evaluate_calls_each_patched_cli_function(tmp_path, monkeypatch):
    data = tmp_path / "sales.csv"
    write_sales_csv(
        generate_sales_table(n_stores=3, n_items=1, start=dt.date(2015, 1, 1), end=dt.date(2015, 12, 31)),
        data,
        raw=True,
    )
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train_end": "2015-11-30", "test_end": "2015-12-31", "models": ["arimax", "naive"]}))
    calls, first_args = {}, {}

    def counting(attr, fn):
        def wrapper(*args, **kwargs):
            calls[attr] = calls.get(attr, 0) + 1
            first_args.setdefault(attr, []).append(args[0])
            return fn(*args, **kwargs)

        return wrapper

    patched = [attr for module, attr, _ in load_tracing().LAYER_CALLS if module == "demandcast.cli"]
    for attr in patched:
        monkeypatch.setattr(cli, attr, counting(attr, getattr(cli, attr)))
    assert cli.main(["evaluate", "--data", str(data), "--out", str(out), "--config", str(config)]) == 0
    # Two scenarios of two models: one residual, histogram and totals file each.
    assert calls == {
        "parse_sales_csv": 1,
        "sort_chronological": 1,
        "fill_gaps": 1,
        "run_scenario": 2,
        "write_metrics_csv": 1,
        "write_runtimes_csv": 1,
        "write_importance_csv": 1,
        "write_residuals_csv": 4,
        "write_histogram_csv": 4,
        "write_actual_vs_predicted_csv": 4,
        "write_json": 2,
    }
    # Each write span sizes the file named by the writer's first argument.
    names = [f"{model}_{scenario}" for scenario in ("S1", "S2") for model in ("arimax", "naive")]
    assert {attr: paths for attr, paths in first_args.items() if attr.startswith("write_")} == {
        "write_metrics_csv": [out / "metrics.csv"],
        "write_runtimes_csv": [out / "runtimes.csv"],
        "write_importance_csv": [out / "importance.csv"],
        "write_residuals_csv": [out / f"residuals_{name}.csv" for name in names],
        "write_histogram_csv": [out / f"histogram_{name}.csv" for name in names],
        "write_actual_vs_predicted_csv": [out / f"actual_vs_predicted_{name}.csv" for name in names],
        "write_json": [out / "report.json", out / "manifest.json"],
    }


def test_simulate_calls_each_patched_cli_function(tmp_path, monkeypatch):
    data = tmp_path / "sales.csv"
    write_sales_csv(
        generate_sales_table(n_stores=3, n_items=1, start=dt.date(2015, 1, 1), end=dt.date(2015, 12, 31)),
        data,
        raw=True,
    )
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "data_path": str(data),
                "train_end": "2015-11-30",
                "test_end": "2015-12-31",
                "models": ["arimax", "naive"],
                "scenarios": ["S2"],
                "output_dir": str(out),
            }
        )
    )
    assert cli.main(["evaluate", "--config", str(config)]) == 0
    calls, first_args = {}, {}

    def counting(attr, fn):
        def wrapper(*args, **kwargs):
            calls[attr] = calls.get(attr, 0) + 1
            first_args.setdefault(attr, []).append(args[0])
            return fn(*args, **kwargs)

        return wrapper

    patched = [attr for module, attr, _ in load_tracing().LAYER_CALLS if module == "demandcast.cli"]
    for attr in patched:
        monkeypatch.setattr(cli, attr, counting(attr, getattr(cli, attr)))
    assert cli.main(["simulate", "--config", str(config)]) == 0
    # naive, the baseline, is replayed first, then arimax; one replay steps
    # each model's 3 series together.
    assert calls == {
        "read_residuals_csv": 2,
        "simulate": 2,
        "write_ledger_csv": 2,
        "pool_outcomes": 2,
        "impact_table": 1,
        "write_impact_csv": 1,
        "write_json": 1,
    }
    # The read and write spans size the file named by the first argument.
    assert first_args["read_residuals_csv"] == [out / "residuals_naive_S2.csv", out / "residuals_arimax_S2.csv"]
    assert first_args["write_ledger_csv"] == [out / "ledger_naive_S2.csv", out / "ledger_arimax_S2.csv"]
