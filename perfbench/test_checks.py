"""The benchmark's output checks pass on the program's real outputs and catch tampering.

A small wide-catalog (the generator's shuffled, gapped and corrupted CSV,
shrunk to a few series) runs through ingest, evaluate and simulate
in-process; each check must pass on the untouched outputs and report a
problem once one residual value or one ledger row is altered.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
from pathlib import Path

import pytest

import checks
import gen
import tracing
from demandcast.cli import main


def _rewrite(path: Path, row_index: int, column: str, value: str) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    rows[row_index][column] = value
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gen, "WIDE_STORES", 1)
        mp.setattr(gen, "WIDE_ITEMS", 4)
        # Enough corruption that a few lines break even in four series.
        mp.setattr(gen, "WIDE_CORRUPT_FRACTION", 0.005)
        inputs = gen.generate("wide-catalog", 5, tmp / "inputs")
    out = tmp / "out"
    config = tmp / "run.json"
    config.write_text(json.dumps({**inputs.config, "output_dir": str(out)}), encoding="utf-8")
    for command in ("ingest", "evaluate", "simulate"):
        assert main([command, "--config", str(config)]) == 0
    return inputs, out


def _weeks(inputs):
    return checks.own_training_weeks(inputs.series, dt.date(2017, 7, 31))


def test_generator_record_matches_ingest(run):
    inputs, out = run
    assert inputs.expected["malformed"] > 0 and inputs.expected["imputed"] > inputs.expected["malformed"]
    assert checks.check_ingest_summary(out, inputs.expected) == []
    wrong = dict(inputs.expected, imputed=inputs.expected["imputed"] + 1)
    assert checks.check_ingest_summary(out, wrong)


def test_checks_pass_on_untouched_outputs(run):
    inputs, out = run
    assert checks.check_pooled_metrics(out) == []
    assert checks.check_naive_forecasts(out, _weeks(inputs)) == []
    assert checks.check_ledgers(out) == []
    assert checks.fitted_series(out) == 3 * 2 * 4  # models x scenarios x series


def test_tampered_residual_file_is_caught(run, tmp_path):
    inputs, out = run
    copy = tmp_path / "out"
    copy.mkdir()
    for name in ("metrics.csv", "residuals_arimax_S1.csv", "residuals_naive_S2.csv"):
        (copy / name).write_bytes((out / name).read_bytes())
    (copy / "metrics.csv").write_text(
        "\n".join(
            line
            for line in (out / "metrics.csv").read_text().splitlines()
            if line.startswith(("model,", "arimax,S1", "naive,S2"))
        )
        + "\n"
    )
    assert checks.check_pooled_metrics(copy) == []
    _rewrite(copy / "residuals_arimax_S1.csv", 10, "actual", "123456.0")
    assert checks.check_pooled_metrics(copy)
    _rewrite(copy / "residuals_naive_S2.csv", 3, "predicted", "0.5")
    assert any("naive" in p for p in checks.check_naive_forecasts(copy, _weeks(inputs)))


def test_tampered_ledger_row_is_caught(run, tmp_path):
    _, out = run
    ledger = tmp_path / "ledger_naive_S2.csv"
    ledger.write_bytes((out / "ledger_naive_S2.csv").read_bytes())
    assert checks.check_ledgers(tmp_path) == []
    with open(ledger, encoding="utf-8", newline="") as fh:
        row = list(csv.DictReader(fh))[7]
    _rewrite(ledger, 7, "sold", repr(float(row["sold"]) + 1.0))
    assert checks.check_ledgers(tmp_path)


def test_importance_shares_must_be_non_negative_and_sum_to_one(tmp_path):
    path = tmp_path / "importance.csv"
    path.write_text("scenario,rank,feature,normalized_gain\nS1,1,a,0.75\nS1,2,b,0.25\n")
    assert checks.check_importance(tmp_path) == []
    path.write_text("scenario,rank,feature,normalized_gain\nS1,1,a,0.75\nS1,2,b,0.3\n")
    assert checks.check_importance(tmp_path)
    path.write_text("scenario,rank,feature,normalized_gain\nS1,1,a,1.25\nS1,2,b,-0.25\n")
    assert checks.check_importance(tmp_path)


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((gen.ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert set(tracing.layer_metrics([], workers=1, per_span_s=0.0)) == names


def test_self_time_subtracts_the_union_of_children():
    parent = {"start": 0.0, "end": 10.0}
    kids = [{"start": 1.0, "end": 4.0}, {"start": 2.0, "end": 5.0}, {"start": 9.0, "end": 12.0}]
    assert tracing.self_time(parent, kids) == pytest.approx(10.0 - 4.0 - 1.0)


def test_tail_needs_ten_samples_beyond_it():
    assert tracing.tail([]) == 0.0
    assert tracing.tail([3.0, 1.0]) == 3.0
    values = [float(v) for v in range(50)]
    assert tracing.tail(values) == 39.0
