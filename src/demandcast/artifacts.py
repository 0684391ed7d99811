"""Writers and readers for the files an evaluation run leaves behind.

Every numeric output is written with repr() round-trip formatting in a
fixed row order, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .evaluate import ComparisonTable, EvaluationReport
from .inventory import ImpactTable, InventoryOutcome


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # np.float64 too, whose repr is np.float64(...)
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def slug(model: str, scenario: str) -> str:
    return f"{model}_{scenario}"


def write_metrics_csv(path: Path, reports: Sequence[EvaluationReport]) -> None:
    rows = []
    for report in reports:
        for model, entry in report.entries.items():
            m = entry.metrics
            rows.append(
                [
                    model,
                    report.scenario.id,
                    report.deviation_mode,
                    entry.forecast_mode,
                    m.mae if m else None,
                    m.rmse if m else None,
                    m.r2 if m else None,
                    m.n if m else 0,
                    entry.error or "",
                ]
            )
    _write_csv(
        path,
        ["model", "scenario", "deviation_mode", "forecast_mode", "mae", "rmse", "r2", "n", "error"],
        rows,
    )


def write_runtimes_csv(path: Path, reports: Sequence[EvaluationReport]) -> None:
    rows = [
        [model, report.scenario.id, entry.runtime_s]
        for report in reports
        for model, entry in report.entries.items()
    ]
    _write_csv(path, ["model", "scenario", "runtime_s"], rows)


def write_residuals_csv(path: Path, entry) -> None:
    rows = (
        [
            str(entry.stores[i]),
            str(entry.items[i]),
            dt.date.fromordinal(int(entry.dates[i])).isoformat(),
            float(entry.actuals[i]),
            float(entry.predictions[i]),
            float(entry.actuals[i] - entry.predictions[i]),
        ]
        for i in range(len(entry.actuals))
    )
    _write_csv(path, ["store", "item", "date", "actual", "predicted", "residual"], rows)


def read_residuals_csv(path: Path) -> dict[tuple[str, str], dict[str, list]]:
    out: dict[tuple[str, str], dict[str, list]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            key = (row["store"], row["item"])
            bucket = out.setdefault(key, {"date": [], "actual": [], "predicted": []})
            bucket["date"].append(row["date"])
            bucket["actual"].append(float(row["actual"]))
            bucket["predicted"].append(float(row["predicted"]))
    return out


def write_importance_csv(path: Path, reports: Sequence[EvaluationReport]) -> None:
    rows = []
    for report in reports:
        entry = report.entries.get("gbdt")
        if entry is None or not entry.importance:
            continue
        for rank, (feature, gain) in enumerate(entry.importance, start=1):
            rows.append([report.scenario.id, rank, feature, gain])
    _write_csv(path, ["scenario", "rank", "feature", "normalized_gain"], rows)


def write_histogram_csv(path: Path, entry) -> None:
    _write_csv(
        path,
        ["bin_lo", "bin_hi", "count"],
        [[lo, hi, count] for lo, hi, count in entry.histogram],
    )


def write_actual_vs_predicted_csv(path: Path, entry) -> None:
    """Per-date totals across series: the single-curve view of the test window.

    ``bincount`` adds each date's values in row order, as a running sum would.
    """
    days, slot = np.unique(entry.dates, return_inverse=True)
    actual = np.bincount(slot, weights=entry.actuals)
    predicted = np.bincount(slot, weights=entry.predictions)
    rows = zip(
        (dt.date.fromordinal(d).isoformat() for d in days.tolist()),
        actual.tolist(),
        predicted.tolist(),
    )
    _write_csv(path, ["date", "actual", "predicted"], rows)


def report_document(reports: Sequence[EvaluationReport], comparison: ComparisonTable) -> dict:
    doc: dict = {"scenarios": {}, "comparison": {}}
    for report in reports:
        scenario_doc: dict = {
            "id": report.scenario.id,
            "deviation_mode": report.deviation_mode,
            "config_fingerprint": report.config_fingerprint,
            "data_fingerprint": report.data_fingerprint,
            "models": {},
        }
        for model, entry in report.entries.items():
            m = entry.metrics
            scenario_doc["models"][model] = {
                "forecast_mode": entry.forecast_mode,
                "error": entry.error,
                "metrics": None
                if m is None
                else {"mae": m.mae, "rmse": m.rmse, "r2": m.r2, "n": m.n},
                "train_residual_std": entry.train_residual_std,
                "per_series_train_residual_std": {
                    f"{s}|{i}": v for (s, i), v in entry.per_series_train_residual_std.items()
                },
                "importance": entry.importance,
            }
        doc["scenarios"][report.scenario.id] = scenario_doc
    doc["comparison"] = {
        "scenarios": comparison.scenarios,
        "models": comparison.models,
        "mae": {f"{m}|{s}": v for (m, s), v in comparison.mae.items()},
        "rmse": {f"{m}|{s}": v for (m, s), v in comparison.rmse.items()},
        "r2": {f"{m}|{s}": v for (m, s), v in comparison.r2.items()},
        "improvement_pct": comparison.improvement_pct,
        "best_by_metric": {f"{metric}|{s}": m for (metric, s), m in comparison.best_by_metric.items()},
    }
    return doc


def write_json(path: Path, doc: Mapping) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_ledger_csv(path: Path, outcomes: Mapping[tuple[str, str], "InventoryOutcome"]) -> None:
    rows = []
    for (store, item), outcome in outcomes.items():
        for t in range(outcome.days):
            rows.append(
                [
                    store,
                    item,
                    t,
                    float(outcome.opening[t]),
                    float(outcome.ordered[t]),
                    float(outcome.received[t]),
                    float(outcome.demand[t]),
                    float(outcome.sold[t]),
                    float(outcome.lost_sales[t]),
                    float(outcome.closing[t]),
                ]
            )
    _write_csv(
        path,
        ["store", "item", "day", "opening", "ordered", "received", "demand", "sold", "lost_sales", "closing"],
        rows,
    )


def write_impact_csv(path: Path, table: ImpactTable) -> None:
    rows = []
    for model, impact_rows in table.rows.items():
        for r in impact_rows:
            rows.append([model, r.metric, r.before, r.after, r.improvement_pct, r.direction])
    _write_csv(
        path,
        ["model", "metric", "before", "after", "improvement_pct", "direction"],
        rows,
    )
