"""Writers and readers for the files an evaluation run leaves behind.

Every numeric output is written with repr() round-trip formatting in a
fixed row order, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import iso_dates, series_runs
from .errors import MissingForecastsError
from .evaluate import FORECAST_MODES, ComparisonTable, EvaluationReport
from .features import FeatureMatrix
from .inventory import ImpactTable, InventoryOutcome


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """csv writes None as an empty cell and a float as its repr()."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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
                    FORECAST_MODES[model],
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


def write_residuals_csv(path: Path, test: FeatureMatrix, predictions: np.ndarray) -> None:
    residuals = test.target - predictions
    rows = zip(
        test.stores.tolist(),
        test.items.tolist(),
        iso_dates(test.dates),
        test.target.tolist(),
        predictions.tolist(),
        residuals.tolist(),
    )
    _write_csv(path, ["store", "item", "date", "actual", "predicted", "residual"], rows)


def read_residuals_csv(path: Path) -> dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]:
    """(store, item) -> (actual, predicted), in the file's (store, item, date) order."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        cells = dict(zip(next(reader, []), zip(*reader)))
    if not cells:
        raise MissingForecastsError(f"forecast file {path} has no rows")
    actual = np.array(cells["actual"], dtype=np.float64)
    predicted = np.array(cells["predicted"], dtype=np.float64)
    runs = series_runs(np.array(cells["store"]), np.array(cells["item"]))
    return {key: (actual[a:b], predicted[a:b]) for key, (a, b) in runs.items()}


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


def write_actual_vs_predicted_csv(path: Path, test: FeatureMatrix, predictions: np.ndarray) -> None:
    """Per-date totals across series: the single-curve view of the test window.

    ``bincount`` adds each date's values in row order, as a running sum would.
    """
    days, slot = np.unique(test.dates, return_inverse=True)
    actual = np.bincount(slot, weights=test.target)
    predicted = np.bincount(slot, weights=predictions)
    rows = zip(
        iso_dates(days),
        actual.tolist(),
        predicted.tolist(),
    )
    _write_csv(path, ["date", "actual", "predicted"], rows)


def report_document(reports: Sequence[EvaluationReport], comparison: ComparisonTable) -> dict:
    doc: dict = {"scenarios": {}, "comparison": dataclasses.asdict(comparison)}
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
                "forecast_mode": FORECAST_MODES[model],
                "error": entry.error,
                "metrics": None if m is None else dataclasses.asdict(m),
                "train_residual_std": entry.train_residual_std,
                "per_series_train_residual_std": entry.per_series_train_residual_std,
                "importance": entry.importance,
            }
        doc["scenarios"][report.scenario.id] = scenario_doc
    return doc


def write_json(path: Path, doc: Mapping) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


LEDGER_COLUMNS = ("opening", "ordered", "received", "demand", "sold", "lost_sales", "closing")


def write_ledger_csv(path: Path, outcomes: Mapping[tuple[str, str], "InventoryOutcome"]) -> None:
    rows = []
    for (store, item), outcome in outcomes.items():
        days = zip(*(getattr(outcome, name).tolist() for name in LEDGER_COLUMNS))
        rows.extend([store, item, t, *values] for t, values in enumerate(days))
    _write_csv(path, ["store", "item", "day", *LEDGER_COLUMNS], rows)


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
