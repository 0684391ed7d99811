"""Scoring, scenario orchestration, pooled evaluation, and model comparison.

A scenario fixes the feature set, split, granularity, and model list, fits
every model per series on training rows only, forecasts the test window,
and pools residuals across series (ordered by store, item, date) into one
set of headline metrics per model.  Failures are recorded per model without
aborting the others.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .data import Granularity, SalesTable, SplitSpec, aggregate, series_runs
from .errors import EmptyPartitionError, NoSplitsError
from .features import (
    EXTERNAL_COLUMNS,
    DeviationMode,
    FeatureMatrix,
    HolidayCalendar,
    build_train_test_matrices,
)
from .models.arimax import fit_arimax, forecast_arimax, in_sample_predictions
from .models.gbdt import GbdtConfig, feature_importance, fit_gbdt, predict_gbdt
from .models.naive import seasonal_naive_forecast, seasonal_naive_insample
from .models.svr import SvrConfig, fit_svr, predict_svr
from .models.trend_seasonal import (
    TrendSeasonalConfig,
    fit_trend_seasonal,
    forecast_trend_seasonal,
)

logger = logging.getLogger(__name__)

# Each model and how it forecasts the test window: from the test rows'
# features, feeding its own forecasts back in, from the dates alone, or by
# repeating the last training week.
FORECAST_MODES = {
    "gbdt": "one-step-features",
    "arimax": "recursive",
    "trend_seasonal": "multi-step",
    "svr": "one-step-features",
    "naive": "seasonal-naive",
}
MODEL_NAMES = tuple(FORECAST_MODES)
SCENARIO_IDS = ("S1", "S2")

HISTOGRAM_BINS = 30


# --- metrics -----------------------------------------------------------------

def score(actual: np.ndarray, predicted: np.ndarray) -> dict:
    """MAE, RMSE, R^2 about the actuals' mean (None when the actuals are
    constant) and n, as report.json stores a model's metrics."""
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if len(actual) == 0 or len(actual) != len(predicted):
        raise ValueError("need equal, non-zero-length vectors")
    err = actual - predicted
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err * err)))
    ss_tot = float(np.sum((actual - actual.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = None
    else:
        r2 = 1.0 - float(np.sum(err * err)) / ss_tot
    return {"mae": mae, "rmse": rmse, "r2": r2, "n": len(actual)}


def error_histogram(residuals: np.ndarray, n_bins: int) -> list[tuple[float, float, int]]:
    """Equal-width bins spanning [min, max]; half-open low edges, last bin closed."""
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    residuals = np.asarray(residuals, dtype=np.float64)
    if len(residuals) == 0:
        return []
    lo, hi = float(residuals.min()), float(residuals.max())
    if lo == hi:
        return [(lo, hi, len(residuals))]
    counts, edges = np.histogram(residuals, bins=n_bins, range=(lo, hi))
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(n_bins)
    ]


# --- scenario specification ---------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec:
    """One evaluation condition: S1 (history only) or S2 (with the external
    factors), split, granularity, deviation mode and models."""

    id: str
    split: SplitSpec
    granularity: Granularity = Granularity.PER_SERIES
    deviation_mode: DeviationMode = DeviationMode.SAME_DAY
    models: tuple[str, ...] = MODEL_NAMES
    gbdt_config: GbdtConfig = field(default_factory=GbdtConfig)
    svr_config: SvrConfig = field(default_factory=SvrConfig)
    trend_seasonal_config: TrendSeasonalConfig = field(default_factory=TrendSeasonalConfig)

    def __post_init__(self) -> None:
        if self.id not in SCENARIO_IDS:
            raise ValueError(f"unknown scenario {self.id!r}; expected one of {list(SCENARIO_IDS)}")
        unknown = set(self.models) - set(MODEL_NAMES)
        if unknown:
            raise ValueError(f"unknown models: {sorted(unknown)}")
        if not self.models or len(set(self.models)) != len(self.models):
            raise ValueError(f"models must name each model once, got {list(self.models)}")

    @property
    def external(self) -> bool:
        return self.id == "S2"


# --- per-series model tasks ---------------------------------------------------

def _exog_columns(train: FeatureMatrix) -> list[str]:
    """External columns that vary over the rows arimax regresses on (t >= 2).

    Lag columns never enter: the autoregressive term already covers lag 1.
    A column constant there, such as a deviation flag that never fires on an
    aggregated series, cannot be told apart from the intercept.
    """
    return [
        c
        for c in train.columns
        if c in EXTERNAL_COLUMNS and len(np.unique(train.column(c)[1:])) > 1
    ]


def _fit_and_forecast(payload: dict) -> tuple[np.ndarray, np.ndarray, object]:
    """Fit one model on one series and forecast its test window.

    Returns the test predictions, one in-sample prediction per training row
    and the fitted model (None for naive, which keeps no state).  The test
    rows' targets are never read.
    """
    model_name = payload["model"]
    train: FeatureMatrix = payload["train"]
    test: FeatureMatrix = payload["test"]
    spec: ScenarioSpec = payload["spec"]

    if model_name in ("gbdt", "svr"):
        if model_name == "gbdt":
            fit, predict, cfg = fit_gbdt, predict_gbdt, spec.gbdt_config
        else:
            fit, predict, cfg = fit_svr, predict_svr, spec.svr_config
        model = fit(train, cfg)
        return predict(model, test), model.train_prediction, model
    if model_name == "arimax":
        exog_names = _exog_columns(train)
        cols = [train.columns.index(c) for c in exog_names]
        # take() returns row-major arrays; rows[:, cols] would be column-major,
        # and einsum sums products over that layout in another order.
        X_train, X_test = train.rows.take(cols, axis=1), test.rows.take(cols, axis=1)
        model = fit_arimax(train.target, X_train, exog_names=exog_names)
        predictions = forecast_arimax(model, X_test)
        return predictions, in_sample_predictions(model, train.target, X_train), model
    if model_name == "trend_seasonal":
        calendar = payload["calendar"]
        model = fit_trend_seasonal(train.target, train.dates, spec.trend_seasonal_config, calendar)
        predictions, _, _ = forecast_trend_seasonal(model, test.dates)
        return predictions, model.train_prediction, model
    if model_name == "naive":
        predictions = seasonal_naive_forecast(train.target, len(test))
        return predictions, seasonal_naive_insample(train.target), None
    raise ValueError(f"unknown model {model_name!r}")


def _run_series_task(payload: dict) -> dict:
    """Run one (model, series) task and time it.

    Top-level function so worker processes can unpickle it.  Returns the
    test predictions, in-sample training residual std and task seconds, the
    gain totals of a gbdt model, and the serialized model document only when
    ``payload["save_models"]`` asks for it: a tree or support-vector document
    runs to hundreds of KB that the parent would otherwise unpickle and keep.
    A failure returns its error text instead, so the other tasks in the pool
    keep running; a forecast or in-sample value that is not finite fails the
    task, as it would make the model's scores inf or NaN.
    """
    started = time.perf_counter()
    try:
        predictions, train_pred, model = _fit_and_forecast(payload)
        if not (np.isfinite(predictions).all() and np.isfinite(train_pred).all()):
            raise ValueError("the predictions are not all finite")
    except Exception as exc:
        logger.exception("model %s failed on series %s", payload["model"], payload["key"])
        result = {"error": f"{type(exc).__name__}: {exc}"}
    else:
        train_residuals = payload["train"].target - train_pred
        result = {
            "predictions": predictions,
            "train_residual_std": float(train_residuals.std()),
        }
        if payload["model"] == "gbdt":
            result["gain_totals"] = model.gain_totals
        if payload["save_models"]:
            result["artifact"] = {"kind": "naive", "period": 7} if model is None else model.to_dict()
    result["task_seconds"] = time.perf_counter() - started
    return result


def _execute_tasks(tasks: list[dict], workers: int) -> list[dict]:
    if workers <= 1 or len(tasks) <= 1:
        return [_run_series_task(t) for t in tasks]
    # Under fork, the pool starts all max_workers processes at once.
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(_run_series_task, tasks, chunksize=1))


# --- evaluation report ---------------------------------------------------------

@dataclass
class EvaluationReport:
    """One scenario's results.  ``doc`` is its report.json entry.  ``test``
    holds the pooled test rows of the series with rows on both sides of the
    split, in (store, item, date) order, and each scored model's
    ``predictions`` align with them.  ``runtimes`` sums each model's task
    seconds; ``model_documents`` holds each scored model's series documents,
    keyed "store|item", only when the run saves models."""

    doc: dict
    test: FeatureMatrix
    predictions: dict[str, np.ndarray] = field(default_factory=dict)
    runtimes: dict[str, float] = field(default_factory=dict)
    model_documents: dict[str, dict[str, dict]] = field(default_factory=dict)


def data_fingerprint(table: SalesTable) -> str:
    digest = hashlib.sha256()
    digest.update(table.dates.tobytes())
    digest.update("\x00".join(table.store_ids.tolist()).encode())
    digest.update("\x00".join(table.item_ids.tolist()).encode())
    digest.update(table.quantities.tobytes())
    return digest.hexdigest()


def config_fingerprint(payload: Mapping) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def run_scenario(
    table: SalesTable,
    spec: ScenarioSpec,
    calendar: HolidayCalendar,
    workers: int = 1,
    save_models: bool = False,
) -> EvaluationReport:
    """Fit every model of the scenario and evaluate on the test window.

    The holiday calendar reaches the design matrix and the trend model only
    in S2; S1 is history only.  Raises :class:`EmptyPartitionError` when no
    series has rows on both sides of the split.
    """
    calendar = calendar if spec.external else None
    working = aggregate(table, spec.granularity)
    train_fm, test_fm = build_train_test_matrices(
        working, spec.split, spec.external, calendar, spec.deviation_mode
    )
    train_runs, test_runs = (
        {k: slice(*r) for k, r in series_runs(fm.stores, fm.items).items()}
        for fm in (train_fm, test_fm)
    )
    keys = [k for k in train_runs if k in test_runs]
    if not keys:
        raise EmptyPartitionError(
            f"no series has rows both up to {spec.split.train_end} and "
            f"from {spec.split.test_start} to {spec.split.test_end}"
        )

    # Every (model, series) task of the scenario goes through one pool, in
    # model-major order, so each model's results are a contiguous run.  The
    # pool is per scenario, not per run, so workers forked inside a traced
    # scenario book their time under it.  The models share each series'
    # matrices, which are views of the scenario's.
    series = {
        k: (train_fm.select_rows(train_runs[k]), test_fm.select_rows(test_runs[k])) for k in keys
    }
    tasks = [
        {
            "model": model_name,
            "key": key,
            "train": series[key][0],
            "test": series[key][1],
            "spec": spec,
            "calendar": calendar,
            "save_models": save_models,
        }
        for model_name in spec.models
        for key in keys
    ]
    all_results = _execute_tasks(tasks, workers)

    labels = [f"{store}|{item}" for store, item in keys]
    test = test_fm.select_rows(
        np.concatenate([np.arange(test_runs[k].start, test_runs[k].stop) for k in keys])
    )
    split = [d.isoformat() for d in (spec.split.train_end, spec.split.test_start, spec.split.test_end)]
    report = EvaluationReport(
        doc={
            "id": spec.id,
            "deviation_mode": spec.deviation_mode.value if spec.external else "",
            "config_fingerprint": config_fingerprint(
                {"id": spec.id, "split": split, "granularity": spec.granularity.value}
            ),
            "data_fingerprint": data_fingerprint(table),
            "models": {},
        },
        test=test,
    )
    for m, model_name in enumerate(spec.models):
        results = all_results[m * len(keys) : (m + 1) * len(keys)]
        report.runtimes[model_name] = sum(r["task_seconds"] for r in results)
        # The first failing series, in series order, fails the whole model;
        # its train_residual_std stays null, as NaN is not JSON.
        entry = report.doc["models"][model_name] = {
            "forecast_mode": FORECAST_MODES[model_name],
            "error": next((r["error"] for r in results if "error" in r), None),
            "metrics": None,
            "train_residual_std": None,
            "per_series_train_residual_std": {},
            "importance": None,
        }
        if entry["error"] is not None:
            continue

        predictions = report.predictions[model_name] = np.concatenate(
            [r["predictions"] for r in results]
        )
        per_series_std = {label: r["train_residual_std"] for label, r in zip(labels, results)}
        entry.update(
            metrics=score(test.target, predictions),
            train_residual_std=float(np.sqrt(np.mean([s * s for s in per_series_std.values()]))),
            per_series_train_residual_std=per_series_std,
        )
        if model_name == "gbdt":
            totals: dict[str, float] = {}
            for r in results:
                for feat, gain in r["gain_totals"].items():
                    totals[feat] = totals.get(feat, 0.0) + gain
            try:
                entry["importance"] = feature_importance(totals)
            except NoSplitsError:
                pass
        if save_models:
            report.model_documents[model_name] = {
                label: r["artifact"] for label, r in zip(labels, results)
            }
    return report


# --- comparison -----------------------------------------------------------------

def improvement_percent(before: float, after: float) -> float:
    """Percent reduction from before to after (positive = improvement)."""
    if before == 0.0:
        return 0.0
    return 100.0 * (before - after) / before


def compare(reports: Sequence[EvaluationReport]) -> dict:
    """Side-by-side metrics across scenario reports, as report.json stores them:
    keyed "model|scenario", and "metric|scenario" for the best model.

    The reports come from one run's data, split and granularity.
    """
    if not reports:
        raise ValueError("nothing to compare")
    scenarios = [r.doc["id"] for r in reports]
    models = list(dict.fromkeys(m for r in reports for m in r.doc["models"]))
    tables: dict[str, dict[str, float | None]] = {"mae": {}, "rmse": {}, "r2": {}}
    for r in reports:
        for m, entry in r.doc["models"].items():
            for metric, values in tables.items():
                values[f"{m}|{r.doc['id']}"] = entry["metrics"][metric] if entry["metrics"] else None

    # The paper's gain: from S1 to S2, whatever order the scenarios ran in.
    improvement: dict[str, float | None] = {}
    if set(SCENARIO_IDS) <= set(scenarios):
        for m in models:
            a, b = tables["mae"].get(f"{m}|S1"), tables["mae"].get(f"{m}|S2")
            improvement[m] = improvement_percent(a, b) if a is not None and b is not None else None

    # The lowest error wins, and the highest R^2.
    best: dict[str, str] = {}
    for s in scenarios:
        for metric, values in tables.items():
            candidates = [
                (values[f"{m}|{s}"], m) for m in models if values.get(f"{m}|{s}") is not None
            ]
            if candidates:
                best[f"{metric}|{s}"] = (max if metric == "r2" else min)(candidates)[1]
    return {
        "scenarios": scenarios,
        "models": models,
        **tables,
        "improvement_pct": improvement,
        "best_by_metric": best,
    }
