"""Output checks computed apart from the program.

Each check reads the files a run left in its output directory and compares
them with values the benchmark computes itself: from the generator's record
and its own copy of the data, or from the program's other output files.
A check returns a list of problems; an empty list means it passed.  Checks
whose input file is absent (because the operation that writes it failed)
pass vacuously: they speak only of the operations that did not fail.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
from pathlib import Path

import numpy as np

# Tolerance for recomputed floating-point values.  Files store repr()
# round-trip floats, so only summation order can differ.
REL_TOL = 1e-9
SEASON_DAYS = 7


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def metrics_rows(out_dir: Path) -> list[dict[str, str]]:
    path = out_dir / "metrics.csv"
    return _rows(path) if path.exists() else []


def _columns(path: Path) -> dict[str, tuple[str, ...]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns = list(zip(*reader)) or [()] * len(header)
    return dict(zip(header, columns))


def _floats(values) -> np.ndarray:
    return np.array(values, dtype=np.float64)


def residual_columns(path: Path) -> dict[str, np.ndarray | list]:
    cols = _columns(path)
    return {
        "keys": list(zip(cols["store"], cols["item"])),
        "dates": cols["date"],
        "actual": _floats(cols["actual"]),
        "predicted": _floats(cols["predicted"]),
        "residual": _floats(cols["residual"]),
    }


def check_ingest_summary(out_dir: Path, expected: dict) -> list[str]:
    """rows_read, malformed and imputed counts equal the generator's record."""
    path = out_dir / "ingest_summary.json"
    if not path.exists():
        return []
    doc = json.loads(path.read_text(encoding="utf-8"))
    got = {
        "rows_read": doc["rows_read"],
        "malformed": doc["malformed_count"],
        "imputed": doc["total_imputed"],
    }
    return [
        f"ingest_summary {name} = {got[name]}, generator wrote {expected[name]}"
        for name in ("rows_read", "malformed", "imputed")
        if got[name] != expected[name]
    ]


def check_pooled_metrics(out_dir: Path) -> list[str]:
    """MAE, RMSE, R^2 and n recomputed from each residual file match metrics.csv."""
    problems = []
    for row in metrics_rows(out_dir):
        if row["error"]:
            continue
        name = f"{row['model']}_{row['scenario']}"
        path = out_dir / f"residuals_{name}.csv"
        if not path.exists():
            problems.append(f"{name}: metrics.csv has a score but no residual file")
            continue
        cols = residual_columns(path)
        actual, predicted = cols["actual"], cols["predicted"]
        err = actual - predicted
        if not np.array_equal(err, cols["residual"]):
            problems.append(f"{name}: residual column differs from actual - predicted")
        n = len(actual)
        if n != int(row["n"]):
            problems.append(f"{name}: n = {row['n']} in metrics.csv, {n} residual rows")
            continue
        mae = float(np.mean(np.abs(err)))
        rmse = float(np.sqrt(np.mean(err * err)))
        ss_tot = float(np.sum((actual - actual.mean()) ** 2))
        r2 = None if ss_tot == 0.0 else 1.0 - float(np.sum(err * err)) / ss_tot
        for label, mine in (("mae", mae), ("rmse", rmse), ("r2", r2)):
            theirs = row[label]
            if mine is None or theirs == "":
                if (mine is None) != (theirs == ""):
                    problems.append(f"{name}: {label} is {theirs!r}, recomputed {mine}")
            elif not _close(mine, float(theirs)):
                problems.append(f"{name}: {label} is {theirs}, recomputed {mine!r}")
    return problems


def _filled(dates: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every day from first to last, missing days interpolated linearly."""
    span = np.arange(dates[0], dates[-1] + 1, dtype=np.int64)
    return span, np.interp(span, dates, values)


def own_training_weeks(
    series: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]],
    train_end: dt.date,
) -> dict[tuple[str, str], np.ndarray]:
    """The last seven training days of each modelled series, from the benchmark's copy."""
    filled = {key: _filled(*pair) for key, pair in series.items()}
    end = train_end.toordinal()
    weeks = {}
    for key, (d, v) in filled.items():
        pos = int(np.searchsorted(d, end))
        weeks[key] = v[pos - SEASON_DAYS + 1 : pos + 1]
    return weeks


def check_naive_forecasts(out_dir: Path, weeks: dict[tuple[str, str], np.ndarray]) -> list[str]:
    """Seasonal-naive forecasts equal the last training week tiled over the test window."""
    problems = []
    for path in sorted(out_dir.glob("residuals_naive_*.csv")):
        cols = residual_columns(path)
        seen: dict[tuple[str, str], int] = {}
        for i, key in enumerate(cols["keys"]):
            j = seen.get(key, 0)
            seen[key] = j + 1
            week = weeks.get(key)
            if week is None:
                problems.append(f"{path.name}: series {key} is not in the generated data")
                break
            if not _close(float(week[j % SEASON_DAYS]), float(cols["predicted"][i])):
                problems.append(
                    f"{path.name}: {key} on {cols['dates'][i]} predicted "
                    f"{cols['predicted'][i]!r}, last training week gives {week[j % SEASON_DAYS]!r}"
                )
                break
    return problems


def check_ledgers(out_dir: Path) -> list[str]:
    """closing = opening + received - sold, lost = demand - sold, 0 <= sold <= demand."""
    problems = []
    for path in sorted(out_dir.glob("ledger_*.csv")):
        a = {name: _floats(values) for name, values in _columns(path).items() if name not in ("store", "item")}
        scale = 1.0 + np.abs(a["opening"]) + np.abs(a["received"]) + np.abs(a["demand"])
        bad = (
            (np.abs(a["closing"] - (a["opening"] + a["received"] - a["sold"])) > REL_TOL * scale)
            | (np.abs(a["lost_sales"] - (a["demand"] - a["sold"])) > REL_TOL * scale)
            | (a["sold"] < 0.0)
            | (a["sold"] > a["demand"])
        )
        if bad.any():
            problems.append(f"{path.name}: {int(bad.sum())} ledger rows break the identities")
    return problems


def check_importance(out_dir: Path) -> list[str]:
    """Gain shares are non-negative and sum to 1 within each scenario."""
    path = out_dir / "importance.csv"
    if not path.exists():
        return []
    shares: dict[str, list[float]] = {}
    for row in _rows(path):
        shares.setdefault(row["scenario"], []).append(float(row["normalized_gain"]))
    problems = []
    for scenario, values in shares.items():
        if min(values) < 0.0:
            problems.append(f"importance.csv {scenario}: negative share {min(values)}")
        if not _close(sum(values), 1.0):
            problems.append(f"importance.csv {scenario}: shares sum to {sum(values)!r}")
    return problems


def check_beats_naive(out_dir: Path, scenario: str = "S2") -> list[str]:
    """Each fitted model's MAE in the scenario is below seasonal-naive's."""
    rows = {r["model"]: r for r in metrics_rows(out_dir) if r["scenario"] == scenario}
    naive = rows.get("naive")
    if naive is None or naive["error"]:
        return []
    return [
        f"{model}/{scenario} MAE {row['mae']} is not below naive's {naive['mae']}"
        for model, row in rows.items()
        if model != "naive" and not row["error"] and float(row["mae"]) >= float(naive["mae"])
    ]


def fitted_series(out_dir: Path) -> int:
    """Successful (model, scenario, series) fits, as report.json lists them."""
    path = out_dir / "report.json"
    if not path.exists():
        return 0
    doc = json.loads(path.read_text(encoding="utf-8"))
    return sum(
        len(entry["per_series_train_residual_std"])
        for scenario in doc["scenarios"].values()
        for entry in scenario["models"].values()
        if entry["error"] is None
    )
