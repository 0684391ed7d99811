"""Command-line surface: ingest, evaluate, simulate, report.

Exit codes: 0 success, 2 configuration error, 3 input error, 4 every model
failed.  Fatal errors also emit a machine-readable JSON document on stderr.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .artifacts import (
    read_residuals_csv,
    report_document,
    slug,
    write_actual_vs_predicted_csv,
    write_histogram_csv,
    write_impact_csv,
    write_importance_csv,
    write_json,
    write_ledger_csv,
    write_metrics_csv,
    write_residuals_csv,
    write_runtimes_csv,
)
from .config import ConfigError, RunConfig, bundled_sample_stream, file_sha256
from .data import (
    FillMethod,
    Granularity,
    fill_gaps,
    parse_sales_csv,
    sort_chronological,
    write_sales_csv,
)
from .errors import DemandcastError, MissingForecastsError
from .evaluate import compare, data_fingerprint, make_scenario, run_scenario
from .features import DeviationMode, HolidayCalendar
from .inventory import impact_table, pool_outcomes, simulate
from .models.arimax import ForecastMode
from .models.gbdt import GbdtConfig
from .models.svr import SvrConfig
from .models.trend_seasonal import TrendSeasonalConfig

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_ALL_MODELS_FAILED = 4

_ERROR_CODES = {EXIT_CONFIG: "E_CONFIG", EXIT_INPUT: "E_INPUT", EXIT_ALL_MODELS_FAILED: "E_ALL_MODELS_FAILED"}


class CliError(Exception):
    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


def _emit_error(exit_code: int, message: str) -> None:
    doc = {"error": {"code": _ERROR_CODES.get(exit_code, "E_UNKNOWN"), "message": message}}
    print(json.dumps(doc), file=sys.stderr)


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {
        "data_path": getattr(args, "data", None),
        "output_dir": getattr(args, "out", None),
        "granularity": getattr(args, "granularity", None),
        "deviation_mode": getattr(args, "deviation_mode", None),
        "workers": getattr(args, "workers", None),
    }
    cfg = cfg.apply_overrides(**overrides)
    cfg.validate()
    return cfg


def _load_clean_table(cfg: RunConfig):
    """Parse, order, and gap-fill the configured dataset."""
    schema = cfg.schema or None
    extras = tuple(cfg.extra_columns)
    if cfg.data_path is None:
        with bundled_sample_stream() as stream:
            result = parse_sales_csv(stream, schema=schema, extra_columns=extras)
    else:
        result = parse_sales_csv(cfg.data_path, schema=schema, extra_columns=extras)
    table = sort_chronological(result.table)
    filled, gaps = fill_gaps(table, FillMethod(cfg.fill_method))
    return result, filled, gaps


def _calendar(cfg: RunConfig) -> HolidayCalendar:
    if cfg.holiday_calendar_path is None:
        return HolidayCalendar.bundled()
    return HolidayCalendar.from_csv(cfg.holiday_calendar_path)


def cmd_ingest(cfg: RunConfig) -> int:
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result, filled, gaps = _load_clean_table(cfg)
    write_sales_csv(filled, out_dir / "cleaned_sales.csv")
    summary = {
        "rows_read": result.rows_read,
        "rows_kept": len(result.table),
        "rows_after_fill": len(filled),
        "malformed_rows": [
            {"line": m.line, "reason": m.reason} for m in result.malformed[:100]
        ],
        "malformed_count": len(result.malformed),
        "imputed_per_series": {
            f"{s}|{i}": count for (s, i), count in sorted(gaps.imputed_per_series.items())
        },
        "total_imputed": gaps.total_imputed,
        "coverage": [filled.coverage[0].isoformat(), filled.coverage[1].isoformat()],
        "series_count": len(filled.series_index),
    }
    write_json(out_dir / "ingest_summary.json", summary)
    print(
        f"ingested {summary['rows_read']} rows -> {summary['rows_after_fill']} cleaned rows "
        f"({summary['total_imputed']} imputed, {summary['malformed_count']} malformed) "
        f"across {summary['series_count']} series"
    )
    return EXIT_OK


def _scenario_specs(cfg: RunConfig):
    overrides = {}
    if "gbdt" in cfg.model_overrides:
        overrides["gbdt_config"] = GbdtConfig(**cfg.model_overrides["gbdt"])
    if "svr" in cfg.model_overrides:
        overrides["svr_config"] = SvrConfig(**cfg.model_overrides["svr"])
    if "trend_seasonal" in cfg.model_overrides:
        overrides["trend_config"] = TrendSeasonalConfig(**cfg.model_overrides["trend_seasonal"])
    return [
        make_scenario(
            scenario_id,
            cfg.split(),
            granularity=Granularity(cfg.granularity),
            deviation_mode=DeviationMode(cfg.deviation_mode),
            models=tuple(cfg.models),
            arimax_mode=ForecastMode(cfg.arimax_forecast_mode),
            **overrides,
        )
        for scenario_id in cfg.scenarios
    ]


def cmd_evaluate(cfg: RunConfig) -> int:
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stage_times: dict[str, float] = {}

    started = time.perf_counter()
    _, table, _ = _load_clean_table(cfg)
    calendar = _calendar(cfg)
    stage_times["ingest"] = time.perf_counter() - started

    reports = []
    for spec in _scenario_specs(cfg):
        started = time.perf_counter()
        reports.append(run_scenario(table, spec, calendar, workers=cfg.workers))
        stage_times[f"scenario_{spec.id}"] = time.perf_counter() - started

    started = time.perf_counter()
    comparison = compare(reports)
    write_metrics_csv(out_dir / "metrics.csv", reports)
    write_runtimes_csv(out_dir / "runtimes.csv", reports)
    write_importance_csv(out_dir / "importance.csv", reports)
    for report in reports:
        for model, entry in report.entries.items():
            if entry.error is not None:
                continue
            name = slug(model, report.scenario.id)
            write_residuals_csv(out_dir / f"residuals_{name}.csv", entry)
            write_histogram_csv(out_dir / f"histogram_{name}.csv", entry)
            write_actual_vs_predicted_csv(out_dir / f"actual_vs_predicted_{name}.csv", entry)
            if cfg.save_models:
                write_json(
                    out_dir / f"models_{name}.json",
                    {f"{s}|{i}": doc for (s, i), doc in entry.artifacts.items()},
                )
    write_json(out_dir / "report.json", report_document(reports, comparison))
    stage_times["artifacts"] = time.perf_counter() - started

    manifest = {
        "package_version": __version__,
        "numpy_version": np.__version__,
        "config": cfg.to_dict(),
        "config_fingerprint": cfg.fingerprint(),
        "data_fingerprint": data_fingerprint(table),
        "data_file_sha256": file_sha256(cfg.data_path) if cfg.data_path else "bundled",
        "stage_seconds": stage_times,
        "outputs": sorted(p.name for p in out_dir.iterdir() if p.is_file()),
    }
    write_json(out_dir / "manifest.json", manifest)

    failed = [
        (report.scenario.id, model)
        for report in reports
        for model, entry in report.entries.items()
        if entry.error is not None
    ]
    total = sum(len(r.entries) for r in reports)
    print(comparison.to_text())
    if failed:
        print(f"failed models: {failed}", file=sys.stderr)
    if failed and len(failed) == total:
        _emit_error(EXIT_ALL_MODELS_FAILED, "every configured model failed")
        return EXIT_ALL_MODELS_FAILED
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    out_dir = Path(cfg.output_dir)
    report_path = out_dir / "report.json"
    if not report_path.exists():
        raise CliError(EXIT_INPUT, f"no evaluation artifacts in {out_dir}; run evaluate first")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    scenario_id = cfg.simulation_scenario()
    if scenario_id not in report["scenarios"]:
        raise CliError(EXIT_INPUT, f"evaluation lacks scenario {scenario_id}")
    scenario_doc = report["scenarios"][scenario_id]
    policy = cfg.policy()

    if "naive" not in scenario_doc["models"]:
        raise MissingForecastsError("simulation baseline requires the naive model in the evaluation")
    # A model that failed in evaluate has no forecasts to replay; the others
    # still do, so it is reported as skipped rather than failing the run.
    models, skipped = [], {}
    for model in cfg.models:
        if model == "naive":
            continue
        error = scenario_doc["models"].get(model, {}).get("error")
        if error is None:
            models.append(model)
        else:
            skipped[model] = error

    def outcomes_for(model: str):
        path = out_dir / f"residuals_{slug(model, scenario_id)}.csv"
        if not path.exists():
            raise MissingForecastsError(f"evaluation lacks forecasts for model {model!r}")
        per_series = read_residuals_csv(path)
        stds = scenario_doc["models"][model]["per_series_train_residual_std"]
        out = {}
        for key in sorted(per_series):
            bucket = per_series[key]
            sigma = stds.get(f"{key[0]}|{key[1]}", 0.0)
            out[key] = simulate(
                np.array(bucket["actual"]),
                np.array(bucket["predicted"]),
                policy,
                sigma_hat=sigma,
            )
        return out

    baseline_outcomes = outcomes_for("naive")
    baseline = pool_outcomes(list(baseline_outcomes.values()))
    write_ledger_csv(out_dir / f"ledger_naive_{scenario_id}.csv", baseline_outcomes)

    pooled = {}
    for model in models:
        per_series = outcomes_for(model)
        write_ledger_csv(out_dir / f"ledger_{slug(model, scenario_id)}.csv", per_series)
        pooled[model] = pool_outcomes(list(per_series.values()))

    table = impact_table(pooled, baseline, baseline_name="naive")
    write_impact_csv(out_dir / "impact_table.csv", table)
    impact_doc = {
        "scenario": scenario_id,
        "policy": cfg.simulation,
        "baseline": "naive",
        "baseline_rates": {
            "overstock_rate": baseline.overstock_rate,
            "stockout_rate": baseline.stockout_rate,
            "forecast_accuracy": baseline.forecast_accuracy,
            "cost_index": baseline.cost_index,
        },
        "models": {
            model: {
                "overstock_rate": o.overstock_rate,
                "stockout_rate": o.stockout_rate,
                "forecast_accuracy": o.forecast_accuracy,
                "cost_index": o.cost_index,
                "negative_forecast_days": o.negative_forecast_days,
            }
            for model, o in pooled.items()
        },
        "skipped": skipped,
    }
    write_json(out_dir / "impact.json", impact_doc)
    print(table.to_text())
    if skipped:
        print(f"skipped models that failed in evaluate: {sorted(skipped)}", file=sys.stderr)
    return EXIT_OK


def _render_report(out_dir: Path) -> str:
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    comparison = report["comparison"]
    lines = ["# Demand forecasting backtest report", ""]
    scenarios = comparison["scenarios"]
    lines.append("## Model comparison (pooled test-window MAE)")
    lines.append("")
    header = "| model | " + " | ".join(f"{s} MAE" for s in scenarios)
    if len(scenarios) > 1:
        header += " | improvement % |"
    else:
        header += " |"
    lines.append(header)
    lines.append("|" + "---|" * (len(scenarios) + 1 + (1 if len(scenarios) > 1 else 0)))
    for model in comparison["models"]:
        cells = [model]
        for s in scenarios:
            v = comparison["mae"].get(f"{model}|{s}")
            cells.append(f"{v:.4f}" if v is not None else "-")
        if len(scenarios) > 1:
            imp = comparison["improvement_pct"].get(model)
            cells.append(f"{imp:.1f}" if imp is not None else "-")
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    for metric in ("mae", "rmse", "r2"):
        for s in scenarios:
            best = comparison["best_by_metric"].get(f"{metric}|{s}")
            if best:
                lines.append(f"- best {metric.upper()} in {s}: {best}")
    lines.append("")

    for s in scenarios:
        doc = report["scenarios"][s]
        gbdt = doc["models"].get("gbdt")
        if gbdt and gbdt.get("importance"):
            lines.append(f"## Feature importance ({s}, tree model, gain share)")
            lines.append("")
            for rank, (feature, gain) in enumerate(gbdt["importance"], start=1):
                lines.append(f"{rank}. {feature}: {gain:.4f}")
            lines.append("")

    modes = {
        f"{model}@{s}": doc["models"][model]["forecast_mode"]
        for s in scenarios
        for doc in [report["scenarios"][s]]
        for model in doc["models"]
    }
    lines.append("## Forecast modes")
    lines.append("")
    for key in sorted(modes):
        lines.append(f"- {key}: {modes[key]}")
    lines.append("")

    impact_path = out_dir / "impact.json"
    lines.append("## Inventory impact")
    lines.append("")
    if impact_path.exists():
        impact = json.loads(impact_path.read_text(encoding="utf-8"))
        base = impact["baseline_rates"]
        lines.append(
            f"Baseline (naive, scenario {impact['scenario']}): "
            f"overstock {base['overstock_rate']:.3f}, stockout {base['stockout_rate']:.3f}, "
            f"accuracy {base['forecast_accuracy']:.1f}%, cost index {base['cost_index']:.1f}"
        )
        lines.append("")
        lines.append("| model | overstock | stockout | accuracy % | cost index |")
        lines.append("|---|---|---|---|---|")
        for model, rates in impact["models"].items():
            lines.append(
                f"| {model} | {rates['overstock_rate']:.3f} | {rates['stockout_rate']:.3f} "
                f"| {rates['forecast_accuracy']:.1f} | {rates['cost_index']:.1f} |"
            )
    else:
        lines.append("Simulation section absent (no impact.json in the output directory).")
    lines.append("")
    lines.append("## Figure data files")
    lines.append("")
    for pattern in (
        "metrics.csv",
        "runtimes.csv",
        "importance.csv",
        "residuals_<model>_<scenario>.csv",
        "histogram_<model>_<scenario>.csv",
        "actual_vs_predicted_<model>_<scenario>.csv",
    ):
        lines.append(f"- {pattern}")
    lines.append("")
    return "\n".join(lines)


def cmd_report(cfg: RunConfig) -> int:
    out_dir = Path(cfg.output_dir)
    if not (out_dir / "report.json").exists():
        raise CliError(EXIT_INPUT, f"no evaluation artifacts in {out_dir}; run evaluate first")
    text = _render_report(out_dir)
    (out_dir / "report.md").write_text(text, encoding="utf-8")
    print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demandcast",
        description="Daily demand forecasting backtests and inventory impact simulation",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("ingest", "parse, order, and gap-fill the sales CSV; export the cleaned table"),
        ("evaluate", "run the configured scenarios and write metric artifacts"),
        ("simulate", "replay replenishment on evaluation forecasts"),
        ("report", "render the consolidated text report from artifacts"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to the JSON run configuration")
        p.add_argument("--data", help="sales CSV path (default: bundled sample)")
        p.add_argument("--out", help="output directory (default: out)")
        p.add_argument(
            "--granularity", choices=[g.value for g in Granularity], help="modeling granularity"
        )
        p.add_argument(
            "--deviation-mode",
            dest="deviation_mode",
            choices=[m.value for m in DeviationMode],
            help="deviation-flag construction mode",
        )
        p.add_argument("--workers", type=int, help="parallel workers for per-series fits")
    return parser


_COMMANDS = {
    "ingest": cmd_ingest,
    "evaluate": cmd_evaluate,
    "simulate": cmd_simulate,
    "report": cmd_report,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        _emit_error(EXIT_CONFIG, str(exc))
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg)
    except CliError as exc:
        _emit_error(exc.exit_code, str(exc))
        return exc.exit_code
    except (FileNotFoundError, DemandcastError) as exc:
        _emit_error(EXIT_INPUT, str(exc))
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
