"""Command-line surface: ingest, evaluate, simulate, report.

Exit codes: 0 success, 2 configuration error, 3 input error, 4 every model
failed.  Fatal errors also emit a machine-readable JSON document on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .artifacts import (
    read_residuals_csv,
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
    write_sales_csv,
)
from .config import ConfigError, RunConfig, bundled_sample_stream, file_sha256
from .data import Granularity, fill_gaps, parse_sales_csv, sort_chronological
from .errors import DemandcastError, MissingForecastsError
from .evaluate import HISTOGRAM_BINS, compare, data_fingerprint, error_histogram, run_scenario
from .features import DeviationMode, HolidayCalendar
from .inventory import IMPACT_METRICS, impact_table, pool_outcomes, simulate

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_ALL_MODELS_FAILED = 4

_ERROR_CODES = {EXIT_CONFIG: "E_CONFIG", EXIT_INPUT: "E_INPUT", EXIT_ALL_MODELS_FAILED: "E_ALL_MODELS_FAILED"}


def _emit_error(exit_code: int, message: str) -> None:
    doc = {"error": {"code": _ERROR_CODES.get(exit_code, "E_UNKNOWN"), "message": message}}
    print(json.dumps(doc), file=sys.stderr)


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    flags = {
        "data_path": args.data,
        "output_dir": args.out,
        "granularity": args.granularity,
        "deviation_mode": args.deviation_mode,
        "workers": args.workers,
    }
    cfg = dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    cfg.validate()
    return cfg


def _load_clean_table(cfg: RunConfig):
    """Parse, order, and gap-fill the configured dataset."""
    schema = cfg.schema or None
    if cfg.data_path is None:
        with bundled_sample_stream() as stream:
            result = parse_sales_csv(stream, schema=schema)
    else:
        result = parse_sales_csv(cfg.data_path, schema=schema)
    table = sort_chronological(result.table)
    filled, gaps = fill_gaps(table)
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


def cmd_evaluate(cfg: RunConfig) -> int:
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stage_times: dict[str, float] = {}

    started = time.perf_counter()
    _, table, _ = _load_clean_table(cfg)
    calendar = _calendar(cfg)
    stage_times["ingest"] = time.perf_counter() - started

    reports = []
    for spec in cfg.scenario_specs():
        started = time.perf_counter()
        reports.append(
            run_scenario(table, spec, calendar, workers=cfg.workers, save_models=cfg.save_models)
        )
        stage_times[f"scenario_{spec.id}"] = time.perf_counter() - started

    started = time.perf_counter()
    comparison = compare(reports)
    write_metrics_csv(out_dir / "metrics.csv", reports)
    write_runtimes_csv(out_dir / "runtimes.csv", reports)
    write_importance_csv(out_dir / "importance.csv", reports)
    for report in reports:
        test = report.test
        for model, predictions in report.predictions.items():
            name = slug(model, report.doc["id"])
            write_residuals_csv(out_dir / f"residuals_{name}.csv", test, predictions)
            write_histogram_csv(
                out_dir / f"histogram_{name}.csv",
                error_histogram(test.target - predictions, HISTOGRAM_BINS),
            )
            write_actual_vs_predicted_csv(out_dir / f"actual_vs_predicted_{name}.csv", test, predictions)
            if cfg.save_models:
                write_json(out_dir / f"models_{name}.json", report.model_documents[model])
    scenarios = {report.doc["id"]: report.doc for report in reports}
    write_json(out_dir / "report.json", {"scenarios": scenarios, "comparison": comparison})
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
        (doc["id"], model)
        for doc in scenarios.values()
        for model, entry in doc["models"].items()
        if entry["error"] is not None
    ]
    total = sum(len(doc["models"]) for doc in scenarios.values())
    print("\n".join(_comparison_section(comparison)))
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
        raise MissingForecastsError(f"no evaluation artifacts in {out_dir}; run evaluate first")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    scenario_id = cfg.simulation_scenario()
    if scenario_id not in report["scenarios"]:
        raise MissingForecastsError(f"evaluation lacks scenario {scenario_id}")
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
        # Checked before any file is read: a residual file left by an earlier
        # evaluate in the same directory does not make the model evaluated.
        if model not in scenario_doc["models"]:
            raise MissingForecastsError(f"evaluation lacks forecasts for model {model!r}")
        error = scenario_doc["models"][model]["error"]
        if error is None:
            models.append(model)
        else:
            skipped[model] = error

    def replay(model: str):
        """Replay all of the model's series at once, write its ledger and pool it."""
        path = out_dir / f"residuals_{slug(model, scenario_id)}.csv"
        if not path.exists():
            raise MissingForecastsError(f"evaluation lacks forecasts for model {model!r}")
        stds = scenario_doc["models"][model]["per_series_train_residual_std"]
        series = read_residuals_csv(path)
        outcome = simulate(
            [actual for actual, _ in series.values()],
            [predicted for _, predicted in series.values()],
            policy,
            [stds.get(f"{store}|{item}", 0.0) for store, item in series],
        )
        write_ledger_csv(out_dir / f"ledger_{slug(model, scenario_id)}.csv", list(series), outcome)
        rates = pool_outcomes(outcome)
        if clamped := rates["negative_forecast_days"]:
            logger.warning("%s: clamped %d negative forecast values to zero", model, clamped)
        return rates

    baseline = replay("naive")
    pooled = {model: replay(model) for model in models}

    rows = impact_table(pooled, baseline)
    write_impact_csv(out_dir / "impact_table.csv", rows)
    impact_doc = {
        "scenario": scenario_id,
        "policy": cfg.simulation,
        "baseline": "naive",
        "baseline_rates": {name: baseline[name] for name, _ in IMPACT_METRICS},
        "models": pooled,
        "skipped": skipped,
    }
    write_json(out_dir / "impact.json", impact_doc)
    print("\n".join(_impact_section(rows)))
    if skipped:
        print(f"skipped models that failed in evaluate: {sorted(skipped)}", file=sys.stderr)
    return EXIT_OK


def _comparison_section(comparison: dict) -> list[str]:
    """The lines of report.md's model comparison, which evaluate also prints.

    ``comparison`` is the "comparison" entry of report.json.
    """
    scenarios = comparison["scenarios"]
    lines = ["## Model comparison (pooled test-window MAE)", ""]
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
    return lines


def _impact_section(rows: list[list]) -> list[str]:
    """The lines simulate prints: each model's impact_table rows against naive."""
    lines, last_model = [], None
    for model, metric, before, after, change, direction in rows:
        if model != last_model:
            lines.append(f"{model} vs naive:")
            last_model = model
        lines.append(
            f"  {metric:>18}: {before:10.4f} -> {after:10.4f}  ({change:6.1f}% {direction})"
        )
    return lines


def _render_report(out_dir: Path) -> str:
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    scenarios = report["comparison"]["scenarios"]
    lines = ["# Demand forecasting backtest report", ""]
    lines += [*_comparison_section(report["comparison"]), ""]
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
        raise MissingForecastsError(f"no evaluation artifacts in {out_dir}; run evaluate first")
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
    except (FileNotFoundError, IsADirectoryError, DemandcastError) as exc:
        _emit_error(EXIT_INPUT, str(exc))
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
