"""Traced run: the four commands in-process, with spans around each layer.

The run calls ``demandcast.cli.main`` for ingest, evaluate, simulate and
report, as the timed runs launch them, after replacing each layer's public
functions in the module namespace that calls them with a wrapper that
records a span.  Nothing in the program changes; the wrappers are removed
when the run ends.

A span records a name, a start, an end, its parent and the run id that all
spans of the run share.  Spans stay in memory.  Pool workers are forked
from this process, so they inherit the wrappers and the span open at fork
time as their parent; each worker writes its spans to a file when it exits,
and the run merges them before writing ``spans.jsonl``.  On workloads that
evaluate at ``workers=1`` every per-series fit, predict and in-sample call
runs serially in this process.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import logging
import os
import statistics
import time
import uuid
from multiprocessing import util as mp_util
from pathlib import Path

MODELS = ("gbdt", "svr", "arimax", "trend_seasonal", "naive")

# (module, attribute, span name).  Each attribute is replaced where the
# program looks it up, so the span covers exactly the call into the layer.
LAYER_CALLS = (
    ("demandcast.cli", "parse_sales_csv", "data.parse"),
    ("demandcast.cli", "sort_chronological", "data.sort"),
    ("demandcast.cli", "fill_gaps", "data.fill"),
    ("demandcast.cli", "write_sales_csv", "data.export"),
    ("demandcast.evaluate", "aggregate", "data.aggregate"),
    ("demandcast.evaluate", "build_train_test_matrices", "features.build"),
    ("demandcast.cli", "run_scenario", "evaluate.scenario"),
    ("demandcast.evaluate", "fit_gbdt", "gbdt.fit"),
    ("demandcast.evaluate", "predict_gbdt", "gbdt.predict"),
    ("demandcast.evaluate", "fit_svr", "svr.fit"),
    ("demandcast.evaluate", "predict_svr", "svr.predict"),
    ("demandcast.evaluate", "fit_arimax", "arimax.fit"),
    ("demandcast.evaluate", "forecast_arimax", "arimax.forecast"),
    ("demandcast.evaluate", "in_sample_predictions", "arimax.in_sample"),
    ("demandcast.evaluate", "fit_trend_seasonal", "trend_seasonal.fit"),
    ("demandcast.evaluate", "forecast_trend_seasonal", "trend_seasonal.forecast"),
    ("demandcast.evaluate", "seasonal_naive_forecast", "naive.forecast"),
    ("demandcast.evaluate", "seasonal_naive_insample", "naive.in_sample"),
    ("demandcast.cli", "write_metrics_csv", "artifacts.write"),
    ("demandcast.cli", "write_runtimes_csv", "artifacts.write"),
    ("demandcast.cli", "write_importance_csv", "artifacts.write"),
    ("demandcast.cli", "write_residuals_csv", "artifacts.write"),
    ("demandcast.cli", "write_histogram_csv", "artifacts.write"),
    ("demandcast.cli", "write_actual_vs_predicted_csv", "artifacts.write"),
    ("demandcast.cli", "write_json", "artifacts.write"),
    ("demandcast.cli", "write_ledger_csv", "artifacts.write"),
    ("demandcast.cli", "write_impact_csv", "artifacts.write"),
    ("demandcast.cli", "read_residuals_csv", "artifacts.read"),
    ("demandcast.cli", "simulate", "inventory.simulate"),
    ("demandcast.cli", "pool_outcomes", "inventory.pool"),
    ("demandcast.cli", "impact_table", "inventory.impact"),
)

# One span per (model, scenario, series) task.
TASK_SPANS = ("gbdt.fit", "svr.fit", "arimax.fit", "trend_seasonal.fit", "naive.forecast")
MODEL_SPANS = frozenset(name for _, _, name in LAYER_CALLS if name.split(".")[0] in MODELS)


def _attrs(name: str, result, args, kwargs) -> dict:
    """Counts taken from a layer call's result, by span name."""
    if name == "data.parse":
        return {"rows_read": result.rows_read, "rows_malformed": len(result.malformed)}
    if name == "data.fill":
        return {"rows_imputed": result[1].total_imputed}
    if name == "features.build":
        train, test = result
        return {"train_rows": len(train), "test_rows": len(test)}
    if name == "gbdt.fit":
        return {"tree_nodes": sum(len(tree.feature) for tree in result.trees)}
    if name == "svr.fit":
        return {
            "sweeps": result.sweeps,
            "unconverged": int(not result.converged),
            "support_vectors": len(result.support_indices),
        }
    if name == "inventory.simulate":
        return {"series_days": result.days, "clamped_days": result.negative_forecast_days}
    if name == "artifacts.write":  # every writer takes the path first
        return {"bytes": os.path.getsize(args[0])}
    if name == "data.export":
        return {"bytes": os.path.getsize(args[1])}
    return {}


class Tracer:
    """In-memory span recorder for one run; pool workers write theirs on exit."""

    def __init__(self, run_id: str, worker_dir: Path | None):
        self.run_id = run_id
        self.worker_dir = worker_dir
        self.spans: list[dict] = []
        self.context: dict[str, str] = {}
        self._stack: list[str] = []
        self._claim_process()

    def _claim_process(self) -> None:
        self._pid = os.getpid()
        self._token = f"{self._pid}.{time.monotonic_ns()}"
        self._count = 0

    def _check_fork(self) -> None:
        # A forked pool worker starts from a copy of this object: it keeps the
        # span open at fork time as its parent and records only its own spans.
        if os.getpid() == self._pid:
            return
        self._claim_process()
        self.spans = []
        self._stack = self._stack[-1:]
        if self.worker_dir is not None:
            mp_util.Finalize(None, self._write_worker_spans, exitpriority=10)

    def _write_worker_spans(self) -> None:
        path = self.worker_dir / f"worker-{self._token}.json"
        path.write_text(json.dumps(self.spans), encoding="utf-8")

    @contextlib.contextmanager
    def span(self, name: str):
        self._check_fork()
        self._count += 1
        record = {
            "run": self.run_id,
            "id": f"{self._token}.{self._count}",
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "pid": self._pid,
            **self.context,
        }
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        except Exception as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            record.update(_attrs(name, result, args, kwargs))
            return result

        return traced


@contextlib.contextmanager
def _layer_spans(tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name in LAYER_CALLS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            wrapped = tracer.wrap(original, name)
            if name == "evaluate.scenario":
                wrapped = _with_scenario(tracer, wrapped)
            setattr(module, attr, wrapped)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _with_scenario(tracer: Tracer, run_scenario):
    @functools.wraps(run_scenario)
    def traced(table, spec, *args, **kwargs):
        tracer.context["scenario"] = spec.id
        try:
            return run_scenario(table, spec, *args, **kwargs)
        finally:
            tracer.context.pop("scenario", None)

    return traced


def span_cost(n: int = 20000) -> float:
    """Seconds one traced call adds over the same call untraced."""
    probe = Tracer("probe", None)

    def noop():
        return None

    traced = probe.wrap(noop, "probe")
    started = time.perf_counter()
    for _ in range(n):
        noop()
    plain = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(n):
        traced()
    return max(0.0, (time.perf_counter() - started - plain) / n)


def run_commands(config_path: Path, work: Path, commands) -> tuple[dict[str, int], list[dict]]:
    """Run each CLI command in-process under tracing; return exit codes and spans."""
    from demandcast import cli

    worker_dir = work / "trace-workers"
    worker_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(uuid.uuid4().hex, worker_dir)
    # The program's log goes to one file; cli.main then leaves logging alone,
    # so its handler does not keep the first command's redirected stderr.
    logging.basicConfig(filename=work / "trace.log", level=logging.INFO)
    codes = {}
    with _layer_spans(tracer), tracer.span("trace.run"):
        for command in commands:
            with open(work / f"{command}.out", "w", encoding="utf-8") as out, open(
                work / f"{command}.err", "w", encoding="utf-8"
            ) as err, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with tracer.span(f"cli.{command}"):
                    codes[command] = cli.main([command, "--config", str(config_path)])
    spans = list(tracer.spans)
    for path in sorted(worker_dir.glob("worker-*.json")):
        spans.extend(json.loads(path.read_text(encoding="utf-8")))
    return codes, spans


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus the part of its interval its child spans cover."""
    covered = _covered(span["start"], span["end"], [(c["start"], c["end"]) for c in children])
    return _duration(span) - covered


def tail(values: list[float]) -> float:
    """Highest value with at least ten samples above it.

    Below forty samples that percentile would be no tail; the maximum is
    reported instead, and 0 when the layer did not run.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 40 else ordered[-1]


def layer_metrics(spans: list[dict], workers: int, per_span_s: float) -> dict[str, float]:
    by_name: dict[str, list[dict]] = {}
    children: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
        children.setdefault(span["parent"], []).append(span)

    def total(*names: str, scenario: str | None = None) -> float:
        return sum(
            _duration(s)
            for name in names
            for s in by_name.get(name, [])
            if scenario is None or s.get("scenario") == scenario
        )

    def count(name: str, attr: str) -> int:
        return sum(s.get(attr, 0) for s in by_name.get(name, []))

    def last(name: str, attr: str) -> int:
        found = by_name.get(name, [])
        return found[-1].get(attr, 0) if found else 0

    def fits(name: str) -> list[float]:
        return [_duration(s) for s in by_name.get(name, [])]

    scenarios = by_name.get("evaluate.scenario", [])
    scenario_wall = sum(_duration(s) for s in scenarios)
    model_time = sum(_duration(s) for s in spans if s["name"] in MODEL_SPANS)

    out = {
        "data.parse_s": total("data.parse"),
        "data.sort_s": total("data.sort"),
        "data.fill_s": total("data.fill"),
        "data.aggregate_s": total("data.aggregate"),
        "data.export_s": total("data.export"),
        "data.rows_read": last("data.parse", "rows_read"),
        "data.rows_malformed": last("data.parse", "rows_malformed"),
        "data.rows_imputed": last("data.fill", "rows_imputed"),
        "features.s1_s": total("features.build", scenario="S1"),
        "features.s2_s": total("features.build", scenario="S2"),
        "features.train_rows": count("features.build", "train_rows"),
        "features.test_rows": count("features.build", "test_rows"),
    }
    for model in ("gbdt", "svr", "trend_seasonal"):
        out[f"{model}.fit_s"] = total(f"{model}.fit")
        out[f"{model}.fit_s_p50"] = statistics.median(fits(f"{model}.fit") or [0.0])
        out[f"{model}.fit_s_tail"] = tail(fits(f"{model}.fit"))
    out["gbdt.predict_s"] = total("gbdt.predict")
    out["gbdt.tree_nodes"] = count("gbdt.fit", "tree_nodes")
    out["svr.predict_s"] = total("svr.predict")
    for attr in ("sweeps", "unconverged", "support_vectors"):
        out[f"svr.{attr}"] = count("svr.fit", attr)
    out["arimax.fit_s"] = total("arimax.fit")
    out["arimax.forecast_s"] = total("arimax.forecast", "arimax.in_sample")
    out["arimax.failed_fits"] = sum(1 for s in by_name.get("arimax.fit", []) if "error" in s)
    out["trend_seasonal.forecast_s"] = total("trend_seasonal.forecast")
    out["naive.forecast_s"] = total("naive.forecast", "naive.in_sample")
    out["evaluate.scenario_s1_s"] = total("evaluate.scenario", scenario="S1")
    out["evaluate.scenario_s2_s"] = total("evaluate.scenario", scenario="S2")
    out["evaluate.tasks"] = sum(len(by_name.get(name, [])) for name in TASK_SPANS)
    out["evaluate.parallel_efficiency"] = (
        model_time / (workers * scenario_wall) if scenario_wall else 0.0
    )
    out["evaluate.self_s"] = sum(self_time(s, children.get(s["id"], [])) for s in scenarios)
    out["artifacts.write_s"] = total("artifacts.write")
    out["artifacts.read_s"] = total("artifacts.read")
    out["artifacts.bytes"] = count("artifacts.write", "bytes")
    out["inventory.simulate_s"] = total("inventory.simulate")
    out["inventory.series_days"] = count("inventory.simulate", "series_days")
    out["inventory.clamped_days"] = count("inventory.simulate", "clamped_days")
    out["trace.spans"] = len(spans)
    out["trace.overhead_s"] = per_span_s * len(spans)
    return out


def write_spans(path: Path, spans: list[dict]) -> None:
    children: dict[str, list[dict]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    with open(path, "w", encoding="utf-8") as fh:
        for span in sorted(spans, key=lambda s: s["start"]):
            doc = dict(span, self_s=self_time(span, children.get(span["id"], [])))
            fh.write(json.dumps(doc) + "\n")
