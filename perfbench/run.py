"""Backtest benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload bundled-paper --seed 1 --seconds 36 --trace 0

Run from a checkout; the program is the checkout's own ``src``.  The run
generates the workload's inputs from the seed, then repeats closed-loop
rounds of the four ``demandcast`` commands (ingest, evaluate, simulate,
report), each a fresh process as a user launches it, until ``--seconds``
have passed; every round is whole.  After each round the output checks in
``checks.py`` run against values computed apart from the program.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (medians over rounds); with ``--trace 1`` one round
runs in-process under ``tracing.py`` and the object holds the per-layer
metrics.  Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import gen
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
COMMANDS = ("ingest", "evaluate", "simulate", "report")
# On a shared 2-vCPU host the CPU's throughput swings by a quarter in spells
# of several seconds, so a command timed once varies by 10-30% between runs.
# A metric therefore samples as much of the run as it can.  A round opens
# with a phase of no-op launches (for setup_s) and ingest, runs evaluate,
# then a phase of simulate, no-op launches and ingest (which rewrite the
# same files), then report.  A phase repeats its cycle for the seconds
# SHORT_PHASES_S gives it and runs it at least once; a command's repeats
# in a round count as one operation, which fails if any launch fails.
# Each phase contributes the median of its launches, and the metric is the
# median of those over the run, so every phase weighs the same however many
# launches it holds.  wide-catalog repeats whole rounds.  bundled-paper fits
# one round, most of it evaluate, so its short commands are timed in phases
# of seconds, the longer one after evaluate, where simulate can run.
SHORT_PHASES_S = {"bundled-paper": (2.5, 5.0), "wide-catalog": (0.0, 0.0)}
# A new round starts only if a round as long as the last one would end less
# than half a round past --seconds, and before this, which keeps a run
# inside the 180 s a run may take.  A run always has one round.
ROUND_DEADLINE_S = 150.0
# metrics.csv of the paper's run (bundled-paper) at the commit that added
# this benchmark.  A change that moves it must say so; the run reports
# whether it still matches but does not fail on it.
BUNDLED_METRICS_SHA256 = "30a5537d326d8e466a3cff7ef93cfdfda0627c90f1e2f878b7d4502c45e71d1a"


@dataclass
class Launch:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: Path


def launch(argv: list[str], env: dict, cwd: Path, log: str) -> Launch:
    """Run ``demandcast`` in a new process; wall time, CPU and peak RSS of its tree."""
    out_path, err_path = cwd / f"{log}.out", cwd / f"{log}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "demandcast.cli", *argv], stdout=out, stderr=err, env=env, cwd=cwd
        )
        # wait4 reports the child together with every worker it waited for:
        # ru_maxrss is the largest of them (KiB on Linux).
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stderr=err_path,
    )


def error_message(stderr: Path) -> str:
    """The message of the JSON error document a failed command prints last."""
    for line in reversed(stderr.read_text(encoding="utf-8", errors="replace").splitlines()):
        if line.startswith('{"error"'):
            return json.loads(line)["error"]["message"]
    return "no error document"


def operations(codes: dict[str, int], messages: dict[str, str], entries, out_dir: Path):
    """(attempted, failures): the four commands plus every (model, scenario) entry.

    Outcomes are observed, never assumed: a command fails when it exits
    non-zero, an entry when metrics.csv records an error for it or has no row.
    """
    failures = [f"{cmd} (exit {code}): {messages[cmd]}" for cmd, code in codes.items() if code]
    rows = {(r["model"], r["scenario"]): r for r in checks.metrics_rows(out_dir)}
    for model, scenario in entries:
        row = rows.get((model, scenario))
        if row is None:
            failures.append(f"evaluate {model}/{scenario}: no row in metrics.csv")
        elif row["error"]:
            failures.append(f"evaluate {model}/{scenario}: {row['error']}")
    return len(codes) + len(entries), failures


def output_problems(out_dir: Path, inputs, cfg) -> list[str]:
    problems = (
        checks.check_ingest_summary(out_dir, inputs.expected)
        + checks.check_pooled_metrics(out_dir)
        + checks.check_naive_forecasts(
            out_dir,
            checks.own_training_weeks(inputs.series, cfg.split().train_end),
        )
        + checks.check_ledgers(out_dir)
        + checks.check_importance(out_dir)
    )
    if inputs.workload == "bundled-paper":
        problems += checks.check_beats_naive(out_dir)
    return problems


def metrics_digest_problem(workload: str, seed: int, digest: str) -> str | None:
    """metrics.csv must be byte-identical across all runs of a workload and seed."""
    record = WORK / "metrics-sha256" / f"{workload}-seed{seed}"
    if record.exists():
        before = record.read_text(encoding="utf-8").strip()
        if before != digest:
            return f"metrics.csv sha256 {digest} differs from an earlier run's {before}"
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(digest + "\n", encoding="utf-8")
    return None


def timed_rounds(args, work: Path, config_path: Path, env: dict, inputs, cfg, entries):
    launch(["--version"], env, work, "warmup")  # first import may compile bytecode
    before_s, after_s = SHORT_PHASES_S[args.workload]
    rounds = []
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        out_dir = Path(cfg.output_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        phases: dict[str, list[float]] = {cmd: [] for cmd in ("setup", *COMMANDS)}
        codes = dict.fromkeys(COMMANDS, 0)
        messages: dict[str, str] = {}

        def phase(commands: tuple[str, ...], seconds: float) -> Launch:
            walls: dict[str, list[float]] = {cmd: [] for cmd in commands}
            phase_started = time.perf_counter()
            while not walls[commands[0]] or time.perf_counter() - phase_started < seconds:
                for cmd in commands:
                    argv = ["--version"] if cmd == "setup" else [cmd, "--config", str(config_path)]
                    done = launch(argv, env, work, cmd)
                    walls[cmd].append(done.wall_s)
                    if cmd in codes and done.code and not codes[cmd]:
                        codes[cmd], messages[cmd] = done.code, error_message(done.stderr)
            for cmd, w in walls.items():
                phases[cmd].append(statistics.median(w))
            return done

        phase(("setup", "ingest"), before_s)
        evaluate = phase(("evaluate",), 0.0)
        phase(("simulate", "setup", "ingest"), after_s)
        phase(("report",), 0.0)
        rounds.append(finish_round(out_dir, inputs, cfg, entries, codes, messages))
        fits = checks.fitted_series(out_dir)
        rounds[-1]["metrics"] = {
            "setup_s": phases["setup"],
            "ingest_s": phases["ingest"],
            "evaluate_s": [evaluate.wall_s],
            "evaluate_cpu_s": [evaluate.cpu_s],
            "fits_per_s": [fits / evaluate.wall_s],
            "simulate_s": phases["simulate"],
            "evaluate_peak_rss_mb": [evaluate.peak_rss_mb],
        }
        print(
            f"round {len(rounds)}: "
            + ", ".join(f"{cmd} " + " / ".join(f"{v:.3f}" for v in medians) + " s" for cmd, medians in phases.items())
            + f"; evaluate cpu {evaluate.cpu_s:.2f} s, peak rss {evaluate.peak_rss_mb:.1f} MB, {fits} fits"
        )
        now = time.perf_counter()
        elapsed, last = now - started, now - round_started
        if elapsed + last / 2 > args.seconds or elapsed + last > ROUND_DEADLINE_S:
            return rounds


def finish_round(out_dir: Path, inputs, cfg, entries, codes, messages) -> dict:
    attempted, failures = operations(codes, messages, entries, out_dir)
    metrics_csv = out_dir / "metrics.csv"
    digest = hashlib.sha256(metrics_csv.read_bytes()).hexdigest() if metrics_csv.exists() else ""
    return {
        "attempted": attempted,
        "failures": failures,
        "problems": output_problems(out_dir, inputs, cfg),
        "digest": digest,
    }


def traced_round(work: Path, config_path: Path, inputs, cfg, entries) -> dict:
    per_span = tracing.span_cost()
    codes, spans = tracing.run_commands(config_path, work, COMMANDS)
    messages = {cmd: error_message(work / f"{cmd}.err") for cmd, code in codes.items() if code}
    result = finish_round(Path(cfg.output_dir), inputs, cfg, entries, codes, messages)
    trace_dir = work / "trace"
    trace_dir.mkdir(exist_ok=True)
    tracing.write_spans(trace_dir / "spans.jsonl", spans)
    layers = tracing.layer_metrics(spans, cfg.workers, per_span)
    runs = {s["name"]: s["end"] - s["start"] for s in spans if s["name"].startswith("cli.")}
    print("traced: " + ", ".join(f"{name} {secs:.3f} s" for name, secs in runs.items()))
    print(f"spans written to {trace_dir / 'spans.jsonl'} ({len(spans)} spans)")
    result["metrics"] = {name: [value] for name, value in layers.items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="demandcast backtest benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "demandcast" / "cli.py").is_file():
        print(f"no demandcast source under {SRC}: run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    import demandcast

    if not Path(demandcast.__file__).resolve().is_relative_to(SRC):
        print(f"demandcast imported from {demandcast.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from demandcast.config import RunConfig

    if args.workload not in gen.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(gen.WORKLOADS)}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = gen.generate(args.workload, args.seed, work / "inputs")
    config_path = work / "run.json"
    config_path.write_text(
        json.dumps({**inputs.config, "output_dir": str(work / "out")}, indent=1), encoding="utf-8"
    )
    cfg = RunConfig.from_file(config_path)
    entries = [(m, s) for s in cfg.scenarios for m in cfg.models]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    if args.trace:
        rounds = [traced_round(work, config_path, inputs, cfg, entries)]
    else:
        rounds = timed_rounds(args, work, config_path, env, inputs, cfg, entries)

    problems = [p for r in rounds for p in r["problems"]]
    if args.workload == "bundled-paper":
        same = rounds[0]["digest"] == BUNDLED_METRICS_SHA256
        print(f"metrics.csv sha256 {'matches' if same else 'differs from'} the reference {BUNDLED_METRICS_SHA256}")
    if len({r["digest"] for r in rounds}) > 1:
        problems.append("metrics.csv differs between rounds of this run")
    digest_problem = rounds[0]["digest"] and metrics_digest_problem(
        args.workload, args.seed, rounds[0]["digest"]
    )
    if digest_problem:
        problems.append(digest_problem)
    failures: dict[str, int] = {}
    for r in rounds:
        for failure in r["failures"]:
            failures[failure] = failures.get(failure, 0) + 1
    for failure, times in failures.items():
        print(f"FAILED in {times} of {len(rounds)} rounds: {failure}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    names = rounds[0]["metrics"].keys()
    if set(names) != set(units):
        print(f"metrics {sorted(names)} do not match BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 1
    metrics = {
        name: {"value": statistics.median([v for r in rounds for v in r["metrics"][name]]), "unit": units[name]}
        for name in units
    }
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(len(r["failures"]) for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
