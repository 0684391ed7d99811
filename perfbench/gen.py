"""Seeded inputs for the benchmark workloads.

    python3 perfbench/gen.py --workload wide-catalog --seed 7 --out DIR

writes the file the program reads (the sales CSV) plus ``record.json``, the
generator's own account of the rows it wrote, dropped and corrupted.  The
output checks compare the program's ingest counts and forecasts against
this record and against the generator's own copy of the data, never
against the program's.

The same seed gives byte-identical files.  bundled-paper reads the sample
that ships with the package, so its inputs do not depend on the seed.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BUNDLED_SAMPLE = ROOT / "src" / "demandcast" / "assets" / "sample_sales.csv"

# wide-catalog: 150 short series in shuffled row order, with a few
# interior days missing and a few lines corrupted.
WIDE_STORES, WIDE_ITEMS = 10, 15
WIDE_START, WIDE_END = dt.date(2016, 1, 1), dt.date(2017, 12, 31)
WIDE_DROP_FRACTION = 0.02  # of interior days per series
WIDE_CORRUPT_FRACTION = 0.003  # of interior lines; the program aborts above 1%

# One way of breaking a line per malformed-row reason the parser reports.
CORRUPTIONS = (
    lambda f: [f[0][:4] + "-13-45", f[1], f[2], f[3]],  # unparseable date
    lambda f: [f[0], "", f[2], f[3]],  # empty store id
    lambda f: [f[0], f[1], f[2], "n/a"],  # unparseable quantity
    lambda f: [f[0], f[1], f[2], str(-1 - int(f[3]))],  # negative quantity
    lambda f: f[:3],  # too few fields
)

# Config keys each workload sets on top of the program's defaults.
WORKLOAD_CONFIG = {
    "bundled-paper": {"workers": 2},
    "wide-catalog": {"models": ["arimax", "trend_seasonal", "naive"], "workers": 1},
}
WORKLOADS = tuple(WORKLOAD_CONFIG)


@dataclass
class Inputs:
    """What one workload run hands the program, and what the checks expect."""

    workload: str
    config: dict  # run configuration, output_dir excepted
    expected: dict  # rows_read, malformed, imputed as the generator wrote them
    # The generator's own copy: per (store, item), the dates and quantities of
    # the lines that reached the program intact, in date order.
    series: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = field(repr=False)
    record: dict = field(repr=False)


def _read_plain_csv(path: Path) -> dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]:
    buckets: dict[tuple[str, str], list[tuple[int, float]]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for date, store, item, sales in reader:
            buckets.setdefault((store, item), []).append(
                (dt.date.fromisoformat(date).toordinal(), float(sales))
            )
    return {key: _as_arrays(rows) for key, rows in sorted(buckets.items())}


def _as_arrays(rows: list[tuple[int, float]]) -> tuple[np.ndarray, np.ndarray]:
    rows = sorted(rows)
    return (
        np.array([d for d, _ in rows], dtype=np.int64),
        np.array([q for _, q in rows], dtype=np.float64),
    )


def _line(ordinal: int, store: str, item: str, qty: float) -> list[str]:
    return [dt.date.fromordinal(ordinal).isoformat(), store, item, str(int(qty))]


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _bundled_paper(seed: int, out_dir: Path) -> Inputs:
    series = _read_plain_csv(BUNDLED_SAMPLE)
    rows = sum(len(d) for d, _ in series.values())
    expected = {"rows_read": rows, "malformed": 0, "imputed": 0}
    record = {"source": "bundled sample", **expected}
    return Inputs("bundled-paper", {"data_path": None}, expected, series, record)


def _wide_catalog(seed: int, out_dir: Path) -> Inputs:
    from demandcast.synthetic import generate_sales_table

    table = generate_sales_table(WIDE_STORES, WIDE_ITEMS, WIDE_START, WIDE_END, seed=seed)
    rng = np.random.default_rng([seed, 1])
    lines: list[list[str]] = []
    kept: dict[tuple[str, str], list[tuple[int, float]]] = {}
    dropped: list[list[str]] = []
    corrupted: list[dict] = []
    for key, (lo, hi) in table.series_index.items():
        dates = table.dates[lo:hi]
        qty = table.quantities[lo:hi]
        n = len(dates)
        # The first and last day stay, so every gap is interior and the
        # program imputes exactly the days that are missing.
        fate = rng.random(n)
        fate[0] = fate[-1] = 1.0
        for d, q, u in zip(dates.tolist(), qty.tolist(), fate.tolist()):
            fields = _line(d, key[0], key[1], q)
            if u < WIDE_DROP_FRACTION:
                dropped.append(fields[:3])
            elif u < WIDE_DROP_FRACTION + WIDE_CORRUPT_FRACTION:
                kind = len(corrupted) % len(CORRUPTIONS)
                corrupted.append({"line": fields[:3], "kind": kind})
                lines.append(CORRUPTIONS[kind](fields))
            else:
                kept.setdefault(key, []).append((d, q))
                lines.append(fields)
    order = rng.permutation(len(lines))
    _write_csv(out_dir / "sales.csv", ["date", "store", "item", "sales"], [lines[i] for i in order])
    expected = {
        "rows_read": len(lines),
        "malformed": len(corrupted),
        "imputed": len(dropped) + len(corrupted),
    }
    record = {**expected, "dropped": dropped, "corrupted": corrupted}
    series = {key: _as_arrays(rows) for key, rows in kept.items()}
    config = {"data_path": str(out_dir / "sales.csv")}
    return Inputs("wide-catalog", config, expected, series, record)


_MAKERS = {
    "bundled-paper": _bundled_paper,
    "wide-catalog": _wide_catalog,
}


def generate(workload: str, seed: int, out_dir: Path) -> Inputs:
    """Write the workload's input files into ``out_dir`` and return their account."""
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = _MAKERS[workload](seed, out_dir)
    inputs.config.update(WORKLOAD_CONFIG[workload])
    (out_dir / "record.json").write_text(
        json.dumps({"workload": workload, "seed": seed, **inputs.record}, indent=1) + "\n",
        encoding="utf-8",
    )
    return inputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    inputs = generate(args.workload, args.seed, args.out)
    print(json.dumps({"workload": inputs.workload, **inputs.expected}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
