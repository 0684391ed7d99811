"""Deterministic synthetic daily sales with planted retail structure.

Each (store, item) series combines a base level, a weekday profile, smooth
yearly seasonality, mild growth, holiday effects whose direction varies by
series, and occasional outage days where volume collapses to a small
fraction of normal.  Quantities are Poisson draws, seeded per series, so
regeneration is reproducible and independent of generation order.

The bundled sample that ships with the package is this generator's output
for 2 stores x 10 items over 2013-2017; run the module as a script to
regenerate it.
"""

from __future__ import annotations

import argparse
import datetime as dt
from pathlib import Path

import numpy as np

from .data import SalesTable, sort_chronological, write_sales_csv
from .features import HolidayCalendar, weekdays_of_ordinals

DEFAULT_START = dt.date(2013, 1, 1)
DEFAULT_END = dt.date(2017, 12, 31)
DEFAULT_SEED = 907

WEEKDAY_PROFILE = np.array([0.92, 0.96, 1.00, 1.03, 1.10, 1.28, 1.20])
OUTAGE_PROBABILITY = 0.06
OUTAGE_FACTOR = 0.12
HOLIDAY_FACTORS = (1.7, 0.45, 1.25)  # spike / slump / mild lift, cycled by series
YEARLY_AMPLITUDE = 0.18
GROWTH_OVER_SPAN = 0.10
YEAR_DAYS = 365.25


def generate_series(
    store_idx: int,
    item_idx: int,
    ordinals: np.ndarray,
    holiday_ordinals: set[int],
    seed: int = DEFAULT_SEED,
) -> np.ndarray:
    rng = np.random.default_rng([seed, store_idx, item_idx])
    n = len(ordinals)
    sidx = store_idx * 1000 + item_idx

    level = 18.0 + 6.5 * item_idx + 9.0 * store_idx
    weekday_strength = 0.7 + 0.6 * ((sidx * 7) % 10) / 9.0
    profile = WEEKDAY_PROFILE**weekday_strength
    dows = weekdays_of_ordinals(ordinals)

    t_frac = (ordinals - ordinals[0]) / max(ordinals[-1] - ordinals[0], 1)
    phase = 2.0 * np.pi * ((sidx * 3) % 7) / 7.0
    doy_angle = 2.0 * np.pi * (ordinals % YEAR_DAYS) / YEAR_DAYS
    yearly = 1.0 + YEARLY_AMPLITUDE * np.sin(doy_angle + phase)
    growth = 1.0 + GROWTH_OVER_SPAN * t_frac

    holiday_factor = HOLIDAY_FACTORS[sidx % len(HOLIDAY_FACTORS)]
    holiday = np.array([holiday_factor if int(o) in holiday_ordinals else 1.0 for o in ordinals])

    outage = np.where(rng.random(n) < OUTAGE_PROBABILITY, OUTAGE_FACTOR, 1.0)

    mu = level * profile[dows] * yearly * growth * holiday * outage
    return rng.poisson(mu).astype(np.float64)


def generate_sales_table(
    n_stores: int = 2,
    n_items: int = 10,
    start: dt.date = DEFAULT_START,
    end: dt.date = DEFAULT_END,
    seed: int = DEFAULT_SEED,
    calendar: HolidayCalendar | None = None,
) -> SalesTable:
    if calendar is None:
        calendar = HolidayCalendar.bundled()
    holiday_ordinals = set(calendar.entries)
    ordinals = np.arange(start.toordinal(), end.toordinal() + 1, dtype=np.int64)

    dates = []
    stores = []
    items = []
    quantities = []
    for s in range(n_stores):
        for i in range(n_items):
            q = generate_series(s, i, ordinals, holiday_ordinals, seed)
            dates.append(ordinals)
            stores.append(np.full(len(ordinals), str(s + 1)))
            items.append(np.full(len(ordinals), str(i + 1)))
            quantities.append(q)
    table = SalesTable(
        np.concatenate(dates),
        np.concatenate(stores),
        np.concatenate(items),
        np.concatenate(quantities),
    )
    return sort_chronological(table)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="regenerate the bundled sample CSV")
    parser.add_argument("--out", default="src/demandcast/assets/sample_sales.csv")
    parser.add_argument("--stores", type=int, default=2)
    parser.add_argument("--items", type=int, default=10)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    table = generate_sales_table(args.stores, args.items, seed=args.seed)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_sales_csv_plain(table, args.out)
    print(f"wrote {len(table)} rows to {args.out}")
    return 0


def write_sales_csv_plain(table: SalesTable, path: str | Path) -> None:
    """Input-schema export (no imputed column): what a raw extract looks like."""
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "store", "item", "sales"])
        for i in range(len(table)):
            writer.writerow(
                [
                    dt.date.fromordinal(int(table.dates[i])).isoformat(),
                    str(table.store_ids[i]),
                    str(table.item_ids[i]),
                    int(table.quantities[i]),
                ]
            )


if __name__ == "__main__":
    raise SystemExit(main())
