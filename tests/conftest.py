import datetime as dt

import numpy as np
import pytest
from hypothesis import strategies as st

from demandcast.config import bundled_sample_stream
from demandcast.data import SalesTable, SplitSpec, fill_gaps, parse_sales_csv, sort_chronological
from demandcast.features import LAGS, FeatureMatrix, HolidayCalendar, build_train_test_matrices


def make_matrix(X, y, dates=None, store="1", item="1", columns=None) -> FeatureMatrix:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    if dates is None:
        dates = np.arange(n, dtype=np.int64) + dt.date(2015, 1, 1).toordinal()
    return FeatureMatrix(
        columns=columns or [f"f{j}" for j in range(X.shape[1])],
        rows=X,
        target=y,
        dates=np.asarray(dates, dtype=np.int64),
        stores=np.full(n, store, dtype=np.str_),
        items=np.full(n, item, dtype=np.str_),
    )


def bundled_series(external, store, item):
    """One series' train and test matrices of the default bundled run."""
    with bundled_sample_stream() as stream:
        table, _ = fill_gaps(sort_chronological(parse_sales_csv(stream).table))
    split = SplitSpec(dt.date(2017, 7, 31), dt.date(2017, 12, 31))
    calendar = HolidayCalendar.bundled() if external else None
    train, test = build_train_test_matrices(table, split, external, calendar)
    return tuple(
        m.select_rows(np.flatnonzero((m.stores == store) & (m.items == item)))
        for m in (train, test)
    )


def unsorted_table(rows) -> SalesTable:
    """rows: iterable of (date, store, item, qty), kept in the given order."""
    rows = list(rows)
    return SalesTable(
        np.array([d.toordinal() for d, _, _, _ in rows], dtype=np.int64),
        np.array([s for _, s, _, _ in rows], dtype=np.str_),
        np.array([i for _, _, i, _ in rows], dtype=np.str_),
        np.array([float(q) for _, _, _, q in rows], dtype=np.float64),
    )


def make_table(rows) -> SalesTable:
    """rows: iterable of (date, store, item, qty)."""
    return sort_chronological(unsorted_table(rows))


def table_rows(table: SalesTable) -> list[tuple[dt.date, str, str, float]]:
    """The table's rows as (date, store, item, qty), in row order."""
    return [
        (dt.date.fromordinal(d), s, i, q)
        for d, s, i, q in zip(
            table.dates.tolist(),
            table.store_ids.tolist(),
            table.item_ids.tolist(),
            table.quantities.tolist(),
        )
    ]


BASE = dt.date(2015, 1, 1)


@st.composite
def gap_filled_tables(draw):
    """Up to four series, each with its own first day, length and missing days.

    Every series outlasts the longest lag.  Quantities are Poisson draws with
    about one outage day in six, so the deviation flag fires.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for k in range(draw(st.integers(1, 4))):
        first = draw(st.integers(0, 20))
        length = draw(st.integers(max(LAGS) + 1, max(LAGS) + 40))
        inner = draw(st.lists(st.booleans(), min_size=length - 2, max_size=length - 2))
        qty = rng.poisson(np.where(rng.random(length) < 0.15, 2.0, 20.0)).tolist()
        for j, kept in enumerate([True, *inner, True]):
            if kept:
                day = BASE + dt.timedelta(days=first + j)
                rows.append((day, str(k % 2 + 1), str(k // 2 + 1), qty[j]))
    return fill_gaps(make_table(rows))[0]


@pytest.fixture
def day():
    def _day(offset, start=dt.date(2015, 1, 1)):
        return start + dt.timedelta(days=offset)

    return _day
