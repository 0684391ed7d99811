import datetime as dt

import numpy as np
import pytest

from demandcast.data import SalesTable, sort_chronological
from demandcast.features import FeatureMatrix


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


@pytest.fixture
def day():
    def _day(offset, start=dt.date(2015, 1, 1)):
        return start + dt.timedelta(days=offset)

    return _day
