"""Forecast-driven order-up-to replenishment replay over a test window.

Each review raises the inventory position to the forecast demand over the
protection interval (lead time + review period) plus a safety margin sized
in units of the supplying model's training-residual standard deviation.
Unmet demand is lost, not backordered.  The daily ledger satisfies
closing = opening + received - sold and lost = demand - sold on every day.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .evaluate import improvement_percent
from .features import trailing_mean

# The four portfolio rates that impact tables report, each with whether a
# lower value is better.
IMPACT_METRICS = (
    ("overstock_rate", True),
    ("stockout_rate", True),
    ("forecast_accuracy", False),
    ("cost_index", True),
)


@dataclass(frozen=True)
class ReplenishmentPolicy:
    review_period: int = 1
    safety_factor: float = 0.5  # in units of forecast-error std
    lead_time: int = 1
    initial_stock: float = 0.0
    overstock_multiplier: float = 2.0  # x trailing-7-day mean demand
    holding_cost: float = 1.0
    emergency_cost: float = 10.0

    def __post_init__(self) -> None:
        if self.review_period < 1 or self.lead_time < 0:
            raise ValueError("need review_period >= 1 and lead_time >= 0")
        if min(self.safety_factor, self.initial_stock, self.overstock_multiplier) < 0.0:
            raise ValueError("safety_factor, initial_stock and overstock_multiplier must be >= 0")
        if min(self.holding_cost, self.emergency_cost) < 0.0:
            raise ValueError("holding_cost and emergency_cost must be >= 0")


@dataclass
class InventoryOutcome:
    """The replay of a batch of series.

    The ledger columns hold every series' days, one series after another;
    ``lengths`` gives each series' day count and the rates, cost and MAE
    hold one value per series.  ``negative_forecast_days`` is the batch's
    total.
    """

    lengths: np.ndarray
    opening: np.ndarray
    ordered: np.ndarray
    received: np.ndarray
    demand: np.ndarray
    sold: np.ndarray
    lost_sales: np.ndarray
    closing: np.ndarray
    overstock_rate: np.ndarray
    stockout_rate: np.ndarray
    cost_index: np.ndarray
    forecast_mae: np.ndarray
    negative_forecast_days: int

    @property
    def days(self) -> int:
        return len(self.demand)


def _run_sums(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``values[s : s + n].sum()`` for every start s and length n, bit for bit.

    Runs of one length are picked as rows of the sliding windows of that
    length, and numpy adds each row of the contiguous copy as it adds the
    slice on its own.  Padding shorter runs with zeros into longer rows
    would change numpy's pairwise order once a row reaches 8 values.
    """
    sums = np.zeros(len(starts))
    for length in np.unique(lengths[lengths > 0]).tolist():
        rows = lengths == length
        sums[rows] = sliding_window_view(values, length)[starts[rows]].sum(axis=1)
    return sums


def simulate(
    demands: Sequence[np.ndarray],
    forecasts: Sequence[np.ndarray],
    policy: ReplenishmentPolicy = ReplenishmentPolicy(),
    sigma_hats: Sequence[float] | None = None,
) -> InventoryOutcome:
    """Replay the order-up-to policy on every series at once, day by day.

    Day sequence: arrivals land, a review (every ``review_period`` days,
    starting day 0) places an order up to forecast-over-protection-interval
    plus safety stock, a zero lead time lands that order immediately, then
    demand consumes on-hand stock.  Negative forecast values are clamped to
    zero and counted.  ``sigma_hats`` gives each series' safety-stock unit
    (0.0 for all when omitted).

    Series are padded to the longest, one column each, and each day steps
    all columns with elementwise numpy that rounds as the scalar rules do:
    ``min(a, b)`` is ``where(b < a, b, a)``, ``max(0.0, x)`` is
    ``where(x > 0.0, x, 0.0)``, and the pending orders are a left fold,
    oldest first, where a day without an order adds an exact 0.0.
    """
    lengths = np.array([len(d) for d in demands], dtype=np.int64)
    if [len(f) for f in forecasts] != lengths.tolist():
        raise ValueError("demand and forecast must align on the test window")
    sigmas = np.zeros(len(lengths)) if sigma_hats is None else np.asarray(sigma_hats, dtype=np.float64)
    demand = np.concatenate([np.empty(0), *demands])
    forecast = np.concatenate([np.empty(0), *forecasts])
    starts = np.cumsum(lengths) - lengths
    negative_days = int((forecast < 0).sum())
    fc = np.maximum(forecast, 0.0)
    review, lead = policy.review_period, policy.lead_time

    # The day loop steps (day, series) grids.  ``cells`` marks each series'
    # days in (series, day) order, the order of the concatenated days; the
    # cells past a series' last day are padding.
    n_days = int(lengths.max(initial=0))
    cells = np.arange(n_days) < lengths[:, None]

    # Each review's target: the clamped forecast over the protection interval,
    # cut at the series' end, plus the series' safety stock.
    review_days = np.arange(0, n_days, review)
    due = review_days[:, None] < lengths
    series = np.broadcast_to(np.arange(len(lengths)), due.shape)[due]
    day = np.broadcast_to(review_days[:, None], due.shape)[due]
    targets = np.zeros(due.shape)
    targets[due] = _run_sums(
        fc, starts[series] + day, np.minimum(lengths[series] - day, lead + review)
    ) + policy.safety_factor * sigmas[series]

    wanted = np.zeros(cells.shape)
    wanted[cells] = demand
    wanted = np.ascontiguousarray(wanted.T)
    ordered = np.zeros((n_days, len(lengths)))
    received = np.zeros((n_days, len(lengths)))
    sold = np.zeros((n_days, len(lengths)))
    closing = np.zeros((n_days, len(lengths)))
    on_hand = np.full(len(lengths), float(policy.initial_stock))
    # Python floats wrap inf and nan silently, as this grid must.
    with np.errstate(all="ignore"):
        for t in range(n_days):
            arrived = received[t]
            if t % review == 0:
                # Orders still in the pipeline: review days s with t - lead < s < t.
                pending = 0.0
                for s in range(max(t - (lead - 1) // review * review, 0), t, review):
                    pending = pending + ordered[s]
                x = targets[t // review] - (on_hand + arrived + pending)
                qty = np.where(x > 0.0, x, 0.0)
                ordered[t] = qty
                if lead == 0:
                    arrived += qty  # in place: received[t] lands today
                elif t + lead < n_days:
                    received[t + lead] = qty
            on_hand = on_hand + arrived
            sold[t] = np.where(on_hand < wanted[t], on_hand, wanted[t])
            on_hand = on_hand - sold[t]
            closing[t] = on_hand

    opening = np.concatenate([np.full((1, len(lengths)), float(policy.initial_stock)), closing])[:-1]
    ordered, received, sold, closing, opening = (
        column.T[cells] for column in (ordered, received, sold, closing, opening)
    )
    lost = demand - sold
    trailing = trailing_mean(demand, np.arange(len(demand)) - np.repeat(starts, lengths), 7)
    overstock_days = closing > policy.overstock_multiplier * trailing

    def series_means(values: np.ndarray) -> np.ndarray:
        """Each series' mean of ``values``; 0.0 for a series without days."""
        sums = _run_sums(values, starts, lengths)
        return np.divide(sums, lengths, out=np.zeros(len(lengths)), where=lengths > 0)

    return InventoryOutcome(
        lengths=lengths,
        opening=opening,
        ordered=ordered,
        received=received,
        demand=demand,
        sold=sold,
        lost_sales=lost,
        closing=closing,
        overstock_rate=series_means(overstock_days),
        stockout_rate=series_means(lost > 0),
        cost_index=policy.holding_cost * _run_sums(closing, starts, lengths)
        + policy.emergency_cost * _run_sums(lost, starts, lengths),
        forecast_mae=series_means(np.abs(demand - forecast)),
        negative_forecast_days=negative_days,
    )


def pool_outcomes(outcome: InventoryOutcome) -> dict[str, float]:
    """The portfolio rates of a batch's series, as impact.json stores them.

    Overstock rate and MAE weight each series by its days; stockout rate and
    mean demand run over all the batch's days; cost is summed.  The
    per-series terms are added in series order by ``sum``, as they always
    were, not pairwise by numpy.
    """
    if not len(outcome.lengths):
        raise ValueError("no outcomes to pool")
    total_days = outcome.days
    overstock_days = sum((outcome.overstock_rate * outcome.lengths).tolist())
    mae = float(sum((outcome.forecast_mae * outcome.lengths).tolist()) / total_days)
    mean_demand = float(outcome.demand.mean())
    return {
        "overstock_rate": float(overstock_days / total_days),
        "stockout_rate": float((outcome.lost_sales > 0).mean()),
        # 100 * (1 - MAE / mean demand); one operationalisation of accuracy.
        "forecast_accuracy": 0.0 if mean_demand == 0.0 else 100.0 * (1.0 - mae / mean_demand),
        "cost_index": float(sum(outcome.cost_index.tolist())),
        "negative_forecast_days": outcome.negative_forecast_days,
    }


def impact_table(
    pooled: Mapping[str, Mapping[str, float]], baseline: Mapping[str, float]
) -> list[list]:
    """Rows [model, metric, before, after, improvement_pct, direction] against naive."""
    rows = []
    for model, rates in pooled.items():
        for metric, lower_better in IMPACT_METRICS:
            before, after = baseline[metric], rates[metric]
            reduction = improvement_percent(before, after)
            if lower_better:
                rows.append([model, metric, before, after, reduction, "reduction"])
            else:
                # 0.0 - x rather than -x, so that no change reads 0.0, not -0.0.
                rows.append([model, metric, before, after, 0.0 - reduction, "increase"])
    return rows
