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
    opening: np.ndarray
    ordered: np.ndarray
    received: np.ndarray
    demand: np.ndarray
    sold: np.ndarray
    lost_sales: np.ndarray
    closing: np.ndarray
    overstock_rate: float
    stockout_rate: float
    cost_index: float
    forecast_mae: float
    negative_forecast_days: int

    @property
    def days(self) -> int:
        return len(self.demand)


def _window_sums(fc: np.ndarray, review_period: int, protection: int) -> np.ndarray:
    """``fc[t : t + protection].sum()`` for every review day t, bit for bit.

    Picking the review days' rows of the sliding windows copies them into a
    contiguous block, whose row sums add each row as the slice's own sum
    does.  The windows that run past the last day keep their slice sums:
    ``sliding_window_view`` has no such rows, and padding them with zeros
    changes the sums' pairwise order once protection reaches 8.
    """
    days = np.arange(0, len(fc), review_period)
    full = days[days + protection <= len(fc)]
    head = sliding_window_view(fc, protection)[full].sum(axis=1) if len(full) else np.empty(0)
    return np.concatenate([head, [fc[t:].sum() for t in days[len(full) :].tolist()]])


def simulate(
    demand: np.ndarray,
    forecast: np.ndarray,
    policy: ReplenishmentPolicy = ReplenishmentPolicy(),
    sigma_hat: float = 0.0,
) -> InventoryOutcome:
    """Replay the order-up-to policy day by day.

    Day sequence: arrivals land, a review (every ``review_period`` days,
    starting day 0) places an order up to forecast-over-protection-interval
    plus safety stock, a zero lead time lands that order immediately, then
    demand consumes on-hand stock.  Negative forecast values are clamped to
    zero and counted.
    """
    demand = np.asarray(demand, dtype=np.float64)
    forecast = np.asarray(forecast, dtype=np.float64)
    if len(demand) != len(forecast):
        raise ValueError("demand and forecast must align on the test window")
    n = len(demand)
    negative_days = int((forecast < 0).sum())
    fc = np.maximum(forecast, 0.0)
    review, lead = policy.review_period, policy.lead_time
    targets = iter(
        (_window_sums(fc, review, lead + review) + policy.safety_factor * sigma_hat).tolist()
    )

    opening, ordered, received, sold, closing = [], [], [], [], []
    on_hand = float(policy.initial_stock)
    pipeline: dict[int, float] = {}

    for t, wanted in enumerate(demand.tolist()):
        opening.append(on_hand)
        arrived = pipeline.pop(t, 0.0)
        qty = 0.0
        if t % review == 0:
            # A plain left fold, as sum() over numpy scalars adds; sum() over
            # Python floats compensates its rounding from Python 3.12 on.
            pending = 0.0
            for q in pipeline.values():
                pending += q
            qty = max(0.0, next(targets) - (on_hand + arrived + pending))
            if qty > 0.0:
                if lead == 0:
                    arrived += qty
                else:
                    pipeline[t + lead] = qty
        ordered.append(qty)
        received.append(arrived)
        on_hand += arrived
        sale = min(wanted, on_hand)
        sold.append(sale)
        on_hand -= sale
        closing.append(on_hand)

    opening, ordered, received, sold, closing = (
        np.array(column, dtype=np.float64) for column in (opening, ordered, received, sold, closing)
    )
    lost = demand - sold
    trailing = trailing_mean(demand, np.arange(n), 7)
    overstock_days = closing > policy.overstock_multiplier * trailing

    return InventoryOutcome(
        opening=opening,
        ordered=ordered,
        received=received,
        demand=demand,
        sold=sold,
        lost_sales=lost,
        closing=closing,
        overstock_rate=float(overstock_days.mean()) if n else 0.0,
        stockout_rate=float((lost > 0).mean()) if n else 0.0,
        cost_index=float(policy.holding_cost * closing.sum() + policy.emergency_cost * lost.sum()),
        forecast_mae=float(np.abs(demand - forecast).mean()) if n else 0.0,
        negative_forecast_days=negative_days,
    )


def pool_outcomes(outcomes: Sequence[InventoryOutcome]) -> dict[str, float]:
    """The portfolio rates of per-series outcomes, as impact.json stores them.

    Overstock rate and MAE weight each series by its days; stockout rate and
    mean demand run over the concatenated days; cost is summed.
    """
    if not outcomes:
        raise ValueError("no outcomes to pool")
    demand = np.concatenate([o.demand for o in outcomes])
    lost = np.concatenate([o.lost_sales for o in outcomes])
    total_days = sum(o.days for o in outcomes)
    overstock_days = sum(o.overstock_rate * o.days for o in outcomes)
    mae = float(sum(o.forecast_mae * o.days for o in outcomes) / total_days)
    mean_demand = float(demand.mean())
    return {
        "overstock_rate": float(overstock_days / total_days),
        "stockout_rate": float((lost > 0).mean()),
        # 100 * (1 - MAE / mean demand); one operationalisation of accuracy.
        "forecast_accuracy": 0.0 if mean_demand == 0.0 else 100.0 * (1.0 - mae / mean_demand),
        "cost_index": float(sum(o.cost_index for o in outcomes)),
        "negative_forecast_days": sum(o.negative_forecast_days for o in outcomes),
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
