"""Seasonal-naive reference predictor: repeat the value from one week earlier."""

from __future__ import annotations

import numpy as np

SEASON_DAYS = 7


def seasonal_naive_forecast(train: np.ndarray, horizon: int, period: int = SEASON_DAYS) -> np.ndarray:
    """Predict each future day from the value ``period`` days before it.

    Predictions reaching past the training window use earlier predictions,
    so the last training week tiles across the horizon.  A series shorter
    than one period falls back to its final value.
    """
    train = np.asarray(train, dtype=np.float64)
    if len(train) == 0:
        raise ValueError("training series is empty")
    back = len(train) - period + np.arange(period)
    last_period = np.where(back >= 0, train[np.maximum(back, 0)], train[-1])
    return np.resize(last_period, horizon)


def seasonal_naive_insample(train: np.ndarray, period: int = SEASON_DAYS) -> np.ndarray:
    """One-step in-sample predictions, one per training day.

    Day 0 has no history, so its value is the observation itself; days
    without a full seasonal lag fall back to the previous value.
    """
    train = np.asarray(train, dtype=np.float64)
    n = len(train)
    # Day 0 repeats itself, days 1 .. period - 1 the day before, and later
    # days day t - period.
    return np.concatenate([train[:1], train[: min(period, n) - 1], train[: max(n - period, 0)]])
