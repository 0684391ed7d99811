"""Decomposable trend + seasonality + holiday model fit by penalised least squares.

The regression basis is a piecewise-linear trend (base slope plus hinge
terms at fixed changepoints), weekly and yearly Fourier pairs, and one
binary column per holiday name.  Multiplicative seasonality is realised as
an additive fit on log(1+y), which keeps the estimator a deterministic
ridge solve; the ridge penalty applies to the changepoint hinge
coefficients only.  Prediction intervals come from empirical training
residual quantiles, constant width on the fitting scale.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from ..data import as_datetime64
from ..errors import NonPositiveDataError, SingularBasisError
from ..features import HolidayCalendar, weekdays_of_ordinals

YEAR_DAYS = 365.25


class SeasonalityMode(str, Enum):
    ADDITIVE = "additive"
    MULTIPLICATIVE = "multiplicative"


@dataclass(frozen=True)
class TrendSeasonalConfig:
    n_changepoints: int = 25
    changepoint_range: float = 0.8
    weekly_fourier_order: int = 3
    yearly_fourier_order: int = 10
    seasonality_mode: SeasonalityMode = SeasonalityMode.MULTIPLICATIVE
    changepoint_penalty: float = 0.05
    interval_level: float = 0.95

    def __post_init__(self) -> None:
        # A config file gives the mode as a string.
        object.__setattr__(self, "seasonality_mode", SeasonalityMode(self.seasonality_mode))
        if self.n_changepoints < 0:
            raise ValueError("n_changepoints must be >= 0")
        if not (0.0 < self.changepoint_range <= 1.0):
            raise ValueError("changepoint_range must lie in (0, 1]")
        if not (0.0 < self.interval_level < 1.0):
            raise ValueError("interval_level must lie in (0, 1)")
        if self.changepoint_penalty < 0.0:
            raise ValueError("changepoint_penalty must be >= 0")


def basis_columns(cfg: TrendSeasonalConfig, holiday_names: Sequence[str]) -> list[str]:
    cols = ["trend"]
    cols += [f"cp_{j + 1:02d}" for j in range(cfg.n_changepoints)]
    for k in range(1, cfg.weekly_fourier_order + 1):
        cols += [f"weekly_sin_{k}", f"weekly_cos_{k}"]
    for k in range(1, cfg.yearly_fourier_order + 1):
        cols += [f"yearly_sin_{k}", f"yearly_cos_{k}"]
    cols += [f"holiday={name}" for name in holiday_names]
    return cols


def build_basis(
    ordinals: np.ndarray,
    cfg: TrendSeasonalConfig,
    changepoints: np.ndarray,
    t_start: int,
    t_span: float,
    calendar_entries: Mapping[int, str],
    holiday_names: Sequence[str],
) -> np.ndarray:
    """Regression basis for the given dates; extrapolates past training time.

    Trend time is normalised so training spans [0, 1]; hinge terms
    max(0, t - c_j) keep the final-segment slope beyond the last
    changepoint.  ``calendar_entries`` maps day ordinals to holiday names.
    """
    ordinals = np.asarray(ordinals, dtype=np.int64)
    t = (ordinals - t_start) / t_span
    parts = [t[:, None], np.maximum(0.0, t[:, None] - changepoints[None, :])]
    dow = weekdays_of_ordinals(ordinals).astype(np.float64)
    for k in range(1, cfg.weekly_fourier_order + 1):
        angle = 2.0 * np.pi * k * dow / 7.0
        parts.append(np.column_stack([np.sin(angle), np.cos(angle)]))
    days = as_datetime64(ordinals)
    doy = (days - days.astype("datetime64[Y]")).astype(np.float64) + 1.0
    for k in range(1, cfg.yearly_fourier_order + 1):
        angle = 2.0 * np.pi * k * doy / YEAR_DAYS
        parts.append(np.column_stack([np.sin(angle), np.cos(angle)]))
    for name in holiday_names:
        days_named = [o for o, n in calendar_entries.items() if n == name]
        parts.append(np.isin(ordinals, days_named).astype(np.float64)[:, None])
    return np.hstack(parts)


@dataclass
class TrendSeasonalModel:
    config: TrendSeasonalConfig
    offset: float
    basis_coef: np.ndarray
    basis_names: list[str]
    changepoints: np.ndarray
    t_start: int
    t_span: float
    holiday_names: list[str]
    calendar_entries: dict[int, str]
    residual_quantiles: tuple[float, float]
    fit_on_log: bool

    @property
    def base_slope(self) -> float:
        return float(self.basis_coef[0])

    @property
    def changepoint_deltas(self) -> np.ndarray:
        return self.basis_coef[1 : 1 + len(self.changepoints)]

    def to_dict(self) -> dict:
        return {
            "kind": "trend_seasonal",
            "config": asdict(self.config),
            "offset": self.offset,
            "coef": {n: float(c) for n, c in zip(self.basis_names, self.basis_coef)},
            "changepoints": [float(c) for c in self.changepoints],
            "t_start": self.t_start,
            "t_span": self.t_span,
            "holiday_names": list(self.holiday_names),
            "calendar_entries": {str(o): n for o, n in self.calendar_entries.items()},
            "residual_quantiles": list(self.residual_quantiles),
            "fit_on_log": self.fit_on_log,
        }


def fit_trend_seasonal(
    y: np.ndarray,
    dates: np.ndarray,
    cfg: TrendSeasonalConfig = TrendSeasonalConfig(),
    calendar: HolidayCalendar | None = None,
) -> TrendSeasonalModel:
    """Fit the decomposable model on a chronologically ordered series.

    Multiplicative mode fits z = log(1+y), so the target must stay above -1.
    Changepoints sit at c_j = changepoint_range * j / n_changepoints over
    normalised training time.  Holiday columns cover names observed inside
    the training window; unseen future names carry no effect.
    """
    y = np.asarray(y, dtype=np.float64)
    ordinals = np.asarray(dates, dtype=np.int64)
    if len(y) != len(ordinals):
        raise ValueError("y and dates must align")
    if np.any(np.diff(ordinals) <= 0):
        raise ValueError("dates must be strictly ascending")

    multiplicative = cfg.seasonality_mode is SeasonalityMode.MULTIPLICATIVE
    if multiplicative:
        if np.any(y <= -1.0):
            raise NonPositiveDataError("multiplicative mode requires y > -1")
        z = np.log1p(y)
    else:
        z = y

    t_start = int(ordinals[0])
    t_span = float(max(int(ordinals[-1]) - t_start, 1))
    j = np.arange(1, cfg.n_changepoints + 1, dtype=np.float64)
    changepoints = cfg.changepoint_range * j / cfg.n_changepoints

    entries = calendar.entries if calendar is not None else {}
    names_in_window = {n for o, n in entries.items() if t_start <= o <= int(ordinals[-1])}
    holiday_names = sorted(names_in_window)
    calendar_entries = {o: n for o, n in entries.items() if n in names_in_window}

    basis = build_basis(
        ordinals, cfg, changepoints, t_start, t_span, calendar_entries, holiday_names
    )
    n, k = basis.shape
    if n < k + 1:
        raise ValueError(f"need more than {k} observations to fit {k} basis columns")
    design = np.column_stack([np.ones(n), basis])

    if cfg.changepoint_penalty == 0.0:
        if np.linalg.matrix_rank(design) < design.shape[1]:
            raise SingularBasisError("basis is rank-deficient and penalty is zero")
        coef, _, _, _ = np.linalg.lstsq(design, z, rcond=None)
    else:
        # One row per hinge column, which follow the intercept and the trend.
        n_hinge = len(changepoints)
        penalty_rows = np.sqrt(cfg.changepoint_penalty) * np.eye(n_hinge, design.shape[1], k=2)
        augmented = np.vstack([design, penalty_rows])
        rhs = np.concatenate([z, np.zeros(n_hinge)])
        coef, _, _, _ = np.linalg.lstsq(augmented, rhs, rcond=None)

    fitted = design @ coef
    residuals = z - fitted
    alpha = 1.0 - cfg.interval_level
    q_lo, q_hi = np.quantile(residuals, [alpha / 2.0, 1.0 - alpha / 2.0])

    return TrendSeasonalModel(
        config=cfg,
        offset=float(coef[0]),
        basis_coef=coef[1:].copy(),
        basis_names=basis_columns(cfg, holiday_names),
        changepoints=changepoints,
        t_start=t_start,
        t_span=t_span,
        holiday_names=holiday_names,
        calendar_entries=calendar_entries,
        residual_quantiles=(float(q_lo), float(q_hi)),
        fit_on_log=multiplicative,
    )


def forecast_trend_seasonal(
    model: TrendSeasonalModel, dates: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Point forecast with (lo, hi) interval bounds for the given dates."""
    ordinals = np.asarray(dates, dtype=np.int64)
    basis = build_basis(
        ordinals,
        model.config,
        model.changepoints,
        model.t_start,
        model.t_span,
        model.calendar_entries,
        model.holiday_names,
    )
    linear = model.offset + basis @ model.basis_coef
    q_lo, q_hi = model.residual_quantiles
    if model.fit_on_log:
        return np.expm1(linear), np.expm1(linear + q_lo), np.expm1(linear + q_hi)
    return linear, linear + q_lo, linear + q_hi
