"""Decomposable trend + seasonality + holiday model fit by penalised least squares.

The regression basis is a piecewise-linear trend (base slope plus hinge
terms at fixed changepoints), weekly and yearly Fourier pairs (yearly
ones only on a training window of a year or more), and one binary column
per holiday name.  Seasonality is multiplicative, realised as an additive
fit on log(1+y), which keeps the estimator a deterministic ridge solve;
the ridge penalty applies to the changepoint hinge coefficients only.
The solve is a Householder QR (:mod:`.lsq`) of the design with the ridge
rows stacked under it, factored once per distinct training window and
reused for every series that shares it; the forecast basis is built
once per design and test window.  95% prediction intervals come
from empirical training residual quantiles, constant width on the log
scale.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field, replace
from typing import Mapping

import numpy as np

from ..data import as_datetime64
from ..errors import NonPositiveDataError, SingularBasisError
from ..features import HolidayCalendar, weekdays_of_ordinals
from .lsq import dependent_columns, householder_qr, pseudo_inverse

YEAR_DAYS = 365.25
# A training window covering fewer days than this fits no yearly Fourier
# terms: one cycle cannot be estimated from less than one cycle.
MIN_YEARLY_DAYS = 365
# Changepoints are spread evenly over this leading share of training time.
CHANGEPOINT_RANGE = 0.8
# The share of training residuals the prediction interval spans.
INTERVAL_LEVEL = 0.95


@dataclass(frozen=True)
class TrendSeasonalConfig:
    n_changepoints: int = 25
    weekly_fourier_order: int = 3
    yearly_fourier_order: int = 10
    changepoint_penalty: float = 0.05

    def __post_init__(self) -> None:
        if self.n_changepoints < 0 or self.weekly_fourier_order < 0 or self.yearly_fourier_order < 0:
            raise ValueError("n_changepoints and the Fourier orders must be >= 0")
        if self.changepoint_penalty < 0.0:
            raise ValueError("changepoint_penalty must be >= 0")


def build_basis(
    ordinals: np.ndarray,
    cfg: TrendSeasonalConfig,
    t_start: int,
    t_span: float,
    calendar_entries: Mapping[int, str],
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Regression basis for the given dates, and the name of each column.

    Extrapolates past training time: trend time is normalised so training
    spans [0, 1], and hinge terms max(0, t - c_j) keep the final-segment
    slope beyond the last changepoint.  ``calendar_entries`` maps day
    ordinals to holiday names, and each name it holds is one column, in
    name order.
    """
    ordinals = np.asarray(ordinals, dtype=np.int64)
    cps = changepoints(cfg)
    t = (ordinals - t_start) / t_span
    parts = [t[:, None], np.maximum(0.0, t[:, None] - cps[None, :])]
    names = ["trend", *(f"cp_{j + 1:02d}" for j in range(len(cps)))]
    dow = weekdays_of_ordinals(ordinals).astype(np.float64)
    days = as_datetime64(ordinals)
    doy = (days - days.astype("datetime64[Y]")).astype(np.float64) + 1.0
    for period_name, period, order, phase in (
        ("weekly", 7.0, cfg.weekly_fourier_order, dow),
        ("yearly", YEAR_DAYS, cfg.yearly_fourier_order, doy),
    ):
        for k in range(1, order + 1):
            angle = 2.0 * np.pi * k * phase / period
            parts.append(np.column_stack([np.sin(angle), np.cos(angle)]))
            names += [f"{period_name}_sin_{k}", f"{period_name}_cos_{k}"]
    for name in sorted(set(calendar_entries.values())):
        days_named = [o for o, n in calendar_entries.items() if n == name]
        parts.append(np.isin(ordinals, days_named).astype(np.float64)[:, None])
        names.append(f"holiday={name}")
    return np.hstack(parts), tuple(names)


def changepoints(cfg: TrendSeasonalConfig) -> np.ndarray:
    """The hinge positions c_j over normalised training time."""
    j = np.arange(1, cfg.n_changepoints + 1, dtype=np.float64)
    return CHANGEPOINT_RANGE * j / cfg.n_changepoints


@dataclass(frozen=True, eq=False)
class TrendSeasonalDesign:
    """One training window's basis and solver, shared by the series fit on it.

    Compared by identity: a cache hit and a miss run the same solve.
    """

    config: TrendSeasonalConfig  # with the yearly order the window allows
    t_start: int
    t_span: float
    # Every calendar day of the holiday names seen inside the window.
    calendar_entries: Mapping[int, str]
    basis_names: tuple[str, ...]  # the name of each basis column
    basis: np.ndarray  # n x k, the training days' basis rows
    solver: np.ndarray  # p x n: coef = solver @ z, the intercept first

    @property
    def holiday_names(self) -> list[str]:
        return sorted(set(self.calendar_entries.values()))


@dataclass
class TrendSeasonalModel:
    design: TrendSeasonalDesign
    offset: float
    basis_coef: np.ndarray
    residual_quantiles: tuple[float, float]
    # The point forecast of each training day: bit for bit what
    # forecast_trend_seasonal gives on the training dates.  Not serialized.
    train_prediction: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        design = self.design
        return {
            "kind": "trend_seasonal",
            "config": asdict(design.config),
            "offset": self.offset,
            "coef": {n: float(c) for n, c in zip(design.basis_names, self.basis_coef)},
            "changepoints": [float(c) for c in changepoints(design.config)],
            "t_start": design.t_start,
            "t_span": design.t_span,
            "holiday_names": design.holiday_names,
            "calendar_entries": {str(o): n for o, n in design.calendar_entries.items()},
            "residual_quantiles": list(self.residual_quantiles),
        }


# Every series with the same training days shares one design, so within a
# scenario it is factored once; two entries keep a run's S1 and S2 designs.
@functools.lru_cache(maxsize=2)
def _factored_design(
    ordinal_bytes: bytes, cfg: TrendSeasonalConfig, calendar_items: tuple[tuple[int, str], ...]
) -> TrendSeasonalDesign:
    ordinals = np.frombuffer(ordinal_bytes, dtype=np.int64)
    t_start, t_end = int(ordinals[0]), int(ordinals[-1])
    if t_end - t_start + 1 < MIN_YEARLY_DAYS:
        cfg = replace(cfg, yearly_fourier_order=0)
    t_span = float(max(t_end - t_start, 1))
    names = {name for day, name in calendar_items if t_start <= day <= t_end}
    calendar_entries = {day: name for day, name in calendar_items if name in names}
    basis, basis_names = build_basis(ordinals, cfg, t_start, t_span, calendar_entries)
    n, k = basis.shape
    if n < k + 1:
        raise ValueError(f"need more than {k} observations to fit {k} basis columns")
    # Ridge rows under the design, one per hinge column; the hinge columns
    # follow the intercept and the trend.
    penalty_rows = np.sqrt(cfg.changepoint_penalty) * np.eye(cfg.n_changepoints, k + 1, k=2)
    qr = householder_qr(np.vstack([np.column_stack([np.ones(n), basis]), penalty_rows]))
    dependent = dependent_columns(qr)
    if dependent.any():
        name = ("offset", *basis_names)[int(np.argmax(dependent))]
        raise SingularBasisError(
            f"basis column {name} is linearly dependent on the columns before it "
            f"(changepoint_penalty {cfg.changepoint_penalty})"
        )
    # The ridge rows' right-hand side is zero, so only the data rows'
    # columns of the pseudo-inverse reach the coefficients.
    solver = np.ascontiguousarray(pseudo_inverse(qr)[:, :n])
    for array in (basis, solver):
        array.flags.writeable = False
    return TrendSeasonalDesign(cfg, t_start, t_span, calendar_entries, basis_names, basis, solver)


def fit_trend_seasonal(
    y: np.ndarray,
    dates: np.ndarray,
    cfg: TrendSeasonalConfig = TrendSeasonalConfig(),
    calendar: HolidayCalendar | None = None,
) -> TrendSeasonalModel:
    """Fit the decomposable model on a chronologically ordered series.

    The model fits z = log(1+y), so the target must stay above -1.
    Changepoints sit at c_j = ``CHANGEPOINT_RANGE`` * j / n_changepoints
    over normalised training time.  A window covering fewer than
    ``MIN_YEARLY_DAYS`` days fits no yearly terms, and the design's config
    records that order.  Holiday columns cover names observed inside the
    training window; unseen future names carry no effect.  Raises
    :class:`SingularBasisError` when a basis column is linearly dependent
    on the columns before it (the rank test of :mod:`.lsq`).
    """
    y = np.asarray(y, dtype=np.float64)
    ordinals = np.asarray(dates, dtype=np.int64)
    if len(y) != len(ordinals):
        raise ValueError("y and dates must align")
    if np.any(np.diff(ordinals) <= 0):
        raise ValueError("dates must be strictly ascending")

    if np.any(y <= -1.0):
        raise NonPositiveDataError("trend_seasonal fits log(1+y), so it requires y > -1")
    z = np.log1p(y)

    calendar_items = tuple(calendar.entries.items()) if calendar is not None else ()
    design = _factored_design(ordinals.tobytes(), cfg, calendar_items)
    coef = np.einsum("ij,j->i", design.solver, z)
    fitted = coef[0] + np.einsum("ij,j->i", design.basis, coef[1:])
    alpha = 1.0 - INTERVAL_LEVEL
    q_lo, q_hi = np.quantile(z - fitted, [alpha / 2.0, 1.0 - alpha / 2.0])
    return TrendSeasonalModel(
        design, float(coef[0]), coef[1:].copy(), (float(q_lo), float(q_hi)), np.expm1(fitted)
    )


# Every series of a scenario shares its training window and its test dates,
# so the forecast basis is built once per design and test window.
@functools.lru_cache(maxsize=2)
def _forecast_basis(design: TrendSeasonalDesign, ordinal_bytes: bytes) -> np.ndarray:
    ordinals = np.frombuffer(ordinal_bytes, dtype=np.int64)
    basis, _ = build_basis(ordinals, design.config, design.t_start, design.t_span, design.calendar_entries)
    basis.flags.writeable = False
    return basis


def forecast_trend_seasonal(
    model: TrendSeasonalModel, dates: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Point forecast with (lo, hi) interval bounds for the given dates."""
    basis = _forecast_basis(model.design, np.asarray(dates, dtype=np.int64).tobytes())
    linear = model.offset + np.einsum("ij,j->i", basis, model.basis_coef)
    q_lo, q_hi = model.residual_quantiles
    return np.expm1(linear), np.expm1(linear + q_lo), np.expm1(linear + q_hi)
