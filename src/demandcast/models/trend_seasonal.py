"""Decomposable trend + seasonality + holiday model fit by penalised least squares.

The regression basis is a piecewise-linear trend (base slope plus hinge
terms at fixed changepoints), weekly and yearly Fourier pairs (yearly
ones only on a training window of a year or more), and one binary column
per holiday name.  Seasonality is multiplicative, realised as an additive
fit on log(1+y), which keeps the estimator a deterministic ridge solve;
the ridge penalty applies to the changepoint hinge coefficients only.
The solve is a Householder QR (:mod:`.lsq`) of the design with the ridge
rows stacked under it, factored once per distinct training window and
reused for every series that shares it; the forecast basis of a window's
test dates is likewise built once.  95% prediction intervals come
from empirical training residual quantiles, constant width on the log
scale.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field, replace
from typing import Mapping, Sequence

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
    changepoints: np.ndarray,
    t_start: int,
    t_span: float,
    calendar_entries: Mapping[int, str],
    holiday_names: Sequence[str],
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Regression basis for the given dates, and the name of each column.

    Extrapolates past training time: trend time is normalised so training
    spans [0, 1], and hinge terms max(0, t - c_j) keep the final-segment
    slope beyond the last changepoint.  ``calendar_entries`` maps day
    ordinals to holiday names.
    """
    ordinals = np.asarray(ordinals, dtype=np.int64)
    t = (ordinals - t_start) / t_span
    parts = [t[:, None], np.maximum(0.0, t[:, None] - changepoints[None, :])]
    names = ["trend", *(f"cp_{j + 1:02d}" for j in range(len(changepoints)))]
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
    for name in holiday_names:
        days_named = [o for o, n in calendar_entries.items() if n == name]
        parts.append(np.isin(ordinals, days_named).astype(np.float64)[:, None])
        names.append(f"holiday={name}")
    return np.hstack(parts), tuple(names)


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
    # The point forecast of each training day: bit for bit what
    # forecast_trend_seasonal gives on the training dates.  Not serialized.
    train_prediction: np.ndarray | None = field(default=None, repr=False, compare=False)

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
        }


@dataclass(frozen=True)
class _FactoredDesign:
    """One training window's basis and its least-squares solver."""

    changepoints: np.ndarray
    t_start: int
    t_span: float
    holiday_names: tuple[str, ...]
    basis: np.ndarray  # n x k, the training days' basis rows
    basis_names: tuple[str, ...]  # the name of each basis column
    solver: np.ndarray  # p x n: coef = solver @ z, the intercept first


# Every series with the same training days shares one design, so within a
# scenario it is factored once; two entries keep a run's S1 and S2 designs.
# A hit and a miss run the same solve, so the cache never changes a result.
@functools.lru_cache(maxsize=2)
def _factored_design(
    ordinal_bytes: bytes, cfg: TrendSeasonalConfig, window_entries: tuple[tuple[int, str], ...]
) -> _FactoredDesign:
    ordinals = np.frombuffer(ordinal_bytes, dtype=np.int64)
    t_start = int(ordinals[0])
    t_span = float(max(int(ordinals[-1]) - t_start, 1))
    j = np.arange(1, cfg.n_changepoints + 1, dtype=np.float64)
    changepoints = CHANGEPOINT_RANGE * j / cfg.n_changepoints
    holiday_names = tuple(sorted({name for _, name in window_entries}))
    basis, basis_names = build_basis(
        ordinals, cfg, changepoints, t_start, t_span, dict(window_entries), holiday_names
    )
    n, k = basis.shape
    if n < k + 1:
        raise ValueError(f"need more than {k} observations to fit {k} basis columns")
    # Ridge rows under the design, one per hinge column; the hinge columns
    # follow the intercept and the trend.
    penalty_rows = np.sqrt(cfg.changepoint_penalty) * np.eye(len(changepoints), k + 1, k=2)
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
    for array in (changepoints, basis, solver):
        array.flags.writeable = False
    return _FactoredDesign(changepoints, t_start, t_span, holiday_names, basis, basis_names, solver)


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
    ``MIN_YEARLY_DAYS`` days fits no yearly terms, and the model's config
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

    entries = calendar.entries if calendar is not None else {}
    t_start, t_end = int(ordinals[0]), int(ordinals[-1])
    if t_end - t_start + 1 < MIN_YEARLY_DAYS:
        cfg = replace(cfg, yearly_fourier_order=0)
    window = tuple(sorted((o, n) for o, n in entries.items() if t_start <= o <= t_end))
    design = _factored_design(ordinals.tobytes(), cfg, window)
    coef = np.einsum("ij,j->i", design.solver, z)
    fitted = coef[0] + np.einsum("ij,j->i", design.basis, coef[1:])
    alpha = 1.0 - INTERVAL_LEVEL
    q_lo, q_hi = np.quantile(z - fitted, [alpha / 2.0, 1.0 - alpha / 2.0])

    names = set(design.holiday_names)
    return TrendSeasonalModel(
        config=cfg,
        offset=float(coef[0]),
        basis_coef=coef[1:].copy(),
        basis_names=list(design.basis_names),
        changepoints=design.changepoints,
        t_start=design.t_start,
        t_span=design.t_span,
        holiday_names=list(design.holiday_names),
        calendar_entries={o: n for o, n in entries.items() if n in names},
        residual_quantiles=(float(q_lo), float(q_hi)),
        train_prediction=np.expm1(fitted),
    )


# Every series of a scenario shares its training window and its test dates,
# so the forecast basis is built once per scenario, as the fit's design is.
@functools.lru_cache(maxsize=2)
def _forecast_basis(
    ordinal_bytes: bytes,
    cfg: TrendSeasonalConfig,
    changepoint_bytes: bytes,
    t_start: int,
    t_span: float,
    entries: tuple[tuple[int, str], ...],
    holiday_names: tuple[str, ...],
) -> np.ndarray:
    basis, _ = build_basis(
        np.frombuffer(ordinal_bytes, dtype=np.int64),
        cfg,
        np.frombuffer(changepoint_bytes, dtype=np.float64),
        t_start,
        t_span,
        dict(entries),
        holiday_names,
    )
    basis.flags.writeable = False
    return basis


def forecast_trend_seasonal(
    model: TrendSeasonalModel, dates: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Point forecast with (lo, hi) interval bounds for the given dates."""
    basis = _forecast_basis(
        np.asarray(dates, dtype=np.int64).tobytes(),
        model.config,
        np.asarray(model.changepoints, dtype=np.float64).tobytes(),
        model.t_start,
        model.t_span,
        tuple(model.calendar_entries.items()),
        tuple(model.holiday_names),
    )
    linear = model.offset + np.einsum("ij,j->i", basis, model.basis_coef)
    q_lo, q_hi = model.residual_quantiles
    return np.expm1(linear), np.expm1(linear + q_lo), np.expm1(linear + q_hi)
