import datetime as dt
import json

import numpy as np
import pytest

from demandcast.errors import NonPositiveDataError, SingularBasisError
from demandcast.features import HolidayCalendar
from demandcast.models.trend_seasonal import (
    SeasonalityMode,
    TrendSeasonalConfig,
    basis_columns,
    build_basis,
    fit_trend_seasonal,
    forecast_trend_seasonal,
)

START = dt.date(2015, 1, 1).toordinal()


def ordinals(n, start=START):
    return np.arange(n, dtype=np.int64) + start


def test_basis_degenerate_single_column():
    cfg = TrendSeasonalConfig(
        n_changepoints=0, weekly_fourier_order=0, yearly_fourier_order=0
    )
    basis = build_basis(ordinals(10), cfg, np.empty(0), START, 9.0, {}, [])
    assert basis.shape == (10, 1)
    assert basis_columns(cfg, []) == ["trend"]


def test_basis_default_column_count():
    cfg = TrendSeasonalConfig()
    cps = 0.8 * np.arange(1, 26) / 25.0
    basis = build_basis(ordinals(100), cfg, cps, START, 99.0, {}, [])
    assert basis.shape[1] == 1 + 25 + 6 + 20
    assert len(basis_columns(cfg, [])) == 52


def test_weekly_columns_repeat_after_seven_days():
    cfg = TrendSeasonalConfig(n_changepoints=0, yearly_fourier_order=0)
    basis = build_basis(ordinals(15), cfg, np.empty(0), START, 14.0, {}, [])
    weekly = basis[:, 1:7]
    assert np.allclose(weekly[0], weekly[7])
    assert np.allclose(weekly[3], weekly[10])


def test_noiseless_trend_recovery():
    cfg = TrendSeasonalConfig(
        n_changepoints=0, weekly_fourier_order=0, yearly_fourier_order=0
    )
    n = 200
    t_norm = np.arange(n) / (n - 1)
    slope = 0.7
    y = np.expm1(slope * t_norm)
    model = fit_trend_seasonal(y, ordinals(n), cfg)
    assert abs(model.base_slope - slope) < 1e-6
    assert abs(model.offset) < 1e-6


def test_noiseless_weekly_pattern_recovery():
    cfg = TrendSeasonalConfig(n_changepoints=0, yearly_fourier_order=0)
    n = 140
    dow = (ordinals(n) - 1) % 7
    y = np.expm1(0.2 * np.sin(2 * np.pi * dow / 7))
    model = fit_trend_seasonal(y, ordinals(n), cfg)
    point, _, _ = forecast_trend_seasonal(model, ordinals(n))
    rel = np.abs(point - y) / np.maximum(np.abs(y), 1e-9)
    assert rel.max() < 0.01


def test_constant_series_flat_fit_and_zero_width_interval():
    n = 250
    y = np.full(n, 9.0)
    model = fit_trend_seasonal(y, ordinals(n), TrendSeasonalConfig(n_changepoints=5))
    assert abs(model.base_slope) < 1e-8
    assert np.abs(model.changepoint_deltas).max() < 1e-8
    fourier = model.basis_coef[1 + 5 :]
    assert np.abs(fourier).max() < 1e-8
    q_lo, q_hi = model.residual_quantiles
    assert abs(q_hi - q_lo) < 1e-9
    point, lo, hi = forecast_trend_seasonal(model, ordinals(30, START + n))
    assert np.allclose(point, 9.0, atol=1e-6)


def test_forecast_reproduces_training_series():
    rng = np.random.default_rng(0)
    n = 300
    dow = (ordinals(n) - 1) % 7
    y = np.expm1(0.5 + 0.3 * np.arange(n) / n + 0.15 * np.sin(2 * np.pi * dow / 7))
    model = fit_trend_seasonal(y, ordinals(n), TrendSeasonalConfig(yearly_fourier_order=0))
    point, lo, hi = forecast_trend_seasonal(model, ordinals(n))
    rel = np.abs(point - y) / np.maximum(np.abs(y), 1e-9)
    assert rel.max() < 0.01
    assert (lo <= point + 1e-12).all() and (point <= hi + 1e-12).all()


def test_interval_coverage_on_iid_noise():
    rng = np.random.default_rng(7)
    n_train, n_test = 1500, 1000
    n = n_train + n_test
    dow = (ordinals(n) - 1) % 7
    t = np.arange(n) / n_train
    log_level = 0.8 + 0.4 * t + 0.25 * np.sin(2 * np.pi * dow / 7)
    noise = rng.normal(scale=0.2, size=n)
    y = np.expm1(log_level + noise)
    cfg = TrendSeasonalConfig(
        n_changepoints=5, yearly_fourier_order=3, changepoint_penalty=1.0
    )
    model = fit_trend_seasonal(y[:n_train], ordinals(n_train), cfg)
    _, lo, hi = forecast_trend_seasonal(model, ordinals(n_test, START + n_train))
    covered = ((y[n_train:] >= lo) & (y[n_train:] <= hi)).mean()
    assert 0.90 <= covered <= 1.0
    assert abs(covered - 0.95) <= 0.05


def trend_at(model, t: np.ndarray) -> np.ndarray:
    """Trend component at normalised times (fitting scale).

    Accepts fractional times so continuity can be probed arbitrarily close
    to each changepoint.
    """
    t = np.asarray(t, dtype=np.float64)
    out = model.offset + model.base_slope * t
    deltas = model.changepoint_deltas
    if len(deltas):
        out = out + np.maximum(0.0, t[:, None] - model.changepoints[None, :]) @ deltas
    return out


def test_trend_continuous_at_changepoints():
    rng = np.random.default_rng(1)
    n = 400
    y = np.expm1(0.5 + 0.2 * np.arange(n) / n + 0.05 * rng.normal(size=n))
    model = fit_trend_seasonal(y, ordinals(n), TrendSeasonalConfig())
    for c in model.changepoints:
        left = trend_at(model, np.array([c - 1e-9]))[0]
        right = trend_at(model, np.array([c + 1e-9]))[0]
        assert abs(left - right) < 1e-6


def test_hinge_shrinkage_monotone_in_penalty():
    rng = np.random.default_rng(2)
    n = 350
    t = np.arange(n) / n
    y = np.expm1(0.5 + 0.6 * t + 0.4 * np.maximum(0.0, t - 0.5) + 0.05 * rng.normal(size=n))
    norms = []
    for penalty in (0.05, 5.0, 500.0):
        cfg = TrendSeasonalConfig(
            n_changepoints=10,
            weekly_fourier_order=0,
            yearly_fourier_order=0,
            changepoint_penalty=penalty,
        )
        model = fit_trend_seasonal(y, ordinals(n), cfg)
        norms.append(np.abs(model.changepoint_deltas).sum())
    assert norms[0] >= norms[1] >= norms[2]
    assert norms[2] < 0.1 * norms[0]


def test_additive_and_multiplicative_agree_on_constant_series():
    n = 200
    y = np.full(n, 4.5)
    point_m, _, _ = forecast_trend_seasonal(
        fit_trend_seasonal(y, ordinals(n), TrendSeasonalConfig()), ordinals(n)
    )
    point_a, _, _ = forecast_trend_seasonal(
        fit_trend_seasonal(
            y, ordinals(n), TrendSeasonalConfig(seasonality_mode=SeasonalityMode.ADDITIVE)
        ),
        ordinals(n),
    )
    assert np.allclose(point_m, point_a, atol=1e-9)


def test_multiplicative_mode_rejects_non_positive_data():
    y = np.concatenate([np.full(50, 5.0), [-1.5]])
    with pytest.raises(NonPositiveDataError):
        fit_trend_seasonal(y, ordinals(len(y)), TrendSeasonalConfig())


def test_zero_penalty_singular_basis_raises():
    cfg = TrendSeasonalConfig(
        n_changepoints=25,
        weekly_fourier_order=0,
        yearly_fourier_order=0,
        changepoint_penalty=0.0,
    )
    # 30 points cannot identify 25 hinge columns plus trend and offset
    y = np.expm1(np.linspace(0, 1, 30))
    with pytest.raises((SingularBasisError, ValueError)):
        fit_trend_seasonal(y, ordinals(30), cfg)


def test_holiday_regressor_recovers_effect():
    cal = HolidayCalendar(entries={int(o): "festival" for o in ordinals(400)[::50]})
    n = 400
    hol = np.zeros(n)
    hol[::50] = 1.0
    y = np.expm1(1.0 + 0.5 * hol)
    cfg = TrendSeasonalConfig(n_changepoints=0, weekly_fourier_order=0, yearly_fourier_order=0)
    model = fit_trend_seasonal(y, ordinals(n), cfg, cal)
    assert model.holiday_names == ["festival"]
    coef = model.basis_coef[-1]
    assert abs(coef - 0.5) < 1e-6


def test_serialization_roundtrip():
    rng = np.random.default_rng(3)
    n = 300
    y = np.expm1(0.5 + 0.2 * np.arange(n) / n + 0.05 * rng.normal(size=n))
    model = fit_trend_seasonal(y, ordinals(n), TrendSeasonalConfig(n_changepoints=3))
    # The saved model artifact is plain JSON and survives a round trip unchanged.
    doc = model.to_dict()
    assert json.loads(json.dumps(doc)) == doc
    assert list(doc["coef"]) == model.basis_names
