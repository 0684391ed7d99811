import json

import numpy as np
import pytest

from demandcast.errors import SingularDesignError
from demandcast.models.arimax import ArimaxModel, fit_arimax, forecast_arimax, in_sample_predictions


def ar1_series(c, phi, n, y0=1.0, exog=None, beta=None, noise=None):
    y = np.empty(n)
    y[0] = y0
    for t in range(1, n):
        y[t] = c + phi * y[t - 1]
        if exog is not None:
            y[t] += exog[t] @ beta
        if noise is not None:
            y[t] += noise[t]
    return y


def no_exog(n):
    """The zero-column regressor matrix of a fit without exogenous inputs."""
    return np.empty((n, 0))


def names(X):
    return [f"x{j}" for j in range(X.shape[1])]


def normal_equations(design, target):
    return np.linalg.solve(design.T @ design, design.T @ target)


def test_noiseless_ar1_recovery():
    y = ar1_series(2.0, 0.5, 60)
    model = fit_arimax(y, no_exog(60), [])
    assert abs(model.intercept - 2.0) < 1e-8
    assert abs(model.phi - 0.5) < 1e-8


def test_noiseless_exogenous_recovery():
    rng = np.random.default_rng(0)
    holiday = (rng.uniform(size=80) < 0.2).astype(float)[:, None]
    y = ar1_series(3.0, 0.0, 80, exog=holiday, beta=np.array([1.0]))
    model = fit_arimax(y, holiday, exog_names=["holiday"])
    assert abs(model.beta[0] - 1.0) < 1e-8
    assert abs(model.phi) < 1e-8
    assert model.exog_names == ["holiday"]


def test_constant_series_fits_exactly():
    y = np.full(30, 7.5)
    model = fit_arimax(y, no_exog(30), [])
    fitted = in_sample_predictions(model, y, no_exog(30))
    assert np.allclose(fitted, 7.5, atol=1e-9)
    # One value per training row; day 0 has no lag and is the row's own value.
    assert len(fitted) == len(y)
    assert fitted[0] == y[0]


def test_css_equals_normal_equations_on_random_series():
    rng = np.random.default_rng(123)
    for _ in range(50):
        n = int(rng.integers(30, 120))
        k = int(rng.integers(0, 3))
        phi = float(rng.uniform(-0.8, 0.8))
        c = float(rng.uniform(-2, 2))
        beta = rng.uniform(-1, 1, size=k)
        exog = rng.normal(size=(n, k))
        noise = rng.normal(scale=0.5, size=n)
        y = ar1_series(c, phi, n, exog=exog, beta=beta, noise=noise)
        model = fit_arimax(y, exog, names(exog))
        design = np.column_stack([np.ones(n - 1), y[:-1], exog[1:]])
        expected = normal_equations(design, y[1:])
        got = np.concatenate([[model.intercept, model.phi], model.beta])
        assert np.allclose(got, expected, atol=1e-8)


def test_residuals_orthogonal_to_design():
    rng = np.random.default_rng(9)
    n = 200
    exog = rng.normal(size=(n, 2))
    y = ar1_series(1.0, 0.6, n, exog=exog, beta=np.array([0.5, -0.3]),
                   noise=rng.normal(scale=1.0, size=n))
    model = fit_arimax(y, exog, names(exog))
    design = np.column_stack([np.ones(n - 1), y[:-1], exog[1:]])
    residuals = y[1:] - design @ np.concatenate([[model.intercept, model.phi], model.beta])
    dots = design.T @ residuals / len(residuals)
    assert np.abs(dots).max() < 1e-6


def test_recursive_forecast_fixture():
    model = ArimaxModel(
        intercept=0.0, phi=0.5, beta=np.empty(0), exog_names=[],
        sigma2=0.0, last_train_value=8.0, n_obs=10,
    )
    out = forecast_arimax(model, no_exog(3))
    assert np.allclose(out, [4.0, 2.0, 1.0])


def test_phi_zero_forecast_is_pure_regression():
    model = ArimaxModel(
        intercept=2.0, phi=0.0, beta=np.array([3.0]), exog_names=["x"],
        sigma2=0.0, last_train_value=100.0, n_obs=10,
    )
    X = np.array([[0.0], [1.0], [0.0], [1.0]])
    out = forecast_arimax(model, X)
    assert np.allclose(out, [2.0, 5.0, 2.0, 5.0])


def test_singular_design_from_constant_exogenous_column():
    rng = np.random.default_rng(2)
    y = rng.uniform(size=50)
    exog = np.ones((50, 1))
    with pytest.raises(SingularDesignError):
        fit_arimax(y, exog, ["one"])


def test_recursive_forecast_bounded_for_stationary_phi():
    rng = np.random.default_rng(3)
    exog = rng.uniform(-1, 1, size=(400, 1))
    model = ArimaxModel(
        intercept=0.5, phi=0.9, beta=np.array([2.0]), exog_names=["x"],
        sigma2=0.0, last_train_value=10.0, n_obs=50,
    )
    out = forecast_arimax(model, exog)
    bound = (abs(model.intercept) + 2.0) / (1 - 0.9) + abs(model.last_train_value)
    assert np.abs(out).max() <= bound


def test_serialization_roundtrip():
    rng = np.random.default_rng(4)
    exog = rng.normal(size=(60, 2))
    y = ar1_series(1.0, 0.4, 60, exog=exog, beta=np.array([1.0, -2.0]),
                   noise=rng.normal(scale=0.1, size=60))
    model = fit_arimax(y, exog, exog_names=["a", "b"])
    # The saved model artifact is plain JSON and survives a round trip unchanged.
    doc = model.to_dict()
    assert json.loads(json.dumps(doc)) == doc
    assert list(doc["beta"]) == ["a", "b"]
