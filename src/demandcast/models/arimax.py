"""AR(1) regression with exogenous inputs, fit by conditional least squares.

With order (1,0,0) there is no differencing and no moving-average recursion,
so conditional least squares is exactly ordinary least squares of y_t on
[1, y_{t-1}, x_t] for t >= 2.  The solver is the Householder QR of
:mod:`.lsq`; tests check it against a direct normal-equations solve.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..errors import SingularDesignError
from .lsq import apply_qt, back_substitute, dependent_columns, householder_qr

logger = logging.getLogger(__name__)


@dataclass
class ArimaxModel:
    intercept: float
    phi: float
    beta: np.ndarray
    exog_names: list[str]
    sigma2: float
    last_train_value: float
    n_obs: int

    def to_dict(self) -> dict:
        return {
            "kind": "arimax",
            "order": [1, 0, 0],
            "intercept": self.intercept,
            "phi": self.phi,
            "beta": {name: float(b) for name, b in zip(self.exog_names, self.beta)},
            "sigma2": self.sigma2,
            "last_train_value": self.last_train_value,
            "n_obs": self.n_obs,
        }


def fit_arimax(y: np.ndarray, X: np.ndarray, exog_names: list[str]) -> ArimaxModel:
    """Fit y_t = c + phi*y_{t-1} + beta'x_t + e_t on rows t >= 2.

    ``X`` holds one column per name in ``exog_names``; with no regressors it
    has zero columns.

    Raises :class:`SingularDesignError` when the intercept-plus-exogenous
    block is rank-deficient (e.g. a constant exogenous column duplicating
    the intercept).  A rank deficiency caused only by the lagged-target
    column (a constant series) is solved in the minimum-norm sense instead,
    which reproduces the series exactly.
    """
    y = np.asarray(y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if len(X) != len(y):
        raise ValueError("exogenous matrix must be row-aligned with y")
    k_exog = X.shape[1]
    n_params = 2 + k_exog
    if len(y) < n_params + 2:
        raise ValueError(f"need at least {n_params + 2} observations, got {len(y)}")
    if len(exog_names) != k_exog:
        raise ValueError("exog_names length must match exogenous columns")

    # The lagged target goes last, so R's diagonal tests the intercept and
    # exogenous block on its own before the lag column is considered.
    design = np.column_stack([np.ones(len(y) - 1), X[1:], y[:-1]])
    target = y[1:]
    qr = householder_qr(design)
    dependent = dependent_columns(qr)
    if dependent[:-1].any():
        raise SingularDesignError(
            "intercept and exogenous columns are linearly dependent"
        )

    rhs = apply_qt(qr, target)[:n_params]
    if dependent[-1]:
        # Every solution is one particular solution plus a multiple of R's
        # null vector; the minimum-norm one is orthogonal to that vector.
        r11, r12 = qr.r[:-1, :-1], qr.r[:-1, -1]
        coef = np.append(back_substitute(r11, rhs[:-1]), 0.0)
        null = np.append(-back_substitute(r11, r12), 1.0)
        coef -= (np.einsum("i,i->", coef, null) / np.einsum("i,i->", null, null)) * null
    else:
        coef = back_substitute(qr.r, rhs)
    residuals = target - np.einsum("ij,j->i", design, coef)
    dof = max(len(target) - n_params, 1)
    sigma2 = float(np.einsum("i,i->", residuals, residuals)) / dof

    phi = float(coef[-1])
    if abs(phi) >= 1.0:
        logger.warning("fitted AR coefficient %.4f is non-stationary", phi)
    return ArimaxModel(
        intercept=float(coef[0]),
        phi=phi,
        beta=coef[1:-1].copy(),
        exog_names=list(exog_names),
        sigma2=sigma2,
        last_train_value=float(y[-1]),
        n_obs=len(y),
    )


def forecast_arimax(model: ArimaxModel, X_future: np.ndarray) -> np.ndarray:
    """Forecast one step per row of ``X_future`` past the training window.

    Each forecast is fed back in as the next lag, seeded with the final
    training value.
    """
    exog = np.einsum("ij,j->i", np.asarray(X_future, dtype=np.float64), model.beta)
    out = np.empty(len(exog), dtype=np.float64)
    prev = model.last_train_value
    for t in range(len(exog)):
        out[t] = prev = model.intercept + model.phi * prev + exog[t]
    return out


def in_sample_predictions(model: ArimaxModel, y: np.ndarray, X: np.ndarray) -> np.ndarray:
    """One-step fitted values, one per training row.

    Day 0 has no lag, so its value is the observation itself.
    """
    y = np.asarray(y, dtype=np.float64)
    exog = np.einsum("ij,j->i", np.asarray(X, dtype=np.float64)[1:], model.beta)
    return np.concatenate([y[:1], model.intercept + model.phi * y[:-1] + exog])
