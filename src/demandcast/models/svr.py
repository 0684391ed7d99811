"""Epsilon-insensitive support vector regression trained by SMO.

The dual is solved over 2n box-constrained variables theta = [alpha; alpha*]
with sign vector s = [+1...; -1...] and the single equality constraint
s'theta = 0.  Each iteration picks the maximal-violating pair, solves the
two-variable subproblem in closed form, clips to the box, and updates the
gradient with two kernel columns.  Work is organised in sweeps of up to n
pair updates; the dual objective is recorded after every sweep and is
non-decreasing because every pair update maximises the dual along its
feasible direction.

Features and target are z-scored with training statistics before fitting so
the epsilon tube has the same meaning across series of different volume;
predictions are mapped back to original units.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from ..errors import SchemaMismatchError
from ..features import FeatureMatrix

logger = logging.getLogger(__name__)

_TINY = 1e-12


@dataclass(frozen=True)
class SvrConfig:
    C: float = 1.0
    epsilon: float = 0.1
    rbf_gamma: float | None = None  # None -> 1 / n_features at fit time
    smo_tolerance: float = 1e-3
    max_passes: int = 100  # sweeps of up to n pair updates each
    max_train_rows: int = 2000  # most-recent rows kept beyond this
    standardize_target: bool = True

    def __post_init__(self) -> None:
        if self.C <= 0.0:
            raise ValueError("C must be positive")
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be >= 0")
        if self.rbf_gamma is not None and self.rbf_gamma <= 0.0:
            raise ValueError("rbf_gamma must be positive")
        if self.max_passes < 1 or self.max_train_rows < 1:
            raise ValueError("max_passes and max_train_rows must be positive")


@dataclass
class SvrModel:
    config: SvrConfig
    support_vectors: np.ndarray  # standardized feature rows
    support_indices: np.ndarray  # row positions within the capped training set
    dual_coeffs: np.ndarray  # alpha - alpha* per support vector
    bias: float  # on the standardized target scale
    gamma: float
    feature_names: list[str]
    feature_means: np.ndarray
    feature_stds: np.ndarray
    target_mean: float
    target_std: float
    converged: bool
    kkt_violation_achieved: float
    sweeps: int
    dual_objective_trace: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "kind": "svr",
            "config": asdict(self.config),
            "support_vectors": self.support_vectors.tolist(),
            "support_indices": self.support_indices.tolist(),
            "dual_coeffs": self.dual_coeffs.tolist(),
            "bias": self.bias,
            "gamma": self.gamma,
            "feature_names": list(self.feature_names),
            "feature_means": self.feature_means.tolist(),
            "feature_stds": self.feature_stds.tolist(),
            "target_mean": self.target_mean,
            "target_std": self.target_std,
            "converged": self.converged,
            "kkt_violation_achieved": self.kkt_violation_achieved,
            "sweeps": self.sweeps,
        }


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    # einsum without ``optimize`` sums each entry in a fixed order and calls
    # no BLAS, so the kernel does not depend on the BLAS thread count and an
    # entry depends only on its two rows, never on their position.
    a2 = np.sum(A * A, axis=1)
    b2 = np.sum(B * B, axis=1)
    d2 = a2[:, None] + b2[None, :] - 2.0 * np.einsum("ik,jk->ij", A, B)
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-gamma * d2)


def dual_objective(beta: np.ndarray, theta: np.ndarray, K: np.ndarray, y: np.ndarray, eps: float) -> float:
    Kb = np.einsum("ij,j->i", K, beta)
    return float(np.einsum("i,i->", y, beta) - eps * theta.sum() - 0.5 * np.einsum("i,i->", beta, Kb))


def _cap_rows(matrix: FeatureMatrix, cfg: SvrConfig) -> tuple[np.ndarray, np.ndarray]:
    X, y = matrix.rows, matrix.target
    if len(X) > cfg.max_train_rows:
        order = np.sort(np.argsort(matrix.dates, kind="stable")[-cfg.max_train_rows :])
        X, y = X[order], y[order]
    return X, y


def _penalties(t: float, plus: bool, C: float) -> tuple[float, float]:
    """(lo, hi) working-set penalties of one dual variable at value ``t``.

    Every index bounds the equality-constraint multiplier from below (lo
    set), above (hi set), or both (interior).  The penalty is 0 on a set and
    -inf (lo) or +inf (hi) off it, so the lo-set maximum of q is the
    maximum of q + lo penalty; a positive lo-hi overlap is the KKT violation
    and the two extremes form the maximal violating pair.
    """
    at_lower = t <= _TINY
    at_upper = t >= C - _TINY
    interior = not at_lower and not at_upper
    in_lo = interior or (at_lower and not plus) or (at_upper and plus)
    in_hi = interior or (at_lower and plus) or (at_upper and not plus)
    return (0.0 if in_lo else -np.inf), (0.0 if in_hi else np.inf)


def fit_svr(matrix: FeatureMatrix, cfg: SvrConfig = SvrConfig()) -> SvrModel:
    """Solve the epsilon-SVR dual with an RBF kernel by SMO.

    Stops when the maximum KKT violation drops to ``smo_tolerance`` or after
    ``max_passes`` sweeps (reported via a warning and the model's
    ``converged`` flag).  Rows beyond ``max_train_rows`` are dropped oldest
    first: exact kernel solves scale quadratically and recent history
    carries the relevant signal.
    """
    if not len(matrix):
        raise ValueError("cannot fit on an empty matrix")
    X, y = _cap_rows(matrix, cfg)
    if len(X) < len(matrix):
        logger.info(
            "capped SVR training to the most recent %d of %d rows",
            len(X),
            len(matrix),
        )

    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd < _TINY, 1.0, sd)
    Xz = (X - mu) / sd
    y_mean = float(y.mean()) if cfg.standardize_target else 0.0
    y_std = float(y.std()) if cfg.standardize_target else 1.0
    gamma = cfg.rbf_gamma if cfg.rbf_gamma is not None else 1.0 / X.shape[1]

    if cfg.standardize_target and y_std < _TINY:
        # Constant target: the epsilon tube around the mean covers everything.
        return SvrModel(
            config=cfg,
            support_vectors=np.empty((0, X.shape[1])),
            support_indices=np.empty(0, dtype=np.int64),
            dual_coeffs=np.empty(0),
            bias=0.0,
            gamma=gamma,
            feature_names=list(matrix.columns),
            feature_means=mu,
            feature_stds=sd,
            target_mean=y_mean,
            target_std=1.0,
            converged=True,
            kkt_violation_achieved=0.0,
            sweeps=0,
            dual_objective_trace=[0.0],
        )
    yz = (y - y_mean) / y_std

    n = len(yz)
    K = rbf_kernel(Xz, Xz, gamma)
    C, eps = cfg.C, cfg.epsilon

    theta = np.zeros(2 * n)
    # q_u = s_u * grad_u of the minimisation form; at theta = 0 the gradient
    # is [eps - y; eps + y], so q starts at [eps - y; -eps - y].
    q = np.concatenate([eps - yz, -eps - yz])
    q2 = q.reshape(2, n)  # view: a gradient step adds the same h to both halves
    # Working-set penalties (see _penalties), kept in place: a pair update
    # moves only theta_i and theta_j, so only their entries change.
    pen_lo = np.empty(2 * n)
    pen_hi = np.empty(2 * n)
    pen_lo[:n], pen_hi[:n] = _penalties(0.0, True, C)
    pen_lo[n:], pen_hi[n:] = _penalties(0.0, False, C)
    q_lo = np.empty(2 * n)
    q_hi = np.empty(2 * n)
    h = np.empty(n)

    trace: list[float] = []
    violation = 0.0
    sweeps_done = 0
    converged = False

    for sweep in range(cfg.max_passes):
        progressed = False
        for _ in range(n):
            np.add(q, pen_lo, out=q_lo)
            np.add(q, pen_hi, out=q_hi)
            i = int(np.argmax(q_lo))
            j = int(np.argmin(q_hi))
            violation = float(q_lo[i]) - float(q_hi[j])
            if violation <= cfg.smo_tolerance:
                converged = True
                break
            bi, bj = i % n, j % n
            kappa = max(K[bi, bi] + K[bj, bj] - 2.0 * K[bi, bj], _TINY)
            step = -(q[i] - q[j]) / kappa
            # theta_i moves by s_i*step and theta_j by -s_j*step; clip the
            # step so both stay inside [0, C].
            s_i = 1.0 if i < n else -1.0
            s_j = 1.0 if j < n else -1.0
            if s_i > 0:
                lo_i, hi_i = -theta[i], C - theta[i]
            else:
                lo_i, hi_i = theta[i] - C, theta[i]
            if s_j > 0:
                lo_j, hi_j = theta[j] - C, theta[j]
            else:
                lo_j, hi_j = -theta[j], C - theta[j]
            step = min(max(step, lo_i, lo_j), hi_i, hi_j)
            if step == 0.0:
                break
            theta[i] = min(max(theta[i] + s_i * step, 0.0), C)
            theta[j] = min(max(theta[j] - s_j * step, 0.0), C)
            pen_lo[i], pen_hi[i] = _penalties(theta[i], i < n, C)
            pen_lo[j], pen_hi[j] = _penalties(theta[j], j < n, C)
            np.subtract(K[bi], K[bj], out=h)
            h *= step
            q2 += h
            progressed = True
        beta = theta[:n] - theta[n:]
        trace.append(dual_objective(beta, theta, K, yz, eps))
        sweeps_done = sweep + 1
        if converged or not progressed:
            break

    if not converged:
        logger.warning(
            "SMO stopped after %d sweeps with KKT violation %.3g > %.3g",
            sweeps_done,
            violation,
            cfg.smo_tolerance,
        )

    np.add(q, pen_lo, out=q_lo)
    np.add(q, pen_hi, out=q_hi)
    bias = -(float(q_lo.max()) + float(q_hi.min())) / 2.0

    beta = theta[:n] - theta[n:]
    sv = np.abs(beta) > _TINY
    return SvrModel(
        config=cfg,
        support_vectors=Xz[sv].copy(),
        support_indices=np.flatnonzero(sv).astype(np.int64),
        dual_coeffs=beta[sv].copy(),
        bias=bias,
        gamma=gamma,
        feature_names=list(matrix.columns),
        feature_means=mu,
        feature_stds=sd,
        target_mean=y_mean,
        target_std=y_std if cfg.standardize_target else 1.0,
        converged=converged,
        kkt_violation_achieved=max(violation, 0.0),
        sweeps=sweeps_done,
        dual_objective_trace=trace,
    )


def _decision_standardized(model: SvrModel, Xz: np.ndarray) -> np.ndarray:
    if len(model.dual_coeffs) == 0:
        return np.full(len(Xz), model.bias)
    k = rbf_kernel(Xz, model.support_vectors, model.gamma)
    # Row-wise pairwise sum instead of BLAS matvec: identical rows must give
    # bit-identical predictions regardless of their position in the batch.
    return (k * model.dual_coeffs).sum(axis=1) + model.bias


def predict_svr(model: SvrModel, matrix: FeatureMatrix) -> np.ndarray:
    if list(matrix.columns) != list(model.feature_names):
        raise SchemaMismatchError(
            f"matrix columns {matrix.columns} != model features {model.feature_names}"
        )
    Xz = (matrix.rows - model.feature_means) / model.feature_stds
    fz = _decision_standardized(model, Xz)
    return model.target_mean + model.target_std * fz


def kkt_violation(model: SvrModel, matrix: FeatureMatrix) -> float:
    """Maximum complementarity violation of the fitted model on its training rows.

    For each row the epsilon-insensitive optimality conditions constrain the
    standardized residual r = y - f(x) according to the row's dual
    coefficient: free coefficients pin r to +-epsilon, coefficients at the
    box bound allow it past, and zero coefficients keep |r| inside the tube.
    The check evaluates the stored bias, so a perturbed bias shows up
    immediately.
    """
    if list(matrix.columns) != list(model.feature_names):
        raise SchemaMismatchError("matrix columns differ from model features")
    X, y = _cap_rows(matrix, model.config)
    Xz = (X - model.feature_means) / model.feature_stds
    yz = (y - model.target_mean) / model.target_std
    fz = _decision_standardized(model, Xz)
    r = yz - fz
    eps = model.config.epsilon
    C = model.config.C
    bnd = 1e-8 * max(C, 1.0)

    beta_full = np.zeros(len(yz))
    if len(model.support_indices):
        beta_full[model.support_indices] = model.dual_coeffs

    below = np.maximum(0.0, np.abs(r) - eps)  # applies where beta == 0
    violations = below.copy()
    pos = beta_full > bnd
    neg = beta_full < -bnd
    free_pos = pos & (beta_full < C - bnd)
    free_neg = neg & (beta_full > -C + bnd)
    at_upper = pos & ~free_pos
    at_lower = neg & ~free_neg
    violations[free_pos] = np.abs(r[free_pos] - eps)
    violations[free_neg] = np.abs(r[free_neg] + eps)
    violations[at_upper] = np.maximum(0.0, eps - r[at_upper])
    violations[at_lower] = np.maximum(0.0, r[at_lower] + eps)
    return float(violations.max()) if len(violations) else 0.0
