"""Epsilon-insensitive support vector regression trained by SMO.

The dual is solved over 2n box-constrained variables theta = [alpha; alpha*]
with sign vector s = [+1...; -1...] and the single equality constraint
s'theta = 0.  Each iteration picks a pair by second-order working-set
selection (WSS2; Fan, Chen & Lin, JMLR 2005), solves the two-variable
subproblem in closed form, clips to the box, and updates the gradient with
two kernel columns.  Work is organised in sweeps of up to n pair updates;
the dual objective is recorded after every sweep and is non-decreasing
because every pair update maximises the dual along its feasible direction.

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
# Rows of the training Gram matrix per kernel call (see gram_matrix).  A
# call's temporaries are a few _GRAM_BLOCK x n arrays: at n = 1,645 they
# peak at 1.2 MB beside the 20.65 MB result for 32 rows, against 9.65 MB
# for 256, and the bundled svr fits run no slower.
_GRAM_BLOCK = 32


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
        if self.epsilon < 0.0 or self.smo_tolerance < 0.0:
            raise ValueError("epsilon and smo_tolerance must be >= 0")
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
    pair_updates: int
    dual_objective_trace: list[float] = field(default_factory=list)
    # The decision value of each training row, in original units, from the
    # solver's final gradient; within rounding of predict_svr on the
    # training matrix.  Not serialized.
    train_prediction: np.ndarray | None = field(default=None, repr=False, compare=False)

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
            "pair_updates": self.pair_updates,
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


def gram_matrix(X: np.ndarray, gamma: float) -> np.ndarray:
    """``rbf_kernel(X, X, gamma)`` bit for bit, from its upper triangle.

    Each block of ``_GRAM_BLOCK`` rows is computed from the diagonal
    rightward and mirrored below it.  An entry depends only on its two rows
    and equals its mirror, so this halves the kernel work, gives the same
    bits for any block size, and needs beyond the result only one block's
    temporaries: a few ``_GRAM_BLOCK`` x n arrays.
    """
    n = len(X)
    K = np.empty((n, n))
    for r0 in range(0, n, _GRAM_BLOCK):
        r1 = min(r0 + _GRAM_BLOCK, n)
        K[r0:r1, r0:] = rbf_kernel(X[r0:r1], X[r0:], gamma)
        K[r1:, r0:r1] = K[r0:r1, r1:].T
    return K


def _kept_rows(matrix: FeatureMatrix, cfg: SvrConfig) -> slice | np.ndarray:
    """The training rows a fit keeps: all of them, or the most recent
    ``max_train_rows`` in row order."""
    if len(matrix) > cfg.max_train_rows:
        return np.sort(np.argsort(matrix.dates, kind="stable")[-cfg.max_train_rows :])
    return slice(None)


def _penalties(t: float, plus: bool, C: float) -> tuple[float, float]:
    """(lo, hi) working-set penalties of one dual variable at value ``t``.

    Every index bounds the equality-constraint multiplier from below (lo
    set), above (hi set), or both (interior).  The penalty is 0 on a set and
    -inf (lo) or +inf (hi) off it, so the lo-set maximum of q is the
    maximum of q + lo penalty; a positive lo-hi overlap is the KKT violation.
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
    ``converged`` flag).  A constant target is the solution with every dual
    at zero, taken without a solve.  Rows beyond ``max_train_rows`` are
    dropped oldest first: exact kernel solves scale quadratically and recent
    history carries the relevant signal.
    """
    if not len(matrix):
        raise ValueError("cannot fit on an empty matrix")
    kept = _kept_rows(matrix, cfg)
    X, y = matrix.rows[kept], matrix.target[kept]
    if len(X) < len(matrix):
        logger.info("capped SVR training to the most recent %d of %d rows", len(X), len(matrix))

    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd < _TINY, 1.0, sd)
    Xz = (X - mu) / sd
    y_mean = float(y.mean()) if cfg.standardize_target else 0.0
    y_std = float(y.std()) if cfg.standardize_target else 1.0
    gamma = cfg.rbf_gamma if cfg.rbf_gamma is not None else 1.0 / X.shape[1]

    if cfg.standardize_target and y_std < _TINY:
        # Constant target: the epsilon tube around the mean covers every
        # row, so every dual is zero and there is nothing to solve.
        y_std = 1.0
        beta = K_beta = np.zeros(len(y))
        bias, converged, violation, sweeps, pair_updates, trace = 0.0, True, 0.0, 0, 0, [0.0]
    else:
        beta, K_beta, bias, converged, violation, sweeps, pair_updates, trace = _solve_dual(
            Xz, (y - y_mean) / y_std, gamma, cfg
        )

    sv = np.abs(beta) > _TINY
    model = SvrModel(
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
        target_std=y_std,
        converged=converged,
        kkt_violation_achieved=violation,
        sweeps=sweeps,
        pair_updates=pair_updates,
        dual_objective_trace=trace,
    )
    # For a trained row k, q_k = (K beta)_k + eps - yz_k, so its decision
    # value needs no kernel pass.  Only rows the cap dropped are predicted.
    model.train_prediction = np.empty(len(matrix))
    model.train_prediction[kept] = y_mean + y_std * (K_beta + bias)
    if len(X) < len(matrix):
        dropped = np.ones(len(matrix), dtype=bool)
        dropped[kept] = False
        model.train_prediction[dropped] = predict_svr(model, matrix.select_rows(dropped))
    return model


def _solve_dual(Xz: np.ndarray, yz: np.ndarray, gamma: float, cfg: SvrConfig) -> tuple:
    """SMO on the standardized rows: (beta, K beta, bias, converged, KKT
    violation, sweeps, pair updates, dual objective after each sweep)."""
    n = len(yz)
    K = gram_matrix(Xz, gamma)
    diag = K.diagonal().copy()
    C, eps = cfg.C, cfg.epsilon

    theta = [0.0] * (2 * n)
    # q_u = s_u * grad_u of the minimisation form; at theta = 0 the gradient
    # is [eps - y; eps + y], so q starts at [eps - y; -eps - y].  It is kept
    # as two copies with the working-set penalties (see _penalties) added:
    # q_lo = q + lo penalty and q_hi = q + hi penalty.  A penalty is 0 or
    # infinite, so adding a gradient step to a copy gives the bits of
    # adding it to q first, and a pair update rewrites only the entries of
    # theta_i and theta_j.
    q_pen = np.empty((2, 2 * n))
    q_lo, q_hi = q_pen
    for half, plus, start in ((slice(None, n), True, eps - yz), (slice(n, None), False, -eps - yz)):
        pen_lo, pen_hi = _penalties(0.0, plus, C)
        q_lo[half], q_hi[half] = start + pen_lo, start + pen_hi
    q_step = q_pen.reshape(4, n)  # view: a gradient step adds the same h to each quarter
    gap = np.empty(2 * n)
    gain = np.empty(2 * n)
    gain2 = gain.reshape(2, n)
    curv = np.empty(n)
    h = np.empty(n)

    trace: list[float] = []
    violation = 0.0
    pair_updates = 0
    converged = False

    for sweeps_done in range(1, cfg.max_passes + 1):
        progressed = False
        for _ in range(n):
            i = int(q_lo.argmax())
            q_i = float(q_lo[i])
            # gap_t = q_i - q_t on the hi set and -inf off it; its maximum
            # is q_i minus the hi-set minimum of q, the KKT violation.
            np.subtract(q_i, q_hi, out=gap)
            violation = float(gap.max())
            if violation <= cfg.smo_tolerance:
                converged = True
                break
            # WSS2: j maximises the dual gain gap_t^2 / a_t of the pair (i, t)
            # over the candidates, hi-set t with q_t < q_i, where
            # a_t = K_ii + K_tt - 2 K_it is floored at _TINY; ties go to the
            # lowest index.  Clipping gap at 0 gives every other index a
            # gain of 0, below any candidate's unless all of those underflow.
            bi = i % n
            K_i = K[bi]
            np.multiply(K_i, 2.0, out=h)
            np.add(diag, K_i[bi], out=curv)
            curv -= h
            np.maximum(curv, _TINY, out=curv)
            np.maximum(gap, 0.0, out=gap)
            np.multiply(gap, gap, out=gain)
            gain2 /= curv
            j = int(gain.argmax())
            if gain[j] == 0.0:
                j = int((gap > 0.0).argmax())
            bj = j % n
            q_j = float(q_hi[j])
            step = -(q_i - q_j) / float(curv[bj])
            # theta_i moves by s_i*step and theta_j by -s_j*step; clip the
            # step so both stay inside [0, C].
            t_i, t_j = theta[i], theta[j]
            if i < n:
                s_i, lo_i, hi_i = 1.0, -t_i, C - t_i
            else:
                s_i, lo_i, hi_i = -1.0, t_i - C, t_i
            if j < n:
                s_j, lo_j, hi_j = 1.0, t_j - C, t_j
            else:
                s_j, lo_j, hi_j = -1.0, -t_j, C - t_j
            step = min(max(step, lo_i, lo_j), hi_i, hi_j)
            if step == 0.0:
                break
            theta[i] = t_i = min(max(t_i + s_i * step, 0.0), C)
            theta[j] = t_j = min(max(t_j - s_j * step, 0.0), C)
            pen_lo, pen_hi = _penalties(t_i, i < n, C)
            q_lo[i], q_hi[i] = q_i + pen_lo, q_i + pen_hi
            pen_lo, pen_hi = _penalties(t_j, j < n, C)
            q_lo[j], q_hi[j] = q_j + pen_lo, q_j + pen_hi
            np.subtract(K_i, K[bj], out=h)
            h *= step
            q_step += h
            pair_updates += 1
            progressed = True
        # On the plus half q_k = (K beta)_k + eps - yz_k, so the dual
        # objective yz'beta - eps*sum(theta) - beta'K beta / 2 needs no
        # kernel pass.  An index is in the lo set or the hi set, where its
        # copy of q carries no penalty.
        theta_a = np.array(theta)
        beta = theta_a[:n] - theta_a[n:]
        K_beta = np.where(q_lo[:n] == -np.inf, q_hi[:n], q_lo[:n]) - eps + yz
        trace.append(
            float(np.einsum("i,i->", yz, beta) - eps * theta_a.sum() - 0.5 * np.einsum("i,i->", beta, K_beta))
        )
        if converged or not progressed:
            break

    if not converged:
        logger.warning(
            "SMO stopped after %d sweeps with KKT violation %.3g > %.3g",
            sweeps_done,
            violation,
            cfg.smo_tolerance,
        )

    bias = -(float(q_lo.max()) + float(q_hi.min())) / 2.0
    # beta and K_beta are the last sweep's, which left theta as it is.
    return beta, K_beta, bias, converged, max(violation, 0.0), sweeps_done, pair_updates, trace


def _decision_standardized(model: SvrModel, Xz: np.ndarray) -> np.ndarray:
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
