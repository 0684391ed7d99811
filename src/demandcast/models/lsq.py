"""Least squares by Householder QR, with no BLAS call.

The factorization is the column-by-column Householder QR of Golub & Van
Loan, *Matrix Computations*, section 5.2.  Every inner product is an
``einsum`` without ``optimize``, which sums in a fixed order on the calling
thread and never reaches BLAS, so a solve gives the same bits whatever the
BLAS thread count and whichever process runs it.

Rank test: column j of A counts as linearly dependent on the columns before
it when |R_jj| <= RANK_RTOL * ||A_j||, i.e. when the part of the column that
the earlier columns do not explain is below 1e-10 of the column's length.
||A_j|| is read off R as well (Q is orthogonal, so ||A_j|| = ||R[:j+1, j]||),
which makes the test independent of each column's scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RANK_RTOL = 1e-10


@dataclass(frozen=True)
class HouseholderQR:
    """A = QR for an m x p matrix with m >= p.

    Q = H_0 H_1 ... H_{p-1}, where H_k = I - tau_k v_k v_k' acts on rows
    k.. only; ``r`` is the p x p upper triangle.
    """

    reflectors: tuple[tuple[np.ndarray, float], ...]
    r: np.ndarray
    m: int


def householder_qr(a: np.ndarray) -> HouseholderQR:
    """Factor ``a`` one column at a time; ``a`` itself is not modified."""
    work = np.array(a, dtype=np.float64)
    m, p = work.shape
    if m < p:
        raise ValueError(f"need at least as many rows as columns, got {m} x {p}")
    reflectors = []
    for k in range(p):
        v = work[k:, k].copy()
        norm = float(np.sqrt(np.einsum("i,i->", v, v)))
        # The sign opposite to v[0] keeps v[0] - alpha free of cancellation.
        alpha = -norm if v[0] >= 0.0 else norm
        v[0] -= alpha
        vv = float(np.einsum("i,i->", v, v))
        tau = 2.0 / vv if vv > 0.0 else 0.0
        rest = work[k:, k + 1 :]
        rest -= (tau * v)[:, None] * np.einsum("i,ij->j", v, rest)[None, :]
        work[k, k] = alpha
        reflectors.append((v, tau))
    return HouseholderQR(tuple(reflectors), np.triu(work[:p]), m)


def apply_qt(qr: HouseholderQR, b: np.ndarray) -> np.ndarray:
    """Q'b for a vector of length m."""
    out = np.array(b, dtype=np.float64)
    for k, (v, tau) in enumerate(qr.reflectors):
        out[k:] -= (tau * float(np.einsum("i,i->", v, out[k:]))) * v
    return out


def thin_q(qr: HouseholderQR) -> np.ndarray:
    """The first p columns of Q, as an m x p matrix."""
    p = len(qr.reflectors)
    q = np.zeros((qr.m, p))
    q[:p, :p] = np.eye(p)
    # Backward accumulation: columns before k are still unit vectors above
    # row k when H_k is applied, so H_k touches only the block q[k:, k:].
    for k in range(p - 1, -1, -1):
        v, tau = qr.reflectors[k]
        block = q[k:, k:]
        block -= (tau * v)[:, None] * np.einsum("i,ij->j", v, block)[None, :]
    return q


def back_substitute(r: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve r x = rhs for upper-triangular r; rhs is (p,) or (p, k)."""
    x = np.array(rhs, dtype=np.float64)
    for i in range(len(r) - 1, -1, -1):
        x[i] -= np.einsum("j,j...->...", r[i, i + 1 :], x[i + 1 :])
        x[i] /= r[i, i]
    return x


def dependent_columns(qr: HouseholderQR) -> np.ndarray:
    """Mask of the columns that the rank test (module docstring) flags."""
    diag = np.abs(np.diagonal(qr.r))
    lengths = np.sqrt(np.einsum("ij,ij->j", qr.r, qr.r))
    return diag <= RANK_RTOL * lengths


def pseudo_inverse(qr: HouseholderQR) -> np.ndarray:
    """R^-1 Q_1', the p x m matrix that maps b to the least-squares x."""
    return back_substitute(qr.r, thin_q(qr).T)

