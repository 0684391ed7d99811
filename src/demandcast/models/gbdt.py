"""Gradient-boosted regression trees with presorted exact greedy split search.

Squared-error boosting: each round fits a depth-limited binary tree to the
current residuals.  With squared loss the per-row hessian is 1, so leaf
weights reduce to sum(residuals) / (rows + l2_lambda) and the split gain to

    0.5 * (GL^2/(nL+lam) + GR^2/(nR+lam) - G^2/(n+lam))

over every feature and every midpoint between consecutive distinct sorted
values.  Candidate rows are canonically ordered by (feature value,
residual), so fits are invariant to row permutation.

The residuals are fixed while a tree grows, so each feature column is
sorted once per tree, at the root (the column blocks of Chen & Guestrin,
KDD 2016).  A split partitions every sorted list with a boolean mask, which
is stable: each child's lists are exactly the (value, residual) order that
sorting the child's rows would give, and every running sum adds the same
numbers in the same order.  The search therefore picks the same splits,
bit for bit, as a sort at every node.  There is no subsampling and no
randomness anywhere: two fits on identical input are bit-identical.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..errors import NoSplitsError, SchemaMismatchError
from ..features import FeatureMatrix

logger = logging.getLogger(__name__)

_LEAF = -1


@dataclass(frozen=True)
class GbdtConfig:
    n_trees: int = 100
    learning_rate: float = 0.1
    l2_lambda: float = 0.1
    max_depth: int = 6
    min_child_rows: int = 1
    gamma_split_threshold: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.learning_rate <= 1.0):
            raise ValueError("learning_rate must lie in (0, 1]")
        if self.l2_lambda < 0.0:
            raise ValueError("l2_lambda must be >= 0")
        if self.n_trees < 0 or self.max_depth < 1 or self.min_child_rows < 1:
            raise ValueError("n_trees, max_depth, min_child_rows must be positive")


@dataclass
class RegressionTree:
    """Flat-array binary tree; feature == -1 marks a leaf."""

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)

    def add_node(self) -> int:
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(0.0)
        return len(self.feature) - 1

    def predict(self, X: np.ndarray) -> np.ndarray:
        feature = np.asarray(self.feature)
        threshold = np.asarray(self.threshold)
        left = np.asarray(self.left)
        right = np.asarray(self.right)
        value = np.asarray(self.value)
        node = np.zeros(len(X), dtype=np.int64)
        while True:
            internal = feature[node] != _LEAF
            if not internal.any():
                break
            idx = np.flatnonzero(internal)
            f = feature[node[idx]]
            goes_left = X[idx, f] <= threshold[node[idx]]
            node[idx] = np.where(goes_left, left[node[idx]], right[node[idx]])
        return value[node]


@dataclass
class GbdtModel:
    config: GbdtConfig
    base_score: float
    trees: list[RegressionTree]
    feature_names: list[str]
    gain_totals: dict[str, float]
    # Each training row's prediction, as boosting left it: bit for bit what
    # predict_gbdt gives on the training matrix.  Not serialized.
    train_prediction: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "kind": "gbdt",
            "config": asdict(self.config),
            "base_score": self.base_score,
            "feature_names": list(self.feature_names),
            "gain_totals": dict(self.gain_totals),
            "trees": [
                {
                    "feature": t.feature,
                    "threshold": t.threshold,
                    "left": t.left,
                    "right": t.right,
                    "value": t.value,
                }
                for t in self.trees
            ],
        }


def _best_split(
    XT: np.ndarray,
    residual: np.ndarray,
    rows: np.ndarray,
    idx: np.ndarray,
    cfg: GbdtConfig,
) -> tuple[float, int, float] | None:
    """Highest-gain (feature, threshold) over all exact candidates of a node.

    ``idx`` holds the node's rows once per feature, each row of it in
    (feature value, residual, row) order, so every feature is scored at once
    from running residual sums.  Ties break toward the lowest feature index,
    then the lowest threshold: the first maximum in row-major order.
    """
    m = len(rows)
    g_total = float(residual[rows].sum())
    n_total = float(m)
    lam = cfg.l2_lambda
    parent = g_total * g_total / (n_total + lam)
    # Position i splits off the first i + 1 sorted rows.  Candidates lie
    # between distinct values and leave min_child_rows on each side.
    lo, hi = cfg.min_child_rows - 1, m - cfg.min_child_rows
    xs = XT[np.arange(len(XT))[:, None], idx]
    f, i = np.divmod(np.flatnonzero(xs[:, lo:hi] != xs[:, lo + 1 : hi + 1]), hi - lo)
    i += lo
    g_left = np.cumsum(residual[idx], axis=1)[f, i]
    n_left = i + 1.0
    g_right = g_total - g_left
    gains = 0.5 * (
        g_left * g_left / (n_left + lam)
        + g_right * g_right / (n_total - n_left + lam)
        - parent
    )
    if not len(gains):
        return None
    k = int(np.argmax(gains))
    if not gains[k] > cfg.gamma_split_threshold:
        return None
    f, i = int(f[k]), int(i[k])
    return float(gains[k]), f, float((xs[f, i] + xs[f, i + 1]) / 2.0)


def _build_tree(
    XT: np.ndarray,
    ranks: np.ndarray,
    residual: np.ndarray,
    cfg: GbdtConfig,
    gain_totals: dict[str, float],
    feature_names: Sequence[str],
) -> tuple[RegressionTree, np.ndarray]:
    """Grow one tree on the residuals; also return each row's leaf value.

    ``ranks`` holds each value's rank within its column of ``XT``.
    """
    tree = RegressionTree()
    n_features, n_rows = XT.shape
    leaf_value = np.empty(n_rows)
    goes_left = np.zeros(n_rows, dtype=bool)

    def splittable(rows: np.ndarray, depth: int) -> bool:
        return depth < cfg.max_depth and len(rows) >= 2 * cfg.min_child_rows

    def grow(rows: np.ndarray, idx: np.ndarray | None, depth: int) -> int:
        node = tree.add_node()
        split = None if idx is None else _best_split(XT, residual, rows, idx, cfg)
        if split is None:
            value = float(residual[rows].sum()) / (len(rows) + cfg.l2_lambda)
            tree.value[node] = value
            leaf_value[rows] = value
            return node
        gain, f, threshold = split
        gain_totals[feature_names[f]] = gain_totals.get(feature_names[f], 0.0) + gain
        side = XT[f, rows] <= threshold
        goes_left[rows] = side
        left_rows = rows[side]
        right_rows = rows[~side]
        # Masking each sorted list keeps both children's lists sorted.
        mask = goes_left[idx]
        left_idx = right_idx = None
        if splittable(left_rows, depth + 1):
            left_idx = idx[mask].reshape(n_features, len(left_rows))
        if splittable(right_rows, depth + 1):
            right_idx = idx[~mask].reshape(n_features, len(right_rows))
        tree.feature[node] = f
        tree.threshold[node] = threshold
        tree.left[node] = grow(left_rows, left_idx, depth + 1)
        tree.right[node] = grow(right_rows, right_idx, depth + 1)
        return node

    rows = np.arange(n_rows)
    idx = None
    if splittable(rows, 0):
        # (value, residual, row) order: a stable sort by value rank of the
        # rows already in (residual, row) order.
        by_residual = np.argsort(residual, kind="stable")
        idx = by_residual[np.argsort(ranks[:, by_residual], axis=1, kind="stable")]
    grow(rows, idx, 0)
    return tree, leaf_value


def fit_gbdt(matrix: FeatureMatrix, cfg: GbdtConfig = GbdtConfig()) -> GbdtModel:
    """Boost ``cfg.n_trees`` trees against the matrix target.

    A constant target degenerates gracefully: no split clears the gain
    threshold, every tree is a zero-weight leaf, and predictions equal the
    base score.
    """
    if not len(matrix):
        raise ValueError("cannot fit on an empty matrix")
    XT = np.ascontiguousarray(matrix.rows.T)
    y = matrix.target
    # Sorting small integer ranks orders rows as sorting the values does,
    # and numpy radix-sorts them when they fit in 16 bits.
    ranks = np.stack([np.unique(col, return_inverse=True)[1] for col in XT])
    ranks = ranks.astype(np.min_scalar_type(len(y)))
    base = float(y.mean())
    gain_totals = {name: 0.0 for name in matrix.columns}
    trees: list[RegressionTree] = []
    prediction = np.full(len(y), base)
    for _ in range(cfg.n_trees):
        residual = y - prediction
        tree, leaf_value = _build_tree(XT, ranks, residual, cfg, gain_totals, matrix.columns)
        trees.append(tree)
        prediction = prediction + cfg.learning_rate * leaf_value
    return GbdtModel(
        config=cfg,
        base_score=base,
        trees=trees,
        feature_names=list(matrix.columns),
        gain_totals=gain_totals,
        train_prediction=prediction,
    )


def predict_gbdt(model: GbdtModel, matrix: FeatureMatrix) -> np.ndarray:
    if list(matrix.columns) != list(model.feature_names):
        raise SchemaMismatchError(
            f"matrix columns {matrix.columns} != model features {model.feature_names}"
        )
    out = np.full(len(matrix), model.base_score)
    X = np.ascontiguousarray(matrix.rows)
    for tree in model.trees:
        out += model.config.learning_rate * tree.predict(X)
    return out


def feature_importance(gain_totals: Mapping[str, float]) -> list[tuple[str, float]]:
    """Gain shares per feature, descending, ties broken by name.

    ``gain_totals`` is one model's ``gain_totals`` or their sum over models.
    """
    total = sum(gain_totals.values())
    if total <= 0.0:
        raise NoSplitsError("model contains no accepted splits")
    ranked = sorted(gain_totals.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(name, gain / total) for name, gain in ranked]
