"""Gradient-boosted regression trees grown level by level from histograms.

Squared-error boosting: each round fits a depth-limited binary tree to the
current residuals.  With squared loss the per-row hessian is 1, so leaf
weights reduce to sum(residuals) / (rows + l2_lambda) and the split gain to

    0.5 * (GL^2/(nL+lam) + GR^2/(nR+lam) - G^2/(n+lam))

over every feature and every pair of consecutive distinct values at a node.

Values become ranks within their column, offset into one bin space, so the
histogram search of XGBoost ``hist`` (Chen & Guestrin, KDD 2016, 3.3)
scores the exact candidates.  Trees grow a level at a time: one
``bincount`` sums residuals per (node, bin) for the smaller child of each
split, the larger is its parent minus that (Ke et al., NeurIPS 2017), prefix
sums score every candidate of the level, and rows move by bin rank.

The split choice must not depend on summation order: candidates within
TIE_RTOL of their node's best gain, relative, tie, the lowest (feature,
threshold) among them wins, and it splits only when it beats
gamma_split_threshold by TIE_RTOL times the node's sum of squared residuals.  A
threshold is the midpoint of two values, or the lower one when the midpoint
rounds onto the upper, so ``x <= threshold`` applies the scored partition.
Rows take one canonical order per fit, so any row order fits bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field
from typing import Mapping

import numpy as np

from ..errors import NoSplitsError, SchemaMismatchError
from ..features import FeatureMatrix

logger = logging.getLogger(__name__)

_LEAF = -1
# Relative tolerance under which gains tie (see the module docstring).
TIE_RTOL = 1e-9


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
        if self.l2_lambda < 0.0 or self.gamma_split_threshold < 0.0:
            raise ValueError("l2_lambda and gamma_split_threshold must be >= 0")
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


def _histograms(
    bins: np.ndarray, residual: np.ndarray, node: np.ndarray, n_nodes: int, n_bins: int
) -> np.ndarray:
    """Residual sums ([0]) and row counts ([1]) per (node, bin) of the given rows."""
    keys = (node[:, None] * n_bins + bins).ravel()
    hist = np.empty((2, n_nodes * n_bins))
    hist[0] = np.bincount(keys, np.repeat(residual, bins.shape[1]), hist.shape[1])
    hist[1] = np.bincount(keys, minlength=hist.shape[1])
    return hist.reshape(2, n_nodes, n_bins)


def _best_splits(
    hist: np.ndarray, edges: np.ndarray, start: np.ndarray, floor: np.ndarray, cfg: GbdtConfig
) -> tuple[np.ndarray, ...]:
    """The nodes whose best gain exceeds their ``floor``, each with its last
    left bin, next non-empty bin, left and right row counts and gain.

    ``start`` holds the first bin of each bin's feature.
    """
    n_nodes, n_bins = hist.shape[1:]
    nonempty = hist[1] > 0
    # Prefix sums along each node's bins after a zero column: splitting after
    # bin b sends the rows in its feature's bins up to b left.
    prefix = np.zeros((2, n_nodes, n_bins + 1))
    np.cumsum(np.where(nonempty, hist, 0.0), axis=2, out=prefix[:, :, 1:])
    g_left, n_left = prefix[:, :, 1:] - prefix.take(start, axis=2)
    # Node totals are the sums over the first feature's bins.
    g_total, n_total = prefix[:, :, edges[1], None]
    g_right, n_right = g_total - g_left, n_total - n_left
    lam = cfg.l2_lambda
    with np.errstate(divide="ignore", invalid="ignore"):  # empty sides are discarded
        gain = 0.5 * (
            g_left * g_left / (n_left + lam)
            + g_right * g_right / (n_right + lam)
            - g_total * g_total / (n_total + lam)
        )
    # A candidate closes a non-empty bin and leaves min_child_rows on each side.
    gain = np.where(nonempty & (np.minimum(n_left, n_right) >= cfg.min_child_rows), gain, -np.inf)
    best = gain.max(axis=1, keepdims=True)
    # Bins run in (feature, value) order, so a node's first tied bin is its
    # lowest (feature, threshold).
    b = np.argmax(gain >= best - TIE_RTOL * np.abs(best), axis=1)
    gain = gain[np.arange(n_nodes), b]
    node = np.flatnonzero(gain > floor)
    b = b[node]
    # Bins after b up to the next non-empty one add no rows, so counting the
    # bins whose prefix count is at most b's gives that bin's index.
    count = prefix[1, node]
    b_next = np.count_nonzero(count[:, 1:] <= count[np.arange(len(node)), b + 1, None], axis=1)
    return node, b, b_next, n_left[node, b], n_right[node, b], gain[node]


def _build_tree(
    bins: np.ndarray,
    bin_value: np.ndarray,
    edges: np.ndarray,
    residual: np.ndarray,
    cfg: GbdtConfig,
    gain_totals: np.ndarray,
) -> tuple[RegressionTree, np.ndarray]:
    """Grow one tree, one level at a time; also return each row's leaf value.

    ``bins`` holds each row's bin per feature; feature f owns bins
    ``edges[f]`` up to ``edges[f + 1]``, in value order.  Nodes are numbered
    breadth first.  Each split's gain is added to its feature's total.
    """
    n_rows, n_bins = len(bins), len(bin_value)
    start = np.repeat(edges[:-1], np.diff(edges))
    capacity = min(2 ** (cfg.max_depth + 1), 2 * n_rows) - 1
    feature, left, split_bin = (np.full(capacity, _LEAF) for _ in range(3))
    threshold = np.zeros(capacity)
    row_node = np.zeros(n_rows, dtype=np.intp)
    every_row = np.arange(n_rows)
    squared = residual * residual
    open_nodes = np.zeros(int(n_rows >= 2 * cfg.min_child_rows), dtype=np.intp)
    hist = _histograms(bins, residual, row_node, 1, n_bins)
    n_nodes = 1
    for depth in range(1, cfg.max_depth + 1):
        if not len(open_nodes):
            break
        # A split must beat gamma by more than rounding of its node's sums can.
        floor = cfg.gamma_split_threshold + TIE_RTOL * np.bincount(row_node, squared)[open_nodes]
        s, b, b_next, n_left, n_right, gain = _best_splits(hist, edges, start, floor, cfg)
        parents = open_nodes[s]
        f = np.searchsorted(edges, b, side="right") - 1
        np.add.at(gain_totals, f, gain)
        children = np.arange(n_nodes, n_nodes + 2 * len(s), 2)
        feature[parents], split_bin[parents], left[parents] = f, b, children
        lo, hi = bin_value[b], bin_value[b_next]
        mid = (lo + hi) / 2.0
        threshold[parents] = np.where(mid < hi, mid, lo)
        # The split nodes' rows move to the right child when past the split bin.
        f_row = feature[row_node]
        right = bins[every_row, f_row] > split_bin[row_node]
        row_node = np.where(f_row == _LEAF, row_node, left[row_node] + right)
        is_open = np.array([n_left, n_right]).T.ravel() >= 2 * cfg.min_child_rows
        open_nodes = n_nodes + np.flatnonzero(is_open & (depth < cfg.max_depth))
        n_nodes += 2 * len(s)
        if not len(open_nodes):
            break
        # Histograms of the smaller child of each split with an open child;
        # an open larger child is its parent's minus that one.
        smaller = children + (n_right < n_left)
        needed = smaller[is_open[::2] | is_open[1::2]]
        built = np.full(n_nodes, -1)
        built[needed] = np.arange(len(needed))
        k = built[row_node]
        mine = np.flatnonzero(k >= 0)
        small = _histograms(bins[mine], residual[mine], k[mine], len(needed), n_bins)
        j = (open_nodes - children[0]) // 2
        k = built[smaller[j]]
        is_small = (open_nodes == smaller[j])[:, None]
        hist = np.where(is_small, small[:, k], hist[:, s[j]] - small[:, k])
    # Internal nodes hold no rows, so their value is 0.
    count = np.maximum(np.bincount(row_node, minlength=n_nodes), 1)
    value = np.bincount(row_node, residual, n_nodes) / (count + cfg.l2_lambda)
    right = np.where(feature == _LEAF, _LEAF, left + 1)
    arrays = (feature, threshold, left, right, value)
    return RegressionTree(*(a[:n_nodes].tolist() for a in arrays)), value[row_node]


def fit_gbdt(matrix: FeatureMatrix, cfg: GbdtConfig = GbdtConfig()) -> GbdtModel:
    """Boost ``cfg.n_trees`` trees against the matrix target.

    A constant target degenerates gracefully: no split clears the gain
    threshold, every tree is a zero-weight leaf, and predictions equal the
    base score.
    """
    if not len(matrix):
        raise ValueError("cannot fit on an empty matrix")
    # One canonical row order, by every column and then the target, fixes
    # the order in which every sum below adds rows.
    order = np.lexsort((matrix.target, *matrix.rows.T[::-1]))
    X, y = matrix.rows[order], matrix.target[order]
    values, ranks = zip(*(np.unique(col, return_inverse=True) for col in X.T))
    edges = np.cumsum([0, *map(len, values)])
    bins = np.column_stack(ranks) + edges[:-1]
    bin_value = np.concatenate(values)
    base = float(y.mean())
    gain_totals = np.zeros(len(edges) - 1)
    trees: list[RegressionTree] = []
    prediction = np.full(len(y), base)
    for _ in range(cfg.n_trees):
        tree, leaf_value = _build_tree(bins, bin_value, edges, y - prediction, cfg, gain_totals)
        trees.append(tree)
        prediction = prediction + cfg.learning_rate * leaf_value
    train_prediction = np.empty(len(y))
    train_prediction[order] = prediction
    return GbdtModel(
        config=cfg,
        base_score=base,
        trees=trees,
        feature_names=list(matrix.columns),
        gain_totals=dict(zip(matrix.columns, gain_totals.tolist())),
        train_prediction=train_prediction,
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
