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
gamma_split_threshold by TIE_RTOL times the node's row count times the
target's variance.  That scale is fixed per fit, so a node whose residuals
are only rounding noise cannot clear it.  A threshold is the midpoint of
two values, or the lower one when the midpoint rounds onto the upper, so
``x <= threshold`` applies the scored partition.
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
# (tree, row) entries predict_gbdt walks at a time, which bounds its arrays
# of one entry per (tree, row) whatever the number of trees.
_PREDICT_ENTRIES = 2**17


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
    """Flat-array binary tree, of numpy arrays from a fit or of lists;
    feature == -1 marks a leaf."""

    feature: list[int] | np.ndarray = field(default_factory=list)
    threshold: list[float] | np.ndarray = field(default_factory=list)
    left: list[int] | np.ndarray = field(default_factory=list)
    right: list[int] | np.ndarray = field(default_factory=list)
    value: list[float] | np.ndarray = field(default_factory=list)


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
            "trees": [{k: np.asarray(v).tolist() for k, v in vars(t).items()} for t in self.trees],
        }


class _Bins:
    """A fit's rows as bins: the constants of every tree and level.

    Values become ranks within their column, offset so that feature f owns
    bins ``edges[f]`` up to ``edges[f + 1]``, in value order.  A histogram
    row has ``width`` columns: column 0 holds no bin, and bin b is column
    b + 1, so the row's prefix sums start from zero.  A histogram cell is
    complex: the residual sum is its real part and the row count its
    imaginary part.  Complex arithmetic adds and subtracts the two parts
    apart, so each is summed as it would be on its own.
    """

    def __init__(self, X: np.ndarray) -> None:
        values, ranks = zip(*(np.unique(col, return_inverse=True) for col in X.T))
        self.edges = np.cumsum([0, *map(len, values)])
        self.value = np.concatenate(values)
        self.width = len(self.value) + 1
        self.n_features = X.shape[1]
        # Per column: its feature (-1 for column 0, which holds no bin), and
        # how far it lies past the column whose prefix sum ends the features
        # before its own.
        self.feature = np.repeat(np.arange(-1, self.n_features), np.diff(self.edges, prepend=-1))
        self.back = np.arange(self.width) - self.edges[self.feature]
        # Row r's histogram column of feature f is columns[r, f], which is
        # flat[row_start[r] + f].
        self.columns = np.column_stack(ranks) + self.edges[:-1] + 1
        self.flat = self.columns.ravel()
        self.row_start = np.arange(0, len(self.flat), self.n_features)
        self.root_count = 1j * np.bincount(self.flat, minlength=self.width)


def _histograms(
    bins: _Bins, rows: np.ndarray, residual: np.ndarray, slot: np.ndarray, n_slots: int
) -> np.ndarray:
    """The histogram of the given rows per slot."""
    keys = ((slot * bins.width)[:, None] + bins.columns.take(rows, axis=0)).ravel()
    hist = np.empty((n_slots * bins.width, 2))
    hist[:, 0] = np.bincount(keys, residual[rows].repeat(bins.n_features), len(hist))
    hist[:, 1] = np.bincount(keys, minlength=len(hist))
    return hist.view(complex).reshape(n_slots, bins.width)


def _best_splits(
    hist: np.ndarray, bins: _Bins, cfg: GbdtConfig, scale: float
) -> tuple[np.ndarray, ...]:
    """The nodes whose best gain beats their split floor, each with its split
    column, next non-empty column, [left, right] row counts and gain.

    An empty bin's residual sum in ``hist`` is exactly 0.
    """
    n_nodes, width = hist.shape
    # Prefix sums along each node's columns: splitting after column c sends
    # the rows in its feature's columns up to c left.
    prefix = hist.cumsum(axis=1)
    # The candidates close a non-empty bin (column 0 holds none); one after
    # an empty bin would repeat the split of the bin before it.  They run
    # node by node, each node's in (feature, value) order.
    at = np.flatnonzero(hist.imag > 0.0)
    node_of, col = np.divmod(at, width)
    # [left, right] sums and counts of every candidate.
    sides = np.empty((2, len(at)), dtype=complex)
    np.subtract(prefix.take(at), prefix.take(at - bins.back[col]), out=sides[0])
    # Node totals are the sums over the first feature's bins.
    total = prefix[:, bins.edges[1]]
    np.subtract(total[node_of], sides[0], out=sides[1])
    n = sides.imag
    score = sides.real * sides.real
    score /= n + cfg.l2_lambda
    gain = score[0] + score[1]
    gain -= (total.real * total.real / (total.imag + cfg.l2_lambda))[node_of]
    gain *= 0.5
    # A candidate leaves min_child_rows on each side.
    gain[np.minimum(n[0], n[1]) < cfg.min_child_rows] = -np.inf
    first = node_of.searchsorted(np.arange(n_nodes))
    best = np.maximum.reduceat(gain, first)
    # A node's first tied candidate is its lowest (feature, threshold).
    tied = np.flatnonzero(gain >= (best - TIE_RTOL * np.abs(best))[node_of])
    pick = tied[tied.searchsorted(first)]
    # The split floor (see _build_tree); total.imag is the node's row count.
    node = np.flatnonzero(gain[pick] > cfg.gamma_split_threshold + TIE_RTOL * scale * total.imag)
    pick = pick[node]
    # A split leaves rows on its right in its own feature, so the next
    # candidate holds the next non-empty bin.
    return node, col[pick], col[pick + 1], n.T[pick], gain[pick]


def _build_tree(
    bins: _Bins, residual: np.ndarray, cfg: GbdtConfig, scale: float, splits: list
) -> tuple[RegressionTree, np.ndarray]:
    """Grow one tree, one level at a time; also return each row's leaf value.

    Nodes are numbered breadth first; each level's (feature, gain) arrays go
    on ``splits``.  A split must beat gamma_split_threshold by TIE_RTOL times
    ``scale`` times its node's row count.  Every node of a level is searched;
    one too small for min_child_rows on each side finds no split.
    """
    n_rows = len(bins.row_start)
    capacity = min(2 ** (cfg.max_depth + 1), 2 * n_rows) - 1
    feature = np.full(capacity, _LEAF)
    # Rows route by one rule at every level: to left[node], plus one when
    # their column is past split_col[node].  Until a node splits it is its
    # own left child and no column is past its split_col, so its rows stay
    # (whatever column they read).
    left = np.arange(capacity)
    split_col = np.full(capacity, bins.width - 1)
    next_col = np.full(capacity, bins.width - 1)
    row_node = np.zeros(n_rows, dtype=np.intp)
    # The histograms of the current level's nodes, level up to n_nodes.
    hist = np.bincount(bins.flat, residual.repeat(bins.n_features), bins.width) + bins.root_count
    hist, level, n_nodes = hist[None], 0, 1
    for depth in range(1, cfg.max_depth + 1):
        s, col, col_next, counts, gain = _best_splits(hist, bins, cfg, scale)
        if not len(s):
            break
        parents = level + s
        f = bins.feature[col]
        splits.append((f, gain))
        level, n_nodes = n_nodes, n_nodes + 2 * len(s)
        feature[parents], split_col[parents], next_col[parents] = f, col, col_next
        left[parents] = np.arange(level, n_nodes, 2)
        row_col = bins.flat[bins.row_start + feature[row_node]]
        row_node = left[row_node] + (row_col > split_col[row_node])
        if depth == cfg.max_depth:
            break
        # Children, as node - level: split k's are 2k (left) and 2k + 1.
        # Histograms of the smaller child of each split; the larger is its
        # parent's minus that one.
        smaller = np.arange(0, 2 * len(s), 2) + (counts[:, 1] < counts[:, 0])
        is_small = np.zeros(n_nodes, dtype=bool)
        is_small[level + smaller] = True
        mine = np.flatnonzero(is_small[row_node])
        small = _histograms(bins, mine, residual, (row_node[mine] - level) >> 1, len(s))
        larger = hist[s] - small
        # A bin the larger child has no rows in holds rounding of the
        # subtraction; its sum is 0.
        np.copyto(larger.real, 0.0, where=larger.imag == 0.0)
        hist = np.empty((n_nodes - level, bins.width), dtype=complex)
        hist[smaller], hist[smaller ^ 1] = small, larger
    feature, left, split_col, next_col = (a[:n_nodes] for a in (feature, left, split_col, next_col))
    # Internal nodes hold no rows, so their value is 0.
    count = np.maximum(np.bincount(row_node, minlength=n_nodes), 1)
    value = np.bincount(row_node, residual, n_nodes) / (count + cfg.l2_lambda)
    is_leaf = feature == _LEAF
    lo, hi = bins.value[split_col - 1], bins.value[next_col - 1]
    mid = (lo + hi) / 2.0
    threshold = np.where(is_leaf, 0.0, np.where(mid < hi, mid, lo))
    left[is_leaf] = _LEAF
    right = np.where(is_leaf, _LEAF, left + 1)
    return RegressionTree(feature, threshold, left, right, value), value[row_node]


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
    bins = _Bins(X)
    base = float(y.mean())
    # The split floor's scale, over the sorted target so that it depends on
    # the target's values alone.
    scale = float(np.var(np.sort(y)))
    trees: list[RegressionTree] = []
    splits: list[tuple[np.ndarray, np.ndarray]] = []
    prediction = np.full(len(y), base)
    # Only the gains of candidates with an empty side divide by zero (0/0
    # when l2_lambda is 0), and those gains are discarded.
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(cfg.n_trees):
            tree, leaf_value = _build_tree(bins, y - prediction, cfg, scale, splits)
            trees.append(tree)
            prediction = prediction + cfg.learning_rate * leaf_value
    # Each feature's gains add in split order, as add.at takes its indices.
    gain_totals = np.zeros(bins.n_features)
    if splits:
        np.add.at(gain_totals, *map(np.concatenate, zip(*splits)))
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
    """The base score plus each tree's leaf value times the learning rate,
    added tree by tree in order.

    The trees' nodes are stacked into one set of arrays and all trees are
    walked at once, a level per step.  A leaf is its own child, so rows that
    reached one stay (whatever column they read).
    """
    if list(matrix.columns) != list(model.feature_names):
        raise SchemaMismatchError(
            f"matrix columns {matrix.columns} != model features {model.feature_names}"
        )
    out = np.full(len(matrix), model.base_score)
    if not model.trees:
        return out
    feature, threshold, left, right, value = (
        np.concatenate([getattr(tree, name) for tree in model.trees])
        for name in ("feature", "threshold", "left", "right", "value")
    )
    sizes = [len(tree.feature) for tree in model.trees]
    root = np.cumsum([0, *sizes[:-1]])
    is_leaf, own, offset = feature == _LEAF, np.arange(len(feature)), np.repeat(root, sizes)
    left, right = (np.where(is_leaf, own, child + offset) for child in (left, right))
    X = np.ascontiguousarray(matrix.rows)
    block = max(1, _PREDICT_ENTRIES // len(model.trees))
    for r0 in range(0, len(X), block):
        rows = slice(r0, r0 + block)
        flat = X[rows].ravel()
        row_start = np.arange(0, flat.size, X.shape[1])
        # node[t, r]: where row r stands in tree t.
        node = np.repeat(root[:, None], len(row_start), axis=1)
        while not is_leaf[node].all():
            goes_left = flat[row_start + feature[node]] <= threshold[node]
            node = np.where(goes_left, left[node], right[node])
        for leaf_value in model.config.learning_rate * value[node]:
            out[rows] += leaf_value
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
