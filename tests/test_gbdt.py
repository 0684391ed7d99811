import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from demandcast.errors import NoSplitsError, SchemaMismatchError
from demandcast.models.gbdt import (
    GbdtConfig,
    GbdtModel,
    RegressionTree,
    feature_importance,
    fit_gbdt,
    predict_gbdt,
)

from conftest import make_matrix


# Independent greedy-tree oracle: evaluates every (feature, midpoint)
# candidate by direct recomputation over row masks, same tie rule (lowest
# feature index, then lowest threshold, strictly-greater comparison).
def oracle_tree(X, residual, lam, max_depth, min_child, gamma=0.0):
    def score(rows):
        g = residual[rows].sum()
        return g * g / (len(rows) + lam)

    def grow(rows, depth):
        if depth >= max_depth or len(rows) < 2 * min_child:
            return {"leaf": residual[rows].sum() / (len(rows) + lam)}
        best = None
        parent = score(rows)
        for f in range(X.shape[1]):
            for thr in candidate_thresholds(X[rows, f]):
                left = rows[X[rows, f] <= thr]
                right = rows[X[rows, f] > thr]
                if len(left) < min_child or len(right) < min_child:
                    continue
                gain = 0.5 * (score(left) + score(right) - parent)
                if gain > gamma and (best is None or gain > best[0]):
                    best = (gain, f, thr)
        if best is None:
            return {"leaf": residual[rows].sum() / (len(rows) + lam)}
        gain, f, thr = best
        return {
            "feature": f,
            "threshold": thr,
            "left": grow(rows[X[rows, f] <= thr], depth + 1),
            "right": grow(rows[X[rows, f] > thr], depth + 1),
        }

    return grow(np.arange(len(residual)), 0)


def candidate_thresholds(col):
    vals = np.unique(col)
    return [(a + b) / 2.0 for a, b in zip(vals[:-1], vals[1:])]


def assert_same_tree(tree, node, oracle_node):
    if "leaf" in oracle_node:
        assert tree.feature[node] == -1
        assert tree.value[node] == oracle_node["leaf"]
        return
    assert tree.feature[node] == oracle_node["feature"]
    assert tree.threshold[node] == oracle_node["threshold"]
    assert_same_tree(tree, tree.left[node], oracle_node["left"])
    assert_same_tree(tree, tree.right[node], oracle_node["right"])


# Reference fit: exact greedy search that re-sorts every feature by
# (value, residual) at every node and scans the boundaries one feature at a
# time, then updates predictions through RegressionTree.predict.  fit_gbdt
# sorts once per tree instead; it must reproduce this fit bit for bit.
def reference_best_split(X, residual, rows, cfg):
    Xn = X[rows]
    rf = residual[rows]
    g_total = float(rf.sum())
    n_total = float(len(rows))
    parent = g_total * g_total / (n_total + cfg.l2_lambda)
    best_gain = cfg.gamma_split_threshold
    best = None
    min_rows = cfg.min_child_rows
    for f in range(X.shape[1]):
        xf = Xn[:, f]
        order = np.lexsort((rf, xf))
        xs = xf[order]
        rs = rf[order]
        if xs[0] == xs[-1]:
            continue
        csum = np.cumsum(rs)
        boundaries = np.flatnonzero(xs[:-1] != xs[1:])
        n_left = boundaries + 1.0
        ok = (n_left >= min_rows) & (n_total - n_left >= min_rows)
        boundaries = boundaries[ok]
        if not len(boundaries):
            continue
        n_left = boundaries + 1.0
        g_left = csum[boundaries]
        g_right = g_total - g_left
        gains = 0.5 * (
            g_left * g_left / (n_left + cfg.l2_lambda)
            + g_right * g_right / (n_total - n_left + cfg.l2_lambda)
            - parent
        )
        k = int(np.argmax(gains))
        if gains[k] > best_gain:
            best_gain = float(gains[k])
            i = boundaries[k]
            best = (best_gain, f, float((xs[i] + xs[i + 1]) / 2.0))
    return best


def reference_fit(matrix, cfg):
    X = np.ascontiguousarray(matrix.rows)
    y = matrix.target
    base = float(y.mean())
    gain_totals = {name: 0.0 for name in matrix.columns}
    trees = []
    prediction = np.full(len(y), base)
    for _ in range(cfg.n_trees):
        residual = y - prediction
        tree = RegressionTree()

        def grow(rows, depth):
            node = tree.add_node()
            split = None
            if depth < cfg.max_depth and len(rows) >= 2 * cfg.min_child_rows:
                split = reference_best_split(X, residual, rows, cfg)
            if split is None:
                tree.value[node] = float(residual[rows].sum()) / (len(rows) + cfg.l2_lambda)
                return node
            gain, f, threshold = split
            name = matrix.columns[f]
            gain_totals[name] = gain_totals.get(name, 0.0) + gain
            goes_left = X[rows, f] <= threshold
            tree.feature[node] = f
            tree.threshold[node] = threshold
            tree.left[node] = grow(rows[goes_left], depth + 1)
            tree.right[node] = grow(rows[~goes_left], depth + 1)
            return node

        grow(np.arange(len(y)), 0)
        trees.append(tree)
        prediction = prediction + cfg.learning_rate * tree.predict(X)
    return GbdtModel(cfg, base, trees, list(matrix.columns), gain_totals)


@st.composite
def tied_problems(draw):
    """Small matrices built to tie: few distinct values, repeated rows, a
    constant column, and columns that induce the same partitions as x0 (a
    monotone copy, and a weekday-like code next to its sine)."""
    n = draw(st.integers(2, 24))
    k = draw(st.integers(1, 3))
    levels = draw(st.integers(1, 6))
    base = draw(arrays(np.int64, (n, k), elements=st.integers(0, levels)))
    target = draw(arrays(np.int64, n, elements=st.integers(-4, 4)))
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=n))
    base = np.vstack([base, base[repeats]]) / 2.0
    target = np.concatenate([target, target[repeats]]) / 4.0
    x0 = base[:, 0]
    columns = [
        *base.T,
        np.full(len(x0), 1.5),
        2.0 * x0 + 1.0,
        np.sin(2.0 * np.pi * (2.0 * x0 % 7) / 7.0),
    ]
    perm = draw(st.permutations(range(len(columns))))
    X = np.column_stack([columns[j] for j in perm])
    cfg = GbdtConfig(
        n_trees=draw(st.integers(1, 5)),
        learning_rate=draw(st.sampled_from([0.1, 0.5, 1.0])),
        l2_lambda=draw(st.sampled_from([0.0, 0.1, 1.0])),
        max_depth=draw(st.integers(1, 6)),
        min_child_rows=draw(st.integers(1, 3)),
        gamma_split_threshold=draw(st.sampled_from([0.0, 0.3])),
    )
    return make_matrix(X, target), cfg


@settings(max_examples=300, deadline=None)
@given(tied_problems())
def test_presorted_fit_matches_per_node_sort_reference(problem):
    matrix, cfg = problem
    model = fit_gbdt(matrix, cfg)
    assert model.to_dict() == reference_fit(matrix, cfg).to_dict()
    assert np.array_equal(model.train_prediction, predict_gbdt(model, matrix))


def test_presorted_fit_matches_reference_on_continuous_features():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(300, 6))
    X[:, 3] = np.round(X[:, 3])
    y = np.sin(X[:, 0]) + X[:, 3] + 0.3 * rng.normal(size=300)
    m = make_matrix(X, y)
    cfg = GbdtConfig(n_trees=15, max_depth=6, min_child_rows=2)
    assert fit_gbdt(m, cfg).to_dict() == reference_fit(m, cfg).to_dict()


EIGHT_ROWS = make_matrix(
    np.array([0.0] * 4 + [1.0] * 4), np.array([0.0] * 4 + [10.0] * 4)
)


def test_single_stump_fixture():
    cfg = GbdtConfig(n_trees=1, learning_rate=1.0, l2_lambda=0.0, max_depth=1)
    model = fit_gbdt(EIGHT_ROWS, cfg)
    assert model.base_score == 5.0
    tree = model.trees[0]
    assert tree.threshold[0] == 0.5
    leaves = sorted(tree.value[i] for i in (tree.left[0], tree.right[0]))
    assert leaves == [-5.0, 5.0]
    pred = predict_gbdt(model, EIGHT_ROWS)
    assert np.array_equal(pred, EIGHT_ROWS.target)


def test_leaf_weight_with_l2_penalty():
    cfg = GbdtConfig(n_trees=1, learning_rate=1.0, l2_lambda=0.1, max_depth=1)
    model = fit_gbdt(EIGHT_ROWS, cfg)
    tree = model.trees[0]
    leaves = sorted(tree.value[i] for i in (tree.left[0], tree.right[0]))
    assert abs(leaves[0] - (-20.0 / 4.1)) < 1e-9
    assert abs(leaves[1] - (20.0 / 4.1)) < 1e-9


def test_constant_target_predicts_constant():
    m = make_matrix(np.arange(12.0), np.full(12, 3.25))
    model = fit_gbdt(m, GbdtConfig(n_trees=5))
    assert np.allclose(predict_gbdt(model, m), 3.25)
    assert len(model.trees) == 5


def test_greedy_split_matches_exhaustive_oracle():
    rng = np.random.default_rng(42)
    for trial in range(25):
        n = int(rng.integers(4, 33))
        k = int(rng.integers(1, 3))
        depth = int(rng.integers(1, 3))
        X = np.round(rng.uniform(0, 10, size=(n, k)), 1)
        y = np.round(rng.uniform(-5, 5, size=n), 2)
        lam = float(rng.choice([0.0, 0.1, 1.0]))
        cfg = GbdtConfig(n_trees=1, learning_rate=1.0, l2_lambda=lam, max_depth=depth)
        model = fit_gbdt(make_matrix(X, y), cfg)
        residual = y - y.mean()
        expected = oracle_tree(X, residual, lam, depth, cfg.min_child_rows)
        assert_same_tree(model.trees[0], 0, expected)


def test_empty_ensemble_predicts_base_score():
    m = make_matrix(np.arange(6.0), np.arange(6.0) * 2)
    model = fit_gbdt(m, GbdtConfig(n_trees=0))
    assert np.allclose(predict_gbdt(model, m), m.target.mean())


def test_training_mse_non_increasing_in_trees():
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(60, 3))
    y = 3 * X[:, 0] + np.sin(6 * X[:, 1]) + 0.2 * rng.normal(size=60)
    m = make_matrix(X, y)
    model = fit_gbdt(m, GbdtConfig(n_trees=40, max_depth=3))
    pred = np.full(len(y), model.base_score)
    last = np.mean((y - pred) ** 2)
    for tree in model.trees:
        pred = pred + model.config.learning_rate * tree.predict(m.rows)
        mse = np.mean((y - pred) ** 2)
        assert mse <= last + 1e-12
        last = mse


def test_fit_is_deterministic():
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(40, 2))
    y = rng.uniform(size=40)
    m = make_matrix(X, y)
    a = fit_gbdt(m, GbdtConfig(n_trees=10, max_depth=3))
    b = fit_gbdt(m, GbdtConfig(n_trees=10, max_depth=3))
    assert a.to_dict() == b.to_dict()


def test_fit_invariant_to_row_permutation():
    rng = np.random.default_rng(3)
    X = np.round(rng.uniform(size=(50, 2)), 2)  # rounded so ties appear
    y = np.round(rng.uniform(size=50), 2)
    m = make_matrix(X, y)
    perm = rng.permutation(50)
    m_shuffled = make_matrix(X[perm], y[perm])
    a = fit_gbdt(m, GbdtConfig(n_trees=5, max_depth=4))
    b = fit_gbdt(m_shuffled, GbdtConfig(n_trees=5, max_depth=4))
    probe = make_matrix(rng.uniform(size=(30, 2)), np.zeros(30))
    assert np.array_equal(predict_gbdt(a, probe), predict_gbdt(b, probe))


def test_predict_schema_mismatch():
    m = make_matrix(np.arange(8.0), np.arange(8.0))
    model = fit_gbdt(m, GbdtConfig(n_trees=1))
    other = make_matrix(np.arange(8.0), np.arange(8.0), columns=["other"])
    with pytest.raises(SchemaMismatchError):
        predict_gbdt(model, other)


def test_importance_single_split_model():
    cfg = GbdtConfig(n_trees=1, learning_rate=1.0, l2_lambda=0.0, max_depth=1)
    model = fit_gbdt(EIGHT_ROWS, cfg)
    assert feature_importance(model.gain_totals) == [("f0", 1.0)]


def test_importance_normalises_to_one():
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(80, 4))
    y = X @ np.array([4.0, 2.0, 1.0, 0.0]) + 0.1 * rng.normal(size=80)
    model = fit_gbdt(make_matrix(X, y), GbdtConfig(n_trees=20, max_depth=3))
    ranked = feature_importance(model.gain_totals)
    assert abs(sum(v for _, v in ranked) - 1.0) < 1e-9
    assert all(a >= b for (_, a), (_, b) in zip(ranked, ranked[1:]))
    assert ranked[0][0] == "f0"


def test_importance_without_splits_raises():
    m = make_matrix(np.arange(10.0), np.full(10, 2.0))
    model = fit_gbdt(m, GbdtConfig(n_trees=3))
    with pytest.raises(NoSplitsError):
        feature_importance(model.gain_totals)


def test_serialization_roundtrip():
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(30, 2))
    y = rng.uniform(size=30)
    m = make_matrix(X, y)
    model = fit_gbdt(m, GbdtConfig(n_trees=4, max_depth=2))
    # The saved model artifact is plain JSON and survives a round trip unchanged.
    doc = model.to_dict()
    assert json.loads(json.dumps(doc)) == doc
    assert "train_prediction" not in doc


def test_config_validation():
    with pytest.raises(ValueError):
        GbdtConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        GbdtConfig(l2_lambda=-1.0)
