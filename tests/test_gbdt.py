import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from demandcast.errors import NoSplitsError, SchemaMismatchError
from demandcast.models.gbdt import (
    GbdtConfig,
    GbdtModel,
    TIE_RTOL,
    _PREDICT_ENTRIES,
    RegressionTree,
    feature_importance,
    fit_gbdt,
    predict_gbdt,
)

from conftest import bundled_series, make_matrix


# Independent greedy-tree oracle: evaluates every (feature, threshold)
# candidate by direct recomputation over row masks, with fit_gbdt's tie rule
# (the lowest feature index, then the lowest threshold, among candidates
# within TIE_RTOL of the best gain), threshold rule (split_threshold) and
# floor (TIE_RTOL times scale, the target's variance, per row of the node).
def oracle_tree(X, residual, lam, max_depth, min_child, scale, gamma=0.0):
    def score(rows):
        g = residual[rows].sum()
        return g * g / (len(rows) + lam)

    def grow(rows, depth):
        if depth >= max_depth or len(rows) < 2 * min_child:
            return {"leaf": residual[rows].sum() / (len(rows) + lam)}
        candidates = []
        parent = score(rows)
        for f in range(X.shape[1]):
            for thr in candidate_thresholds(X[rows, f]):
                left = rows[X[rows, f] <= thr]
                right = rows[X[rows, f] > thr]
                if len(left) < min_child or len(right) < min_child:
                    continue
                candidates.append((0.5 * (score(left) + score(right) - parent), f, thr))
        best = max((c[0] for c in candidates), default=None)
        tied = [c for c in candidates if c[0] >= best - TIE_RTOL * abs(best)]
        if not tied or not tied[0][0] > gamma + TIE_RTOL * scale * len(rows):
            return {"leaf": residual[rows].sum() / (len(rows) + lam)}
        gain, f, thr = tied[0]
        return {
            "feature": f,
            "threshold": thr,
            "left": grow(rows[X[rows, f] <= thr], depth + 1),
            "right": grow(rows[X[rows, f] > thr], depth + 1),
        }

    return grow(np.arange(len(residual)), 0)


def candidate_thresholds(col):
    vals = np.unique(col)
    return [split_threshold(a, b) for a, b in zip(vals[:-1], vals[1:])]


def assert_same_tree(tree, node, oracle_node):
    if "leaf" in oracle_node:
        assert tree.feature[node] == -1
        assert tree.value[node] == pytest.approx(oracle_node["leaf"], rel=1e-12, abs=1e-12)
        return
    assert tree.feature[node] == oracle_node["feature"]
    assert tree.threshold[node] == oracle_node["threshold"]
    assert_same_tree(tree, tree.left[node], oracle_node["left"])
    assert_same_tree(tree, tree.right[node], oracle_node["right"])


# Reference fit: the presorted exact greedy builder.  Each feature column is
# sorted once per tree, at the root, by (value, residual); a split partitions
# every sorted list with a stable boolean mask, so each child's lists stay
# sorted, and each node scans all features' running sums at once.  Trees grow
# depth first.  It shares fit_gbdt's candidates, gain formula, tie rule and
# threshold rule but adds residuals in another order, so fit_gbdt must match
# its splits exactly and its sums to rounding.
def reference_best_split(XT, residual, rows, idx, cfg, scale):
    m = len(rows)
    g_total = float(residual[rows].sum())
    n_total = float(m)
    lam = cfg.l2_lambda
    parent = g_total * g_total / (n_total + lam)
    # Position i splits off the first i + 1 sorted rows.
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
    best = gains.max()
    # Candidates are in (feature, threshold) order: the first tied one wins.
    k = int(np.flatnonzero(gains >= best - TIE_RTOL * abs(best))[0])
    if not gains[k] > cfg.gamma_split_threshold + TIE_RTOL * scale * m:
        return None
    f, i = int(f[k]), int(i[k])
    return float(gains[k]), f, split_threshold(xs[f, i], xs[f, i + 1])


def split_threshold(lo, hi):
    """The midpoint, unless it rounds onto ``hi`` (values one ulp apart)."""
    mid = (lo + hi) / 2.0
    return float(mid if mid < hi else lo)


def add_node(tree):
    """Append a leaf to a RegressionTree and return its index."""
    tree.feature.append(-1)
    tree.threshold.append(0.0)
    tree.left.append(-1)
    tree.right.append(-1)
    tree.value.append(0.0)
    return len(tree.feature) - 1


def reference_tree(XT, ranks, residual, cfg, gain_totals, feature_names, scale):
    tree = RegressionTree()
    n_features, n_rows = XT.shape
    leaf_value = np.empty(n_rows)
    goes_left = np.zeros(n_rows, dtype=bool)

    def splittable(rows, depth):
        return depth < cfg.max_depth and len(rows) >= 2 * cfg.min_child_rows

    def grow(rows, idx, depth):
        node = add_node(tree)
        split = None if idx is None else reference_best_split(XT, residual, rows, idx, cfg, scale)
        if split is None:
            value = float(residual[rows].sum()) / (len(rows) + cfg.l2_lambda)
            tree.value[node] = value
            leaf_value[rows] = value
            return node
        gain, f, threshold = split
        gain_totals[feature_names[f]] += gain
        side = XT[f, rows] <= threshold
        goes_left[rows] = side
        left_rows, right_rows = rows[side], rows[~side]
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
        by_residual = np.argsort(residual, kind="stable")
        idx = by_residual[np.argsort(ranks[:, by_residual], axis=1, kind="stable")]
    grow(rows, idx, 0)
    return tree, leaf_value


def reference_fit(matrix, cfg):
    XT = np.ascontiguousarray(matrix.rows.T)
    y = matrix.target
    ranks = np.stack([np.unique(col, return_inverse=True)[1] for col in XT])
    base = float(y.mean())
    scale = float(np.var(np.sort(y)))
    gain_totals = {name: 0.0 for name in matrix.columns}
    trees = []
    prediction = np.full(len(y), base)
    for _ in range(cfg.n_trees):
        tree, leaf_value = reference_tree(
            XT, ranks, y - prediction, cfg, gain_totals, matrix.columns, scale
        )
        trees.append(tree)
        prediction = prediction + cfg.learning_rate * leaf_value
    return GbdtModel(cfg, base, trees, list(matrix.columns), gain_totals, prediction)


# Prediction oracle: each tree walked on its own, all rows a level at a
# time, and the trees' leaf values added in order.
def tree_predict(tree, X):
    feature = np.asarray(tree.feature)
    threshold = np.asarray(tree.threshold)
    left = np.asarray(tree.left)
    right = np.asarray(tree.right)
    value = np.asarray(tree.value)
    node = np.zeros(len(X), dtype=np.int64)
    while True:
        internal = feature[node] != -1
        if not internal.any():
            break
        idx = np.flatnonzero(internal)
        f = feature[node[idx]]
        goes_left = X[idx, f] <= threshold[node[idx]]
        node[idx] = np.where(goes_left, left[node[idx]], right[node[idx]])
    return value[node]


def oracle_predict(model, matrix):
    out = np.full(len(matrix), model.base_score)
    for tree in model.trees:
        out += model.config.learning_rate * tree_predict(tree, matrix.rows)
    return out


def walk(tree, node=0):
    """A tree's splits and leaf values from the root, whatever its node numbering."""
    if tree.feature[node] == -1:
        return tree.value[node]
    return (
        tree.feature[node],
        tree.threshold[node],
        walk(tree, tree.left[node]),
        walk(tree, tree.right[node]),
    )


def assert_matches_reference(model, reference, rtol=1e-12):
    """Same splits exactly; leaf values, base score and gains to rounding."""

    def same(a, b):
        if isinstance(b, float):
            assert isinstance(a, float) and a == pytest.approx(b, rel=rtol, abs=rtol)
            return
        assert a[:2] == b[:2]
        same(a[2], b[2])
        same(a[3], b[3])

    assert len(model.trees) == len(reference.trees)
    for tree, ref in zip(model.trees, reference.trees):
        same(walk(tree), walk(ref))
    assert model.base_score == pytest.approx(reference.base_score, rel=rtol)
    assert model.gain_totals.keys() == reference.gain_totals.keys()
    for name, gain in reference.gain_totals.items():
        assert model.gain_totals[name] == pytest.approx(gain, rel=rtol, abs=rtol)


def assert_children_hold_min_rows(model, matrix):
    """Every split sends at least min_child_rows training rows each way."""

    def check(tree, node, rows):
        f = tree.feature[node]
        if f == -1:
            return
        goes_left = matrix.rows[rows, f] <= tree.threshold[node]
        assert min(goes_left.sum(), (~goes_left).sum()) >= model.config.min_child_rows
        check(tree, tree.left[node], rows[goes_left])
        check(tree, tree.right[node], rows[~goes_left])

    for tree in model.trees:
        check(tree, 0, np.arange(len(matrix)))


@st.composite
def tied_problems(draw):
    """Small matrices built to tie: few distinct values, repeated rows, a
    constant column, columns that induce the same partitions as x0 (a
    monotone copy, and a weekday-like code next to its sine), and a column
    of three consecutive doubles, whose midpoints can round onto a value."""
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
        0.5 + np.spacing(0.5) * (2.0 * x0 % 3),
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
    assert_matches_reference(model, reference_fit(matrix, cfg))
    assert_children_hold_min_rows(model, matrix)
    assert np.array_equal(model.train_prediction, predict_gbdt(model, matrix))


def test_node_of_rounding_noise_does_not_split():
    # The first tree fits the target exactly, but its right leaf's residuals
    # come back as 6.9e-18 rather than 0.  The second tree must not split
    # them: the floor scales with the target's variance, not with the noise.
    y = np.zeros(9)
    y[1] = 0.25
    X = np.zeros((9, 1))
    X[1, 0] = 1.0
    matrix = make_matrix(X, y)
    cfg = GbdtConfig(n_trees=2, learning_rate=1.0, l2_lambda=0.0, max_depth=1)
    model = fit_gbdt(matrix, cfg)
    assert list(model.trees[0].feature) == [0, -1, -1]
    assert list(model.trees[1].feature) == [-1]
    assert_matches_reference(model, reference_fit(matrix, cfg))


# Thresholds the drawn trees split at; rows take these values too, so some
# lie exactly on a threshold.
CUTS = (-1.0, 0.0, 0.5, 2.0)


@st.composite
def hand_built_models(draw):
    """Models of trees of any shape: single leaves, unequal depths, nodes
    numbered depth first, and matrices of one row or more."""
    n_features = draw(st.integers(1, 3))
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)

    def tree(max_depth):
        tree = RegressionTree()

        def grow(depth):
            node = add_node(tree)
            if depth < max_depth and draw(st.booleans()):
                tree.feature[node] = draw(st.integers(0, n_features - 1))
                tree.threshold[node] = draw(st.sampled_from(CUTS))
                tree.left[node] = grow(depth + 1)
                tree.right[node] = grow(depth + 1)
            else:
                tree.value[node] = draw(values)
            return node

        grow(0)
        return tree

    trees = [tree(draw(st.integers(0, 4))) for _ in range(draw(st.integers(0, 6)))]
    cfg = GbdtConfig(n_trees=len(trees), learning_rate=draw(st.sampled_from([0.1, 0.3, 1.0])))
    columns = [f"f{j}" for j in range(n_features)]
    model = GbdtModel(cfg, draw(values), trees, columns, dict.fromkeys(columns, 0.0))
    n_rows = draw(st.integers(1, 8))
    cells = st.sampled_from(CUTS + (-3.0, 0.25, 1.0, 7.5))
    X = draw(arrays(np.float64, (n_rows, n_features), elements=cells))
    return model, make_matrix(X, np.zeros(n_rows))


@settings(max_examples=300, deadline=None)
@given(hand_built_models())
def test_batched_predict_matches_tree_by_tree_oracle(problem):
    model, matrix = problem
    assert np.array_equal(predict_gbdt(model, matrix), oracle_predict(model, matrix))
    for r in range(len(matrix)):
        row = matrix.select_rows(np.array([r]))
        assert np.array_equal(predict_gbdt(model, row), oracle_predict(model, row))


def test_batched_predict_of_many_trees_matches_oracle_across_blocks():
    # Stumps and single leaves; values and thresholds on a 0.1 grid, so some
    # rows lie on a threshold.
    rng = np.random.default_rng(5)
    n_trees, n_rows = 2000, 300
    trees = []
    for t in range(n_trees):
        if t % 7 == 0:
            trees.append(RegressionTree([-1], [0.0], [-1], [-1], [float(rng.normal())]))
        else:
            trees.append(RegressionTree(
                [int(rng.integers(3)), -1, -1], [float(np.round(rng.normal(), 1)), 0.0, 0.0],
                [1, -1, -1], [2, -1, -1], [0.0, *rng.normal(size=2).tolist()],
            ))
    columns = ["f0", "f1", "f2"]
    model = GbdtModel(GbdtConfig(n_trees=n_trees), 0.5, trees, columns, dict.fromkeys(columns, 0.0))
    matrix = make_matrix(np.round(rng.normal(size=(n_rows, 3)), 1), np.zeros(n_rows))
    assert n_rows > 4 * (_PREDICT_ENTRIES // n_trees)
    assert np.array_equal(predict_gbdt(model, matrix), oracle_predict(model, matrix))


def test_ulp_adjacent_values_split_apart():
    # (a + b) / 2 rounds onto b for these two doubles; the split must still
    # send a left and b right.
    a = np.nextafter(0.5, 1.0)
    b = np.nextafter(a, 1.0)
    assert (a + b) / 2.0 == b
    m = make_matrix(np.array([a, a, b, b]), np.array([0.0, 0.0, 1.0, 1.0]))
    model = fit_gbdt(m, GbdtConfig(n_trees=1, learning_rate=1.0, l2_lambda=0.0, max_depth=1))
    assert model.trees[0].threshold[0] == a
    assert np.array_equal(predict_gbdt(model, m), m.target)


# Strictly increasing maps; one of them is exact on every double.
MONOTONE = (lambda x: 2.0 * x, lambda x: np.exp(x / 4.0), lambda x: x * x * x + x - 3.0)


@settings(max_examples=200, deadline=None)
@given(tied_problems(), st.data())
def test_fit_sees_only_each_columns_order(problem, data):
    """A column replaced by a strictly increasing copy, or a copy appended and
    then swapped with its original, leaves every split feature and every
    training prediction bit for bit the same."""
    matrix, cfg = problem
    X = matrix.rows
    j = data.draw(st.integers(0, X.shape[1] - 1))
    copy = data.draw(st.sampled_from(MONOTONE))(X[:, j])
    assume(len(np.unique(copy)) == len(np.unique(X[:, j])))
    replaced = X.copy()
    replaced[:, j] = copy
    widened = np.column_stack([X, copy])
    swapped = widened.copy()
    swapped[:, [j, -1]] = widened[:, [-1, j]]
    expected = fit_gbdt(matrix, cfg)
    for variant in (replaced, widened, swapped):
        model = fit_gbdt(make_matrix(variant, matrix.target), cfg)
        assert [list(t.feature) for t in model.trees] == [list(t.feature) for t in expected.trees]
        assert np.array_equal(model.train_prediction, expected.train_prediction)


def test_presorted_fit_matches_reference_on_continuous_features():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(300, 6))
    X[:, 3] = np.round(X[:, 3])
    y = np.sin(X[:, 0]) + X[:, 3] + 0.3 * rng.normal(size=300)
    m = make_matrix(X, y)
    cfg = GbdtConfig(n_trees=15, max_depth=6, min_child_rows=2)
    assert_matches_reference(fit_gbdt(m, cfg), reference_fit(m, cfg))


@pytest.mark.parametrize("external, store, item", [(False, "2", "9"), (True, "1", "10")])
def test_bundled_series_match_presorted_reference(external, store, item):
    # S1 (2, 9) has the most distinct lag values of the sample; S2 (1, 10)
    # holds weekday codes whose partitions tie with their sine and cosine.
    train, test = bundled_series(external, store, item)
    cfg = GbdtConfig()
    model = fit_gbdt(train, cfg)
    assert_matches_reference(model, reference_fit(train, cfg))
    assert_children_hold_min_rows(model, train)
    # More rows than predict_gbdt walks at a time.
    assert np.array_equal(predict_gbdt(model, train), model.train_prediction)
    # The rows are summed in one canonical order, so a permuted training
    # matrix fits bit for bit the same.
    perm = np.random.default_rng(7).permutation(len(train))
    shuffled = fit_gbdt(train.select_rows(perm), cfg)
    assert np.array_equal(shuffled.train_prediction, model.train_prediction[perm])
    assert np.array_equal(predict_gbdt(shuffled, test), predict_gbdt(model, test))


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
        scale = float(np.var(np.sort(y)))
        expected = oracle_tree(X, residual, lam, depth, cfg.min_child_rows, scale)
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
        pred = pred + model.config.learning_rate * tree_predict(tree, m.rows)
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


def test_fit_keeps_the_callers_error_state():
    # With l2_lambda 0, the last non-empty bin of the first feature leaves
    # its right side empty, so its gain is 0/0; the fit discards it under any
    # error state the caller sets, and leaves that state as it was.
    rng = np.random.default_rng(6)
    m = make_matrix(np.round(rng.uniform(size=(40, 3)), 1), np.round(rng.uniform(size=40), 2))
    cfg = GbdtConfig(n_trees=5, l2_lambda=0.0, max_depth=3)
    expected = fit_gbdt(m, cfg).to_dict()
    with np.errstate(all="raise"):
        before = np.geterr()
        model = fit_gbdt(m, cfg)
        assert np.geterr() == before
    assert model.to_dict() == expected
    assert sum(len(tree.feature) for tree in model.trees) > cfg.n_trees


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
