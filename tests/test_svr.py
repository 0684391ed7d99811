import dataclasses
import itertools
import json
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from demandcast.errors import SchemaMismatchError
from demandcast.models.svr import (
    _TINY,
    SvrConfig,
    SvrModel,
    _GRAM_BLOCK,
    _decision_standardized,
    _kept_rows,
    fit_svr,
    gram_matrix,
    predict_svr,
    rbf_kernel,
)

from conftest import bundled_series, make_matrix


def dual_objective(beta, theta, K, y, eps):
    """y'beta - eps*sum(theta) - beta'K beta / 2, with a kernel pass."""
    Kb = np.einsum("ij,j->i", K, beta)
    return float(np.einsum("i,i->", y, beta) - eps * theta.sum() - 0.5 * np.einsum("i,i->", beta, Kb))


def _multiplier_bounds(q, theta, C, n):
    """(max lower bound, min upper bound) on the equality-constraint
    multiplier, the index of the first and the hi-set mask, rebuilt from
    theta on every call."""
    at_lower = theta <= _TINY
    at_upper = theta >= C - _TINY
    interior = ~at_lower & ~at_upper
    plus = np.zeros(2 * n, dtype=bool)
    plus[:n] = True
    lo_mask = interior | (at_lower & ~plus) | (at_upper & plus)
    hi_mask = interior | (at_lower & plus) | (at_upper & ~plus)
    q_lo = np.where(lo_mask, q, -np.inf)
    i = int(np.argmax(q_lo))
    return float(q_lo[i]), float(np.where(hi_mask, q, np.inf).min()), i, hi_mask


def reference_fit(matrix, cfg):
    """fit_svr as a plain WSS2 loop: the working sets rebuilt from theta and
    the pair chosen from scratch at every update, on the one-shot kernel.

    Returns the model and the dual objective after each sweep by a kernel
    pass, which the model's trace (taken from the gradient) must match.
    """
    kept = _kept_rows(matrix, cfg)
    X, y = matrix.rows[kept], matrix.target[kept]
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd < _TINY, 1.0, sd)
    Xz = (X - mu) / sd
    y_mean = float(y.mean()) if cfg.standardize_target else 0.0
    y_std = float(y.std()) if cfg.standardize_target else 1.0
    gamma = cfg.rbf_gamma if cfg.rbf_gamma is not None else 1.0 / X.shape[1]
    common = dict(
        config=cfg, gamma=gamma, feature_names=list(matrix.columns), feature_means=mu, feature_stds=sd
    )
    if cfg.standardize_target and y_std < _TINY:
        model = SvrModel(
            support_vectors=np.empty((0, X.shape[1])),
            support_indices=np.empty(0, dtype=np.int64),
            dual_coeffs=np.empty(0),
            bias=0.0,
            target_mean=y_mean,
            target_std=1.0,
            converged=True,
            kkt_violation_achieved=0.0,
            sweeps=0,
            pair_updates=0,
            dual_objective_trace=[0.0],
            **common,
        )
        return model, [0.0]
    yz = (y - y_mean) / y_std
    n = len(yz)
    K = rbf_kernel(Xz, Xz, gamma)
    C, eps = cfg.C, cfg.epsilon
    theta = np.zeros(2 * n)
    q = np.concatenate([eps - yz, -eps - yz])
    trace, oracle = [], []
    violation = 0.0
    sweeps_done = 0
    pair_updates = 0
    converged = False
    for sweep in range(cfg.max_passes):
        progressed = False
        for _ in range(n):
            lo, hi, i, hi_mask = _multiplier_bounds(q, theta, C, n)
            violation = lo - hi
            if violation <= cfg.smo_tolerance:
                converged = True
                break
            bi = i % n
            a = np.maximum(K[bi, bi] + np.diag(K) - 2.0 * K[bi], _TINY)
            a = np.concatenate([a, a])
            gap = q[i] - q
            j = int(np.argmax(np.where(hi_mask & (q < q[i]), gap * gap / a, -np.inf)))
            bj = j % n
            kappa = max(K[bi, bi] + K[bj, bj] - 2.0 * K[bi, bj], _TINY)
            step = -(q[i] - q[j]) / kappa
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
            h = step * (K[bi] - K[bj])
            q[:n] += h
            q[n:] += h
            pair_updates += 1
            progressed = True
        beta = theta[:n] - theta[n:]
        K_beta = q[:n] - eps + yz
        trace.append(
            float(np.einsum("i,i->", yz, beta) - eps * theta.sum() - 0.5 * np.einsum("i,i->", beta, K_beta))
        )
        oracle.append(dual_objective(beta, theta, K, yz, eps))
        sweeps_done = sweep + 1
        if converged or not progressed:
            break
    lo, hi, _, _ = _multiplier_bounds(q, theta, C, n)
    beta = theta[:n] - theta[n:]
    sv = np.abs(beta) > _TINY
    model = SvrModel(
        support_vectors=Xz[sv].copy(),
        support_indices=np.flatnonzero(sv).astype(np.int64),
        dual_coeffs=beta[sv].copy(),
        bias=-(lo + hi) / 2.0,
        target_mean=y_mean,
        target_std=y_std if cfg.standardize_target else 1.0,
        converged=converged,
        kkt_violation_achieved=max(violation, 0.0),
        sweeps=sweeps_done,
        pair_updates=pair_updates,
        dual_objective_trace=trace,
        **common,
    )
    return model, oracle


def kkt_violation(model, matrix):
    """Maximum complementarity violation of the fitted model on its training rows.

    For each row the epsilon-insensitive optimality conditions constrain the
    standardized residual r = y - f(x) according to the row's dual
    coefficient: free coefficients pin r to +-epsilon, coefficients at the
    box bound allow it past, and zero coefficients keep |r| inside the tube.
    The check evaluates the stored bias, so a perturbed bias shows up
    immediately.
    """
    kept = _kept_rows(matrix, model.config)
    X, y = matrix.rows[kept], matrix.target[kept]
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


@st.composite
def smo_problems(draw):
    """Small SMO problems built to tie and to bind: few distinct feature
    values, repeated rows, a constant column, tight and loose boxes, targets
    too large for the box, and one to three sweeps so that unconverged
    exits run.  C = 1e5 is large enough that C - 1e-12 rounds to C.
    Targets of order 1e-170, unstandardized with epsilon 0, make every
    pair's gain underflow to 0."""
    n = draw(st.integers(2, 30))
    k = draw(st.integers(1, 3))
    levels = draw(st.integers(1, 5))
    base = draw(arrays(np.int64, (n, k), elements=st.integers(0, levels)))
    target = draw(arrays(np.int64, n, elements=st.integers(-6, 6)))
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=10))
    base = np.vstack([base, base[repeats]]) / 2.0
    target = np.concatenate([target, target[repeats]]) * draw(st.sampled_from([0.25, 3e5, 1e-170]))
    columns = [*base.T, np.full(len(base), 1.5)]
    perm = draw(st.permutations(range(len(columns))))
    X = np.column_stack([columns[j] for j in perm])
    cfg = SvrConfig(
        C=draw(st.sampled_from([0.05, 1.0, 10.0, 1e5])),
        epsilon=draw(st.sampled_from([0.0, 0.1, 0.5])),
        rbf_gamma=draw(st.sampled_from([None, 0.5, 4.0])),
        smo_tolerance=draw(st.sampled_from([1e-3, 0.0])),
        max_passes=draw(st.integers(1, 3)),
        max_train_rows=draw(st.sampled_from([2000, 12])),
        standardize_target=draw(st.booleans()),
    )
    return make_matrix(X, target), cfg


@settings(max_examples=300, deadline=None)
@given(smo_problems())
def test_in_place_working_set_matches_rebuilt_reference(problem):
    matrix, cfg = problem
    model = fit_svr(matrix, cfg)
    expected, oracle = reference_fit(matrix, cfg)
    assert model.to_dict() == expected.to_dict()
    assert model.dual_objective_trace == expected.dual_objective_trace
    # The trace comes from the solver's gradient; a kernel pass agrees.
    for got, want in zip(model.dual_objective_trace, oracle, strict=True):
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
    # The in-sample values come from the solver's gradient, not a kernel pass.
    predicted = predict_svr(model, matrix)
    scale = max(1.0, float(np.abs(matrix.target).max()))
    assert np.abs(model.train_prediction - predicted).max() <= 1e-9 * scale


def test_bundled_series_matches_rebuilt_reference():
    # S2, store 1, item 10: the 1,645 rows of a real fit, beyond what the
    # drawn problems reach.
    train, _ = bundled_series(True, "1", "10")
    assert len(train) == 1645
    model = fit_svr(train)
    expected, _ = reference_fit(train, SvrConfig())
    assert model.to_dict() == expected.to_dict()
    assert model.dual_objective_trace == expected.dual_objective_trace
    assert model.pair_updates == expected.pair_updates > 1000


def exact_dual(Xz, y, C, eps, gamma):
    """Exact optimum (objective, beta) of the epsilon-SVR dual, for n <= 6.

    At the optimum alpha_i * alpha*_i = 0, so with beta = alpha - alpha* the
    dual is: maximise y'b - eps*|b|_1 - b'Kb/2 subject to -C <= b_i <= C and
    sum(b) = 0.  Each b_i is -C, free negative, 0, free positive or C.  For a
    free set F with signs s_F and bounded values b_B, the maximiser on F
    solves [[K_FF, 1], [1', 0]] [b_F; nu] = [y_F - eps*s_F - K_FB b_B; -sum b_B];
    one solve per free set covers every sign and bound pattern at once.  The
    best feasible candidate is the optimum.  Rows of Xz must be distinct so
    that K is positive definite.
    """
    n = len(y)
    assert n <= 6
    K = rbf_kernel(Xz, Xz, gamma)
    best, best_beta = -np.inf, None
    for free in itertools.product((False, True), repeat=n):
        F = np.flatnonzero(free)
        B = np.flatnonzero(~np.array(free))
        signs = patterns((-1.0, 1.0), len(F))
        bounds = patterns((-C, 0.0, C), len(B))
        s_F = np.repeat(signs, len(bounds), axis=0)
        b_B = np.tile(bounds, (len(signs), 1))
        beta = np.zeros((len(s_F), n))
        beta[:, B] = b_B
        if len(F):
            A = np.ones((len(F) + 1, len(F) + 1))
            A[:-1, :-1] = K[np.ix_(F, F)]
            A[-1, -1] = 0.0
            rhs = np.column_stack([y[F] - eps * s_F - b_B @ K[np.ix_(B, F)], -b_B.sum(axis=1)])
            beta[:, F] = np.linalg.solve(A, rhs.T).T[:, :-1]
            feasible = ((s_F * beta[:, F] >= -1e-12) & (np.abs(beta[:, F]) <= C + 1e-12)).all(axis=1)
        else:
            feasible = np.abs(b_B.sum(axis=1)) <= 1e-12
        beta = beta[feasible]
        if not len(beta):
            continue
        obj = dual_value(beta, K, y, eps)
        k = int(np.argmax(obj))
        if obj[k] > best:
            best, best_beta = float(obj[k]), beta[k]
    return best, best_beta


def patterns(levels, k):
    """Every length-k row over ``levels``, as a (len(levels)**k, k) array."""
    return np.array(list(itertools.product(levels, repeat=k)), dtype=float)


def dual_value(beta, K, y, eps):
    """y'b - eps*|b|_1 - b'Kb/2 for each row b of ``beta``."""
    return beta @ y - eps * np.abs(beta).sum(axis=-1) - 0.5 * np.einsum("...i,ij,...j->...", beta, K, beta)


def brute_force_dual(Xz, y, C, eps, gamma):
    """Optimal epsilon-SVR dual objective by exact active-set enumeration."""
    return exact_dual(Xz, y, C, eps, gamma)[0]


def cvxopt_dual(Xz, y, C, eps, gamma):
    """Reference solve of the epsilon-SVR dual via a general QP solver."""
    cvxopt = pytest.importorskip("cvxopt")
    cvxopt.solvers.options["show_progress"] = False
    n = len(y)
    K = rbf_kernel(Xz, Xz, gamma)
    P = np.block([[K, -K], [-K, K]]) + 1e-10 * np.eye(2 * n)
    q = np.concatenate([eps - y, eps + y])
    G = np.vstack([-np.eye(2 * n), np.eye(2 * n)])
    h = np.concatenate([np.zeros(2 * n), C * np.ones(2 * n)])
    A = np.concatenate([np.ones(n), -np.ones(n)])[None, :]
    sol = cvxopt.solvers.qp(
        cvxopt.matrix(P),
        cvxopt.matrix(q),
        cvxopt.matrix(G),
        cvxopt.matrix(h),
        cvxopt.matrix(A),
        cvxopt.matrix(np.zeros(1)),
    )
    theta = np.array(sol["x"]).ravel()
    beta = theta[:n] - theta[n:]
    return float(y @ beta - eps * theta.sum() - 0.5 * beta @ K @ beta)


def small_duals(seed, count=6):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 7))
        yield rng.normal(size=(n, 2)), rng.normal(size=n), float(rng.uniform(0.2, 2.0))


def test_exact_dual_admits_no_improving_pair_step():
    # The dual is concave and its feasible directions are spanned by pair
    # moves b_i += t, b_j -= t, so an optimum admits no improving pair step.
    for X, y, C in small_duals(21):
        eps, gamma = 0.1, 0.8
        best, beta = exact_dual(X, y, C, eps, gamma)
        K = rbf_kernel(X, X, gamma)
        assert np.isclose(best, dual_value(beta, K, y, eps))
        assert abs(beta.sum()) < 1e-9 and (np.abs(beta) <= C + 1e-12).all()
        for i, j in itertools.permutations(range(len(y)), 2):
            for t in (1e-4, 1e-2, 0.3):
                step = min(t, C - beta[i], C + beta[j])
                if step <= 0:
                    continue
                moved = beta.copy()
                moved[i] += step
                moved[j] -= step
                assert dual_value(moved, K, y, eps) <= best + 1e-12


def test_exact_dual_agrees_with_cvxopt():
    for X, y, C in small_duals(22):
        expected = cvxopt_dual(X, y, C, 0.1, 0.8)
        assert abs(brute_force_dual(X, y, C, 0.1, 0.8) - expected) < 1e-6


def test_constant_target_has_no_support_vectors():
    m = make_matrix(np.arange(10.0), np.full(10, 6.5))
    model = fit_svr(m)
    assert len(model.dual_coeffs) == 0
    assert np.allclose(predict_svr(model, m), 6.5)
    assert kkt_violation(model, m) == 0.0


_CONSTANT_X = np.column_stack([np.arange(8.0), [0.5, -1.0, 2.0, 0.0, 3.5, 1.0, -2.5, 4.0]])
_ZERO_SOLUTION = {
    "kind": "svr",
    "support_vectors": [],
    "support_indices": [],
    "dual_coeffs": [],
    "bias": 0.0,
    "gamma": 0.5,
    "feature_names": ["f0", "f1"],
    "target_std": 1.0,
    "converged": True,
    "kkt_violation_achieved": 0.0,
    "sweeps": 0,
    "pair_updates": 0,
}


@pytest.mark.parametrize(
    "rows, target, max_train_rows, means, stds, level",
    [
        (8, [6.5] * 8, 2000, [3.5, 0.9375], [2.29128784747792, 2.0530084632071053], 6.5),
        # Capped to the most recent six rows, whose target is constant.
        (8, [1.0, 9.0] + [3.25] * 6, 6, [4.5, 1.3333333333333333], [1.707825127659933, 2.1921577396609844], 3.25),
        (5, [-0.0] * 5, 2000, [2.0, 1.0], [1.4142135623730951, 1.5811388300841898], 0.0),
    ],
    ids=["uncapped", "capped", "negative_zero"],
)
def test_constant_target_takes_the_zero_solution(monkeypatch, rows, target, max_train_rows, means, stds, level):
    # Every dual is zero, so no Gram matrix is built; the document and the
    # predictions are pinned to the bits a constant target has always had.
    def no_gram(*args):
        raise AssertionError("a constant target needs no Gram matrix")

    monkeypatch.setattr("demandcast.models.svr.gram_matrix", no_gram)
    cfg = SvrConfig(max_train_rows=max_train_rows)
    m = make_matrix(_CONSTANT_X[:rows], target)
    model = fit_svr(m, cfg)
    expected = {
        **_ZERO_SOLUTION,
        "config": dataclasses.asdict(cfg),
        "feature_means": means,
        "feature_stds": stds,
        "target_mean": level,
    }
    # json.dumps tells 0.0 from -0.0 and keeps the key order.
    assert json.dumps(model.to_dict()) == json.dumps({key: expected[key] for key in model.to_dict()})
    assert model.dual_objective_trace == [0.0]
    probe = make_matrix(np.array([[1.5, 0.25], [20.0, -7.0]]), np.zeros(2))
    for got in (model.train_prediction, predict_svr(model, m), predict_svr(model, probe)):
        assert got.tobytes() == np.full(len(got), level).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    k=st.integers(1, 4),
    n=st.integers(0, 6),
    # The empty kernel sum is +0.0, so a bias of -0.0 predicts as +0.0;
    # bias + 0.0 draws every other bias.  A fit's target_mean is never -0.0
    # (numpy's mean of -0.0s is +0.0), and beside any other the two agree.
    bias=st.floats(-1e6, 1e6).map(lambda b: b + 0.0),
    target_mean=st.floats(-1e6, 1e6),
    target_std=st.floats(1e-6, 1e6),
)
def test_model_without_support_vectors_predicts_its_bias(data, k, n, bias, target_mean, target_std):
    values = st.floats(-1e3, 1e3)
    model = SvrModel(
        config=SvrConfig(),
        support_vectors=np.empty((0, k)),
        support_indices=np.empty(0, dtype=np.int64),
        dual_coeffs=np.empty(0),
        bias=bias,
        gamma=data.draw(st.floats(1e-3, 10.0)),
        feature_names=[f"f{j}" for j in range(k)],
        feature_means=data.draw(arrays(np.float64, k, elements=values)),
        feature_stds=data.draw(arrays(np.float64, k, elements=st.floats(1e-3, 1e3))),
        target_mean=target_mean,
        target_std=target_std,
        converged=True,
        kkt_violation_achieved=0.0,
        sweeps=0,
        pair_updates=0,
    )
    rows = data.draw(arrays(np.float64, (n, k), elements=values))
    got = predict_svr(model, make_matrix(rows, np.zeros(n)))
    assert got.tobytes() == np.full(n, target_mean + target_std * bias).tobytes()


def test_noiseless_function_rows_outside_support_stay_in_tube():
    x = np.linspace(0, 3, 20)[:, None]
    y = np.sin(x[:, 0]) + 0.5 * x[:, 0]
    m = make_matrix(x, y)
    cfg = SvrConfig(rbf_gamma=1.0, max_passes=500)
    model = fit_svr(m, cfg)
    assert model.converged
    yz = (m.target - model.target_mean) / model.target_std
    Xz = (m.rows - model.feature_means) / model.feature_stds
    fz = (
        rbf_kernel(Xz, model.support_vectors, model.gamma) @ model.dual_coeffs
        + model.bias
    )
    in_support = np.zeros(len(yz), dtype=bool)
    in_support[model.support_indices] = True
    slack = np.abs(yz - fz)[~in_support]
    assert (slack <= cfg.epsilon + cfg.smo_tolerance).all()


def test_small_instances_match_brute_force_dual():
    rng = np.random.default_rng(17)
    for trial in range(6):
        n = int(rng.integers(3, 7))
        X = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        cfg = SvrConfig(
            rbf_gamma=0.8,
            max_passes=3000,
            smo_tolerance=1e-6,
            standardize_target=False,
        )
        model = fit_svr(make_matrix(X, y), cfg)
        Xz = (X - model.feature_means) / model.feature_stds
        expected = brute_force_dual(Xz, y.astype(float), cfg.C, cfg.epsilon, 0.8)
        got = model.dual_objective_trace[-1]
        assert abs(got - expected) < 1e-4


def test_converged_fit_passes_kkt_audit():
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(60, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + 0.05 * rng.normal(size=60)
    m = make_matrix(X, y)
    model = fit_svr(m, SvrConfig(max_passes=500))
    assert model.converged
    assert kkt_violation(model, m) <= model.config.smo_tolerance


def test_perturbed_bias_fails_kkt_audit():
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(40, 2))
    y = np.sin(3 * X[:, 0]) + X[:, 1]
    m = make_matrix(X, y)
    model = fit_svr(m, SvrConfig(max_passes=500))
    model.bias += 0.5
    assert kkt_violation(model, m) > model.config.smo_tolerance


def test_dual_objective_monotone_per_sweep():
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(80, 3))
    y = np.cos(4 * X[:, 0]) + 2 * X[:, 1] * X[:, 2]
    model = fit_svr(make_matrix(X, y), SvrConfig(max_passes=200))
    trace = model.dual_objective_trace
    assert len(trace) >= 2
    for a, b in zip(trace, trace[1:]):
        assert b >= a - 1e-9


def test_box_and_equality_constraints_hold():
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(50, 2))
    y = rng.uniform(size=50) * 4
    model = fit_svr(make_matrix(X, y), SvrConfig(max_passes=300))
    assert (np.abs(model.dual_coeffs) <= model.config.C + 1e-12).all()
    assert abs(model.dual_coeffs.sum()) < 1e-9


def test_duplicate_rows_predict_identically():
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(30, 2))
    y = X[:, 0] * 2
    model = fit_svr(make_matrix(X, y), SvrConfig(max_passes=300))
    probe = np.vstack([X[:3], X[:3]])
    pred = predict_svr(model, make_matrix(probe, np.zeros(6)))
    assert np.array_equal(pred[:3], pred[3:])


def test_training_row_prediction_is_deterministic():
    rng = np.random.default_rng(6)
    X = rng.uniform(size=(25, 2))
    y = np.tanh(X[:, 0] - X[:, 1])
    m = make_matrix(X, y)
    model = fit_svr(m, SvrConfig(max_passes=300))
    assert np.array_equal(predict_svr(model, m), predict_svr(model, m))


def test_iteration_cap_reported(caplog):
    rng = np.random.default_rng(7)
    X = rng.uniform(size=(120, 4))
    y = np.sin(10 * X[:, 0]) * np.cos(8 * X[:, 1]) + X[:, 2]
    with caplog.at_level(logging.WARNING):
        model = fit_svr(make_matrix(X, y), SvrConfig(max_passes=1, smo_tolerance=1e-9))
    assert not model.converged
    assert model.kkt_violation_achieved > 1e-9
    assert any("sweeps" in rec.message for rec in caplog.records)
    # model is still usable
    assert np.isfinite(predict_svr(model, make_matrix(X, y))).all()


def test_row_cap_keeps_most_recent():
    rng = np.random.default_rng(8)
    n = 50
    X = rng.uniform(size=(n, 2))
    y = rng.uniform(size=n)
    m = make_matrix(X, y)
    cfg = SvrConfig(max_train_rows=20, max_passes=200)
    model = fit_svr(m, cfg)
    expected_mu = X[-20:].mean(axis=0)
    assert np.allclose(model.feature_means, expected_mu)


def test_schema_mismatch_raises():
    m = make_matrix(np.arange(12.0), np.arange(12.0))
    model = fit_svr(m, SvrConfig(max_passes=50))
    other = make_matrix(np.arange(12.0), np.arange(12.0), columns=["zz"])
    with pytest.raises(SchemaMismatchError):
        predict_svr(model, other)


def test_serialization_roundtrip():
    rng = np.random.default_rng(9)
    X = rng.uniform(size=(40, 3))
    y = X @ np.array([1.0, 0.5, -1.5])
    m = make_matrix(X, y)
    model = fit_svr(m, SvrConfig(max_passes=300))
    # The saved model artifact is plain JSON and survives a round trip unchanged.
    doc = model.to_dict()
    assert json.loads(json.dumps(doc)) == doc
    assert len(doc["support_vectors"]) == len(doc["dual_coeffs"]) > 0


def test_config_validation():
    with pytest.raises(ValueError):
        SvrConfig(C=0.0)
    with pytest.raises(ValueError):
        SvrConfig(epsilon=-0.1)
    with pytest.raises(ValueError):
        SvrConfig(rbf_gamma=0.0)


def test_rbf_kernel_is_row_order_invariant_and_exact():
    rng = np.random.default_rng(10)
    A = rng.normal(size=(37, 13))
    A[5] = A[20]
    B = rng.normal(size=(23, 13))
    gamma = 0.3
    K = rbf_kernel(A, B, gamma)
    p, r = rng.permutation(len(A)), rng.permutation(len(B))
    assert np.array_equal(rbf_kernel(A[p], B[r], gamma), K[p][:, r])
    assert np.array_equal(K[5], K[20])
    d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
    assert np.abs(K - np.exp(-gamma * d2)).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(
        st.integers(1, 40),
        st.sampled_from([_GRAM_BLOCK - 1, _GRAM_BLOCK, _GRAM_BLOCK + 1, 2 * _GRAM_BLOCK + 17, 10 * _GRAM_BLOCK + 5]),
    ),
    k=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    levels=st.sampled_from([0, 3]),
    gamma=st.sampled_from([0.05, 1.0 / 13, 2.0]),
)
def test_gram_matrix_is_the_one_shot_kernel(n, k, seed, levels, gamma):
    # levels > 0 draws few distinct values, so rows repeat across blocks.
    rng = np.random.default_rng(seed)
    A = rng.integers(0, levels + 1, size=(n, k)) / 2.0 if levels else rng.normal(size=(n, k))
    K = gram_matrix(A, gamma)
    assert np.array_equal(K, rbf_kernel(A, A, gamma))
    assert np.array_equal(K, K.T)


def test_gram_matrix_holds_little_beyond_its_result():
    # A bundled S2 fit's size: 256-row blocks held 9.65 MB of kernel
    # temporaries beside the 20.65 MB result, 32-row blocks 1.22 MB.
    X = np.random.default_rng(0).normal(size=(1645, 11))
    tracemalloc.start()
    try:
        K = gram_matrix(X, 1.0 / 11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - K.nbytes <= 2 * 2**20
