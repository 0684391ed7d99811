"""The Householder least-squares solver, and the rules that src calls no BLAS,
imports nothing beyond the standard library and numpy, reads CSV text only
through ``data.utf8_text``, and pins OpenBLAS's threads in cli.py before
numpy loads.

``np.linalg`` appears here only as a test oracle.
"""

import ast
import datetime as dt
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import demandcast
from demandcast.features import HolidayCalendar
from demandcast.models import trend_seasonal
from demandcast.models.arimax import fit_arimax
from demandcast.models.lsq import (
    apply_qt,
    back_substitute,
    dependent_columns,
    householder_qr,
    pseudo_inverse,
    thin_q,
)
from demandcast.models.trend_seasonal import (
    TrendSeasonalConfig,
    fit_trend_seasonal,
    forecast_trend_seasonal,
)

seeds = st.integers(0, 2**32 - 1)


@st.composite
def full_rank_problems(draw):
    """A Gaussian m x p design with columns of mixed scale, and a target."""
    rng = np.random.default_rng(draw(seeds))
    p = draw(st.integers(1, 12))
    m = draw(st.integers(p, 80))
    a = rng.normal(size=(m, p)) * 10.0 ** rng.uniform(-3, 3, size=p)
    return a, rng.normal(size=m) * 10.0 ** rng.uniform(-2, 2)


@settings(max_examples=200, deadline=None)
@given(full_rank_problems())
def test_qr_solve_matches_lstsq(problem):
    a, b = problem
    qr = householder_qr(a)
    expected = np.linalg.lstsq(a, b, rcond=None)[0]
    # Backward-stable solves agree to about cond(a) * eps relative.
    tolerance = 1e-12 * np.linalg.cond(a) * max(1.0, np.abs(expected).max())
    by_rhs = back_substitute(qr.r, apply_qt(qr, b)[: a.shape[1]])
    by_inverse = np.einsum("ij,j->i", pseudo_inverse(qr), b)
    assert np.abs(by_rhs - expected).max() <= tolerance
    assert np.abs(by_inverse - expected).max() <= tolerance
    q = thin_q(qr)
    assert np.abs(np.einsum("ij,jk->ik", q, qr.r) - a).max() <= 1e-13 * np.abs(a).max()
    assert np.abs(np.einsum("ij,ik->jk", q, q) - np.eye(a.shape[1])).max() <= 1e-13
    if np.linalg.cond(a) < 1e6:
        assert not dependent_columns(qr).any()


@settings(max_examples=200, deadline=None)
@given(seeds, st.integers(2, 10), st.data())
def test_rank_test_flags_a_linear_combination_column(seed, p, data):
    rng = np.random.default_rng(seed)
    m = data.draw(st.integers(p, 60))
    j = data.draw(st.integers(1, p - 1))
    a = rng.normal(size=(m, p)) * 10.0 ** rng.uniform(-3, 3, size=p)
    weights = rng.integers(-3, 4, size=j).astype(float)
    weights[rng.integers(j)] = 1.0
    a[:, j] = np.einsum("ij,j->i", a[:, :j], weights)
    # Only the combination column is flagged: the columns after it are
    # independent of everything before them.
    assert np.flatnonzero(dependent_columns(householder_qr(a))).tolist() == [j]


def test_zero_column_is_dependent():
    a = np.column_stack([np.ones(5), np.zeros(5), np.arange(5.0)])
    assert dependent_columns(householder_qr(a)).tolist() == [False, True, False]


START = dt.date(2015, 1, 1).toordinal()


@settings(max_examples=25, deadline=None)
@given(seeds, st.integers(60, 400), st.sampled_from([0.0, 0.05, 3.0]), st.booleans())
def test_trend_seasonal_cache_hit_equals_fresh_factorization(seed, n, penalty, with_calendar):
    rng = np.random.default_rng(seed)
    dates = START + np.arange(n, dtype=np.int64)
    cfg = TrendSeasonalConfig(n_changepoints=5, yearly_fourier_order=3, changepoint_penalty=penalty)
    calendar = (
        HolidayCalendar(entries={int(o): f"h{int(o) % 3}" for o in dates[::17]})
        if with_calendar
        else None
    )
    first, second = (rng.poisson(20.0, n).astype(float) for _ in range(2))
    trend_seasonal._factored_design.cache_clear()
    fit_trend_seasonal(first, dates, cfg, calendar)
    hit = fit_trend_seasonal(second, dates, cfg, calendar)
    assert trend_seasonal._factored_design.cache_info().hits == 1
    trend_seasonal._factored_design.cache_clear()
    fresh = fit_trend_seasonal(second, dates, cfg, calendar)
    assert hit.to_dict() == fresh.to_dict()
    assert np.array_equal(hit.train_prediction, fresh.train_prediction)
    # The in-sample values are the forecast of the training days, bit for bit.
    assert np.array_equal(hit.train_prediction, forecast_trend_seasonal(hit, dates)[0])
    # A forecast from a cached basis equals one from a fresh basis.
    future = dates[-1] + 1 + np.arange(40, dtype=np.int64)
    trend_seasonal._forecast_basis.cache_clear()
    missed = forecast_trend_seasonal(hit, future)
    cached = forecast_trend_seasonal(hit, future)
    assert trend_seasonal._forecast_basis.cache_info().hits == 1
    assert all(np.array_equal(a, b) for a, b in zip(missed, cached))
    # Fresh holds its own design, so its forecast builds the basis anew.
    assert fresh.design is not hit.design
    assert all(np.array_equal(a, b) for a, b in zip(missed, forecast_trend_seasonal(fresh, future)))


@settings(max_examples=100, deadline=None)
@given(
    st.floats(-50.0, 50.0, allow_nan=False), st.integers(8, 60), st.integers(0, 2), seeds
)
def test_arimax_constant_series_takes_the_minimum_norm_solution(level, n, k, seed):
    y = np.full(n, level)
    X = np.random.default_rng(seed).normal(size=(n, k))
    model = fit_arimax(y, X, [f"x{j}" for j in range(k)])
    design = np.column_stack([np.ones(n - 1), X[1:], y[:-1]])
    expected = np.linalg.lstsq(design, y[1:], rcond=None)[0]
    got = np.concatenate([[model.intercept], model.beta, [model.phi]])
    assert np.abs(got - expected).max() <= 1e-9 * max(1.0, abs(level))


# --- no BLAS in src ------------------------------------------------------------

BLAS_NAMES = {"linalg", "dot", "matmul", "inner", "vdot", "tensordot"}


def blas_uses(source: str) -> list[str]:
    """Every BLAS-reaching construct in ``source``: the @ operator, numpy's
    linalg and product functions, and einsum with ``optimize``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in BLAS_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            found.append(f"line {node.lineno}: np.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = {alias.name for alias in node.names}
            if node.module.startswith("numpy.linalg") or names & BLAS_NAMES:
                found.append(f"line {node.lineno}: from {node.module} import")
        elif isinstance(node, ast.Import) and any(
            alias.name.startswith("numpy.linalg") for alias in node.names
        ):
            found.append(f"line {node.lineno}: import numpy.linalg")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "einsum"
            and any(kw.arg == "optimize" for kw in node.keywords)
        ):
            found.append(f"line {node.lineno}: einsum(optimize=...)")
    return found


def test_blas_scan_catches_each_construct():
    sources = [
        "c = a @ b",
        "a @= b",
        "np.linalg.lstsq(a, b)",
        "numpy.linalg.norm(a)",
        "np.dot(a, b)",
        "np.matmul(a, b)",
        "np.inner(a, b)",
        "np.vdot(a, b)",
        "np.tensordot(a, b, 1)",
        "np.einsum('ij,j->i', a, b, optimize=True)",
        "from numpy.linalg import lstsq",
        "from numpy import dot",
        "import numpy.linalg",
    ]
    for source in sources:
        assert blas_uses(source), source
    assert blas_uses("np.einsum('ij,j->i', a, b)\nx = a * b") == []


def test_src_calls_no_blas():
    package = Path(demandcast.__file__).resolve().parent
    offenders = {
        str(path.relative_to(package)): uses
        for path in sorted(package.rglob("*.py"))
        if (uses := blas_uses(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def foreign_imports(source: str) -> list[str]:
    """Absolute imports of anything but the standard library, numpy and demandcast."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "demandcast"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {m}" for m in modules if m.split(".")[0] not in allowed]
    return found


def test_src_imports_only_numpy_beyond_the_standard_library():
    assert foreign_imports("import scipy.linalg\nfrom pandas import DataFrame") == [
        "line 1: scipy.linalg",
        "line 2: pandas",
    ]
    assert foreign_imports("import os, numpy.linalg\nfrom . import data\nfrom json import dumps") == []
    package = Path(demandcast.__file__).resolve().parent
    offenders = {
        str(path.relative_to(package)): found
        for path in sorted(package.rglob("*.py"))
        if (found := foreign_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def text_streams(source: str, module: str) -> list[str]:
    """csv.reader calls on anything but ``utf8_text(...)``, and text streams built outside data.py.

    So that one function in data.py turns CSV bytes into text.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        if name == "csv.reader":
            stream = node.args[0] if node.args else None
            if not (isinstance(stream, ast.Call) and ast.unparse(stream.func) == "utf8_text"):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif name.split(".")[-1] in ("StringIO", "TextIOWrapper") and module != "data.py":
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_src_reads_csv_text_only_through_utf8_text():
    assert text_streams("r = csv.reader(io.StringIO(t))\nq = csv.reader(fh)", "data.py") == [
        "line 1: csv.reader(io.StringIO(t))",
        "line 2: csv.reader(fh)",
    ]
    assert text_streams("s = io.TextIOWrapper(b)\nt = StringIO(x)", "artifacts.py") == [
        "line 1: io.TextIOWrapper(b)",
        "line 2: StringIO(x)",
    ]
    assert text_streams("s = io.TextIOWrapper(b)\nr = csv.reader(utf8_text(d), strict=True)", "data.py") == []
    package = Path(demandcast.__file__).resolve().parent
    offenders = {
        str(path.relative_to(package)): found
        for path in sorted(package.rglob("*.py"))
        if (found := text_streams(path.read_text(encoding="utf-8"), str(path.relative_to(package))))
    }
    assert offenders == {}


# --- the BLAS thread pin comes before numpy in cli.py --------------------------

PIN = 'os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")'


def imports_before_pin(source: str) -> list[str]:
    """The numpy and package imports that run before the module's
    ``os.environ.setdefault("OPENBLAS_NUM_THREADS", ...)``; the whole module
    counts when it has no such call."""
    found = []
    for statement in ast.parse(source).body:
        call = statement.value if isinstance(statement, ast.Expr) else None
        if (
            isinstance(call, ast.Call)
            and ast.unparse(call.func) == "os.environ.setdefault"
            and ast.unparse(call.args[0]) == "'OPENBLAS_NUM_THREADS'"
        ):
            return found
        for node in ast.walk(statement):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = ["." * node.level + (node.module or "")]
            else:
                continue
            found += [
                f"line {node.lineno}: {module}"
                for module in modules
                if module.startswith(".") or module.split(".")[0] in ("numpy", "demandcast")
            ]
    return found


def test_cli_pins_blas_threads_before_numpy_loads():
    assert imports_before_pin(f"import numpy as np\nimport os\n{PIN}") == ["line 1: numpy"]
    assert imports_before_pin(f"import os\nfrom . import data\n{PIN}") == ["line 2: ."]
    assert imports_before_pin(f"import os\nfrom .evaluate import run\n{PIN}") == ["line 2: .evaluate"]
    assert imports_before_pin("import os\nimport numpy") == ["line 2: numpy"]
    assert imports_before_pin(f"import os, json\n{PIN}\nimport numpy\nfrom . import data") == []
    cli = Path(demandcast.__file__).resolve().parent / "cli.py"
    assert imports_before_pin(cli.read_text(encoding="utf-8")) == []
