"""The LAPACK layer: robust_cholesky, solve_lower and chol_solve call dpotrf
and dtrtrs directly, and each result must equal scipy.linalg's bit for bit.
It is also the only module that factors or solves.
"""

import ast
import pathlib

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular

from gwquant.errors import InvalidArgumentError, NotPositiveDefiniteError
from gwquant.linalg import chol_solve, robust_cholesky, solve_lower

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gwquant"


def _spd(rng, n):
    """A random symmetric positive definite n x n matrix, C-ordered."""
    g = rng.normal(size=(n, n))
    return g @ g.T + n * np.eye(n)


def _scipy_robust_cholesky(a):
    """robust_cholesky's jitter ladder over scipy.linalg.cholesky, the oracle."""
    scale = float(np.mean(np.diag(a)))
    jitters = [0.0]
    if scale > 0.0:
        level = 1e-10
        while level <= 1e-4 * (1.0 + 1e-12):
            jitters.append(level * scale)
            level *= 10.0
    for jitter in jitters:
        try:
            return cholesky(a + jitter * np.eye(len(a)), lower=True), jitter
        except np.linalg.LinAlgError:
            continue
    return None, None


SIZES = range(1, 61)


def test_cholesky_equals_scipy(rng):
    for n in SIZES:
        a = _spd(rng, n)
        l, jitter = robust_cholesky(a)
        assert jitter == 0.0
        assert np.array_equal(l, cholesky(a, lower=True))
        assert l.flags.f_contiguous and np.array_equal(l, np.tril(l))


@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize("trans", [0, 1])
def test_solve_lower_equals_scipy(rng, order, trans):
    for n in SIZES:
        l = np.asarray(robust_cholesky(_spd(rng, n))[0], order=order)
        k_star = rng.normal(size=(9, n))  # queries by training rows, as in sgpr_predict
        for b in (rng.normal(size=n), rng.normal(size=(n, 3)), k_star.T, np.eye(n)):
            expected = solve_triangular(l, b, lower=True, trans=trans)
            x = solve_lower(l, b, trans=trans)
            assert x.shape == b.shape
            assert np.array_equal(x, expected)


@pytest.mark.parametrize("order", ["F", "C"])
def test_chol_solve_equals_two_scipy_solves(rng, order):
    for n in SIZES:
        a = _spd(rng, n)
        l = np.asarray(robust_cholesky(a)[0], order=order)
        for b in (rng.normal(size=n), np.eye(n), rng.normal(size=(4, n)).T):
            y = solve_triangular(l, b, lower=True)
            expected = solve_triangular(l, y, lower=True, trans=1)
            assert np.array_equal(chol_solve(l, b), expected)
        assert np.allclose(a @ chol_solve(l, np.eye(n)), np.eye(n), atol=1e-10)


@pytest.mark.parametrize("n", [2, 5, 40])
def test_a_matrix_needing_jitter_reports_the_same_jitter(rng, n):
    # rank one: positive semidefinite, so only a jitter makes it factor
    v = rng.normal(size=n)
    a = np.outer(v, v)
    expected_l, expected_jitter = _scipy_robust_cholesky(a)
    l, jitter = robust_cholesky(a)
    assert jitter > 0.0 and jitter == expected_jitter
    assert np.array_equal(l, expected_l)


@pytest.mark.parametrize("a", [-np.eye(3), np.array([[1.0, 2.0], [2.0, 1.0]])])
def test_a_matrix_that_is_not_positive_definite_still_raises(a):
    assert _scipy_robust_cholesky(a) == (None, None)
    with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
        robust_cholesky(a)


def test_the_checks_before_lapack_still_hold(rng):
    with pytest.raises(InvalidArgumentError, match="square"):
        robust_cholesky(np.ones((2, 3)))
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        robust_cholesky(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    l = robust_cholesky(_spd(rng, 3))[0]
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        solve_lower(l, np.array([1.0, np.inf, 0.0]))
    with pytest.raises(InvalidArgumentError, match="cannot solve"):
        solve_lower(l, np.ones(4))
    with pytest.raises(np.linalg.LinAlgError):
        solve_lower(np.diag([1.0, 0.0, 1.0]), np.ones(3))
    assert solve_lower(l, np.ones((3, 0))).shape == (3, 0)


# calls that factor or solve; only linalg.py makes them
LAPACK_CALLS = {"cholesky", "solve_triangular", "cho_solve", "cho_factor"}


def _lapack_uses(tree):
    """(line, what) of each scipy.linalg import and each factoring or solving call."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.startswith("scipy.linalg")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [a.name for a in node.names]
            if node.module.startswith("scipy.linalg") or (
                node.module == "scipy" and "linalg" in names
            ):
                found.append((node.lineno, node.module))
        elif isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called in LAPACK_CALLS:
                found.append((node.lineno, called))
    return sorted(found)


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "linalg.py")
)
def test_only_linalg_factors_or_solves(module):
    assert _lapack_uses(ast.parse((SRC / module).read_text())) == []


def test_the_lapack_guard_sees_stray_uses():
    tree = ast.parse(
        "import scipy.linalg\nfrom scipy import linalg\nfrom scipy.linalg import lu\n"
        "def f(a, b):\n    return cho_solve(a, b), np.linalg.cholesky(a)\n"
    )
    assert _lapack_uses(tree) == [
        (1, "scipy.linalg"), (2, "scipy"), (3, "scipy.linalg"), (5, "cho_solve"), (5, "cholesky"),
    ]
    assert (SRC / "linalg.py").is_file()
