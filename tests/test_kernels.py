"""Kernel and factorization tests, including the brute-force PSD oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gwquant.errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    NotPositiveDefiniteError,
)
from gwquant.kernels import (
    KernelParams,
    kernel_matrix,
    kernel_matrix_grads,
    se_kernel,
)
from gwquant.linalg import robust_cholesky
from oracles import kernel_oracle


def test_se_kernel_zero_distance_returns_output_variance():
    params = KernelParams(math.log(3.0), [0.2])
    assert se_kernel([1.7], [1.7], params) == pytest.approx(3.0, rel=1e-12)


def test_se_kernel_unit_case_matches_direct_evaluation():
    # sigma0^2 = 1, l = 1, |a-b| = sqrt(2) -> exp(-1)
    params = KernelParams(0.0, [0.0])
    assert se_kernel([0.0], [math.sqrt(2.0)], params) == pytest.approx(
        math.exp(-1.0), rel=1e-12
    )


def test_se_kernel_symmetric(rng):
    params = KernelParams(0.3, rng.normal(size=3))
    a, b = rng.normal(size=3), rng.normal(size=3)
    assert se_kernel(a, b, params) == se_kernel(b, a, params)


def test_se_kernel_dimension_mismatch():
    params = KernelParams(0.0, [0.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        se_kernel([1.0], [1.0, 2.0], params)
    with pytest.raises(DimensionMismatchError):
        se_kernel([1.0], [1.0], params)


def test_kernel_matrix_symmetric_with_output_variance_diagonal(rng):
    params = KernelParams(math.log(2.5), rng.normal(size=2))
    x = rng.normal(size=(6, 2))
    k = kernel_matrix(x, x, params)
    assert np.allclose(k, k.T)
    assert np.allclose(np.diag(k), 2.5)


def test_kernel_matrix_1x1_reduces_to_se_kernel(rng):
    params = KernelParams(0.1, rng.normal(size=2))
    a, b = rng.normal(size=2), rng.normal(size=2)
    k = kernel_matrix(a.reshape(1, -1), b.reshape(1, -1), params)
    assert k.shape == (1, 1)
    assert k[0, 0] == pytest.approx(se_kernel(a, b, params), rel=1e-15)


def test_kernel_matrix_psd_by_eigendecomposition(rng):
    params = KernelParams(math.log(1.7), rng.normal(size=2))
    x = rng.normal(size=(5, 2))
    k = kernel_matrix(x, x, params)
    eigs = np.linalg.eigvalsh(k)
    assert eigs.min() >= -1e-10 * params.output_variance


def test_kernel_matrix_column_mismatch(rng):
    params = KernelParams(0.0, [0.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        kernel_matrix(rng.normal(size=(3, 2)), rng.normal(size=(3, 1)), params)


_CELLS = st.one_of(
    st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1.0, 5.0, 1e-300, 0.1 + 0.2])
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    d=st.integers(1, 3),
    nq=st.integers(1, 12),
    nb=st.integers(1, 40),
    log_variance=st.floats(-5.0, 5.0),
    data=st.data(),
)
def test_kernel_matrix_is_the_old_formula_bit_for_bit(d, nq, nb, log_variance, data):
    params = KernelParams(log_variance, data.draw(arrays(float, d, elements=st.floats(-4, 4))))
    xb = data.draw(arrays(float, (nb, d), elements=_CELLS))
    # queries drawn afresh or taken from the fixed rows, where d2 is 0 up to round-off
    xq = data.draw(
        st.one_of(
            arrays(float, (nq, d), elements=_CELLS),
            st.lists(st.integers(0, nb - 1), min_size=1, max_size=nq).map(lambda i: xb[i]),
        )
    )
    expected = kernel_oracle(xq, xb, params)
    assert np.array_equal(kernel_matrix(xq, xb, params), expected)
    assert np.array_equal(kernel_matrix(xb, xb, params), kernel_oracle(xb, xb, params))


def test_kernel_matrix_refuses_inputs_of_another_width_than_the_kernel(rng):
    params = KernelParams(0.3, [0.1, -0.2])
    for columns in (1, 3):
        x = rng.normal(size=(4, columns))
        with pytest.raises(DimensionMismatchError, match=f"{columns} columns but kernel has 2"):
            kernel_matrix(x, x, params)


def test_kernel_grads_match_finite_differences(rng):
    x = rng.normal(size=(5, 2))
    theta = rng.normal(size=3)
    h = 1e-6
    _, grads = kernel_matrix_grads(x, KernelParams.unpack(theta))
    for j in range(3):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h
        tm[j] -= h
        kp = kernel_matrix(x, x, KernelParams.unpack(tp))
        km = kernel_matrix(x, x, KernelParams.unpack(tm))
        fd = (kp - km) / (2 * h)
        assert np.allclose(grads[j], fd, atol=1e-8)


def test_kernel_params_require_finite_values():
    with pytest.raises(InvalidArgumentError):
        KernelParams(float("nan"), [0.0])
    with pytest.raises(InvalidArgumentError):
        KernelParams(0.0, [float("inf")])


class TestRobustCholesky:
    def test_identity_needs_no_jitter(self):
        l, jitter = robust_cholesky(np.eye(4))
        assert jitter == 0.0
        assert np.allclose(l, np.eye(4))

    def test_rank_one_matrix_forces_jitter(self, rng):
        v = rng.normal(size=3)
        a = np.outer(v, v)
        l, jitter = robust_cholesky(a)
        assert jitter > 0.0
        assert np.allclose(l @ l.T, a + jitter * np.eye(3), atol=1e-12)

    def test_random_spd_reconstruction(self, rng):
        b = rng.normal(size=(6, 6))
        a = b @ b.T + 6 * np.eye(6)
        l, jitter = robust_cholesky(a)
        assert jitter == 0.0
        err = np.linalg.norm(l @ l.T - a) / np.linalg.norm(a)
        assert err <= 1e-12

    def test_indefinite_matrix_raises(self):
        # eigenvalues 3 and -1: no admissible jitter below 1e-4 * mean(diag)
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            robust_cholesky(a)

    def test_non_square_rejected(self):
        with pytest.raises(InvalidArgumentError):
            robust_cholesky(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            robust_cholesky(np.array([[1.0, 0.0], [0.0, float("nan")]]))
