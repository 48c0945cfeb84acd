"""ARD squared-exponential kernel and its hyperparameter gradients.

The kernel is

    k(a, b) = s2 * exp(-0.5 * sum_d (a_d - b_d)^2 / l_d^2)

with output variance ``s2`` and one characteristic length scale ``l_d`` per
input dimension. Both are kept in log space so positivity holds by
construction.

Every cross-covariance is computed by ``cross_covariance`` against a
``KernelRows``: one side's rows scaled by the length scales, their squared
norms and ``s2`` as a float, computed once. ``kernel_matrix`` prepares its
second argument afresh; a built model prepares its unique training rows
once (``GpPosterior.f_rows``), so a predict pays only for its query rows.
The operations and their order are the same either way, so both give the
same bits:

    d2 = (|sa|^2 + |sb|^2) - (2 sa) @ sb^T,   k = s2 * exp(-0.5 * max(d2, 0))
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidArgumentError


@dataclass
class KernelParams:
    """Log-space hyperparameters of the ARD squared-exponential kernel.

    Attributes:
        log_output_variance: log of the output variance s2.
        log_length_scales: log of the length scale per input dimension,
            shape (D,).
    """

    log_output_variance: float
    log_length_scales: np.ndarray = field(default_factory=lambda: np.zeros(1))

    def __post_init__(self):
        self.log_length_scales = np.atleast_1d(
            np.asarray(self.log_length_scales, dtype=float)
        )
        if not np.isfinite(self.log_output_variance):
            raise InvalidArgumentError("log_output_variance must be finite")
        if not np.all(np.isfinite(self.log_length_scales)):
            raise InvalidArgumentError("log_length_scales must be finite")

    @property
    def ndim(self) -> int:
        return self.log_length_scales.size

    @property
    def output_variance(self) -> float:
        return float(np.exp(self.log_output_variance))

    @property
    def length_scales(self) -> np.ndarray:
        return np.exp(self.log_length_scales)

    def pack(self) -> np.ndarray:
        """Flatten to [log_output_variance, log_length_scales...]."""
        return np.concatenate(([self.log_output_variance], self.log_length_scales))

    @classmethod
    def unpack(cls, theta: np.ndarray) -> "KernelParams":
        theta = np.asarray(theta, dtype=float)
        return cls(float(theta[0]), theta[1:].copy())


def _as_2d(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if x.ndim != 2:
        raise DimensionMismatchError(f"expected 2-d input array, got shape {x.shape}")
    return x


def se_kernel(a, b, params: KernelParams) -> float:
    """Evaluate the kernel between two points.

    Symmetric in its arguments and equal to the output variance at a == b.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size != b.size:
        raise DimensionMismatchError(f"point sizes differ: {a.size} vs {b.size}")
    if a.size != params.ndim:
        raise DimensionMismatchError(
            f"points have {a.size} dims but kernel has {params.ndim} length scales"
        )
    z = (a - b) / params.length_scales
    return params.output_variance * float(np.exp(-0.5 * np.dot(z, z)))


@dataclass(frozen=True)
class KernelRows:
    """Fixed rows x_b of a cross-covariance, prepared once for one kernel.

    scaled is x_b / l, sq_norms its squared row norms and output_variance
    s2 as a float; all arrays are read-only.
    """

    length_scales: np.ndarray
    scaled: np.ndarray
    sq_norms: np.ndarray
    output_variance: float

    @classmethod
    def prepare(cls, x, params: KernelParams) -> "KernelRows":
        """The rows of x (2-d, one column per length scale) prepared for params."""
        x = _as_2d(x)
        if x.shape[1] != params.ndim:
            raise DimensionMismatchError(
                f"inputs have {x.shape[1]} columns but kernel has {params.ndim} length scales"
            )
        length_scales = params.length_scales
        scaled = x / length_scales
        rows = cls(length_scales, scaled, np.sum(scaled**2, axis=1), params.output_variance)
        for array in (length_scales, scaled, rows.sq_norms):
            array.flags.writeable = False
        return rows


def cross_covariance(xq: np.ndarray, rows: KernelRows) -> np.ndarray:
    """Kernel matrix between the 2-d query rows xq and prepared rows, shape (nq, nb).

    xq must have the rows' column count; callers check it.
    """
    sa = xq / rows.length_scales
    # (a-b)^2 = a^2 + b^2 - 2ab, clipped against tiny negative round-off
    d2 = (sa**2).sum(axis=1)[:, None] + rows.sq_norms[None, :] - 2.0 * sa @ rows.scaled.T
    return rows.output_variance * np.exp(-0.5 * np.maximum(d2, 0.0))


def kernel_matrix(xa, xb, params: KernelParams) -> np.ndarray:
    """Cross-covariance matrix with entry (i, j) = se_kernel(xa[i], xb[j])."""
    xa = _as_2d(xa)
    xb = _as_2d(xb)
    if xa.shape[1] != xb.shape[1]:
        raise DimensionMismatchError(
            f"column counts differ: {xa.shape[1]} vs {xb.shape[1]}"
        )
    return cross_covariance(xa, KernelRows.prepare(xb, params))


def kernel_matrix_grads(x, params: KernelParams):
    """Kernel matrix on one input set plus its log-hyperparameter derivatives.

    Returns (K, grads) where grads[j] is dK/dtheta_j for the packed order
    [log_output_variance, log_length_scale_1, ..., log_length_scale_D]:

        dK/dlog s2  = K
        dK/dlog l_d = K * (x_d - x'_d)^2 / l_d^2
    """
    x = _as_2d(x)
    k = kernel_matrix(x, x, params)
    ls = params.length_scales
    grads = [k]
    for d in range(params.ndim):
        diff = (x[:, d][:, None] - x[:, d][None, :]) / ls[d]
        grads.append(k * diff**2)
    return k, grads
