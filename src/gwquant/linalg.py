"""Numerically robust Gaussian linear algebra helpers.

The only module that factors or solves: it calls LAPACK's dpotrf and dtrtrs
directly, as scipy.linalg's cholesky and solve_triangular do, so every
result equals theirs bit for bit without their per-call checking wrappers.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

from .errors import DimensionMismatchError, InvalidArgumentError, NotPositiveDefiniteError

# Jitter escalation relative to mean(diag A): 1e-10 up to 1e-4, factors of 10.
_JITTER_START = 1e-10
_JITTER_MAX = 1e-4


def robust_cholesky(a: np.ndarray):
    """Lower-triangular factor L with L @ L.T = A + jitter * I.

    Jitter starts at zero and escalates tenfold from 1e-10 * mean(diag A)
    to 1e-4 * mean(diag A) until the factorization succeeds.

    Returns:
        (L, jitter_used)

    Raises:
        NotPositiveDefiniteError: if the maximum jitter is insufficient.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidArgumentError("matrix contains non-finite entries")

    scale = float(np.mean(np.diag(a)))
    jitters = [0.0]
    if scale > 0.0:
        level = _JITTER_START
        while level <= _JITTER_MAX * (1.0 + 1e-12):
            jitters.append(level * scale)
            level *= 10.0

    n = a.shape[0]
    for jitter in jitters:
        # info > 0: a leading minor is not positive definite
        l, info = dpotrf(a + jitter * np.eye(n), lower=1, clean=1)
        if info == 0:
            return l, jitter
    raise NotPositiveDefiniteError(
        f"matrix is not positive definite even with jitter {jitters[-1]:.3e}"
    )


def solve_lower(l: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """x with L x = b (trans 0) or L^T x = b (trans 1), L lower triangular.

    b is a vector or a matrix of right-hand sides and x has its shape. An
    F-ordered L goes to dtrtrs as is; any other is passed transposed, as the
    upper factor of the flipped system, as scipy.linalg.solve_triangular does.

    Raises:
        DimensionMismatchError: if L is not square or b has another row count.
        InvalidArgumentError: if L or b holds a non-finite entry.
        numpy.linalg.LinAlgError: if L has a zero on its diagonal.
    """
    l, b = np.asarray(l), np.asarray(b)
    if l.ndim != 2 or l.shape[0] != l.shape[1] or b.ndim not in (1, 2) or len(b) != len(l):
        raise DimensionMismatchError(f"cannot solve a {l.shape} factor against {b.shape}")
    if not (np.isfinite(l).all() and np.isfinite(b).all()):
        raise InvalidArgumentError("triangular solve with non-finite entries")
    if l.flags.f_contiguous:
        x, info = dtrtrs(l, b, lower=1, trans=trans)
    else:
        x, info = dtrtrs(l.T, b, lower=0, trans=1 - trans)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (dtrtrs info {info})")
    return x


def chol_solve(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = b given the lower Cholesky factor."""
    return solve_lower(l, solve_lower(l, b), trans=1)


def chol_logdet(l: np.ndarray) -> float:
    """log det(L L^T) from the lower Cholesky factor."""
    return 2.0 * float(np.sum(np.log(np.diag(l))))
