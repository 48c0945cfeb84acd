"""The GP core shared by both model kinds, and homoscedastic GP regression.

Both kinds are a posterior of f under K_f + diag(R) (GpPosterior) with one
predict path (sgpr_predict) and one Gaussian likelihood term (gaussian_nll);
gwquant.vhgpr finds R variationally, this module uses R = sn2 I. R is one
r_u per state, so a model is conditioned on its n_u unique training states:
their mean targets with noise r_u / c_u, c_u the state's replicate count,
give the posterior that all rows give (Binois et al., JCGS 2018). A
posterior keeps those unique rows (unique_inputs), and a predict computes
k_f between its query rows and them with kernels.kernel_matrix. It also
holds the grid of its training damages (damage_grid, a StateGrid, the
candidate states gwquant.quantify scores a test DI against) and the
predictive moments at each of its training states (state_moments), so
scoring a training state makes no predict.

Hyperparameters (output variance, ARD length scales, noise variance) are
optimized in log space by minimizing the negative log marginal likelihood on
the same summary, the state means ybar and within-state sums of squares SS_u,

    nlml = -log N(ybar | 0, K_u + diag(sn2 / c))
           + 1/2 sum_u [(c_u - 1) log(2 pi sn2) + SS_u / sn2 + log c_u],

with its analytic gradient at O(N + n_u^3), using L-BFGS-B restarted from
perturbed initializations. If sn2 < eps * s2_f at a replicated state, every
noise gets + 1e-10 (s2_f + mean row noise), the first jitter of the row
matrix's Cholesky (gaussian_nll). The prior mean is fixed at zero; an
optional target offset (subtract mean(y) before training, add it back at
prediction) is available for data that is far from zero.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np
from scipy.optimize import minimize

from .errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    NotPositiveDefiniteError,
    OptimizerFailureError,
)
from .kernels import KernelParams, _as_2d, kernel_matrix, kernel_matrix_grads
from .linalg import _JITTER_START, chol_logdet, chol_solve, robust_cholesky, solve_lower

_LOG_2PI = math.log(2.0 * math.pi)
_EPS = float(np.finfo(float).eps)

# Objective value used when a trial point cannot be factorized; large enough
# that the line search backs off, finite so L-BFGS-B keeps going.
_BAD_OBJECTIVE = 1e25


# L-BFGS-B stopping rule (gradient infinity norm, relative objective change,
# iteration cap) and the log-space std of the restart perturbations.
_MAX_ITER = 500
_GRAD_TOL = 1e-6
_REL_OBJ_TOL = 1e-10
_INIT_JITTER_STD = 0.5


@dataclass
class OptimizerConfig:
    """Quasi-Newton training contract shared by both model kinds.

    n_restarts counts optimization runs: the first starts from the
    data-derived initialization, the rest from log-normal perturbations of
    it drawn from a generator seeded with seed.
    """

    n_restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.n_restarts < 1:
            raise InvalidArgumentError("n_restarts must be >= 1")


@dataclass
class PredictiveMoments:
    """Per-query mean and variance of the predictive distribution."""

    mean: np.ndarray
    variance: np.ndarray
    query_inputs: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).ravel()
        self.variance = np.asarray(self.variance, dtype=float).ravel()
        self.query_inputs = _as_2d(self.query_inputs)
        if not (self.mean.size == self.variance.size == self.query_inputs.shape[0]):
            raise DimensionMismatchError("moment lengths disagree with queries")
        if (self.variance < 0).any():
            raise InvalidArgumentError("predictive variance must be nonnegative")


@dataclass
class FitMetrics:
    nmse: float
    rss_sss_percent: float
    nlpd: float
    coverage_2sd: float


@dataclass
class StateGrid:
    """Candidate states: (damage,) or (damage, load) tuples, sorted."""

    states: list[tuple]

    def __post_init__(self):
        if not self.states:
            raise InvalidArgumentError("state grid must be non-empty")
        widths = {len(s) for s in self.states}
        if len(widths) != 1 or widths.pop() not in (1, 2):
            raise InvalidArgumentError("states must all be 1- or 2-tuples")
        states = [tuple(float(v) for v in s) for s in self.states]
        if not all(math.isfinite(v) for s in states for v in s):
            raise InvalidArgumentError("state values must be finite")
        self.states = sorted(set(states))

    @classmethod
    def from_training_inputs(cls, inputs, include_load: bool | None = None) -> "StateGrid":
        """Unique training states; load column included when present."""
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        if include_load is None:
            include_load = inputs.shape[1] >= 2
        cols = 2 if include_load and inputs.shape[1] >= 2 else 1
        # dedupe as Python floats first: training inputs repeat per replicate
        return cls(list({tuple(row) for row in inputs[:, :cols].tolist()}))

    def refine(self, k: int) -> "StateGrid":
        """Insert k interpolated damage values between adjacent grid damages."""
        if k <= 0:
            return StateGrid(list(self.states))
        by_load: dict[tuple, list[float]] = {}
        for s in self.states:
            by_load.setdefault(s[1:], []).append(s[0])
        states = []
        for rest, damages in by_load.items():
            damages = sorted(set(damages))
            refined = []
            for lo, hi in zip(damages, damages[1:]):
                refined.extend(np.linspace(lo, hi, k + 2)[:-1])
            refined.append(damages[-1])
            states.extend(tuple([d, *rest]) for d in refined)
        return StateGrid(states)


def _factor(k: np.ndarray, r: np.ndarray, y: np.ndarray):
    """Lower Cholesky factor of K + diag(r) and (K + diag(r))^-1 y."""
    l, _ = robust_cholesky(k + np.diag(r))
    return l, chol_solve(l, y)


def _replicates(x: np.ndarray):
    """(unique, inverse, counts): the sorted unique rows of x, the index of each
    row of x among them and how many rows of x each unique row stands for."""
    unique, inverse, counts = np.unique(x, axis=0, return_inverse=True, return_counts=True)
    # numpy 2.0.0 returned this inverse 2-D
    return unique, inverse.ravel(), counts


def _state_means(replicates, y: np.ndarray) -> np.ndarray:
    _, inverse, counts = replicates
    return np.bincount(inverse, weights=y) / counts


@dataclass
class GpPosterior:
    """Posterior of f under K_f + diag(R); SGPR is the case R = sn2 I.

    train_inputs and train_targets keep the rows the model was built from.
    unique_inputs holds, read-only, the n_u unique training rows: chol_factor
    factorizes K_f + diag(r_u / c_u) at them and alpha solves it against
    each state's mean offset-corrected target. One predict over the unique
    rows gives state_moments, a read-only map from each unique row (a tuple
    of floats) to its predictive (mean, variance), and row_variance, the
    variance at each training row, so replicates share theirs exactly.
    damage_grid is the StateGrid of the training damages, the states a test
    DI is scored against by default. A (damage, load, switch) model also
    holds the grids of a two-state request: load_grid, its training loads,
    and damage_load_grid, the StateGrid of every training damage with every
    training load (both None for other models).
    Subclasses supply noise_at(xq), the noise variance at the query rows.
    """

    kernel: KernelParams
    train_inputs: np.ndarray
    train_targets: np.ndarray
    target_offset: float
    chol_factor: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    unique_inputs: np.ndarray = field(repr=False, compare=False)
    row_variance: np.ndarray = field(init=False, repr=False, compare=False)
    state_moments: MappingProxyType = field(init=False, repr=False, compare=False)
    damage_grid: StateGrid = field(init=False, repr=False, compare=False)
    load_grid: tuple[float, ...] | None = field(init=False, repr=False, compare=False)
    damage_load_grid: StateGrid | None = field(init=False, repr=False, compare=False)

    @property
    def ndim(self) -> int:
        return self.train_inputs.shape[1]

    @classmethod
    def _conditioned(cls, kernel: KernelParams, x, y, target_offset, replicates, noise, **fields):
        """Factorize K_f + diag(noise / c) at the unique rows of replicates =
        _replicates(x), noise a float or one per unique row, solve it against
        the state means of y - target_offset, predict the moments at each
        training state and grid the training damages (and, with a switch
        column, the training damages by the training loads)."""
        unique, inverse, counts = replicates
        unique.flags.writeable = False
        means = _state_means(replicates, y - target_offset)
        l, alpha = _factor(kernel_matrix(unique, unique, kernel), noise / counts, means)
        model = cls(kernel, x, y, target_offset, l, alpha, unique, **fields)
        moments = model.predict(unique)
        model.row_variance = moments.variance[inverse]
        model.state_moments = MappingProxyType(dict(zip(
            map(tuple, unique.tolist()), zip(moments.mean.tolist(), moments.variance.tolist())
        )))
        model.damage_grid = StateGrid.from_training_inputs(unique, include_load=False)
        model.load_grid = model.damage_load_grid = None
        if x.shape[1] == 3:
            damages, loads = (np.unique(x[:, c]).tolist() for c in (0, 1))
            model.load_grid = tuple(loads)
            model.damage_load_grid = StateGrid([(d, w) for d in damages for w in loads])
        return model

    def predict(self, xq) -> PredictiveMoments:
        return sgpr_predict(self, xq)


@dataclass
class SgprModel(GpPosterior):
    """Trained homoscedastic model with cached factorization."""

    log_noise_variance: float

    @property
    def noise_variance(self) -> float:
        return float(np.exp(self.log_noise_variance))

    @classmethod
    def from_hyperparams(
        cls,
        kernel: KernelParams,
        log_noise_variance: float,
        x,
        y,
        target_offset: float = 0.0,
    ) -> "SgprModel":
        """Build the cached factorization for fixed hyperparameters."""
        x = _as_2d(x)
        y = np.asarray(y, dtype=float).ravel()
        return cls._conditioned(
            kernel, x, y, target_offset, _replicates(x), float(np.exp(log_noise_variance)),
            log_noise_variance=float(log_noise_variance),
        )

    def hyperparams(self) -> tuple:
        """Arguments that from_hyperparams takes before x, in its order."""
        return self.kernel, self.log_noise_variance

    def noise_at(self, xq: np.ndarray) -> float:
        return self.noise_variance


def gaussian_nll(k: np.ndarray, r: np.ndarray, replicates, y: np.ndarray, s2: float):
    """-log N(y | 0, K + R) on the replicate summary, M and e.

    k is K and r the noise r_u at the states of replicates = _replicates(x).
    M = alpha alpha^T - (K + diag(r / c))^-1 gives the kernel gradient,
    d(-log N)/dtheta = -0.5 tr(M dK/dtheta), and e_u = 2 d(log N)/dr_u. If
    a state with c_u >= 2 has r_u < eps * s2 (s2 the kernel's output
    variance), every r_u gets + 1e-10 (s2 + sum c_u r_u / N); e holds it fixed.
    """
    _, inverse, counts = replicates
    means = _state_means(replicates, y)
    ss = np.bincount(inverse, weights=(y - means[inverse]) ** 2)
    rule = np.any(r[counts > 1] < _EPS * s2)
    rj = r + _JITTER_START * (s2 + float(counts @ r) / y.size) if rule else r
    l, alpha = _factor(k, rj / counts, means)
    value = 0.5 * float(means @ alpha) + 0.5 * chol_logdet(l) + 0.5 * y.size * _LOG_2PI
    value += 0.5 * float(np.sum((counts - 1) * np.log(rj) + ss / rj + np.log(counts)))
    m = np.outer(alpha, alpha) - chol_solve(l, np.eye(counts.size))
    return value, m, np.diag(m) / counts - (counts - 1 - ss / rj) / rj


def sgpr_nlml(params: KernelParams, log_noise_variance: float, x, y):
    """Negative log marginal likelihood (gaussian_nll) and its analytic gradient.

    The gradient is with respect to the packed log parameters
    [log_output_variance, log_length_scales (D), log_noise_variance].
    """
    x = _as_2d(x)
    y = np.asarray(y, dtype=float).ravel()
    if x.shape[0] < 1 or y.size != x.shape[0]:
        raise InvalidArgumentError("need n >= 1 training rows with matching targets")
    replicates = unique, _, counts = _replicates(x)
    k, k_grads = kernel_matrix_grads(unique, params)
    noise = np.full(counts.size, float(np.exp(log_noise_variance)))
    value, m, e = gaussian_nll(k, noise, replicates, y, params.output_variance)
    grad = [-0.5 * float(np.sum(m * dk)) for dk in k_grads]
    return value, np.array(grad + [-0.5 * float(np.sum(e)) * noise[0]])


def _unpack(theta: np.ndarray):
    return KernelParams.unpack(theta[:-1]), float(theta[-1])


def _initial_point(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    var_y = float(np.var(y))
    if var_y <= 0 or not math.isfinite(var_y):
        var_y = max(1e-4, 1e-4 * float(np.mean(y) ** 2))
    ranges = x.max(axis=0) - x.min(axis=0)
    ranges[ranges <= 0] = 1.0
    return np.concatenate(
        ([math.log(var_y)], np.log(ranges), [math.log(0.1 * var_y)])
    )


def minimize_with_restarts(objective, theta0, config: OptimizerConfig):
    """Best of n_restarts L-BFGS-B runs; restarts jitter theta0 in log space.

    objective(theta) -> (value, gradient). Returns (theta, value). Raises
    OptimizerFailureError if every restart ends at a non-finite value.
    """

    def safe_objective(theta):
        # exploratory iterates can overflow exp() or break factorizations;
        # report a huge value so the line search backs off. Mismatched
        # shapes are a bug in the objective, not a bad point.
        try:
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                value, grad = objective(theta)
        except DimensionMismatchError:
            raise
        except (FloatingPointError, OverflowError, np.linalg.LinAlgError,
                InvalidArgumentError, NotPositiveDefiniteError):
            return _BAD_OBJECTIVE, np.zeros_like(theta)
        if not (np.isfinite(value) and np.all(np.isfinite(grad))):
            return _BAD_OBJECTIVE, np.zeros_like(theta)
        return value, grad

    rng = np.random.default_rng(config.seed)
    best_theta, best_value = None, np.inf
    for restart in range(config.n_restarts):
        start = np.array(theta0, dtype=float)
        if restart > 0:
            start = start + rng.normal(0.0, _INIT_JITTER_STD, start.size)
        result = minimize(
            safe_objective,
            start,
            jac=True,
            method="L-BFGS-B",
            options={
                "maxiter": _MAX_ITER,
                "ftol": _REL_OBJ_TOL,
                "gtol": _GRAD_TOL,
                "maxcor": 20,
            },
        )
        # safe_objective is always finite and the line search never ends
        # above its start, so the result is the best point of the restart.
        if result.fun < min(best_value, _BAD_OBJECTIVE):
            best_value, best_theta = float(result.fun), result.x
    if best_theta is None:
        raise OptimizerFailureError("no restart produced a finite objective")
    return best_theta, best_value


def train_sgpr(x, y, optimizer: OptimizerConfig | None = None, center_targets: bool = False) -> SgprModel:
    """Type-II maximum-likelihood training with restarts.

    Warns (and proceeds) when the targets are constant.
    """
    x = _as_2d(x)
    y = np.asarray(y, dtype=float).ravel()
    if x.shape[0] < 2:
        raise InvalidArgumentError("training needs n >= 2 rows")
    if y.size != x.shape[0]:
        raise DimensionMismatchError("inputs and targets row counts differ")
    if np.ptp(y) == 0:
        warnings.warn("training targets are constant", UserWarning, stacklevel=2)
    optimizer = optimizer or OptimizerConfig()

    offset = float(np.mean(y)) if center_targets else 0.0
    yc = y - offset

    def objective(theta):
        params, log_noise = _unpack(theta)
        return sgpr_nlml(params, log_noise, x, yc)

    theta0 = _initial_point(x, yc)
    theta, _ = minimize_with_restarts(objective, theta0, optimizer)
    params, log_noise = _unpack(theta)
    return SgprModel.from_hyperparams(params, log_noise, x, y, target_offset=offset)


def sgpr_predict(model: GpPosterior, xq) -> PredictiveMoments:
    """Predictive mean and variance: latent variance of f + model.noise_at(xq)."""
    xq = _as_2d(xq)
    if xq.shape[1] != model.ndim:
        raise DimensionMismatchError(
            f"query has {xq.shape[1]} columns, model expects {model.ndim}"
        )
    k_star = kernel_matrix(xq, model.unique_inputs, model.kernel)
    mean = k_star @ model.alpha + model.target_offset
    v = solve_lower(model.chol_factor, k_star.T)
    latent = model.kernel.output_variance - (v**2).sum(axis=0)
    variance = np.maximum(latent, 0.0) + model.noise_at(xq)
    return PredictiveMoments(mean, variance, xq)


def evaluate_fit(moments: PredictiveMoments, y_true, y_train) -> FitMetrics:
    """Held-out NMSE, RSS/SSS (percent), NLPD and 2-sd coverage.

    nmse normalizes the squared error by that of the constant train-mean
    predictor; rss_sss divides by the raw sum of squares of the targets.
    nlpd is the mean negative log predictive density, the mean of
    0.5 log(2 pi v) + (y - m)^2 / (2 v), and coverage_2sd the fraction of
    targets within 2 sqrt(v) of the mean: these two judge the variance too.
    """
    y_true = np.asarray(y_true, dtype=float).ravel()
    y_train = np.asarray(y_train, dtype=float).ravel()
    if y_true.size != moments.mean.size:
        raise DimensionMismatchError("y_true length disagrees with predictions")
    resid = y_true - moments.mean
    base = y_true - float(np.mean(y_train))
    denom_nmse = float(np.mean(base**2))
    denom_sss = float(np.sum(y_true**2))
    if denom_nmse <= 0 or denom_sss <= 0:
        raise InvalidArgumentError("degenerate denominator in fit metrics")
    variance = moments.variance
    return FitMetrics(
        nmse=float(np.mean(resid**2)) / denom_nmse,
        rss_sss_percent=100.0 * float(np.sum(resid**2)) / denom_sss,
        nlpd=float(np.mean(0.5 * np.log(2.0 * np.pi * variance) + resid**2 / (2.0 * variance))),
        coverage_2sd=float(np.mean(np.abs(resid) <= 2.0 * np.sqrt(variance))),
    )
