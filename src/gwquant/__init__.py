"""Guided-wave damage quantification with DI-trained GP regression models."""

from .damage_index import (
    DiDataset,
    build_di_dataset,
    normalized_di,
    read_di_csv,
    rmsd_di,
    write_di_csv,
)
from .errors import (
    CovariateMismatchError,
    DegenerateSignalError,
    DimensionMismatchError,
    GwquantError,
    InvalidArgumentError,
    MissingBaselineError,
    NotPositiveDefiniteError,
    OptimizerFailureError,
    SchemaMismatchError,
    SignalParseError,
)
from .kernels import KernelParams, kernel_matrix, se_kernel
from .linalg import robust_cholesky
from .persist import load_model, save_model
from .quantify import (
    StateGrid,
    StateProbabilityTable,
    SummaryReport,
    TwoStepPrediction,
    gaussian_cdf,
    predict_single_state,
    predict_two_states,
    state_probabilities,
    summarize_predictions,
)
from .sgpr import (
    FitMetrics,
    OptimizerConfig,
    PredictiveMoments,
    SgprModel,
    evaluate_fit,
    sgpr_nlml,
    sgpr_predict,
    train_sgpr,
)
from .signals import (
    Signal,
    SimulationConfig,
    StateLabel,
    read_signals_csv,
    simulate_dataset,
    tone_burst,
    write_signals_csv,
)
from .vhgpr import VhgprModel, VhgprState, mv_bound, train_vhgpr, vhgpr_predict

__version__ = "0.1.0"
