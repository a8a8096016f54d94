"""Block coordinate descent for kernel least squares.

Solvers for the full kernel system, its Nystrom restriction, and random
Fourier features, all driven one column block at a time; a simulated
distributed execution layer with flop/byte accounting; and a laboratory
for the block coordinate descent convergence bounds the solvers rely on.
"""

from .distsim import (
    CostLedger,
    CostPrediction,
    CostReport,
    ExecContext,
    Partition,
    distributed_gram,
    distributed_matvec,
    make_partition,
    measured_vs_predicted,
    predict_costs,
)
from .errors import (
    CombinatorialBlowupError,
    ConfigError,
    DataFormatError,
    DimensionMismatchError,
    DivergenceError,
    IndexOutOfRangeError,
    InvalidRateError,
    KernelBcdError,
    NotPerfectSquareError,
    NotSpdError,
    ThresholdNotMetError,
)
from .kernels import (
    Dataset,
    FeatureMapSpec,
    KernelSpec,
    gaussian_blobs,
    kernel_block,
    kernel_cross,
    kernel_eval,
    load_csv,
    one_vs_all,
    random_features_block,
)
from .linalg import SpectralEstimate, gram, lambda_extremes, spd_solve
from .rates import (
    ConditioningPair,
    LmaxEstimate,
    QuadraticProblem,
    RegimeSummary,
    RfConcentrationResult,
    SpectrumModel,
    adversarial_hessian,
    bcd_iterations_to_tolerance,
    bernstein_lower_rate,
    chernoff_violation_rate,
    classical_bound,
    conditioning_compare,
    improved_bound,
    l_eff,
    l_max_b,
    monte_carlo_slack,
    rf_concentration_check,
    rf_required_features,
    run_bcd_quadratic,
    standard_rate_iters,
    synthetic_spectrum_kernel,
    table1_regime,
    theorem_rate,
)
from .solvers import (
    BlockPlan,
    ConvergenceTrace,
    Model,
    TraceRecord,
    classify,
    draw_landmarks,
    epoch_order,
    evaluate,
    load_model,
    make_plan,
    normal_equation_residual,
    objective_value,
    predict,
    primal_dual_gap,
    save_model,
    solve_full,
    solve_nystrom,
    solve_path,
    solve_rf,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
