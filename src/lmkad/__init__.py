"""One-class SVM anomaly detection with fixed and localized multiple kernels."""

from .dataset import (
    Dataset,
    FoldPlan,
    Normalizer,
    apply_normalizer,
    fit_normalizer,
    load_csv,
    plan_folds,
    split_for_occ,
)
from .kernels import (
    KernelSpec,
    format_kernel_spec,
    gaussian_bandwidth,
    gram,
    parse_kernel_spec,
)
from .gating import GatingParams, gate_eval_batch, gate_gradient, init_gating
from .solver import DualProblem, DualSolution, solve_dual, solve_duals
from .models import (
    KERNEL_PRESETS,
    FitJob,
    LmkadConfig,
    Model,
    composite_gram_fixed,
    composite_gram_localized,
    decision_values,
    fit_many,
    load_model,
    predict_batch,
    resolve_kernels,
    save_model,
    train_lmkad,
    train_mkad,
    train_ocsvm,
)
from .evaluation import (
    ClassifierConfig,
    ConfusionCounts,
    CvResult,
    FriedmanReport,
    cross_validate,
    friedman_statistics,
    friedman_test,
    gmean,
    mgmean,
    pmg,
    sv_fraction,
)

__version__ = "0.1.0"
