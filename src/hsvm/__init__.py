"""Huberized support vector machines trained by accelerated proximal
gradient methods, with synthetic benchmark generators, cross-validation,
and nonparametric comparison statistics."""

from .data import (
    Dataset,
    SynthSpec,
    gen_binary_gaussian,
    gen_fourclass,
    gene_rank,
    load_libsvm,
    parse_libsvm,
    save_libsvm,
    select_top_features,
    standardize,
    write_libsvm,
)
from .errors import (
    ConstraintError,
    DomainError,
    FormatError,
    HsvmError,
    LabelError,
    ParseError,
    ShapeError,
)
from .losses import (
    Hyperparams,
    huber_grad,
    huber_loss,
    lipschitz_binary,
    lipschitz_multi,
)
from .model import (
    BinaryModel,
    Metrics,
    MultiModel,
    evaluate,
    load_model,
    predict_binary,
    predict_multi,
    save_model,
)
from .prox import (
    DualProxResult,
    binary_prox_step,
    dual_residual,
    eq_constrained_l1_prox,
    multi_b_step,
    multi_w_step,
    shrink,
)
from .solver import (
    BinaryObjective,
    FitResult,
    MultiObjective,
    ObjectiveParts,
    SolverOptions,
    SolverTrace,
    ablation_run,
    check_stop,
    extrapolation_weight,
    fit_binary,
    fit_binary_two_stage,
    fit_multi,
    line_search,
    objective,
)
from .stats import (
    RankTable,
    chi2_sf,
    compare_to_control,
    friedman,
    holm,
    normal_cdf,
    wilcoxon_z,
)
from .tuning import Grid, GridSearchResult, grid_search, kfold_split

__version__ = "0.1.0"
