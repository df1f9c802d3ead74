"""Pool-based active-learning benchmark engine.

Pluggable proposers (four classical surrogates behind a UCB rule, a
random-walk baseline, and an LLM-driven proposer with pool matching)
iteratively pick one candidate per round from a fixed labeled pool until
the dataset optimum is found, with trajectory analytics and sweep
orchestration on top.
"""

from .acquisition import random_walk_select, ucb_select
from .analytics import (
    cumulative_l2,
    pca_project,
    running_best,
    summarize_trajectory,
    variability_stats,
)
from .bnn import BNNConfig, elbo_loss, kl_layer, predict_bnn, sample_forward, train_bnn
from .data import DatasetSpec, load_csv, registry, save_csv, synthetic_pool
from .engine import (
    Proposer,
    Suggestion,
    read_trajectory,
    run_active_learning,
    select_initial,
    standardize_features,
    write_trajectory,
)
from .forest_gbt import (
    ForestConfig,
    GBTConfig,
    fit_forest,
    fit_gbt,
    predict_forest,
    predict_gbt,
)
from .llm import (
    LLMProposer,
    match_to_pool,
    parse_proposal,
    propose_next,
    render_parameter_prompt,
    render_report_prompt,
)
from .proposers import RandomWalkProposer, SurrogateProposer, make_proposer
from .types import (
    Candidate,
    Dataset,
    Goal,
    PromptFormat,
    ProposerKind,
    RunConfig,
    StepRecord,
    Trajectory,
)

__version__ = "0.1.0"

# gpr imports scipy.linalg and scipy.optimize, about 0.5 s and 40 MB that
# only GPR runs need, so its names load on first access (PEP 562).
_GPR_NAMES = frozenset(
    {"KernelParams", "fit_gpr", "kernel_matrix", "log_marginal_likelihood", "predict_gpr"}
)


def __getattr__(name):
    if name in _GPR_NAMES:
        from . import gpr

        return getattr(gpr, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))

__all__ = [
    "BNNConfig",
    "Candidate",
    "Dataset",
    "DatasetSpec",
    "ForestConfig",
    "GBTConfig",
    "Goal",
    "KernelParams",
    "LLMProposer",
    "PromptFormat",
    "Proposer",
    "ProposerKind",
    "RandomWalkProposer",
    "RunConfig",
    "StepRecord",
    "Suggestion",
    "SurrogateProposer",
    "Trajectory",
    "cumulative_l2",
    "elbo_loss",
    "fit_forest",
    "fit_gbt",
    "fit_gpr",
    "kernel_matrix",
    "kl_layer",
    "load_csv",
    "log_marginal_likelihood",
    "make_proposer",
    "match_to_pool",
    "parse_proposal",
    "pca_project",
    "predict_bnn",
    "predict_forest",
    "predict_gbt",
    "predict_gpr",
    "propose_next",
    "random_walk_select",
    "read_trajectory",
    "registry",
    "render_parameter_prompt",
    "render_report_prompt",
    "run_active_learning",
    "running_best",
    "sample_forward",
    "save_csv",
    "select_initial",
    "standardize_features",
    "summarize_trajectory",
    "synthetic_pool",
    "train_bnn",
    "ucb_select",
    "variability_stats",
    "write_trajectory",
]
