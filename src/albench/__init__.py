"""Pool-based active-learning benchmark engine.

Pluggable proposers (four classical surrogates behind a UCB rule, a
random-walk baseline, and an LLM-driven proposer with pool matching)
iteratively pick one candidate per round from a fixed labeled pool until
the dataset optimum is found, with trajectory analytics and sweep
orchestration on top.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the submodule that defines them. `import albench`
# loads no submodule: a name's module loads on its first access (PEP 562),
# so a caller pays only for what it uses (gpr, for one, loads scipy).
_EXPORTS = {
    "acquisition": ("random_walk_select", "ucb_select"),
    "analytics": ("cumulative_l2", "pca_project", "summarize_trajectory", "variability_stats"),
    "bnn": ("BNNConfig", "kl_layer", "predict_bnn", "train_bnn"),
    "data": ("DatasetSpec", "load_csv", "registry", "synthetic_pool"),
    "engine": ("Proposer", "Suggestion", "read_trajectory", "run_active_learning", "select_initial",
               "standardize_features", "write_trajectory"),
    "forest_gbt": ("ForestConfig", "GBTConfig", "fit_forest", "fit_gbt", "predict_forest", "predict_gbt"),
    "gpr": ("KernelParams", "fit_gpr", "kernel_matrix", "log_marginal_likelihood", "predict_gpr"),
    "llm": ("LLMProposer", "match_to_pool", "parse_proposal", "propose_next", "render_parameter_prompt",
            "render_report_prompt"),
    "proposers": ("GPRConfig", "ProposerSettings", "RandomWalkProposer", "SurrogateProposer", "make_proposer"),
    "types": ("Dataset", "Goal", "PromptFormat", "ProposerKind", "RunConfig", "StepRecord", "Trajectory"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
