"""Sequential detection of a single change point with kernel uncertainty.

The observed chain switches at a random time from one of finitely many
candidate pre-change Markov kernels to one of finitely many post-change
kernels; neither the time nor the kernels are observed.  The package keeps
the exact posterior of (change time, kernel pair), turns the success
probability P(|theta - tau| <= d) into a stop payoff on that state, and stops
optimally through value iteration.  An enumeration oracle and a seeded Monte
Carlo harness verify every recursion at desk scale.
"""

from .errors import BudgetError, ConfigError, DisorderError, RuleError, SupportError
from .model import (
    LatentState,
    ModelSpec,
    change_time_pmf,
    config_digest,
    load_spec,
    pair_matrix,
    save_spec,
    spec_from_dict,
    spec_to_dict,
    validate,
)
from .likelihood import (
    path_probability,
    split_likelihoods,
    window_mixture,
)
from .posterior import (
    PosteriorState,
    change_backshift,
    change_from_origin,
    change_lagged,
    change_multistep,
    predictive,
    state_init,
    state_step,
)
from .payoff import (
    CriterionCheck,
    criterion_probability,
    stop_payoff,
)
from .stopping import (
    OptimalStoppingRule,
    StopDecision,
    ValueIterConfig,
    ValueIterResult,
    stop_decision,
    value_iterate,
)
from .oracle import (
    HistoryTreeValue,
    JointTable,
    build_joint,
    exact_optimal_rule,
    exact_posterior,
    exact_rule_value,
    optimal_value_state_indexed,
)
from .simulate import (
    ExperimentReport,
    RuleStats,
    Trajectory,
    TrajectorySampler,
    fixed_time_rule,
    monte_carlo_eval,
    posterior_threshold_rule,
)

__version__ = "0.1.0"
