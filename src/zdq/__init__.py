"""Optimal zero-delay quantization of Markov sources.

Design tooling for causal encoder/decoder pairs communicating a Markov
source over a noiseless digital link: the encoder quantizes on sight,
the decoder reconstructs immediately, and both track the conditional
law of the source given the symbol history. Policies that map this
belief to a quantizer are optimal within the full causal class, so
design reduces to dynamic programming over beliefs. The package builds
those programs (exactly for finite chains, by adaptive-grid quadrature
for linear-Gaussian sources), extends them to unbounded horizons by
policy piecing and discounted value iteration, and ships independent
oracles plus a CLI for batch experiments.
"""

from .sources import (
    LinearGaussianSource,
    FiniteChain,
    DensityBounds,
    transition_density,
    density_bounds,
)
from .beliefs import (
    Grid,
    default_grid,
    window_weights,
    GridBelief,
    SimplexBelief,
    SMembershipReport,
    ZeroMassSymbolError,
    filter_update,
    check_S_membership,
)
from .quantizers import (
    IntervalQuantizer,
    FinitePartition,
    CandidateSet,
    enumerate_interval_candidates,
    enumerate_finite_partitions,
    quantizer_from_json,
)
from .costs import CostModel, cell_decisions, greedy_decision
from .dp import (
    PolicyNode,
    PolicyTree,
    DPResult,
    NodeBudgetExceeded,
    solve_finite_horizon,
    greedy_policy_step,
    exact_policy_value,
    bellman_residuals,
)
from .infinite import (
    PiecingSchedule,
    piecing_schedule,
    FixedQuantizerPolicy,
    GreedyPolicy,
    TreeReplayPolicy,
    PiecedPolicy,
    RandomizedStationaryPolicy,
    TrajectoryLog,
    RolloutResult,
    rollout,
    simplex_belief_grid,
    DiscountedVIResult,
    DiscountedVINotConverged,
    discounted_value_iteration,
    SimplexBinning,
    GridFeatureBinning,
    OccupationHistogram,
    occupation_measure,
    invariance_residual,
)
from .oracles import (
    brute_force_finite,
    exhaustive_admissible_search,
    LloydMaxResult,
    lloyd_max,
)

__version__ = "0.1.0"

__all__ = [
    "LinearGaussianSource",
    "FiniteChain",
    "DensityBounds",
    "transition_density",
    "density_bounds",
    "Grid",
    "default_grid",
    "window_weights",
    "GridBelief",
    "SimplexBelief",
    "SMembershipReport",
    "ZeroMassSymbolError",
    "filter_update",
    "check_S_membership",
    "IntervalQuantizer",
    "FinitePartition",
    "CandidateSet",
    "enumerate_interval_candidates",
    "enumerate_finite_partitions",
    "quantizer_from_json",
    "CostModel",
    "cell_decisions",
    "greedy_decision",
    "PolicyNode",
    "PolicyTree",
    "DPResult",
    "NodeBudgetExceeded",
    "solve_finite_horizon",
    "greedy_policy_step",
    "exact_policy_value",
    "bellman_residuals",
    "PiecingSchedule",
    "piecing_schedule",
    "FixedQuantizerPolicy",
    "GreedyPolicy",
    "TreeReplayPolicy",
    "PiecedPolicy",
    "RandomizedStationaryPolicy",
    "TrajectoryLog",
    "RolloutResult",
    "rollout",
    "simplex_belief_grid",
    "DiscountedVIResult",
    "DiscountedVINotConverged",
    "discounted_value_iteration",
    "SimplexBinning",
    "GridFeatureBinning",
    "OccupationHistogram",
    "occupation_measure",
    "invariance_residual",
    "brute_force_finite",
    "exhaustive_admissible_search",
    "LloydMaxResult",
    "lloyd_max",
    "__version__",
]
