"""nisim: non-interactive simulation of joint distributions.

Given a finite joint source, two parties observing i.i.d. coordinates
apply functions to their own sides, aiming to land the joint output
distribution near a 2x2 target without communicating.  This package
computes what is reachable: exactly at small sample counts via
discretized search, and in general via computable bounds built from
maximal correlation, Fourier-analytic smoothing and regularity, and
Gaussian threshold rounding.
"""

from .errors import InputError, NisimError, ParameterRangeError, ResourceLimitError
from .spaces import (
    EmpiricalJoint2x2,
    FiniteSpace,
    JointDistribution,
    make_dsbs,
    tensor_power,
    tv_distance,
    uniform_triple,
)
from .maxcorr import CorrelationReport, maximal_correlation, witsenhausen_bounds
from .fourier import (
    FourierPolynomial,
    OrthonormalBasis,
    ValueTable,
    build_basis,
    concentration_bound,
    degree_tail_mass,
    hypercontractive_norm_bound,
    hypercontractivity_constant,
    influence,
    influences,
    inverse_transform,
    noise_operator,
    noise_operator_kernel,
    restrict,
    total_influence,
    transform,
    truncate_degree,
)
from .regularity import (
    RegularityParams,
    SmoothingParams,
    high_influence_set,
    joint_high_influence_set,
    regularity_params,
    restriction_influence_tail_bound,
    restriction_regular_probability,
    smoothing_params,
)
from .gaussian import (
    GaussianPair,
    berry_esseen_sample_count,
    bivariate_cdf,
    gamma_bar,
    gamma_under,
    std_normal_cdf,
    std_normal_quantile,
    threshold_for_mean,
)
from .strategies import Strategy, TableStrategy, constant_strategy, dictator_strategy
from .rounding import (
    HybridStrategy,
    LiftedStrategy,
    StrategyStats,
    estimate_strategy_stats,
    gaussian_simulator_strategy,
    lift_hybrid,
    randomized_round,
    round_pair,
)
from .decision import (
    ChainConstants,
    ParameterChain,
    Target2x2,
    Verdict,
    brute_force_bmip,
    decide_2x2,
    decide_gap_nis,
    discretize_range,
    n0_chain,
    oracle_max_balanced_ip,
)
from .corpus import alpha_component_graph, corpus_entry, examples_corpus

__version__ = "0.1.0"
