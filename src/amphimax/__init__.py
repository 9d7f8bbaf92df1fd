"""Seed selection for two-stage influence spread.

A set of providers activates consumers through a bipartite probability
matrix, and the activated consumers then spread through a social network
under the independent cascade model. The solver enumerates a coordinate
net over the low-rank image of the bipartite matrix and runs a sampled
double greedy over it, with a multiplicative guarantee controlled by the
net resolution epsilon.
"""

__version__ = "0.1.0"

from .diffusion import (
    SpreadEstimate,
    default_sample_count,
    estimate_sigma,
    exact_rho_bar,
    exact_sigma,
)
from .generators import (
    gen_classic_im,
    gen_from_params,
    gen_planted_biclique,
    gen_rank_r,
    gen_three_layer,
)
from .instance import (
    AimInstance,
    InstanceFormatError,
    InstanceValidationError,
    RankBasis,
    dump_json,
    numerical_rank,
    parse_instance,
    serialize_instance,
    validate,
)
from .net import EpsilonNet, NetSizeError, build_net
from .relaxation import indicator, initial_activation, net_relaxation
from .sdg import SdgConfig, SeedSolution, approximation_ratio, brute_force_opt, solve

__all__ = [
    "AimInstance",
    "EpsilonNet",
    "InstanceFormatError",
    "InstanceValidationError",
    "NetSizeError",
    "RankBasis",
    "SdgConfig",
    "SeedSolution",
    "SpreadEstimate",
    "approximation_ratio",
    "brute_force_opt",
    "build_net",
    "default_sample_count",
    "dump_json",
    "estimate_sigma",
    "exact_rho_bar",
    "exact_sigma",
    "gen_classic_im",
    "gen_from_params",
    "gen_planted_biclique",
    "gen_rank_r",
    "gen_three_layer",
    "indicator",
    "initial_activation",
    "net_relaxation",
    "numerical_rank",
    "parse_instance",
    "serialize_instance",
    "solve",
    "validate",
]
