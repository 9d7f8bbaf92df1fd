"""Seeded instance generators for tests and benchmarks."""

import math

import numpy as np

from ._rng import instance_stream
from .instance import EDGE_DTYPE, AimInstance, _number, min_bit_precision


def random_digraph(m, edge_count, rng):
    """Simple directed graph as an EDGE_DTYPE array: edge_count distinct ordered pairs, probabilities in (0, 0.5]."""
    if edge_count < 0 or edge_count > m * (m - 1):
        raise ValueError(f"cannot place {edge_count} distinct edges on {m} nodes")
    edges = np.empty(edge_count, dtype=EDGE_DTYPE)
    codes = np.sort(rng.choice(m * (m - 1), size=edge_count, replace=False))
    edges["prob"] = 0.5 * (1.0 - rng.random(edge_count))
    # code u*(m-1) + k is the edge from u to the k-th node other than u
    u, rest = np.divmod(codes, m - 1)
    edges["source"], edges["target"] = u, rest + (rest >= u)
    return edges


def gen_rank_r(
    n,
    m,
    r,
    edge_prob=1.0,
    social_edge_count=0,
    seed=0,
    budget_providers=None,
    budget_consumers=None,
    factor_low=0.0,
    bit_precision=None,
):
    """Instance whose matrix is a rank-r product of uniform factors.

    Factors A (n x r) and B (r x m) have entries uniform in
    [factor_low, 1) / sqrt(r), so every product entry stays within [0,1] and
    clamping never fires. edge_prob < 1 zeroes entries of A, which sparsifies
    the matrix while keeping its rank at most r. Social edges form a random
    simple digraph with probabilities uniform in (0, 0.5].
    """
    if not 1 <= r <= min(n, m):
        raise ValueError(f"rank {r} must lie in [1, min({n},{m})]")
    if not 0.0 <= factor_low < 1.0:
        raise ValueError(f"factor_low must lie in [0,1), got {factor_low}")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge_prob must lie in [0,1], got {edge_prob}")
    rng = instance_stream(seed, "rank_r", n, m, r)
    scale = 1.0 / math.sqrt(r)
    A = (factor_low + (1.0 - factor_low) * rng.random((n, r))) * scale
    B = (factor_low + (1.0 - factor_low) * rng.random((r, m))) * scale
    if edge_prob < 1.0:
        A[rng.random((n, r)) >= edge_prob] = 0.0
    M = np.clip(A @ B, 0.0, 1.0)
    edges = random_digraph(m, social_edge_count, rng)
    lam = min_bit_precision(M) if bit_precision is None else _number(bit_precision, "bit_precision", whole=True)
    if math.ldexp(1.0, -lam) > M[M > 0].min(initial=1.0):
        raise ValueError(
            f"bit_precision {lam} too coarse: floor 2^-{lam} exceeds the smallest nonzero entry"
        )
    return AimInstance(
        bipartite=M,
        social_edges=edges,
        budget_providers=max(1, n // 3) if budget_providers is None else budget_providers,
        budget_consumers=max(1, m // 3) if budget_consumers is None else budget_consumers,
        bit_precision=lam,
    )


def gen_planted_biclique(n_vertices, k, seed=0):
    """Half-density base graph with a planted k-clique, lifted to a two-sided instance.

    Providers and consumers are both copies of the vertex set; the matrix has
    1/n^2 on base-graph edges and 0 elsewhere, the social graph is empty, and
    both budgets are k/2. Returns (instance, planted vertex tuple).
    """
    n = int(n_vertices)
    if k % 2 or not 2 <= k <= n:
        raise ValueError(f"k must be even with 2 <= k <= {n}, got {k}")
    rng = instance_stream(seed, "planted", n, k)
    upper = np.triu(rng.random((n, n)) < 0.5, 1)
    adj = upper | upper.T
    planted = np.sort(rng.choice(n, size=k, replace=False))
    block = np.ix_(planted, planted)
    adj[block] = True
    np.fill_diagonal(adj, False)
    M = np.where(adj, 1.0 / n**2, 0.0)
    return (
        AimInstance(
            bipartite=M,
            social_edges=(),
            budget_providers=k // 2,
            budget_consumers=k // 2,
            bit_precision=min_bit_precision(M),
        ),
        tuple(int(v) for v in planted),
    )


def gen_classic_im(social_edges, m, b2):
    """Classic cascade seeding as a two-stage instance: one provider, all-ones matrix.

    With the provider budget forced to the whole (single-node) provider side,
    every chosen consumer activates outright, so optimizing the consumer set
    is exactly influence maximization on the social graph with budget b2.
    """
    return AimInstance(
        bipartite=np.ones((1, m)),
        social_edges=social_edges,
        budget_providers=1,
        budget_consumers=b2,
        bit_precision=1,
    )


def gen_three_layer(k, groups, bottom_per_group, middle_per_group=1):
    """Layered stress shape: provider groups hit middle consumers at rate 1/k.

    Each group has k providers wired to its middle consumers with probability
    exactly 1/k, and every middle consumer covers the group's bottom block
    through probability-1 social edges. Bottom consumers have no provider
    edges at all. Budgets are one group of providers (k) and one middle pick
    per group (groups).
    """
    if k < 1 or groups < 1 or bottom_per_group < 0 or middle_per_group < 1:
        raise ValueError("layer sizes must be positive (bottom may be zero)")
    n = k * groups
    per_group = middle_per_group + bottom_per_group
    m = groups * per_group
    M = np.zeros((n, m))
    edges = []
    for g in range(groups):
        middles = [g * per_group + j for j in range(middle_per_group)]
        bottoms = [g * per_group + middle_per_group + j for j in range(bottom_per_group)]
        for i in range(k):
            M[g * k + i, middles] = 1.0 / k
        edges += [(mid, bot, 1.0) for mid in middles for bot in bottoms]
    return AimInstance(
        bipartite=M,
        social_edges=edges,
        budget_providers=k,
        budget_consumers=groups,
        bit_precision=min_bit_precision(M),
    )


# the parameter keys of each family: (required, optional)
_FAMILY_PARAMS = {
    "rank_r": (("n", "m", "r"), ("edge_prob", "social_edges", "b1", "b2", "factor_low", "bit_precision")),
    "planted": (("n", "k"), ()),
    "classic_im": (("m", "b2"), ("edge_count",)),
    "three_layer": (("k", "groups"), ("bottom", "middle")),
}
# the keys that take real values; every other key is a count
_REAL_PARAMS = ("edge_prob", "factor_low")


def gen_from_params(family, params, seed):
    """Build an instance from a flat parameter dict; returns (instance, extras).

    extras holds generator metadata worth keeping with the emitted document,
    currently only the planted vertex set of the planted family. A key the
    family does not accept, a required key left out, a count key whose value
    is not a whole number, or a budget outside 1..size of its side raises
    ValueError.
    """
    if family not in _FAMILY_PARAMS:
        raise ValueError(f"unknown family: {family}")
    required, optional = _FAMILY_PARAMS[family]
    unknown = [key for key in params if key not in required + optional]
    missing = [key for key in required if key not in params]
    if unknown or missing:
        problem = f"unknown parameter {unknown[0]!r}" if unknown else f"missing parameter {missing[0]!r}"
        raise ValueError(
            f"{problem} for family {family}"
            f" (required: {', '.join(required)}; optional: {', '.join(optional) or 'none'})"
        )
    params = {
        key: float(value) if key in _REAL_PARAMS else _number(value, f"parameter {key!r}", whole=True)
        for key, value in params.items()
    }
    extras = {}
    if family == "rank_r":
        inst = gen_rank_r(
            n=params["n"],
            m=params["m"],
            r=params["r"],
            edge_prob=params.get("edge_prob", 1.0),
            social_edge_count=params.get("social_edges", 0),
            seed=seed,
            budget_providers=params.get("b1"),
            budget_consumers=params.get("b2"),
            factor_low=params.get("factor_low", 0.0),
            bit_precision=params.get("bit_precision"),
        )
    elif family == "planted":
        inst, planted = gen_planted_biclique(params["n"], params["k"], seed=seed)
        extras = {"planted": list(planted)}
    elif family == "classic_im":
        m = params["m"]
        edges = random_digraph(m, params.get("edge_count", 0), instance_stream(seed, "classic_im", m))
        inst = gen_classic_im(edges, m, params["b2"])
    else:
        inst = gen_three_layer(
            k=params["k"],
            groups=params["groups"],
            bottom_per_group=params.get("bottom", 1),
            middle_per_group=params.get("middle", 1),
        )
    return inst, extras
