import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

from amphimax.generators import gen_rank_r
from amphimax.instance import (
    EDGE_DTYPE,
    AimInstance,
    InstanceFormatError,
    InstanceValidationError,
    dump_json,
    min_bit_precision,
    numerical_rank,
    parse_instance,
    serialize_instance,
    validate,
)


def make_instance(M, edges=(), b1=1, b2=1, lam=20):
    M = np.asarray(M, dtype=float)
    return AimInstance(M, tuple(edges), b1, b2, lam)


def doc_for(M, edges=(), b1=1, b2=1, lam=20):
    return {
        "n": len(M),
        "m": len(M[0]),
        "bipartite": {"dense": [list(row) for row in M]},
        "social_edges": [list(e) for e in edges],
        "budgets": {"providers": b1, "consumers": b2},
        "bit_precision": lam,
    }


def test_validate_clean_instance():
    inst = make_instance([[0.5, 0.0], [0.25, 1.0]], edges=[(0, 1, 0.5)], lam=2)
    assert validate(inst) == []


def test_validate_reports_entry_out_of_range():
    inst = make_instance([[1.5, 0.5]])
    msgs = validate(inst)
    assert any("entry out of [0,1] at (0,0)" in s for s in msgs)


def test_validate_reports_entry_below_precision_floor():
    inst = make_instance([[0.5, 2.0 ** -10]], lam=4)
    msgs = validate(inst)
    assert any("nonzero entry below 2^-4 at (0,1)" in s for s in msgs)
    # exact zero entries are fine regardless of the floor
    assert validate(make_instance([[0.5, 0.0]], lam=4)) == []


def test_bit_precision_bound_follows_the_provider_count():
    # n * 2^lambda must stay below 2^1023: lambda <= 1020 at n = 4 or 5,
    # 1019 at n = 8; past that the net grid cannot be computed in floats
    for n, top in ((1, 1022), (4, 1020), (5, 1020), (8, 1019)):
        M = np.full((n, 2), 0.5)
        assert validate(make_instance(M, lam=top)) == []
        for lam in (top + 1, 1074, 1100):
            with pytest.raises(InstanceValidationError) as info:
                make_instance(M, lam=lam)
            assert info.value.violations == [
                f"bit_precision {lam} exceeds {top}: n_providers * 2^bit_precision must stay below 2^1023"
            ]
        assert parse_instance(json.dumps(doc_for(M.tolist(), lam=top))).bit_precision == top
        with pytest.raises(InstanceValidationError, match=f"bit_precision {top + 1} exceeds {top}:"):
            parse_instance(json.dumps(doc_for(M.tolist(), lam=top + 1)))


def test_construction_refuses_budget_violations():
    with pytest.raises(InstanceValidationError) as info:
        make_instance([[0.5, 0.5]], b1=3, b2=1)
    assert info.value.violations == ["provider budget exceeds ground set (3 > 1)"]
    with pytest.raises(InstanceValidationError) as info:
        make_instance([[0.5, 0.5]], b1=1, b2=0)
    assert info.value.violations == ["consumer budget must be at least 1, got 0"]


def test_validate_reports_edge_problems():
    inst = make_instance(
        [[0.5, 0.5]],
        edges=[(0, 5, 0.5), (0, 0, 0.5), (0, 1, 1.5), (0, 1, 0.25), (0, 1, 0.75)],
    )
    msgs = " | ".join(validate(inst))
    assert "endpoint out of range" in msgs
    assert "self-loop" in msgs
    assert "probability out of (0,1]" in msgs
    assert "duplicate edge (0,1)" in msgs


def test_validate_lists_every_edge_fault_in_order():
    inst = make_instance(
        np.full((1, 3), 0.5),
        edges=[
            (0, 5, 0.5),  # endpoint out of range
            (0, 1, 0.5),
            (0, 5, 0.5),  # out of range again: not reported as a duplicate
            (-1, 2, 0.5),
            (1, 1, 0.5),  # self-loop
            (1, 0, 0.0),
            (1, 2, 1.5),
            (2, 0, float("nan")),
            (0, 1, 0.25),  # plain duplicate
            (1, 1, 1.5),  # self-loop, bad probability and duplicate at once
            (2, 1, 1.0),
        ],
    )
    assert validate(inst) == [
        "edge 0 endpoint out of range: (0,5)",
        "edge 2 endpoint out of range: (0,5)",
        "edge 3 endpoint out of range: (-1,2)",
        "edge 4 is a self-loop at 1",
        "edge 5 probability out of (0,1]: 0.0",
        "edge 6 probability out of (0,1]: 1.5",
        "edge 7 probability out of (0,1]: nan",
        "duplicate edge (0,1) at index 8",
        "edge 9 is a self-loop at 1",
        "edge 9 probability out of (0,1]: 1.5",
        "duplicate edge (1,1) at index 9",
    ]


def test_validate_lists_matrix_faults_in_row_major_order():
    M = np.full((3, 12), 0.5)
    M[1, :] = np.nan
    M[0, 1], M[2, 3] = np.nan, np.inf
    # the first ten non-finite entries, row by row
    assert validate(AimInstance(M, (), 1, 1)) == [f"entry not finite at ({i},{j})" for i, j in [(0, 1)] + [(1, j) for j in range(9)]]
    M = np.full((2, 3), 0.5)
    M[0, 1], M[1, 0], M[1, 2], M[0, 2] = 1.5, -0.25, 1e-9, 2.0**-5
    assert validate(AimInstance(M, (), 1, 1, 4)) == [
        "entry out of [0,1] at (0,1)",
        "entry out of [0,1] at (1,0)",
        "nonzero entry below 2^-4 at (0,2)",
        "nonzero entry below 2^-4 at (1,2)",
    ]


COERCED_EDGES = [
    ([(0.7, 1, 0.5), (1, 2, "0.25"), (True, 2, 0.5)], 0, "source must be an integer, got 0.7"),
    ([(0, 1, 0.5), (1, 2, "0.25")], 1, "probability must be a number, got a string"),
    ([(0, 1, 0.5), (1, 2, 0.5), (True, 2, 0.5)], 2, "source must be an integer, got a boolean"),
    ([(0, np.bool_(True), 0.5)], 0, "target must be an integer, got a boolean"),
    ([(0, 1, True)], 0, "probability must be a number, got a boolean"),
    ([(0, 1, None)], 0, "probability must be a number, got null"),
    ([(0, "1", 0.5)], 0, "target must be an integer, got a string"),
    ([(0, 1.5, 0.5)], 0, "target must be an integer, got 1.5"),
    ([(float("nan"), 1, 0.5)], 0, "source must be an integer: cannot convert float NaN to integer"),
    ([(0, 2**63, 0.5)], 0, "endpoints must fit in intp, got (0, 9223372036854775808)"),
    ([(0, np.float64("inf"), 0.5)], 0, "target must be an integer: cannot convert float infinity to integer"),
]


@pytest.mark.parametrize(
    "edges, index, fault", COERCED_EDGES, ids=[f"edges{k}-{case[1]}" for k, case in enumerate(COERCED_EDGES)]
)
def test_construction_refuses_edges_it_would_coerce(edges, index, fault):
    # the wording parse_instance gives the same fault in a document
    with pytest.raises(InstanceFormatError) as info:
        AimInstance(np.full((1, 3), 0.5), edges, 1, 1)
    assert str(info.value) == f"social_edges[{index}] {fault}"


def test_construction_takes_whole_floats_and_numpy_scalars():
    edges = [(1.0, np.int64(2), 1), (np.int32(0), 2.0, np.float32(0.5)), [2, 1, 0.25]]
    inst = AimInstance(np.full((1, 3), 0.5), edges, 1, 1)
    assert inst.social_edges.dtype == EDGE_DTYPE
    assert inst.social_edges.tolist() == [(1, 2, 1.0), (0, 2, 0.5), (2, 1, 0.25)]
    assert [tuple(map(type, e)) for e in inst.social_edges.tolist()] == [(int, int, float)] * 3


def test_social_edges_are_a_read_only_copy():
    source = np.array([(0, 1, 0.5), (1, 0, 0.25)], dtype=EDGE_DTYPE)
    inst = AimInstance(np.full((1, 2), 0.5), source, 1, 1)
    source["prob"] = 0.75
    assert inst.social_edges.tolist() == [(0, 1, 0.5), (1, 0, 0.25)]
    with pytest.raises(ValueError, match="read-only"):
        inst.social_edges["prob"][0] = 0.9
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.social_edges = source


def test_social_graph_takes_24_bytes_per_edge():
    # the instance of the benchmark's simulate_large workload
    inst = gen_rank_r(20, 3000, 2, social_edge_count=20_000, seed=3)
    assert inst.social_edges.dtype == EDGE_DTYPE and inst.social_edges.nbytes <= 24 * 20_000
    tracemalloc.start()
    try:
        AimInstance(inst.bipartite, inst.social_edges, inst.budget_providers, inst.budget_consumers, inst.bit_precision)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the matrix and the edges are copied once (0.46 MiB each); rebuilt as
    # (int, int, float) tuples the same edges allocated 1.3 MiB
    assert peak - inst.bipartite.nbytes < 2**20


def test_non_matrix_is_refused_at_construction():
    for bad in (np.zeros(3), np.zeros((2, 2, 2))):
        with pytest.raises(InstanceValidationError) as info:
            AimInstance(bad, (), 1, 1)
        assert info.value.violations == [f"bipartite must be a 2-D matrix, got shape {bad.shape}"]


LIBRARY_FAULTS = {
    "matrix-string-and-boolean": (dict(bipartite=[["0.5", True]]), "bipartite must be a matrix of numbers, got a string"),
    "matrix-boolean": (dict(bipartite=[[0.5, True]]), "bipartite must be a matrix of numbers, got a boolean"),
    "matrix-none": (dict(bipartite=[[0.5, None]]), "bipartite must be a matrix of numbers, got null"),
    "matrix-bool-array": (dict(bipartite=np.ones((1, 2), dtype=bool)), "bipartite must be a matrix of numbers, got a boolean"),
    "budget-true": (dict(budget_providers=True), "budget_providers must be an integer, got a boolean"),
    "budget-string": (dict(budget_consumers="1"), "budget_consumers must be an integer, got a string"),
    "budget-half": (dict(budget_providers=1.5), "budget_providers must be an integer, got 1.5"),
    "precision-half": (dict(bit_precision=2.5), "bit_precision must be an integer, got 2.5"),
    "precision-numpy-half": (dict(bit_precision=np.float64(2.5)), "bit_precision must be an integer, got np.float64(2.5)"),
    "edge-pair": (dict(social_edges=[(0, 1)]), "social_edges[0] must be [source, target, probability]"),
    "edge-int": (dict(social_edges=[5]), "social_edges[0] must be [source, target, probability]"),
    "edges-none": (dict(social_edges=None), "social_edges must be an array of [source, target, probability], got null"),
}


@pytest.mark.parametrize("fields, message", LIBRARY_FAULTS.values(), ids=LIBRARY_FAULTS.keys())
def test_construction_refuses_what_the_json_path_refuses(fields, message):
    # before, these loaded coerced, or broke solve, serialize_instance or validate with a bare TypeError
    kwargs = dict(bipartite=[[0.5, 1.0]], social_edges=(), budget_providers=1, budget_consumers=1) | fields
    with pytest.raises(InstanceFormatError) as info:
        AimInstance(**kwargs)
    assert str(info.value) == message


def test_numpy_integer_budgets_and_precision_are_stored_as_ints():
    inst = AimInstance(np.array([[0.5, 1.0]], dtype=np.float32), [(0, 1, 0.5)], np.int64(1), np.int32(2), np.int64(20))
    fields = inst.budget_providers, inst.budget_consumers, inst.bit_precision
    assert fields == (1, 2, 20) and all(type(x) is int for x in fields)
    text = serialize_instance(inst)
    assert text == serialize_instance(AimInstance([[0.5, 1.0]], [(0, 1, 0.5)], 1, 2, 20))
    assert serialize_instance(parse_instance(text)) == text
    # whole floats are whole numbers too
    assert serialize_instance(AimInstance([[0.5, 1.0]], [(0, 1, 0.5)], 1.0, 2.0, 20.0)) == text


def test_construction_refuses_empty_matrices():
    for shape, side in (((0, 2), "provider"), ((1, 0), "consumer")):
        with pytest.raises(InstanceValidationError) as info:
            AimInstance(np.zeros(shape), (), 1, 1)
        assert info.value.violations == [f"n_{side}s must be at least 1", f"{side} budget exceeds ground set (1 > 0)"]


def rank_oracle(M, tol=1e-9):
    # SVD-based reference for the greedy row scan
    return int(np.linalg.matrix_rank(np.asarray(M, dtype=float), tol=tol))


def test_numerical_rank_matches_svd_on_constructed_matrices():
    rng = np.random.default_rng(42)
    for r in (1, 2, 3):
        for _ in range(20):
            n, m = rng.integers(r, 9), rng.integers(r, 9)
            A = rng.random((n, r))
            B = rng.random((r, m))
            M = A @ B
            basis = numerical_rank(M)
            assert len(basis) == rank_oracle(M)
            assert len(basis) <= r


def test_numerical_rank_edge_cases():
    assert numerical_rank(np.zeros((3, 4))).shape == (0, 4)
    assert len(numerical_rank(np.eye(3))) == 3
    one = numerical_rank(np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert one.tolist() == [[1.0, 2.0]]
    assert not one.flags.writeable


def test_numerical_rank_basis_reconstructs_all_rows():
    rng = np.random.default_rng(7)
    for _ in range(25):
        M = rng.random((6, 2)) @ rng.random((2, 5))
        basis = numerical_rank(M)
        sol, *_ = np.linalg.lstsq(basis.T, M.T, rcond=None)
        assert np.abs(M - sol.T @ basis).max() < 1e-8
        # kept rows are literal rows of M, in scan order
        index = [next(i for i, row in enumerate(M) if np.array_equal(row, kept)) for kept in basis]
        assert index == sorted(set(index))
        assert not basis.flags.writeable


def test_min_bit_precision():
    assert min_bit_precision(np.array([[0.5, 1.0]])) == 1
    assert min_bit_precision(np.array([[0.25, 0.5]])) == 2
    assert min_bit_precision(np.array([[0.3]])) == 2
    assert min_bit_precision(np.zeros((2, 2))) == 1


def test_parse_round_trip_is_exact():
    rng = np.random.default_rng(3)
    M = rng.random((4, 5)) * 0.9 + 0.05
    inst = make_instance(M, edges=[(0, 1, 0.5), (3, 2, 1.0)], b1=2, b2=2)
    again = parse_instance(serialize_instance(inst))
    assert again == inst
    # float repr round-trips exactly, not approximately
    assert np.array_equal(again.bipartite, inst.bipartite)


def test_parse_missing_fields():
    doc = doc_for([[0.5]])
    for field in ("n", "m", "bipartite", "social_edges", "budgets"):
        broken = dict(doc)
        del broken[field]
        with pytest.raises(InstanceFormatError, match=f"missing field: {field}"):
            parse_instance(json.dumps(broken))
    broken = dict(doc)
    broken["budgets"] = {"providers": 1}
    with pytest.raises(InstanceFormatError, match="missing field: budgets.consumers"):
        parse_instance(json.dumps(broken))


def test_parse_rejects_malformed_documents():
    with pytest.raises(InstanceFormatError, match="not valid JSON"):
        parse_instance("{nope")
    with pytest.raises(InstanceFormatError, match="top level"):
        parse_instance("[1,2]")
    doc = doc_for([[0.5]])
    doc["social_edges"] = [[0, 1]]
    with pytest.raises(InstanceFormatError, match="social_edges\\[0\\]"):
        parse_instance(json.dumps(doc))
    for p in ("high", 10**400):
        doc["social_edges"] = [[0, 0, p]]
        with pytest.raises(InstanceFormatError, match="social_edges\\[0\\] probability must be a number"):
            parse_instance(json.dumps(doc))
    doc = doc_for([[0.5]])
    doc["bipartite"] = {"dense": [[0.5, 0.5]]}
    with pytest.raises(InstanceFormatError, match="must be a 1x1 matrix"):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize(
    "bipartite, field",
    [
        ({"dense": [["a", 1]]}, "bipartite.dense"),
        ({"dense": [[0.5], [0.5, 1]]}, "bipartite.dense"),
        ({"left": [["a"]], "right": [[0.5, 0.5]]}, "bipartite.left"),
        ({"left": [[1.0]], "right": [[0.5], [0.5, 1]]}, "bipartite.right"),
        ({"dense": [[10**400, 0.5]]}, "bipartite.dense"),
    ],
    ids=["dense-string", "dense-ragged", "left-string", "right-ragged", "dense-overflow"],
)
def test_parse_rejects_non_numeric_or_ragged_matrices(bipartite, field):
    doc = doc_for([[0.5, 0.5]])
    doc["bipartite"] = bipartite
    with pytest.raises(InstanceFormatError, match=f"{field} must be a matrix of numbers"):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize(
    "path, field",
    [
        (("n",), "n"),
        (("m",), "m"),
        (("budgets", "providers"), "budget_providers"),
        (("budgets", "consumers"), "budget_consumers"),
        (("bit_precision",), "bit_precision"),
        (("social_edges", 0, 0), "social_edges[0] source"),
        (("social_edges", 0, 1), "social_edges[0] target"),
    ],
    ids=["n", "m", "budgets.providers", "budgets.consumers", "bit_precision", "edge-source", "edge-target"],
)
def test_parse_rejects_non_integral_sizes_and_indices(path, field):
    doc = doc_for([[0.5, 0.5], [0.5, 0.5]], edges=[(0, 1, 0.5)])
    *parents, key = path
    holder = doc
    for step in parents:
        holder = holder[step]
    # the integral float of the same value still loads
    holder[key] = float(holder[key])
    parse_instance(json.dumps(doc))
    holder[key] += 0.5
    with pytest.raises(InstanceFormatError, match=re.escape(f"{field} must be an integer, got")):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize(
    "path, field",
    [
        (("n",), "n must be an integer"),
        (("m",), "m must be an integer"),
        (("budgets", "providers"), "budget_providers must be an integer"),
        (("budgets", "consumers"), "budget_consumers must be an integer"),
        (("bit_precision",), "bit_precision must be an integer"),
        (("social_edges", 0, 0), "social_edges[0] source must be an integer"),
        (("social_edges", 0, 1), "social_edges[0] target must be an integer"),
        (("social_edges", 0, 2), "social_edges[0] probability must be a number"),
        (("bipartite", "dense", 0, 1), "bipartite.dense must be a matrix of numbers"),
    ],
    ids=[
        "n",
        "m",
        "budgets.providers",
        "budgets.consumers",
        "bit_precision",
        "edge-source",
        "edge-target",
        "edge-probability",
        "matrix-entry",
    ],
)
def test_parse_rejects_booleans(path, field):
    # each true or false stands where the number 1 or 0 would load
    doc = doc_for([[0.5, 1.0], [0.5, 0.5]], edges=[(0, 1, 1.0)])
    *parents, key = path
    holder = doc
    for step in parents:
        holder = holder[step]
    holder[key] = holder[key] == 1
    with pytest.raises(InstanceFormatError, match=re.escape(f"{field}, got a boolean")):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize(
    "path, field",
    [
        (("n",), "n must be an integer"),
        (("m",), "m must be an integer"),
        (("budgets", "providers"), "budget_providers must be an integer"),
        (("budgets", "consumers"), "budget_consumers must be an integer"),
        (("bit_precision",), "bit_precision must be an integer"),
        (("social_edges", 0, 0), "social_edges[0] source must be an integer"),
        (("social_edges", 0, 1), "social_edges[0] target must be an integer"),
        (("social_edges", 0, 2), "social_edges[0] probability must be a number"),
        (("bipartite", "dense", 0, 1), "bipartite.dense must be a matrix of numbers"),
        (("bipartite", "left", 1, 0), "bipartite.left must be a matrix of numbers"),
        (("bipartite", "right", 0, 1), "bipartite.right must be a matrix of numbers"),
    ],
    ids=[
        "n",
        "m",
        "budgets.providers",
        "budgets.consumers",
        "bit_precision",
        "edge-source",
        "edge-target",
        "edge-probability",
        "matrix-entry",
        "left-entry",
        "right-entry",
    ],
)
def test_parse_rejects_numeric_strings(path, field):
    # each string spells the number that would load in its place
    doc = doc_for([[0.5, 1.0], [0.5, 0.5]], edges=[(0, 1, 0.25)])
    if "left" in path or "right" in path:
        doc["bipartite"] = {"left": [[1.0], [0.5]], "right": [[0.5, 1.0]]}
    parse_instance(json.dumps(doc))
    *parents, key = path
    holder = doc
    for step in parents:
        holder = holder[step]
    holder[key] = str(holder[key])
    with pytest.raises(InstanceFormatError, match=re.escape(f"{field}, got a string")):
        parse_instance(json.dumps(doc))


def test_parse_factored_matrix():
    doc = {
        "n": 2,
        "m": 3,
        "bipartite": {"left": [[1.0], [2.0]], "right": [[0.1, 0.2, 0.3]]},
        "social_edges": [],
        "budgets": {"providers": 1, "consumers": 1},
        "bit_precision": 4,
    }
    inst = parse_instance(json.dumps(doc))
    expect = np.array([[0.1, 0.2, 0.3], [0.2, 0.4, 0.6]])
    assert np.allclose(inst.bipartite, expect, atol=1e-15)
    # oversized products clamp into [0,1]
    doc["bipartite"] = {"left": [[2.0], [2.0]], "right": [[0.1, 0.2, 0.6]]}
    inst = parse_instance(json.dumps(doc))
    assert inst.bipartite.max() == 1.0
    doc["bipartite"] = {"left": [[1.0, 0.0], [0.5, 0.5]], "right": [[0.1, 0.2, 0.3]]}
    with pytest.raises(InstanceFormatError, match="inner dimensions"):
        parse_instance(json.dumps(doc))


def test_parse_surfaces_validation_errors():
    doc = doc_for([[1.5]])
    with pytest.raises(InstanceValidationError) as info:
        parse_instance(json.dumps(doc))
    assert any("entry out of [0,1]" in s for s in info.value.violations)


def test_bit_precision_defaults_to_twenty():
    doc = doc_for([[0.5]])
    del doc["bit_precision"]
    assert parse_instance(json.dumps(doc)).bit_precision == 20


def test_instance_is_immutable():
    inst = make_instance([[0.5]])
    with pytest.raises(Exception):
        inst.bipartite[0, 0] = 0.9


@pytest.mark.parametrize(
    "value",
    [[], {}, [[]], {"a": {}}, "", -0.0, 10**30, "\u2603", [np.float64(0.25), 0.5], [(1, 2, np.float64(0.5))]],
)
def test_dump_json_matches_json_dumps_on_edge_cases(value):
    assert dump_json(value) == json.dumps(value, sort_keys=True)


def test_dump_json_rejects_what_json_rejects():
    for value in (object(), {(1, 2): 3}, [np.int64(1)]):
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True)
        with pytest.raises(TypeError):
            dump_json(value)


def test_serialize_instance_matches_json_dumps_at_scale():
    # the instance of the benchmark's simulate_large workload
    inst = gen_rank_r(20, 3000, 2, social_edge_count=20_000, seed=3)
    doc = {
        "n": 20,
        "m": 3000,
        "bipartite": {"dense": [[float(x) for x in row] for row in inst.bipartite]},
        "social_edges": [list(e) for e in inst.social_edges.tolist()],
        "budgets": {"providers": inst.budget_providers, "consumers": inst.budget_consumers},
        "bit_precision": inst.bit_precision,
    }
    text = serialize_instance(inst)
    assert text == json.dumps(doc, sort_keys=True) + "\n"
    assert parse_instance(text) == inst
