"""Problem data model: validation, serialization, and row-rank extraction."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

DEFAULT_BIT_PRECISION = 20
RANK_TOL = 1e-9
EDGE_DTYPE = np.dtype([("source", np.intp), ("target", np.intp), ("prob", np.float64)])
_LOW, _HIGH = int(np.iinfo(np.intp).min), int(np.iinfo(np.intp).max)


class InstanceFormatError(ValueError):
    """Raised when a document or a constructor argument gives a field of the wrong type or form."""


class InstanceValidationError(ValueError):
    """Raised when well-typed fields break an invariant: a size, budget, bit_precision, entry or edge."""

    def __init__(self, violations):
        super().__init__("invalid instance: " + "; ".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True, eq=False)
class AimInstance:
    """One seeding problem: influence matrix, social graph, and budgets.

    The numbers of providers and consumers are the matrix's row and column
    counts, read as n_providers and n_consumers. Construction converts each
    field, refusing a wrong type with InstanceFormatError, then checks the
    O(1) invariants (sizes, budgets, bit_precision) with
    InstanceValidationError; validate scans the entries and edges.

    Attributes
    ----------
    bipartite : ndarray of shape (n_providers, n_consumers)
        Entry (i, j) is the probability that seed provider i directly
        activates consumer j. Stored dense and read-only.
    social_edges : ndarray of EDGE_DTYPE
        Directed consumer-to-consumer edges with probabilities in (0, 1], read-only, with
        fields source, target and prob; a sequence of triples is converted once (see _edge_array).
    budget_providers : int
        Exact number of providers to seed.
    budget_consumers : int
        Exact number of consumers to seed.
    bit_precision : int
        Lambda such that every nonzero matrix entry is at least 2**-lambda.
        It and the budgets are stored as ints; whole floats and NumPy integers convert.
    """

    bipartite: np.ndarray
    social_edges: np.ndarray
    budget_providers: int
    budget_consumers: int
    bit_precision: int = DEFAULT_BIT_PRECISION

    def __post_init__(self):
        mat = _float_matrix(self.bipartite, "bipartite")
        if mat.ndim != 2:
            raise InstanceValidationError([f"bipartite must be a 2-D matrix, got shape {mat.shape}"])
        mat.setflags(write=False)
        object.__setattr__(self, "bipartite", mat)
        object.__setattr__(self, "social_edges", _edge_array(self.social_edges))
        for name in ("budget_providers", "budget_consumers", "bit_precision"):
            object.__setattr__(self, name, _number(getattr(self, name), name, whole=True))
        violations = _scalar_violations(self)
        if violations:
            raise InstanceValidationError(violations)

    @property
    def n_providers(self):
        return self.bipartite.shape[0]

    @property
    def n_consumers(self):
        return self.bipartite.shape[1]

    # identity hashing keeps instances usable as cache keys while the
    # field-wise equality below serves round-trip tests
    __hash__ = object.__hash__

    def __eq__(self, other):
        if not isinstance(other, AimInstance):
            return NotImplemented
        return (
            np.array_equal(self.bipartite, other.bipartite)
            and np.array_equal(self.social_edges, other.social_edges)
            and self.budget_providers == other.budget_providers
            and self.budget_consumers == other.budget_consumers
            and self.bit_precision == other.bit_precision
        )


# int(), float() and np.array(dtype=float) would take booleans and numeric
# strings, and np.array None as nan; a JSON number loads as exactly an int or a float
_NUMBER_TYPES = frozenset((int, float))
_JSON_KINDS = {bool: "a boolean", str: "a string", type(None): "null", list: "an array", dict: "an object"}
_JSON_KINDS[np.bool_] = "a boolean"


def _not_a(kind, field, value):
    """InstanceFormatError saying `field` must be `kind`, and what it was instead."""
    loaded = _JSON_KINDS.get(type(value), type(value).__name__)
    return InstanceFormatError(f"{field} must be {kind}, got {loaded}")


def _number(value, field, whole=False):
    """`value` as a float, or as an int if `whole`; InstanceFormatError naming `field` if it is not one."""
    if type(value) is (int if whole else float):
        return value
    kind = "an integer" if whole else "a number"
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise _not_a(kind, field, value)
    try:
        number = int(value) if whole else float(value)
    except (ValueError, OverflowError) as exc:
        raise InstanceFormatError(f"{field} must be {kind}: {exc}") from exc
    if whole and number != value:
        raise InstanceFormatError(f"{field} must be an integer, got {value!r}")
    return number


def _float_matrix(rows, field):
    """`rows` as a float array, or InstanceFormatError naming `field` if not real numbers or ragged.

    An int or float ndarray passes by its dtype; anything else, once NumPy has read it as a matrix, entry by entry.
    """
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iuf":
        return np.array(rows, dtype=float)
    try:
        mat = np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InstanceFormatError(f"{field} must be a matrix of numbers: {exc}") from exc
    if mat.ndim == 2:
        for row in rows:
            if not _NUMBER_TYPES.issuperset(map(type, row)):
                for value in row:
                    if not isinstance(value, numbers.Real) or isinstance(value, bool):
                        raise _not_a("a matrix of numbers", field, value)
    return mat


def _edge_array(edges):
    """`edges` as a read-only EDGE_DTYPE array: a copy of one, or a list or tuple of triples converted.

    A triple needs endpoints that are whole numbers within intp and a probability that is a real number,
    none of them a boolean, else InstanceFormatError names its index and field: 0.7, True or "1" as an
    endpoint, or "0.25" as a probability, is refused, not coerced.
    """
    if isinstance(edges, np.ndarray) and edges.dtype == EDGE_DTYPE:
        edges = edges.copy()
    elif not isinstance(edges, (list, tuple, np.ndarray)):
        raise _not_a("an array of [source, target, probability]", "social_edges", edges)
    else:
        rows = []
        for k, e in enumerate(edges):
            try:
                u, w, p = e
            except (TypeError, ValueError):
                raise InstanceFormatError(f"social_edges[{k}] must be [source, target, probability]") from None
            # ints within intp and a float, as parsed documents hold, pass the first test
            if not (type(u) is int is type(w) and type(p) is float and _LOW <= u <= _HIGH and _LOW <= w <= _HIGH):
                field = f"social_edges[{k}]"
                u, w = _number(u, f"{field} source", whole=True), _number(w, f"{field} target", whole=True)
                p = _number(p, f"{field} probability")
                if not (_LOW <= u <= _HIGH and _LOW <= w <= _HIGH):
                    raise InstanceFormatError(f"{field} endpoints must fit in intp, got ({u}, {w})")
            rows.append((u, w, p))
        edges = np.fromiter(rows, EDGE_DTYPE, len(rows))
    edges.setflags(write=False)
    return edges


def validate(instance):
    """Check the matrix entries and the edges of an instance: the invariants that cost O(size).

    Construction has already checked every field's type, the sizes, the
    budgets and bit_precision; parse_instance and solve run this scan, as
    they take instances from outside.

    Parameters
    ----------
    instance : AimInstance

    Returns
    -------
    list of str
        One message per violation, each locating the offending entry or
        edge. An empty list means the instance is well-formed.
    """
    v = []
    m = instance.n_consumers
    mat = instance.bipartite
    # zip(*np.nonzero(mask)) lists the flagged (i, j) in row-major order, as argwhere does, at half its cost
    if not np.isfinite(mat).all():
        for i, j in list(zip(*np.nonzero(~np.isfinite(mat))))[:10]:
            v.append(f"entry not finite at ({i},{j})")
        return v
    for i, j in zip(*np.nonzero((mat < 0.0) | (mat > 1.0))):
        v.append(f"entry out of [0,1] at ({i},{j})")
    floor = math.ldexp(1.0, -instance.bit_precision)
    for i, j in zip(*np.nonzero((mat > 0.0) & (mat < floor))):
        v.append(f"nonzero entry below 2^-{instance.bit_precision} at ({i},{j})")
    u, w, p = (instance.social_edges[f] for f in EDGE_DTYPE.names)
    out = (u.view(np.uintp) >= m) | (w.view(np.uintp) >= m)  # as unsigned, a negative endpoint is past m
    # an edge repeats when an earlier one has its key; out-of-range edges share key -1 and report no repeat
    key = np.where(out, -1, u * m + w)
    order = np.argsort(key, kind="stable")
    again = np.zeros(key.size, dtype=bool)
    again[order[1:]] = key[order[1:]] == key[order[:-1]]
    for k in np.flatnonzero(out | again | (u == w) | ~((p > 0.0) & (p <= 1.0))).tolist():
        uk, wk, pk = instance.social_edges[k].tolist()
        if out[k]:
            v.append(f"edge {k} endpoint out of range: ({uk},{wk})")
            continue
        if uk == wk:
            v.append(f"edge {k} is a self-loop at {uk}")
        if not (0.0 < pk <= 1.0):
            v.append(f"edge {k} probability out of (0,1]: {pk}")
        if again[k]:
            v.append(f"duplicate edge ({uk},{wk}) at index {k}")
    return v


def _scalar_violations(instance):
    """The invariants that construction checks, as they cost O(1): both sizes, both budgets and bit_precision.

    The net grid runs from 2**-bit_precision past n_providers in steps of 1 + eps:
    n_providers * 2**bit_precision below 2**1023 keeps every step up to 2 in floats.
    """
    v = []
    n, m, lam = instance.n_providers, instance.n_consumers, instance.bit_precision
    if n < 1:
        v.append("n_providers must be at least 1")
    if m < 1:
        v.append("n_consumers must be at least 1")
    top = 1023 - n.bit_length()
    if lam < 1:
        v.append("bit_precision must be at least 1")
    elif lam > top:
        v.append(f"bit_precision {lam} exceeds {top}: n_providers * 2^bit_precision must stay below 2^1023")
    for side, budget, size in (("provider", instance.budget_providers, n), ("consumer", instance.budget_consumers, m)):
        if budget < 1:
            v.append(f"{side} budget must be at least 1, got {budget}")
        elif budget > size:
            v.append(f"{side} budget exceeds ground set ({budget} > {size})")
    return v


def numerical_rank(M):
    """Greedy row basis of M at the absolute reconstruction tolerance RANK_TOL.

    Rows are scanned in order; a row is kept when its least-squares residual
    against the rows already kept exceeds RANK_TOL in max-abs norm. The scan
    is deterministic, so identical matrices always give identical bases.

    Parameters
    ----------
    M : array_like
        Matrix to factor.

    Returns
    -------
    ndarray of shape (rank, m)
        The kept rows of M in scan order, read-only; the rank is its row count.
    """
    M = np.asarray(M, dtype=float)
    kept = []
    ortho = []
    for i in range(M.shape[0]):
        resid = M[i].astype(float)
        # two projection passes keep the residual orthogonal despite rounding
        for _ in range(2):
            for q in ortho:
                resid = resid - (resid @ q) * q
        if resid.size and np.max(np.abs(resid)) > RANK_TOL:
            kept.append(i)
            ortho.append(resid / np.linalg.norm(resid))
    rows = M[kept]
    rows.setflags(write=False)
    return rows


def min_bit_precision(M):
    """Smallest lambda such that every nonzero entry of M is >= 2**-lambda."""
    M = np.asarray(M, dtype=float)
    # the smallest entry is f * 2**e with 0.5 <= f < 1, so 2**(e-1) is at most it and 2**e is not
    return max(1, 1 - math.frexp(M.min(initial=1.0, where=M > 0))[1])


def _matrix_from_doc(bip, n, m):
    if not isinstance(bip, dict):
        raise InstanceFormatError("bipartite must be an object with 'dense' or 'left'/'right'")
    if "dense" in bip:
        mat = _float_matrix(bip["dense"], "bipartite.dense")
        if mat.ndim != 2 or mat.shape != (n, m):
            raise InstanceFormatError(f"bipartite.dense must be a {n}x{m} matrix, got shape {mat.shape}")
        return mat
    if "left" in bip and "right" in bip:
        left = _float_matrix(bip["left"], "bipartite.left")
        right = _float_matrix(bip["right"], "bipartite.right")
        if left.ndim != 2 or right.ndim != 2 or left.shape[0] != n or right.shape[1] != m:
            raise InstanceFormatError(
                f"factored bipartite must multiply to {n}x{m}, got {left.shape} x {right.shape}"
            )
        if left.shape[1] != right.shape[0]:
            raise InstanceFormatError(
                f"factored bipartite inner dimensions differ: {left.shape[1]} vs {right.shape[0]}"
            )
        # products of factored inputs may leave [0,1]; clamp at load
        return np.clip(left @ right, 0.0, 1.0)
    raise InstanceFormatError("bipartite must provide either 'dense' or both 'left' and 'right'")


def parse_instance(text):
    """Parse a JSON instance document and validate the result.

    Parameters
    ----------
    text : str or bytes
        JSON document with fields n, m, bipartite (dense or left/right
        factored), social_edges, budgets, and optional bit_precision.

    Returns
    -------
    AimInstance

    Raises
    ------
    InstanceFormatError
        When the document is not JSON or a field is missing or malformed.
    InstanceValidationError
        When the parsed instance breaks an invariant: construction checks the
        sizes, budgets and bit_precision, then validate the entries and edges.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError("top level must be a JSON object")
    for name in ("n", "m", "bipartite", "social_edges", "budgets"):
        if name not in doc:
            raise InstanceFormatError(f"missing field: {name}")
    n = _number(doc["n"], "n", whole=True)
    m = _number(doc["m"], "m", whole=True)
    mat = _matrix_from_doc(doc["bipartite"], n, m)
    budgets = doc["budgets"]
    if not isinstance(budgets, dict):
        raise InstanceFormatError("budgets must be an object")
    for name in ("providers", "consumers"):
        if name not in budgets:
            raise InstanceFormatError(f"missing field: budgets.{name}")
    # the constructor checks the edges, budgets and bit_precision as it converts them
    inst = AimInstance(
        bipartite=mat,
        social_edges=doc["social_edges"],
        budget_providers=budgets["providers"],
        budget_consumers=budgets["consumers"],
        bit_precision=doc.get("bit_precision", DEFAULT_BIT_PRECISION),
    )
    violations = validate(inst)
    if violations:
        raise InstanceValidationError(violations)
    return inst


def _instance_doc(instance):
    """The JSON document of an instance, as a dict of plain Python values."""
    return {
        "n": instance.n_providers,
        "m": instance.n_consumers,
        "bipartite": {"dense": instance.bipartite.tolist()},
        "social_edges": instance.social_edges.tolist(),
        "budgets": {
            "providers": instance.budget_providers,
            "consumers": instance.budget_consumers,
        },
        "bit_precision": instance.bit_precision,
    }


def serialize_instance(instance):
    """Serialize an instance to its JSON document form.

    The result is round-trip stable: parsing it back yields an instance equal
    field-for-field, including exact float values.

    Parameters
    ----------
    instance : AimInstance

    Returns
    -------
    str
    """
    return dump_json(_instance_doc(instance)) + "\n"


def dump_json(obj):
    """The one-line JSON text of obj, keys sorted: ``json.dumps(obj, sort_keys=True)``.

    Without an indent json runs its C encoder. Floats keep their exact repr,
    and NaN and +-inf are written as NaN, Infinity and -Infinity.

    Raises
    ------
    TypeError
        When a value is not a str, int, float, bool, None, list, tuple or dict.
    """
    return json.dumps(obj, sort_keys=True)
