"""Budgeted maximization of monotone submodular objectives with a lazy queue."""

import heapq
from dataclasses import dataclass, field


@dataclass
class GreedyTrace:
    """What a greedy run did: picks with gain estimates, and total oracle calls."""

    picks: list = field(default_factory=list)
    evaluations: int = 0


def greedy_max(oracle, ground, budget):
    """Pick `budget` elements approximately maximizing a monotone submodular objective.

    Lazy strategy: stale marginal-gain upper bounds sit in a max-queue and a
    candidate is re-evaluated against the current set before acceptance. Ties
    break toward the lowest element index, gains are clamped at 0 for queue
    ordering, and with an exact oracle the outcome equals plain greedy.

    The oracle maps a tuple of element indices to an object with a `.mean`
    (a SpreadEstimate works). budget == |ground| short-circuits to the whole
    ground set with no oracle calls.
    """
    elements = sorted(int(e) for e in ground)
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if budget > len(elements):
        raise ValueError(f"budget {budget} exceeds ground set of {len(elements)}")
    if budget == len(elements):
        return list(elements), GreedyTrace(picks=[(e, 0.0) for e in elements], evaluations=0)

    chosen = []
    trace = GreedyTrace()
    current_value = oracle(()).mean
    trace.evaluations = 1
    heap = []
    for e in elements:
        est = oracle((e,))
        trace.evaluations += 1
        gain = est.mean - current_value
        heapq.heappush(heap, (-max(gain, 0.0), e, 1, est.mean))

    for step in range(1, budget + 1):
        while True:
            neg_gain, e, stamp, value = heapq.heappop(heap)
            if stamp == step:
                # this estimate was taken against the current set; accept
                chosen.append(e)
                trace.picks.append((e, value - current_value))
                current_value = value
                break
            est = oracle(tuple(sorted(chosen + [e])))
            trace.evaluations += 1
            gain = est.mean - current_value
            heapq.heappush(heap, (-max(gain, 0.0), e, step, est.mean))
    return chosen, trace
