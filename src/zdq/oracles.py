"""An independent reference solver for certifying the designer.

brute_force_finite searches every per-belief partition choice by
depth-first recursion over the symbol tree; the oracle-check task runs
it against the dynamic program. It deliberately shares no code with the
dynamic-programming solver: partitions are enumerated inline, and Bayes
updates and per-cell costs are written as explicit sums. Only the
belief containers are shared.
"""
from __future__ import annotations

import itertools

import numpy as np

from .beliefs import SimplexBelief
from .costs import CostModel

__all__ = ["brute_force_finite"]


def _canonical_partitions(n_states: int, levels: int):
    """All partitions of range(n_states), cells numbered by first use."""
    seen = []
    seen_set = set()
    for combo in itertools.product(range(1, levels + 1), repeat=n_states):
        relabel = {}
        canon = []
        for cell in combo:
            if cell not in relabel:
                relabel[cell] = len(relabel) + 1
            canon.append(relabel[cell])
        canon = tuple(canon)
        if canon not in seen_set:
            seen_set.add(canon)
            seen.append(canon)
    return seen


def _group_cost(probs, states, members, cost: CostModel) -> float:
    """Expected cost of one cell at its best reconstruction, plain sums."""
    mass = 0.0
    for i in members:
        mass += probs[i]
    if mass <= 0.0:
        return 0.0
    if cost.kind == "quadratic":
        mean = 0.0
        for i in members:
            mean += probs[i] * states[i]
        mean /= mass
        total = 0.0
        for i in members:
            total += probs[i] * (states[i] - mean) ** 2
        return total
    best = None
    n_recon = cost.table.shape[1]
    for u in range(n_recon):
        s = 0.0
        for i in members:
            s += probs[i] * cost.table[i, u]
        if best is None or s < best:
            best = s
    return best


def brute_force_finite(
    initial,
    chain,
    levels: int,
    horizon: int,
    cost: CostModel,
    budget: int = 10_000_000,
) -> float:
    """Optimal expected average distortion by exhaustive tree search.

    Enumerates, independently of the solver, every canonical partition
    at every belief along every symbol path. Guarded by a work estimate
    of (#partitions * levels)^horizon elementary branch visits.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    probs0 = (
        initial.probabilities if isinstance(initial, SimplexBelief) else np.asarray(initial, dtype=float)
    )
    n = len(probs0)
    states = chain.state_values
    P = chain.transition
    partitions = _canonical_partitions(n, levels)
    work = (len(partitions) * levels) ** horizon
    if work > budget:
        raise ValueError(
            f"estimated work {work} exceeds the oracle budget {budget}"
        )

    def recurse(probs, t: int) -> float:
        if t == horizon:
            return 0.0
        best = None
        for part in partitions:
            value = 0.0
            for cell in range(1, levels + 1):
                members = [i for i in range(n) if part[i] == cell]
                value += _group_cost(probs, states, members, cost)
            value /= horizon
            for cell in range(1, levels + 1):
                members = [i for i in range(n) if part[i] == cell]
                mass = 0.0
                for i in members:
                    mass += probs[i]
                if mass <= 0.0:
                    continue
                post = [0.0] * n
                for j in range(n):
                    s = 0.0
                    for i in members:
                        s += probs[i] * P[i, j]
                    post[j] = s / mass
                value += mass * recurse(post, t + 1)
            if best is None or value < best:
                best = value
        return best

    return recurse([float(p) for p in probs0], 0)
