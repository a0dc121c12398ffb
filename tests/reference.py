"""One-period references that the tests bind the fast paths to, bit for bit.

The package computes these quantities over whole runs (run_single's loop,
Runner's selectors, metrics.delta_series) or keeps only the integer
tallies they come from (PolicyState); the functions here compute one
period at a time in the plainest form. The weight arithmetic itself is
the package's metrics._weight, so the bitwise bindings compare like with
like.
"""
from __future__ import annotations

import math

from clqsim.metrics import _weight
from clqsim.model import as_network
from clqsim.policies import PolicyState


def mu_hat_of(state: PolicyState) -> list[float]:
    """Each server's sample success rate, 0.0 while untried."""
    return [s / c if c else 0.0 for s, c in zip(state.succ, state.counts)]


def r_hat_of(state: PolicyState) -> list[list[float]]:
    """Each server's sample transition rate to each queue, 0.0 while untried."""
    return [[r / c if c else 0.0 for r in row] for row, c in zip(state.trans, state.counts)]


def ucb_index(mu_hat: float, count: int, t: float) -> float:
    """Optimistic service-rate index, clamped into [0, 1]."""
    if count == 0:
        return 1.0
    return min(1.0, mu_hat + math.sqrt(2.0 * math.log(t) / count))


def lcb_transition(r_hat: float, count: int, t: float) -> float:
    """Pessimistic transition-rate index, clamped into [0, 1]."""
    if count == 0:
        return 0.0
    return max(0.0, r_hat - math.sqrt(2.0 * math.log(t) / count))


def ucb_select(state: PolicyState, q: int) -> int | None:
    """Server with the highest optimistic index; None when the queue is empty."""
    if q == 0:
        return None
    idx = state.ucb_indices(state.t)
    return idx.index(max(idx))


def schedule_weight(q, schedule, instance, networked: bool) -> float:
    """True-rate weight of a schedule at queue vector q.

    The networked variant charges each selected server for the load its
    transitions push back into the queues.
    """
    servers = [srv for srv, on in enumerate(schedule) if on]
    return _weight(as_network(instance), servers, q, networked)


def _best_weight(net, q, q_scaled, networked: bool) -> float:
    """Largest weight at q_scaled over the schedules that fit queue vector q."""
    table = net.schedule_table
    best = -math.inf
    for servers, need in zip(table.servers, table.demand):
        if all(q[i] >= c for i, c in need):
            best = max(best, _weight(net, servers, q_scaled, networked))
    return best


def delta_loss(q, chosen, instance, networked: bool) -> float:
    """Weight loss of the chosen schedule against the true-rate argmax,
    normalized by the longest queue; 0 on an empty system."""
    qmax = max(q)
    if qmax == 0:
        return 0.0
    # Queue lengths are divided by ||q||_inf before weighing, which keeps
    # the single-queue case exact: q/q is exactly 1.0.
    q_scaled = [qi / qmax for qi in q]
    net = as_network(instance)
    return _best_weight(net, q, q_scaled, networked) - schedule_weight(
        q_scaled, chosen, net, networked
    )
