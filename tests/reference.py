"""One-period references that the tests bind the fast paths to, bit for bit.

The package computes these quantities over whole runs: the decision loops
of run_single and run_network, on the integer tallies (PolicyState) each
run allocates and updates in place, and metrics.delta_series. The
functions here compute one period at a time in the plainest form, from a
PolicyState and the period t. A run's tallies are its trace's own column
sums (tallies_of). The weight arithmetic itself is the package's
metrics._weight, so the bitwise bindings compare like with like.
"""
from __future__ import annotations

import math

from clqsim.metrics import _weight
from clqsim.model import as_network
from clqsim.policies import PolicyState


def tallies_of(trace) -> PolicyState:
    """The tallies a run leaves, from its trace: per server, the periods it
    ran, its successes and, per queue, the successes that moved there."""
    k, n = trace.schedule.shape[1], trace.q.shape[1]
    state = PolicyState(k, n, trace.schedule.sum(axis=0).tolist(), trace.services.sum(axis=0).tolist())
    if trace.targets is not None:
        state.trans = [[int((trace.targets[:, srv] == d).sum()) for d in range(n)] for srv in range(k)]
    return state


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


def ucb_indices(state: PolicyState, t: int) -> list[float]:
    """Optimistic service-rate index of every server at period t, clamped
    into [0, 1] (1.0 while untried), with 2 log t taken once."""
    two_log = 2.0 * math.log(t)
    return [
        min(1.0, s / c + math.sqrt(two_log / c)) if c else 1.0
        for s, c in zip(state.succ, state.counts)
    ]


def ucb_select(state: PolicyState, q: int, t: int) -> int | None:
    """Server with the highest optimistic index at period t; None when the
    queue is empty."""
    if q == 0:
        return None
    idx = ucb_indices(state, t)
    return idx.index(max(idx))


def _heaviest(table, q, gain) -> tuple[int, ...]:
    """Schedule that fits q with the largest summed per-server gain, each sum
    taken from 0.0 over the schedule's servers in ascending order.  Ties go
    to the first in stored order."""
    best_w, best = -math.inf, None
    for sigma, servers, need in zip(table.schedules, table.servers, table.demand):
        if all(q[i] >= c for i, c in need):
            w = 0.0
            for srv in servers:
                w += gain[srv]
            if w > best_w:
                best_w, best = w, sigma
    return best


def maxweight_select(q, rates, table) -> tuple[int, ...]:
    """Feasible schedule maximizing sum_n Q_n * (selected rate mass at n)."""
    owner = table.server_queue
    return _heaviest(table, q, [rates[srv] * q[owner[srv]] for srv in range(len(owner))])


def backpressure_select(q, mu_bar, r_lower, table) -> tuple[int, ...]:
    """MaxWeight with per-server penalties for feeding long queues: server
    srv's gain is mu_bar[srv] * Q(owner) less the sum, from 0.0 in ascending
    queue order, of r_lower[srv][d] * Q(d)."""
    owner = table.server_queue
    gain = []
    for srv in range(len(mu_bar)):
        pen = 0.0
        for d, qd in enumerate(q):
            pen += r_lower[srv][d] * qd
        gain.append(mu_bar[srv] * q[owner[srv]] - pen)
    return _heaviest(table, q, gain)


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
