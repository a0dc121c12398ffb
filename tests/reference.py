"""One-period references that the tests bind the fast paths to, bit for bit.

The package computes these quantities over whole runs: the decision loops
of run_single and run_network, on the integer tallies (PolicyState) each
run allocates and updates in place, and metrics.delta_series. The
functions here compute one period at a time in the plainest form, from a
PolicyState and the period t. A run's tallies are its trace's own column
sums (tallies_of). The weight arithmetic itself is the package's
metrics._weight, so the bitwise bindings compare like with like.

The trace-file check is here too: the per-row CSV rendering and the
line-by-line comparison that engine.replay_csv_error's one-string compare
must agree with, message for message.
"""
from __future__ import annotations

import math

import numpy as np

from clqsim.engine import RandomSource, _masks
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


def ucb_queues_per_server(inst, horizon: int, seed: int) -> list[int]:
    """Q(1..horizon+1) of ucb on a single queue, one period at a time, with
    per-server service draws: ucb_select's server j in period t succeeds when
    RandomSource(seed, "service").uniforms(horizon, k)[t - 1, j] <= mu_j.
    (run_single draws one service uniform per period instead.)"""
    u_arr = RandomSource(seed, "arrival").uniforms(horizon)
    u_srv = RandomSource(seed, "service").uniforms(horizon, inst.k)
    state, q = PolicyState(inst.k, 1), [0]
    for t in range(1, horizon + 1):
        served, j = 0, ucb_select(state, q[-1], t)
        if j is not None:
            served = int(u_srv[t - 1, j] <= inst.mu[j])
            state.counts[j] += 1
            state.succ[j] += served
        q.append(q[-1] - served + int(u_arr[t - 1] <= inst.lam))
    return q


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


def trace_csv_lines(trace) -> list[str]:
    """The trace CSV, one string per line, each row joined on its own."""
    h, n = trace.horizon, trace.q.shape[1]
    header = ["t", *(f"q_{i}" for i in range(n)), "schedule", "arrivals", "services", "transitions"]
    trans = [""] * h
    if trace.targets is not None:
        rows, srvs = np.nonzero(trace.services)
        for r, srv, dest in zip(rows.tolist(), srvs.tolist(), trace.targets[rows, srvs].tolist()):
            trans[r] += f";{srv}>{dest}" if trans[r] else f"{srv}>{dest}"
    masks = [_masks(e) for e in (trace.schedule, trace.arrivals, trace.services)]
    cols = [range(1, h + 1), *trace.q[:h].T.tolist(), *masks, trans]
    return [",".join(header)] + [",".join(map(str, row)) for row in zip(*cols)]


def replay_csv_error(path: str, trace) -> str | None:
    """Compare a trace CSV, read with universal newlines, line by line with
    trace_csv_lines(trace); None if equal."""
    want = trace_csv_lines(trace)
    with open(path) as fh:
        got = fh.read().splitlines()
    if not got or got[0] != want[0]:
        return "missing header"
    if len(got) < 2:
        return "no data rows"
    if len(got) != len(want):
        return f"{len(got) - 1} data rows for horizon {trace.horizon}"
    for line, (a, b) in enumerate(zip(got, want), start=1):
        if a != b:
            cells, ref = a.split(","), b.split(",")
            if len(cells) != len(ref):
                return f"line {line}: malformed row"
            name, x, y = next(d for d in zip(want[0].split(","), cells, ref) if d[1] != d[2])
            return f"line {line}: {name} {x!r} differs from the re-run ({y!r})"
    return None
