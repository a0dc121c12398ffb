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

So is run_single's per-period decision loop for ucb and round-robin
(run_single_loop): it records every period's queue length and server, and
holds the leader bound with a flag that a pull of any other server
clears; run_single's loop records only its decisions and rebuilds the path
with engine._lindley, and must give the same trace.

So is the instance generator's arrival scaling in its plainest form
(scale_arrivals): a fresh instance and a fresh slackness LP at every one
of 80 bisection steps, which instances._scale_arrivals' one LP build per
structure, memo and fixed-point stop must reproduce draw for draw.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from clqsim.engine import RandomSource, _masks
from clqsim.instances import _SLACK_TOL
from clqsim.metrics import _weight
from clqsim.model import ArrivalModel, as_network, traffic_slackness, validate_instance
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


def run_single_loop(inst, policy: str, horizon: int, seed: int, state: PolicyState | None = None):
    """(q, schedule, services) of run_single(inst, policy, horizon, seed) for
    policy "ucb" or "round-robin", one period at a time, with the tallies
    kept in state (a fresh PolicyState by default).  UCB takes ucb_indices'
    arithmetic, a first-index argmax by strict > where an untried server or
    the first index at the clamp 1.0 wins at once.  A full scan bounds the
    other indices up to period until (1e-9 covers math.log's last ulp), so
    while alone (no other server pulled since), a leader index in (bound,
    1.0) wins."""
    k, mu = inst.k, list(inst.mu)
    arrive = (RandomSource(seed, "arrival").uniforms(horizon) <= inst.lam).astype(np.int64)
    u_srv = RandomSource(seed, "service").uniforms(horizon).tolist()
    q_list = [0] * (horizon + 1)
    srv_list = [-1] * horizon
    state = PolicyState(k, 1) if state is None else state
    counts, succ = state.counts, state.succ
    until, bound, lead, alone, rr, q = 0, 1.0, 0, False, 0, 0
    for t, a in enumerate(arrive.tolist(), 1):
        if q:
            if policy == "round-robin":
                j = rr % k
                rr += 1
            elif (
                t <= until
                and alone
                and bound < succ[lead] / (c := counts[lead]) + math.sqrt(2.0 * math.log(t) / c) < 1.0
            ):
                j = lead
            else:
                two_log, best, j = 2.0 * math.log(t), -1.0, 0
                for i, c in enumerate(counts):
                    if not c or (v := succ[i] / c + math.sqrt(two_log / c)) >= 1.0:
                        j = i
                        break
                    if v > best:
                        best, j = v, i
                else:
                    until = t + 1 + t // 256
                    two_log = 2.0 * math.log(until)
                    rivals = [succ[i] / c + math.sqrt(two_log / c) for i, c in enumerate(counts) if i != j]
                    bound, lead, alone = max(rivals, default=-1.0) + 1e-9, j, True
            srv_list[t - 1] = j
            counts[j] += 1
            if u_srv[t - 1] <= mu[j]:
                q -= 1
                succ[j] += 1
            if j != lead:
                alone = False
        q += a
        q_list[t] = q
    schedule = np.zeros((horizon, k), dtype=np.uint8)
    services = np.zeros((horizon, k), dtype=np.uint8)
    for t, j in enumerate(srv_list):
        if j >= 0:
            schedule[t, j] = 1
            services[t, j] = q_list[t] - q_list[t + 1] + arrive[t]
    return np.array(q_list, dtype=np.int64).reshape(-1, 1), schedule, services


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


def scale_arrivals(shell, epsilon: float):
    """instances._scale_arrivals as plain bisection: scale the non-zero
    arrival rows by c, solve a fresh LP on a fresh instance at each of 80
    steps, then take the first of (mid, lo, hi) that hits the target and
    validates; None when none does or the target is out of reach."""
    support, probs = shell.arrivals.support, shell.arrivals.probs
    zero_at = support.index((0,) * shell.n)

    def with_scale(c: float):
        scaled = [p * c if i != zero_at else 0.0 for i, p in enumerate(probs)]
        scaled[zero_at] = 1.0 - sum(s for i, s in enumerate(scaled) if i != zero_at)
        return dataclasses.replace(shell, arrivals=ArrivalModel(support=support, probs=tuple(scaled)))

    def slack(c: float) -> float:
        return traffic_slackness(with_scale(c)).epsilon

    c_max = 1.0 / sum(p for i, p in enumerate(probs) if i != zero_at)
    top = slack(0.0)
    if top < epsilon - _SLACK_TOL:
        return None
    if abs(top - epsilon) <= _SLACK_TOL:
        return with_scale(0.0)
    if slack(c_max) > epsilon + _SLACK_TOL:
        return None
    lo, hi = 0.0, c_max
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if slack(mid) > epsilon:
            lo = mid
        else:
            hi = mid
    for c in (0.5 * (lo + hi), lo, hi):
        inst = with_scale(c)
        if abs(traffic_slackness(inst).epsilon - epsilon) <= _SLACK_TOL:
            if not validate_instance(inst):
                return inst
    return None
