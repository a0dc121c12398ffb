"""Exact discrete-time dynamics with seeded, replayable randomness.

Per-period event order: observe queue -> schedule -> service draws ->
transition draws -> arrival draws -> queue update.  All randomness is
pregenerated into per-stream arrays indexed by period (and server), so
draws are policy-independent and common-random-number pairing across
policies is automatic.
"""
from __future__ import annotations

import csv
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .model import (
    NetworkInstance,
    SingleQueueInstance,
    as_network,
    slackness_single,
    structure_constants,
)
from .policies import PolicyError, PolicyHandle, PolicyState, Runner

STREAM_IDS = {"arrival": 0, "service": 1, "transition": 2, "policy": 3}
SNAPSHOT_EVERY_PERIOD_MAX = 100_000
LOCKSTEP_BLOCK = 1024  # seeds per block of ucb_queue_paths


@dataclass(frozen=True)
class RandomSource:
    """Stream of uniforms fully determined by (seed, stream label).

    Regenerated from scratch on every call, so draw t of a stream is a
    pure function of (seed, stream, t) and never depends on how much of
    any other stream was consumed.
    """

    seed: int
    stream: str

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(STREAM_IDS[self.stream],)
        )
        return np.random.Generator(np.random.PCG64(seq))

    def uniforms(self, *shape: int) -> np.ndarray:
        return self.generator().random(shape)


@dataclass
class Snapshots:
    """Estimator state entering the recorded periods."""

    periods: np.ndarray
    mu_hat: np.ndarray
    counts: np.ndarray
    r_hat: np.ndarray | None


@dataclass
class Trace:
    """Full per-period record of one simulation run.

    q holds rows for periods 1..horizon+1 (row 0 is the empty start);
    schedule/services/arrivals hold rows for periods 1..horizon.
    targets is None for exit-only systems, else -1 marks idle or failed
    servers and a value of n (the queue count) marks an exiting job.
    """

    instance: SingleQueueInstance | NetworkInstance
    policy: str
    seed: int
    horizon: int
    q: np.ndarray
    schedule: np.ndarray
    arrivals: np.ndarray
    services: np.ndarray
    targets: np.ndarray | None
    snapshots: Snapshots | None
    final_state: PolicyState | None

    def l1(self) -> np.ndarray:
        """Total queue length per period, t = 1..horizon."""
        return self.q[: self.horizon].sum(axis=1)


@dataclass
class CoupledPair:
    """Policy trace plus the rate-(mu* - eps/2) auxiliary queue, sharing
    the arrival stream and the per-period service uniform."""

    primary: Trace
    auxiliary: Trace
    epsilon: float


def _resolve_stride(snapshot_stride: int | None, horizon: int) -> int:
    if snapshot_stride is None:
        return 1 if horizon <= SNAPSHOT_EVERY_PERIOD_MAX else 100
    return int(snapshot_stride)


def _as_handle(policy: str | PolicyHandle) -> PolicyHandle:
    return policy if isinstance(policy, PolicyHandle) else PolicyHandle.parse(policy)


def _snapshots_from(parts: list, k: int, n: int, with_r: bool) -> Snapshots | None:
    if not parts:
        return None
    periods = np.array([p[0] for p in parts], dtype=np.int64)
    mu_hat = np.array([p[1] for p in parts], dtype=np.float64)
    counts = np.array([p[2] for p in parts], dtype=np.int64)
    r_hat = np.array([p[3] for p in parts], dtype=np.float64) if with_r else None
    return Snapshots(periods=periods, mu_hat=mu_hat, counts=counts, r_hat=r_hat)


def run_single(
    instance: SingleQueueInstance,
    policy: str | PolicyHandle,
    horizon: int,
    seed: int,
    snapshot_stride: int | None = None,
    service_mode: str = "shared",
) -> Trace:
    """Simulate the scalar-queue dynamics Q(t+1) = Q(t) - S_J(t) + A(t).

    service_mode "shared" drives all server indicators off one uniform
    per period (the coupling construction); "independent" draws one
    uniform per (period, server) instead.  Both have the same law.
    """
    trace, _ = _run_single(instance, policy, horizon, seed, snapshot_stride, service_mode, None)
    return trace


def run_coupled_single(
    instance: SingleQueueInstance,
    policy: str | PolicyHandle,
    horizon: int,
    seed: int,
    snapshot_stride: int | None = None,
) -> CoupledPair:
    """Run the policy queue and the auxiliary queue on shared uniforms.

    The primary trace is bit-identical to run_single with the same seed.
    """
    eps = slackness_single(instance)
    if eps <= 0:
        raise ValueError(f"coupling needs a stabilizable instance, slackness={eps}")
    aux_rate = instance.mu_star - eps / 2.0
    trace, aux = _run_single(
        instance, policy, horizon, seed, snapshot_stride, "shared", aux_rate
    )
    return CoupledPair(primary=trace, auxiliary=aux, epsilon=eps)


def _run_single(instance, policy, horizon, seed, snapshot_stride, service_mode, aux_rate):
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    handle = _as_handle(policy)
    k = instance.k
    lam = instance.lam
    mu = list(instance.mu)
    runner = Runner(handle, instance)
    state = runner.state
    stride = _resolve_stride(snapshot_stride, horizon)

    u_arr = RandomSource(seed, "arrival").uniforms(horizon).tolist()
    if service_mode == "shared":
        u_srv = RandomSource(seed, "service").uniforms(horizon).tolist()
        srv_rows = None
    elif service_mode == "independent":
        if aux_rate is not None:
            raise ValueError("the auxiliary queue requires the shared uniform")
        u_srv = None
        srv_rows = RandomSource(seed, "service").uniforms(horizon, k).tolist()
    else:
        raise ValueError(f"unknown service_mode {service_mode!r}")

    q_hist = np.empty(horizon + 1, dtype=np.int64)
    srv_hist = np.full(horizon, -1, dtype=np.int16)
    svc_hist = np.zeros(horizon, dtype=np.uint8)
    arr_hist = np.zeros(horizon, dtype=np.uint8)
    snaps: list = []
    aux = aux_rate is not None
    if aux:
        aq_hist = np.empty(horizon + 1, dtype=np.int64)
        asel_hist = np.zeros(horizon, dtype=np.uint8)
        asvc_hist = np.zeros(horizon, dtype=np.uint8)
        aq = 0

    select = runner.select_server
    q = 0
    for t in range(1, horizon + 1):
        q_hist[t - 1] = q
        if state is not None and stride and (t - 1) % stride == 0:
            snaps.append((t, state.mu_hat, list(state.counts)))
        s = 0
        if q > 0:
            j = select(q, t)
            if j is not None:
                if not 0 <= j < k:
                    raise PolicyError(f"policy chose server {j} outside 0..{k - 1}")
                u = u_srv[t - 1] if srv_rows is None else srv_rows[t - 1][j]
                s = 1 if u <= mu[j] else 0
                srv_hist[t - 1] = j
                svc_hist[t - 1] = s
                if state is not None:
                    state.record(j, s, None)
        a = 1 if u_arr[t - 1] <= lam else 0
        arr_hist[t - 1] = a
        q = q - s + a
        if aux:
            aq_hist[t - 1] = aq
            if aq > 0:
                st = 1 if u_srv[t - 1] <= aux_rate else 0
                asel_hist[t - 1] = 1
                asvc_hist[t - 1] = st
                aq -= st
            aq += a
    q_hist[horizon] = q

    rows = np.nonzero(srv_hist >= 0)[0]
    schedule = np.zeros((horizon, k), dtype=np.uint8)
    services = np.zeros((horizon, k), dtype=np.uint8)
    schedule[rows, srv_hist[rows]] = 1
    services[rows, srv_hist[rows]] = svc_hist[rows]
    trace = Trace(
        instance=instance,
        policy=handle.cli_name,
        seed=seed,
        horizon=horizon,
        q=q_hist.reshape(-1, 1),
        schedule=schedule,
        arrivals=arr_hist.reshape(-1, 1),
        services=services,
        targets=None,
        snapshots=_snapshots_from([(t, m, c, None) for t, m, c in snaps], k, 1, False),
        final_state=state,
    )
    if not aux:
        return trace, None
    aq_hist[horizon] = aq
    aux_inst = SingleQueueInstance(k=1, lam=lam, mu=(aux_rate,))
    aux_trace = Trace(
        instance=aux_inst,
        policy="oracle-best",
        seed=seed,
        horizon=horizon,
        q=aq_hist.reshape(-1, 1),
        schedule=asel_hist.reshape(-1, 1),
        arrivals=arr_hist.reshape(-1, 1).copy(),
        services=(asel_hist * asvc_hist).reshape(-1, 1),
        targets=None,
        snapshots=None,
        final_state=None,
    )
    return trace, aux_trace


def ucb_queue_paths(
    instance: SingleQueueInstance,
    horizon: int,
    seeds,
    service_mode: str = "shared",
) -> np.ndarray:
    """Queue paths of single-queue UCB for many seeds, advanced in lockstep.

    Row i equals run_single(instance, "ucb", horizon, seeds[i],
    service_mode=service_mode).q[:, 0] bit for bit: each seed draws its
    own streams, 2 log t is one scalar per period, and the per-seed index
    arithmetic (/, sqrt, +, min, first-index argmax) is correctly rounded
    in numpy as in the scalar loop.  Seeds run in blocks of
    LOCKSTEP_BLOCK, so working memory beyond the returned (S, horizon+1)
    int64 array does not grow with the seed count.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if service_mode not in ("shared", "independent"):
        raise ValueError(f"unknown service_mode {service_mode!r}")
    seeds = [int(s) for s in seeds]
    paths = np.empty((len(seeds), horizon + 1), dtype=np.int64)
    for lo in range(0, len(seeds), LOCKSTEP_BLOCK):
        block = seeds[lo : lo + LOCKSTEP_BLOCK]
        _ucb_block(instance, block, service_mode, paths[lo : lo + len(block)])
    return paths


def _ucb_block(instance, seeds, service_mode, paths):
    """Fill paths, a (len(seeds), horizon+1) view, with one block's queue paths."""
    b, k = len(seeds), instance.k
    horizon = paths.shape[1] - 1
    mu = np.asarray(instance.mu, dtype=np.float64)
    arrive = np.array(
        [RandomSource(s, "arrival").uniforms(horizon) for s in seeds]
    ) <= instance.lam
    shape = (horizon,) if service_mode == "shared" else (horizon, k)
    u_srv = np.array([RandomSource(s, "service").uniforms(*shape) for s in seeds])

    counts = np.zeros((b, k), dtype=np.int64)
    succ = np.zeros((b, k), dtype=np.int64)
    q = np.zeros(b, dtype=np.int64)
    for t in range(1, horizon + 1):
        paths[:, t - 1] = q
        busy = np.flatnonzero(q)
        if busy.size:
            c = counts[busy]
            tried = c > 0
            idx = np.ones(c.shape)
            idx[tried] = np.minimum(
                1.0,
                succ[busy][tried] / c[tried] + np.sqrt(2.0 * math.log(t) / c[tried]),
            )
            j = idx.argmax(axis=1)
            u = u_srv[busy, t - 1] if service_mode == "shared" else u_srv[busy, t - 1, j]
            s = u <= mu[j]
            counts[busy, j] += 1
            succ[busy, j] += s
            q[busy] -= s
        q += arrive[:, t - 1]
    paths[:, horizon] = q


def run_network(
    instance: NetworkInstance | SingleQueueInstance,
    policy: str | PolicyHandle,
    horizon: int,
    seed: int,
    snapshot_stride: int | None = None,
) -> Trace:
    """Simulate the network dynamics with per-success transition draws.

    When at most one server can run per period the service draw reuses
    the single-queue shared uniform, so exit-only embeddings reproduce
    run_single traces bit for bit.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    net = as_network(instance)
    handle = _as_handle(policy)
    runner = Runner(handle, net)
    state = runner.state
    stride = _resolve_stride(snapshot_stride, horizon)
    k, n = net.k, net.n
    mu = list(net.mu)
    owner = list(net.server_queue)
    sched_rows = net.schedules.schedules
    sel_map = {}
    req_map = {}
    for sigma in sched_rows:
        sel = tuple(i for i, v in enumerate(sigma) if v)
        load: dict[int, int] = {}
        for srv in sel:
            load[owner[srv]] = load.get(owner[srv], 0) + 1
        sel_map[sigma] = sel
        req_map[sigma] = tuple(load.items())
    m_sigma = structure_constants(net).m_sigma
    exit_only = net.exit_only

    u_arr = RandomSource(seed, "arrival").uniforms(horizon).tolist()
    if m_sigma <= 1:
        u_shared = RandomSource(seed, "service").uniforms(horizon).tolist()
        u_per_srv = None
    else:
        u_shared = None
        u_per_srv = RandomSource(seed, "service").uniforms(horizon, k).tolist()
    u_tr = None if exit_only else RandomSource(seed, "transition").uniforms(horizon, k).tolist()
    cum_arr = list(net.arrivals.cumulative)
    arr_support = [tuple(r) for r in net.arrivals.support]
    arr_ones = [tuple(i for i, v in enumerate(r) if v) for r in arr_support]
    cum_tr = [list(np.cumsum(net.transitions[srv])) for srv in range(k)]

    q = [0] * n
    q_hist = np.empty((horizon + 1, n), dtype=np.int64)
    schedule = np.zeros((horizon, k), dtype=np.uint8)
    services = np.zeros((horizon, k), dtype=np.uint8)
    arrivals = np.zeros((horizon, n), dtype=np.uint8)
    targets = None if exit_only else np.full((horizon, k), -1, dtype=np.int16)
    snaps: list = []
    select = runner.select_schedule

    for t in range(1, horizon + 1):
        q_hist[t - 1] = q
        if state is not None and stride and (t - 1) % stride == 0:
            snaps.append((t, state.mu_hat, list(state.counts), state.r_hat))
        sigma = select(q, t)
        sel = sel_map.get(tuple(sigma))
        if sel is None:
            raise PolicyError(f"policy returned unknown schedule {sigma}")
        for qi, need in req_map[tuple(sigma)]:
            if q[qi] < need:
                raise PolicyError(
                    f"schedule {sigma} infeasible at t={t}: queue {qi} holds {q[qi]}"
                )
        row = t - 1
        for srv in sel:
            schedule[row, srv] = 1
            u = u_shared[row] if u_per_srv is None else u_per_srv[row][srv]
            s = 1 if u <= mu[srv] else 0
            target = None
            if s:
                services[row, srv] = 1
                q[owner[srv]] -= 1
                if not exit_only:
                    d = bisect_left(cum_tr[srv], u_tr[row][srv])
                    if d > n:
                        d = n
                    targets[row, srv] = d
                    if d < n:
                        q[d] += 1
                        target = d
            if state is not None:
                state.record(srv, s, target)
        ai = bisect_left(cum_arr, u_arr[row])
        if ai >= len(arr_support):
            ai = len(arr_support) - 1
        for qi in arr_ones[ai]:
            arrivals[row, qi] = 1
            q[qi] += 1
    q_hist[horizon] = q

    return Trace(
        instance=net,
        policy=handle.cli_name,
        seed=seed,
        horizon=horizon,
        q=q_hist,
        schedule=schedule,
        arrivals=arrivals,
        services=services,
        targets=targets,
        snapshots=_snapshots_from(snaps, k, n, True),
        final_state=state,
    )


def run(instance, policy, horizon, seed, snapshot_stride=None) -> Trace:
    """Dispatch to run_single or run_network by instance type."""
    if isinstance(instance, SingleQueueInstance):
        return run_single(instance, policy, horizon, seed, snapshot_stride)
    return run_network(instance, policy, horizon, seed, snapshot_stride)


def replay_error(trace: Trace) -> str | None:
    """Recompute the queue path from recorded events; None if it matches."""
    inst = trace.instance
    if isinstance(inst, SingleQueueInstance):
        owner = [0] * inst.k
        n = 1
    else:
        owner = list(inst.server_queue)
        n = inst.n
    h = trace.horizon
    dep = trace.services.astype(np.int64)
    own_mat = np.zeros((len(owner), n), dtype=np.int64)
    for srv, qi in enumerate(owner):
        own_mat[srv, qi] = 1
    served = dep @ own_mat
    moved = np.zeros((h, n), dtype=np.int64)
    if trace.targets is not None:
        rows, srvs = np.nonzero(dep)
        dests = trace.targets[rows, srvs]
        inside = dests < n
        np.add.at(moved, (rows[inside], dests[inside]), 1)
    expect = trace.q[:h] - served + trace.arrivals + moved
    bad = np.nonzero((expect != trace.q[1 : h + 1]).any(axis=1))[0]
    if bad.size:
        t = int(bad[0]) + 1
        return f"queue mismatch after period {t}: expected {expect[t - 1]}, recorded {trace.q[t]}"
    if (trace.q < 0).any():
        return "negative queue length recorded"
    return None


# --- CSV trace interchange ---------------------------------------------------


def _bitmask(row: np.ndarray) -> int:
    m = 0
    for i, v in enumerate(row):
        if v:
            m |= 1 << i
    return m


def trace_to_csv(trace: Trace, path: str) -> None:
    """Write the per-period event log; q columns are start-of-period."""
    inst = trace.instance
    n = 1 if isinstance(inst, SingleQueueInstance) else inst.n
    header = ["t"] + [f"q_{i}" for i in range(n)] + [
        "schedule",
        "arrivals",
        "services",
        "transitions",
    ]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for t in range(trace.horizon):
            if trace.targets is None:
                trans = ""
            else:
                pairs = [
                    f"{srv}>{trace.targets[t, srv]}"
                    for srv in np.nonzero(trace.services[t])[0]
                ]
                trans = ";".join(pairs)
            w.writerow(
                [t + 1]
                + [int(v) for v in trace.q[t]]
                + [
                    _bitmask(trace.schedule[t]),
                    _bitmask(trace.arrivals[t]),
                    _bitmask(trace.services[t]),
                    trans,
                ]
            )


def replay_csv_error(path: str, n: int, k: int, owner) -> str | None:
    """Replay a trace CSV row by row; None if every transition checks out.

    The first row must hold the empty start that every engine trace has.
    """
    with open(path) as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:1] != ["t"]:
        return "missing header"
    if len(rows) < 2:
        return "no data rows"
    prev_q = None
    prev_delta = None
    for line, row in enumerate(rows[1:], start=2):
        try:
            qv = [int(v) for v in row[1 : 1 + n]]
            sched = int(row[1 + n])
            arr = int(row[2 + n])
            svc = int(row[3 + n])
            moved = {}
            if row[4 + n]:
                for pair in row[4 + n].split(";"):
                    srv_s, dest_s = pair.split(">")
                    dest = int(dest_s)
                    if not 0 <= dest <= n:
                        raise ValueError(dest)
                    moved[int(srv_s)] = dest
        except (ValueError, IndexError):
            return f"line {line}: malformed row"
        if prev_q is None:
            if any(qv):
                return f"line {line}: queue vector {qv} is not the empty start"
        else:
            expect = list(prev_q)
            for i in range(n):
                expect[i] += prev_delta[i]
            if expect != qv:
                return f"line {line}: queue vector {qv} does not replay (expected {expect})"
        delta = [0] * n
        for i in range(n):
            if arr >> i & 1:
                delta[i] += 1
        for srv in range(k):
            if svc >> srv & 1:
                if not sched >> srv & 1:
                    return f"line {line}: service success on unscheduled server {srv}"
                delta[owner[srv]] -= 1
                dest = moved.get(srv)
                if dest is not None and dest < n:
                    delta[dest] += 1
        prev_q, prev_delta = qv, delta
    return None
