"""Exact discrete-time dynamics with seeded, replayable randomness.

Per-period event order: observe queue -> schedule -> service draws ->
transition draws -> arrival draws -> queue update.  All randomness is
pregenerated into per-stream arrays indexed by period (and server), so
draws are policy-independent and common-random-number pairing across
policies is automatic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .model import (
    NetworkInstance,
    SingleQueueInstance,
    as_network,
    slackness_single,
    structure_constants,
)
from .policies import PolicyError, PolicyHandle, PolicyState, Runner

STREAM_IDS = {"arrival": 0, "service": 1, "transition": 2, "policy": 3}
LOCKSTEP_BLOCK = 1024  # seeds per block of ucb_queue_paths
# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h) in 64-bit limbs.
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
# Rows of at most this many draws are drawn by _pcg64_block.  On 1024 seeds it
# costs about 27 ns per draw and seed, and numpy's PCG64 about 1.6 us per seed.
BLOCK_DRAWS = 32


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
class _SeedWords(ISeedSequence):
    """PCG64 seed words, computed ahead by seed_block_uniforms."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """(hi:lo) * _PCG + (inc_hi:inc_lo) mod 2**128 on uint64 limbs; the high
    limb of lo * _PCG_LO is summed from 32-bit partial products."""
    l0, l1, m0, m1 = lo & 0xFFFFFFFF, lo >> 32, _PCG_LO & 0xFFFFFFFF, _PCG_LO >> 32
    p01, p10 = l0 * m1, l1 * m0
    mid = (l0 * m0 >> 32) + (p01 & 0xFFFFFFFF) + (p10 & 0xFFFFFFFF)
    hi = hi * _PCG_LO + lo * _PCG_HI + l1 * m1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    lo = lo * _PCG_LO + inc_lo
    return hi + inc_hi + (lo < inc_lo), lo


def _pcg64_block(words: np.ndarray, out: np.ndarray) -> None:
    """Fill out's (seeds, draws) rows as numpy's PCG64(words[i]).random does:
    per draw an LCG step, the XSL-RR output and (x >> 11) * 2**-53."""
    w0, w1, w2, w3 = words.T
    inc = ((w2 << 1) | (w3 >> 63), (w3 << 1) | 1)
    lo = inc[1] + w1  # pcg_setseq_128_srandom_r: state 0, step, add w0:w1, step
    hi, lo = _pcg64_step(inc[0] + w0 + (lo < w1), lo, *inc)
    for d in range(out.shape[1]):
        hi, lo = _pcg64_step(hi, lo, *inc)
        x, rot = hi ^ lo, hi >> 58
        out[:, d] = ((x >> rot) | (x << ((64 - rot) & 63))) >> 11
    out *= 2.0**-53


def seed_block_uniforms(seeds, stream: str, *shape: int) -> np.ndarray:
    """Row i is RandomSource(seeds[i], stream).uniforms(*shape), bit for bit.
    Below 2**128 every seed's SeedSequence entropy is four 32-bit words and
    the stream id, so the hash runs once per block in uint32 numpy arithmetic.
    _pcg64_block draws rows of at most BLOCK_DRAWS, numpy's PCG64 longer ones."""
    seeds = [int(s) for s in seeds]
    if any(s < 0 or s >> 128 for s in seeds):
        raise ValueError("seeds must lie in [0, 2**128)")
    sid = STREAM_IDS[stream].to_bytes(4, "little")
    raw = b"".join(s.to_bytes(16, "little") + sid for s in seeds)
    entropy = np.frombuffer(raw, dtype="<u4").reshape(-1, 5).T.astype(np.uint32)
    h = _INIT_A

    def hashmix(v, mult=_MULT_A):
        nonlocal h
        v, h = v ^ h, h * mult & 0xFFFFFFFF
        v = v * h
        return v ^ (v >> 16)

    # Mix every pool word into every other, then the spawn-key word into each.
    pool = [hashmix(e) for e in entropy[:4]] + [entropy[4]]
    for src, dst in [(s, d) for s in range(5) for d in range(4) if s != d]:
        r = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
        pool[dst] = r ^ (r >> 16)
    h = _INIT_B  # generate_state(4, np.uint64): eight words, read as little-endian pairs
    state = np.stack([hashmix(pool[i % 4], _MULT_B) for i in range(8)], axis=1)
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    out = np.empty((len(seeds), math.prod(shape)))
    if out.shape[1] <= BLOCK_DRAWS:
        _pcg64_block(words, out)
    else:
        for w, row in zip(words, out):
            np.random.Generator(np.random.PCG64(_SeedWords(w))).random(out=row)
    return out.reshape(len(seeds), *shape)


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


def _snapshots_from(parts: list) -> Snapshots | None:
    """Stack (period, mu_hat, counts, r_hat) rows; r_hat is None on a single queue."""
    if not parts:
        return None
    periods = np.array([p[0] for p in parts], dtype=np.int64)
    mu_hat = np.array([p[1] for p in parts], dtype=np.float64)
    counts = np.array([p[2] for p in parts], dtype=np.int64)
    with_r = parts[0][3] is not None
    r_hat = np.array([p[3] for p in parts], dtype=np.float64) if with_r else None
    return Snapshots(periods=periods, mu_hat=mu_hat, counts=counts, r_hat=r_hat)


def run_single(
    instance: SingleQueueInstance,
    policy: str,
    horizon: int,
    seed: int,
    snapshot_stride: int = 0,
    service_mode: str = "shared",
) -> Trace:
    """Simulate the scalar-queue dynamics Q(t+1) = Q(t) - S_J(t) + A(t).

    service_mode "shared" drives all server indicators off one uniform
    per period (the coupling construction); "independent" draws one
    uniform per (period, server) instead.  Both have the same law.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    k = instance.k
    mu = list(instance.mu)
    runner = Runner(PolicyHandle.parse(policy), instance)
    state = runner.state

    arrive = (RandomSource(seed, "arrival").uniforms(horizon) <= instance.lam).astype(np.int64)
    if service_mode not in ("shared", "independent"):
        raise ValueError(f"unknown service_mode {service_mode!r}")
    shared = service_mode == "shared"
    u_srv = RandomSource(seed, "service").uniforms(*((horizon,) if shared else (horizon, k)))
    snaps: list = []

    if runner.fixed_server is not None:
        # Q(t+1) = max(Q(t) - S(t), 0) + A(t), so R(t) = Q(t+1) - A(t) is the
        # Lindley recursion R(t) = max(R(t-1) + A(t-1) - S(t), 0), R(0) = 0:
        # R(t) = C(t) - min(0, min_{m<=t} C(m)) for C the running sum, where
        # the 0 drops out as C(1) = -S(1) <= 0.
        j = runner.fixed_server
        svc_hist = ((u_srv if shared else u_srv[:, j]) <= mu[j]).astype(np.int64)
        step = -svc_hist
        step[1:] += arrive[:-1]
        c = np.cumsum(step)
        q_hist = np.zeros(horizon + 1, dtype=np.int64)
        q_hist[1:] = c - np.minimum.accumulate(c) + arrive
        srv_hist = np.where(q_hist[:horizon] > 0, j, -1)
    else:
        u_srv = u_srv.tolist()
        arr_list = arrive.tolist()
        q_list = [0] * (horizon + 1)
        srv_list = [-1] * horizon
        svc_list = [0] * horizon
        stride = snapshot_stride if state is not None else 0
        select = runner.select_server
        q = 0
        for t in range(1, horizon + 1):
            if stride and (t - 1) % stride == 0:
                snaps.append((t, state.mu_hat, list(state.counts), None))
            if q > 0:
                j = select(q, t)
                if j is not None:
                    if not 0 <= j < k:
                        raise PolicyError(f"policy chose server {j} outside 0..{k - 1}")
                    u = u_srv[t - 1] if shared else u_srv[t - 1][j]
                    s = 1 if u <= mu[j] else 0
                    srv_list[t - 1] = j
                    svc_list[t - 1] = s
                    if state is not None:
                        state.record(j, s, None)
                    q -= s
            q += arr_list[t - 1]
            q_list[t] = q
        q_hist = np.array(q_list, dtype=np.int64)
        srv_hist = np.array(srv_list, dtype=np.int64)
        svc_hist = np.array(svc_list, dtype=np.uint8)

    rows = np.nonzero(srv_hist >= 0)[0]
    schedule = np.zeros((horizon, k), dtype=np.uint8)
    services = np.zeros((horizon, k), dtype=np.uint8)
    schedule[rows, srv_hist[rows]] = 1
    services[rows, srv_hist[rows]] = svc_hist[rows]
    return Trace(
        instance=instance,
        policy=policy,
        seed=seed,
        horizon=horizon,
        q=q_hist.reshape(-1, 1),
        schedule=schedule,
        arrivals=arrive.astype(np.uint8).reshape(-1, 1),
        services=services,
        targets=None,
        snapshots=_snapshots_from(snaps),
        final_state=state,
    )


def run_coupled_single(
    instance: SingleQueueInstance,
    policy: str,
    horizon: int,
    seed: int,
) -> CoupledPair:
    """Run the policy queue and the auxiliary queue on shared uniforms.

    The auxiliary queue is the one-server instance of rate mu* - eps/2
    under oracle-best with the same seed, so it reads the policy run's
    arrival uniforms and its per-period shared service uniform.
    """
    eps = slackness_single(instance)
    if eps <= 0:
        raise ValueError(f"coupling needs a stabilizable instance, slackness={eps}")
    aux = SingleQueueInstance(k=1, lam=instance.lam, mu=(instance.mu_star - eps / 2.0,))
    return CoupledPair(
        primary=run_single(instance, policy, horizon, seed),
        auxiliary=run_single(aux, "oracle-best", horizon, seed),
        epsilon=eps,
    )


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
    int64 array does not grow with the seed count.  Seeds lie in [0, 2**128).
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
    arrive = seed_block_uniforms(seeds, "arrival", horizon) <= instance.lam
    shape = (horizon,) if service_mode == "shared" else (horizon, k)
    u_srv = seed_block_uniforms(seeds, "service", *shape)

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
    policy: str,
    horizon: int,
    seed: int,
    snapshot_stride: int = 0,
) -> Trace:
    """Simulate the network dynamics with per-success transition draws.

    When at most one server can run per period the service draw reuses
    the single-queue shared uniform, so exit-only embeddings reproduce
    run_single traces bit for bit.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    net = as_network(instance)
    runner = Runner(PolicyHandle.parse(policy), net)
    state = runner.state
    k, n = net.k, net.n
    mu = list(net.mu)
    owner = list(net.server_queue)
    table = net.schedule_table
    m_sigma = structure_constants(net).m_sigma
    exit_only = net.exit_only

    # Arrival rows and transition destinations are inverse-CDF lookups of
    # policy-independent uniforms, so they are drawn for every period up front.
    u_arr = RandomSource(seed, "arrival").uniforms(horizon)
    shared = m_sigma <= 1
    shape = (horizon,) if shared else (horizon, k)
    u_srv = RandomSource(seed, "service").uniforms(*shape).tolist()
    support = np.array(net.arrivals.support, dtype=np.uint8)
    arr_idx = np.minimum(np.searchsorted(net.arrivals.cumulative, u_arr), len(support) - 1)
    arr_ones = [tuple(i for i, v in enumerate(r) if v) for r in support.tolist()]
    dest = dest_rows = None
    if not exit_only:
        u_tr = RandomSource(seed, "transition").uniforms(horizon, k)
        cum_tr = [np.cumsum(net.transitions[srv]) for srv in range(k)]
        dest = np.minimum([np.searchsorted(cum_tr[srv], u_tr[:, srv]) for srv in range(k)], n).T
        dest_rows = dest.tolist()

    q = [0] * n
    q_rows, sched_rows, served, snaps = [], [], [], []
    stride = snapshot_stride if state is not None else 0
    select = runner.select_schedule

    for row, ai in enumerate(arr_idx.tolist()):
        t = row + 1
        q_rows.append(q[:])
        if stride and row % stride == 0:
            snaps.append((t, state.mu_hat, list(state.counts), state.r_hat))
        sigma = select(q, t)
        r = table.row.get(tuple(sigma))
        if r is None:
            raise PolicyError(f"policy returned unknown schedule {sigma}")
        for qi, need in table.demand[r]:
            if q[qi] < need:
                raise PolicyError(
                    f"schedule {sigma} infeasible at t={t}: queue {qi} holds {q[qi]}"
                )
        sched_rows.append(r)
        for srv in table.servers[r]:
            u = u_srv[row] if shared else u_srv[row][srv]
            s = 1 if u <= mu[srv] else 0
            target = None
            if s:
                served.append(row * k + srv)
                q[owner[srv]] -= 1
                if dest_rows is not None:
                    d = dest_rows[row][srv]
                    if d < n:
                        q[d] += 1
                        target = d
            if state is not None:
                state.record(srv, s, target)
        for qi in arr_ones[ai]:
            q[qi] += 1
    q_rows.append(q)

    services = np.zeros((horizon, k), dtype=np.uint8)
    services.reshape(-1)[served] = 1
    return Trace(
        instance=net,
        policy=policy,
        seed=seed,
        horizon=horizon,
        q=np.array(q_rows, dtype=np.int64),
        schedule=np.array(table.schedules, dtype=np.uint8)[sched_rows],
        arrivals=support[arr_idx],
        services=services,
        targets=None if dest is None else np.where(services == 1, dest, -1).astype(np.int16),
        snapshots=_snapshots_from(snaps),
        final_state=state,
    )


def run(instance, policy, horizon, seed, snapshot_stride=0) -> Trace:
    """Dispatch to run_single or run_network by instance type."""
    if isinstance(instance, SingleQueueInstance):
        return run_single(instance, policy, horizon, seed, snapshot_stride)
    return run_network(instance, policy, horizon, seed, snapshot_stride)


def replay_error(trace: Trace) -> str | None:
    """Recompute the queue path from recorded events; None if it matches."""
    net = as_network(trace.instance)
    owner, n = net.server_queue, net.n
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


def _masks(events: np.ndarray) -> list[int]:
    """Per-row bitmask of a 0/1 event array: bit i is column i."""
    masks = [0] * events.shape[0]
    rows, cols = np.nonzero(events)
    for r, c in zip(rows.tolist(), cols.tolist()):
        masks[r] |= 1 << c
    return masks


def trace_csv_lines(trace: Trace) -> list[str]:
    """The trace CSV format: a header, then per period t the start-of-period
    queue lengths q_i, the schedule/arrival/service bitmasks (_masks) and
    "srv>dest;..." per successful service (empty on exit-only systems)."""
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


def trace_to_csv(trace: Trace, path: str) -> None:
    """Write trace_csv_lines(trace) with CRLF line ends."""
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(trace_csv_lines(trace)) + "\r\n")


def replay_csv_error(path: str, trace: Trace) -> str | None:
    """Compare a trace CSV, read with universal newlines, line by line with
    trace_csv_lines(trace); None if equal.  replay_error vouches that the
    re-run trace replays, so a file equal to its rendering replays too."""
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
