"""Exact discrete-time dynamics with seeded, replayable randomness.

Per-period event order: read queue -> schedule -> service draws ->
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
    structure_constants,
)
from .policies import PolicyError, PolicyHandle, PolicyState, feasible_rows

STREAM_IDS = {"arrival": 0, "service": 1, "transition": 2, "policy": 3}
# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h) in 64-bit limbs.
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
# _pcg64_block draws rows of at most BLOCK_DRAWS in blocks of at least
# BLOCK_SEEDS_PER_DRAW seeds per draw: it costs 40-60 us per draw plus 27 ns per
# draw and seed, numpy's PCG64 5-7 us per seed (crossover near 16 seeds a draw).
BLOCK_DRAWS = 32
BLOCK_SEEDS_PER_DRAW = 16


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
    _pcg64_block draws rows of at most BLOCK_DRAWS when the block holds at
    least BLOCK_SEEDS_PER_DRAW seeds per draw; numpy's PCG64 draws the rest."""
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
    draws = out.shape[1]
    if draws <= BLOCK_DRAWS and len(seeds) >= BLOCK_SEEDS_PER_DRAW * draws:
        _pcg64_block(words, out)
    else:
        for w, row in zip(words, out):
            np.random.Generator(np.random.PCG64(_SeedWords(w))).random(out=row)
    return out.reshape(len(seeds), *shape)


def _lindley(arrive: np.ndarray, served: np.ndarray) -> np.ndarray:
    """Queue paths of Q(t+1) = max(Q(t) - S(t), 0) + A(t) from Q(1) = 0, along
    the last axis of 0/1 arrivals A and service outcomes S (h periods each);
    the result holds Q(1..h+1).  R(t) = Q(t+1) - A(t) is the Lindley recursion
    R(t) = max(R(t-1) + A(t-1) - S(t), 0), R(0) = 0: R(t) = C(t) - min(0,
    min_{m<=t} C(m)) for C the running sum, where the 0 drops out as
    C(1) = -S(1) <= 0."""
    step = -served.astype(np.int64)
    step[..., 1:] += arrive[..., :-1]
    c = np.cumsum(step, axis=-1)
    q = np.zeros((*c.shape[:-1], c.shape[-1] + 1), dtype=np.int64)
    q[..., 1:] = c - np.minimum.accumulate(c, axis=-1) + arrive
    return q


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

    def l1(self) -> np.ndarray:
        """Total queue length per period, t = 1..horizon."""
        return self.q[: self.horizon].sum(axis=1)


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
    snapshot_stride is accepted for compatibility and must be 0.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if snapshot_stride != 0:
        raise ValueError("snapshot_stride must be 0: runs record no snapshots")
    k = instance.k
    mu = list(instance.mu)
    handle = PolicyHandle.parse(policy)
    j = handle.server(instance)

    arrive = (RandomSource(seed, "arrival").uniforms(horizon) <= instance.lam).astype(np.int64)
    if service_mode not in ("shared", "independent"):
        raise ValueError(f"unknown service_mode {service_mode!r}")
    shared = service_mode == "shared"
    u_srv = RandomSource(seed, "service").uniforms(*((horizon,) if shared else (horizon, k)))

    if j is not None:
        q_hist = _lindley(arrive, (u_srv if shared else u_srv[:, j]) <= mu[j])
        srv_hist = np.where(q_hist[:horizon] > 0, j, -1)
    else:
        # The loop decides itself: round-robin, or (every learner reduces to
        # it on one queue) UCB with ucb_indices' arithmetic, a first-index
        # argmax by strict > where an untried server or the first index at
        # the clamp 1.0 wins at once.  A full scan bounds the other indices
        # up to period until (an index cannot fall while t grows and its
        # tallies stand; 1e-9 covers math.log's last ulp), so while alone (no
        # other server pulled since), a leader index in (bound, 1.0) wins.
        u_srv = u_srv.tolist()
        q_list = [0] * (horizon + 1)
        srv_list = [-1] * horizon
        state, learning = PolicyState(k, 1), handle.learning
        counts, succ = state.counts, state.succ
        sqrt, log = math.sqrt, math.log
        until, bound, lead, alone, rr, q = 0, 1.0, 0, False, 0, 0
        for t, a in enumerate(arrive.tolist(), 1):
            if q:
                if not learning:
                    j = rr % k
                    rr += 1
                elif (
                    t <= until
                    and alone
                    and bound < succ[lead] / (c := counts[lead]) + sqrt(2.0 * log(t) / c) < 1.0
                ):
                    j = lead
                else:
                    two_log, best, j = 2.0 * log(t), -1.0, 0
                    for i, c in enumerate(counts):
                        if not c or (v := succ[i] / c + sqrt(two_log / c)) >= 1.0:
                            j = i
                            break
                        if v > best:
                            best, j = v, i
                    else:
                        until = t + 1 + t // 256
                        two_log = 2.0 * log(until)
                        rivals = [succ[i] / c + sqrt(two_log / c) for i, c in enumerate(counts) if i != j]
                        bound, lead, alone = max(rivals, default=-1.0) + 1e-9, j, True
                srv_list[t - 1] = j
                counts[j] += 1
                if (u_srv[t - 1] if shared else u_srv[t - 1][j]) <= mu[j]:
                    q -= 1
                    succ[j] += 1
                if j != lead:
                    alone = False
            q += a
            q_list[t] = q
        q_hist = np.array(q_list, dtype=np.int64)
        srv_hist = np.array(srv_list, dtype=np.int64)

    # Q(t+1) = Q(t) - S(t) + A(t) gives each busy period's service outcome.
    svc_hist = q_hist[:-1] - q_hist[1:] + arrive
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
    )


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
    if snapshot_stride != 0:
        raise ValueError("snapshot_stride must be 0: runs record no snapshots")
    net = as_network(instance)
    handle = PolicyHandle.parse(policy)
    fixed = handle.server(net)
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

    # The loop decides itself, by row of the schedule table.  round-robin,
    # fixed and oracle-best run one server's singleton row when it exists and
    # that server's queue is non-empty, else the zero schedule; round-robin's
    # pointer stands while the system is empty.  The others take the first
    # feasible row (policies.feasible_rows) of largest summed per-server gain:
    # rate * Q(owner) less, for BackPressure, the sum over queues d in
    # ascending order of the transition rate to d times Q(d).  The oracles use
    # true rates, so their choice depends on q alone and is memoised per run.
    # The learners use the UCB rate min(1, s/c + sqrt(2 log t / c)), 1 while
    # untried, and the LCB max(0, r/c - sqrt(2 log t / c)), one sqrt per
    # server.  Shortcuts, all exact: a lone feasible row needs no gains; a
    # server with an empty queue is in no feasible row; a zero rate adds +0.0
    # to a penalty that is never -0.0.
    idle = table.row.get((0,) * k)
    if idle is None:
        raise PolicyError("schedule set lacks the all-zero schedule")
    v = handle.variant
    rotate = v == "round-robin"
    j = 0 if rotate else fixed
    lone = [table.row.get(tuple(int(i == s) for i in range(k)), idle) for s in range(k)]
    oracle, bp = v in ("oracle-mw", "oracle-bp"), v in ("bp-ucb", "oracle-bp")
    low_true = [
        [(d, mu[srv] * p) for d, p in enumerate(net.transitions[srv][:n]) if mu[srv] * p] if bp else ()
        for srv in range(k)
    ]
    state = PolicyState(k, n)
    counts, succ, trans = state.counts, state.succ, state.trans
    servers, demand, memo, cap = table.servers, table.demand, table.memo, table.cap
    gain, chosen, rr = [0.0] * k, {}, 0
    sqrt, log = math.sqrt, math.log
    q = [0] * n
    q_rows, sched_rows, served = [], [], []

    for row, ai in enumerate(arr_idx.tolist()):
        t = row + 1
        q_rows.append(q[:])
        if j is not None:
            if rotate and any(q):
                j, rr = rr % k, rr + 1
            r = lone[j] if q[owner[j]] else idle
        elif not oracle or (r := chosen.get(key := tuple(q))) is None:
            fits = memo.get(tuple(map(min, q, cap))) or feasible_rows(table, q)
            if len(fits) == 1:
                r = fits[0][0]
            else:
                two_log = 0.0 if oracle else 2.0 * log(t)
                for srv, o in enumerate(owner):
                    if not q[o]:
                        continue
                    pen = 0.0
                    if oracle:
                        g = mu[srv] * q[o]
                        for d, x in low_true[srv]:
                            pen += x * q[d]
                    elif c := counts[srv]:
                        root = sqrt(two_log / c)
                        g = succ[srv] / c + root
                        g = (g if g < 1.0 else 1.0) * q[o]
                        if bp:
                            for d, x in enumerate(trans[srv]):
                                if x and (lcb := x / c - root) > 0.0:
                                    pen += lcb * q[d]
                    else:
                        g = 1.0 * q[o]
                    gain[srv] = g - pen
                best = -math.inf
                for ri, sel in fits:
                    w = 0.0
                    for srv in sel:
                        w += gain[srv]
                    if w > best:
                        best, r = w, ri
            if oracle:
                chosen[key] = r
        for qi, need in demand[r]:
            if q[qi] < need:
                raise PolicyError(
                    f"schedule {table.schedules[r]} infeasible at t={t}: queue {qi} holds {q[qi]}"
                )
        sched_rows.append(r)
        for srv in servers[r]:
            counts[srv] += 1
            if (u_srv[row] if shared else u_srv[row][srv]) <= mu[srv]:
                served.append(row * k + srv)
                succ[srv] += 1
                q[owner[srv]] -= 1
                if dest_rows is not None and (d := dest_rows[row][srv]) < n:
                    q[d] += 1
                    trans[srv][d] += 1
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
    """Per-row bitmask of a 0/1 event array with at least one column: bit i
    is column i.  Rows pack into little-endian 64-bit limbs, which combine
    as Python ints, so any column count is exact."""
    packed = np.packbits(events, axis=1, bitorder="little")
    limbs = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view("<u8")
    masks, *rest = limbs.T.tolist()
    for i, limb in enumerate(rest, 1):
        masks = [m | v << 64 * i for m, v in zip(masks, limb)]
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
