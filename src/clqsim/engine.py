"""Exact discrete-time dynamics with seeded, replayable randomness.

Per-period event order: read queue -> schedule -> service draws ->
transition draws -> arrival draws -> queue update.  All randomness is
pregenerated into per-stream arrays indexed by period (and server), so
draws are policy-independent and common-random-number pairing across
policies is automatic.
"""
from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .model import (
    NetworkInstance,
    SingleQueueInstance,
    as_network,
    structure_constants,
)
from .policies import PolicyError, PolicyHandle, PolicyState, feasible_schedules

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
) -> Trace:
    """Simulate the scalar-queue dynamics Q(t+1) = Q(t) - S_J(t) + A(t).

    One service uniform per period drives every server's indicator (the
    coupling construction).  snapshot_stride is accepted for compatibility
    and must be 0.
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
    u_srv = RandomSource(seed, "service").uniforms(horizon)

    if j is None:
        # The loop decides itself: round-robin, or (every learner reduces to
        # it on one queue) UCB with ucb_indices' arithmetic, a first-index
        # argmax by strict > where an untried server or the first index at
        # the clamp 1.0 wins at once.  A full scan's leader j runs a stretch
        # on locals while its index lies in (floor, 1.0) up to period until,
        # and the first busy period that fails goes back to the scan.  The
        # rivals' tallies stand and an index cannot fall while t grows, so
        # theirs stay below their bound at until (+1e-9 covers math.log's last
        # ulp).  floor starts at the runner-up's index, which that bound is
        # never below, so the bound waits until the leader's index tops it.
        periods = zip(range(1, horizon + 1), arrive.tolist(), u_srv.tolist())
        state, learning = PolicyState(k, 1), handle.learning
        counts, succ = state.counts, state.succ
        sqrt, log = math.sqrt, math.log
        made, rr, q = [0, 0], 0, 0
        for t, a, x in periods:
            while q:
                if not learning:
                    j, rr, until = rr % k, rr + 1, 0
                else:
                    two_log, best, floor, j = 2.0 * log(t), -1.0, -1.0, 0
                    for i, c in enumerate(counts):
                        if not c or (v := succ[i] / c + sqrt(two_log / c)) >= 1.0:
                            j, until = i, 0
                            break
                        if v > best:
                            floor, best, j = best, v, i
                        elif v > floor:
                            floor = v
                    else:
                        until, bounded = t + 1 + t // 256, False
                made += t, j
                counts[j] += 1
                if x <= mu[j]:
                    q -= 1
                    succ[j] += 1
                if not until:  # round-robin, or a scan that stopped at an untried or clamped server
                    break
                q, c, s, m = q + a, counts[j], succ[j], mu[j]
                for t, a, x in periods:
                    if q:
                        if t > until or not floor < (v := s / c + sqrt(2.0 * log(t) / c)) < 1.0:
                            break
                        if not bounded:
                            two_log, bounded = 2.0 * log(until), True
                            rivals = [succ[i] / n + sqrt(two_log / n) for i, n in enumerate(counts) if i != j]
                            if v <= (floor := max(rivals, default=-1.0) + 1e-9):
                                break
                        c += 1
                        if x <= m:
                            q -= 1
                            s += 1
                    q += a
                else:
                    q = 0  # the horizon is done; the path is rebuilt below
                counts[j], succ[j] = c, s
            q += a
        # Only decisions are recorded, after a sentinel (0, 0): a busy period's
        # server is the latest decision's, and _lindley ignores S(t) at Q(t) = 0.
        made = np.fromiter(made, np.int64, len(made)).reshape(-1, 2)
        j = np.repeat(made[:, 1], np.diff(made[:, 0], append=horizon + 1))[1:]
    q_hist = _lindley(arrive, u_srv <= np.array(mu)[j])
    srv_hist = np.where(q_hist[:horizon] > 0, j, -1)

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
    sc = structure_constants(net)
    exit_only = net.exit_only

    # Arrival rows, service outcomes and transition destinations are lookups
    # of policy-independent uniforms, so they are drawn for every period up
    # front: outcomes[row][srv] is -1 where srv's service would fail, else the
    # queue its job moves to (n: it exits).
    u_arr = RandomSource(seed, "arrival").uniforms(horizon)
    # One shared uniform per period, as run_single draws, when m_sigma <= 1.
    ok = RandomSource(seed, "service").uniforms(horizon, 1 if sc.m_sigma <= 1 else k) <= np.array(mu)
    support = np.array(net.arrivals.support, dtype=np.uint8)
    arr_idx = np.minimum(np.searchsorted(net.arrivals.cumulative, u_arr), len(support) - 1)
    arr_ones = [tuple(i for i, v in enumerate(r) if v) for r in support.tolist()]
    dest = n
    if not exit_only:
        u_tr = RandomSource(seed, "transition").uniforms(horizon, k)
        cum_tr = [np.cumsum(net.transitions[srv]) for srv in range(k)]
        dest = np.minimum([np.searchsorted(cum_tr[srv], u_tr[:, srv]) for srv in range(k)], n).T
    outcomes = np.where(ok, dest, -1).tolist()

    # The loop decides itself, by row of the schedule table.  round-robin,
    # fixed and oracle-best run one server's singleton row when it exists and
    # that server's queue is non-empty, else the zero schedule; round-robin's
    # pointer stands while the system is empty.  The others take the first
    # feasible row of largest summed per-server gain: rate * Q(owner) less,
    # for BackPressure, the sum over queues d in ascending order of the
    # transition rate to d times Q(d).  The oracles use true rates, the
    # learners the UCB rate min(1, s/c + sqrt(2 log t / c)), 1 while untried,
    # and the LCB max(0, r/c - sqrt(2 log t / c)), one sqrt per server.  A
    # per-run memo on the exact q holds the chosen row where it depends on q
    # alone (an oracle's, or a lone candidate row's), else the candidate rows
    # and the (server, owner) pairs in them, from a per-run dict on q clipped
    # at table.cap that scans (feasible_schedules) once per clipped q.
    # Candidates are the feasible rows; under prune (ucb, mw-ucb) only the
    # maximal ones, no proper subset of another.  From period 2 on (q(1) = 0)
    # each of their gains is at least sqrt(2 log 2 / (c0 + H)), c0 the
    # largest starting count, so a proper superset outweighs a row even in
    # floats: a sum of m_sigma gains, each at most m_arr * H, errs by at most
    # gamma_(m_sigma - 1) * m_sigma * m_arr * H, and prune's guard keeps two
    # such errors below that least gain.  So the first heaviest row is
    # maximal.  Other exact shortcuts: gains are summed only for servers in a
    # candidate row; a penalty reads only the destinations whose tally is
    # non-zero (nz, ascending), as a zero tally adds nothing.
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
    nz = [[d for d, x in enumerate(row) if x] for row in trans]
    servers, demand = table.servers, table.demand
    gain, memo, clipped, rr = [0.0] * k, {}, {}, 0
    sqrt, log = math.sqrt, math.log
    prune = v in ("ucb", "mw-ucb") and sc.m_sigma**2 * sc.m_arr * horizon * sqrt(max(counts) + horizon) < 2**50
    q, q_flat, sched_rows = [0] * n, [], []

    for t, ai, out in zip(range(1, horizon + 1), arr_idx.tolist(), outcomes):
        q_flat += q
        if j is not None:
            if rotate and any(q):
                j, rr = rr % k, rr + 1
            r = lone[j] if q[owner[j]] else idle
        else:
            if (r := memo.get(key := tuple(q))) is None:
                if (r := clipped.get(clip := tuple(map(min, q, table.cap)))) is None:
                    fits = [(ri, servers[ri]) for ri in map(table.row.get, feasible_schedules(table, q))]
                    masks = [sum(1 << s for s in sel) for _, sel in fits] if prune else []
                    # Under prune, the rows no proper subset (a & b == a != b) of another; else fits.
                    top = [f for f, a in zip(fits, masks) if not any(a & b == a != b for b in masks)] or fits
                    act = sorted({(srv, owner[srv]) for _, sel in top for srv in sel})
                    r = clipped[clip] = top[0][0] if len(top) == 1 else (top, act)
                memo[key] = r
            if r.__class__ is tuple:
                fits, act = r
                if oracle:
                    for srv, o in act:
                        pen = 0.0
                        for d, x in low_true[srv]:
                            pen += x * q[d]
                        gain[srv] = mu[srv] * q[o] - pen
                elif bp:
                    two_log = 2.0 * log(t)
                    for srv, o in act:
                        if c := counts[srv]:
                            root, pen, row = sqrt(two_log / c), 0.0, trans[srv]
                            for d in nz[srv]:
                                if (lcb := row[d] / c - root) > 0.0:
                                    pen += lcb * q[d]
                            g = succ[srv] / c + root
                            gain[srv] = (g if g < 1.0 else 1.0) * q[o] - pen
                        else:
                            gain[srv] = 1.0 * q[o]
                else:
                    two_log = 2.0 * log(t)
                    for srv, o in act:
                        if c := counts[srv]:
                            g = succ[srv] / c + sqrt(two_log / c)
                            gain[srv] = (g if g < 1.0 else 1.0) * q[o]
                        else:
                            gain[srv] = 1.0 * q[o]
                best = -math.inf
                for ri, sel in fits:
                    w = 0.0
                    for srv in sel:
                        w += gain[srv]
                    if w > best:
                        best, r = w, ri
                if oracle:
                    memo[key] = r
        for qi, need in demand[r]:
            if q[qi] < need:
                raise PolicyError(
                    f"schedule {table.schedules[r]} infeasible at t={t}: queue {qi} holds {q[qi]}"
                )
        sched_rows.append(r)
        for srv in servers[r]:
            counts[srv] += 1
            if (d := out[srv]) >= 0:
                succ[srv] += 1
                q[owner[srv]] -= 1
                if d < n:
                    q[d] += 1
                    trans[srv][d] += 1
                    if trans[srv][d] == 1:
                        insort(nz[srv], d)
        for qi in arr_ones[ai]:
            q[qi] += 1
    q_flat += q

    schedule = np.array(table.schedules, dtype=np.uint8)[sched_rows]
    services = schedule & ok
    return Trace(
        instance=net,
        policy=policy,
        seed=seed,
        horizon=horizon,
        q=np.array(q_flat, dtype=np.int64).reshape(horizon + 1, n),
        schedule=schedule,
        arrivals=support[arr_idx],
        services=services,
        targets=None if exit_only else np.where(services == 1, dest, -1).astype(np.int16),
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


def trace_csv_text(trace: Trace) -> str:
    """The trace CSV format, with LF line ends: a header, then per period t
    the start-of-period queue lengths q_i, the schedule/arrival/service
    bitmasks (_masks) and "srv>dest;..." per successful service (empty on
    exit-only systems), all rows in one %-format pass."""
    h, n = trace.horizon, trace.q.shape[1]
    header = ["t", *(f"q_{i}" for i in range(n)), "schedule", "arrivals", "services", "transitions"]
    k = len(header)
    cells = [""] * (h * k)  # row by row; a transitions cell stays "" unless it is set
    cells[0::k] = range(1, h + 1)
    for i, col in enumerate(trace.q[:h].T.tolist(), 1):
        cells[i::k] = col
    for i, events in enumerate((trace.schedule, trace.arrivals, trace.services), n + 1):
        cells[i::k] = _masks(events)
    if trace.targets is not None:
        rows, srvs = np.nonzero(trace.services)
        for r, srv, dest in zip(rows.tolist(), srvs.tolist(), trace.targets[rows, srvs].tolist()):
            j = r * k + k - 1
            cells[j] += f";{srv}>{dest}" if cells[j] else f"{srv}>{dest}"
    cells = tuple(cells)  # frees the list before the format allocates
    return (",".join(header) + "\n" + ("%d," * (k - 1) + "%s\n") * h) % cells


def trace_to_csv(trace: Trace, path: str) -> None:
    """Write trace_csv_text(trace) with CRLF line ends."""
    with open(path, "w", newline="\r\n") as fh:
        fh.write(trace_csv_text(trace))


def replay_csv_error(path: str, trace: Trace) -> str | None:
    """Compare a trace CSV, read with universal newlines, with
    trace_csv_text(trace), diagnosing a mismatch line by line; None if the
    lines are equal.  replay_error vouches that the re-run trace replays, so
    a file equal to its rendering replays too."""
    text = trace_csv_text(trace)
    with open(path) as fh:
        got = fh.read()
    if got == text:
        return None
    got, want = got.splitlines(), text.splitlines()
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
