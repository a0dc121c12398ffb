"""Instance families used by the experiments and the generators' tests."""
from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .model import (
    ArrivalModel,
    NetworkInstance,
    ScheduleSet,
    SingleQueueInstance,
    single_to_network,
    slackness_solver,
    validate_instance,
)


class ParameterError(ValueError):
    """Family parameters outside the supported range."""


class GenerationFailed(RuntimeError):
    """Random search exhausted its retry budget."""


def figure1_instance() -> SingleQueueInstance:
    """Five heterogeneous servers, arrival rate 0.45, slackness 0.10."""
    return SingleQueueInstance(k=5, lam=0.45, mu=(0.045, 0.35, 0.35, 0.35, 0.55))


def lower_bound_family(k: int, epsilon: float) -> list[SingleQueueInstance]:
    """K hard instances sharing lam = 1/2, plus the uniform one.

    Instance i upgrades server i to 1/2 + epsilon while the rest sit at
    1/2 - epsilon, so slackness is exactly epsilon; the uniform member
    (all servers slow) is not stabilizable.
    """
    if not 0.0 < epsilon <= 0.25:
        raise ParameterError("epsilon must lie in (0, 0.25]")
    if k < 1:
        raise ParameterError("need at least one server")
    lam = 0.5
    slow = 0.5 - epsilon
    fast = 0.5 + epsilon
    out = []
    for i in range(k):
        mu = [slow] * k
        mu[i] = fast
        out.append(SingleQueueInstance(k=k, lam=lam, mu=tuple(mu)))
    out.append(SingleQueueInstance(k=k, lam=lam, mu=tuple([slow] * k)))
    return out


def tandem_instance(n: int, mu: tuple[float, ...], lambda0: float) -> NetworkInstance:
    """Line of n queues, one server each; server i feeds queue i+1 and the
    last one exits. External arrivals hit queue 0 only."""
    if n < 1 or len(mu) != n:
        raise ParameterError("need one service rate per queue")
    if not 0.0 <= lambda0 <= 1.0:
        raise ParameterError("arrival rate must lie in [0, 1]")
    support = [(0,) * n, (0,) * n]
    first = [0] * n
    first[0] = 1
    support[0] = tuple(first)
    arrivals = ArrivalModel(support=tuple(support), probs=(lambda0, 1.0 - lambda0))
    transitions = []
    for i in range(n):
        row = [0.0] * (n + 1)
        # Column n is the exit: the last queue's server sends jobs out.
        row[i + 1 if i + 1 < n else n] = 1.0
        transitions.append(tuple(row))
    return NetworkInstance(
        n=n,
        k=n,
        arrivals=arrivals,
        mu=tuple(mu),
        schedules=ScheduleSet.closure([tuple([1] * n)], n),
        server_queue=tuple(range(n)),
        transitions=tuple(transitions),
    )


_SLACK_TOL = 1e-6
_MAX_RETRIES = 100


def random_with_slackness(
    n: int, k: int, epsilon: float, seed: int, kind: str = "single"
) -> NetworkInstance:
    """Draw a random structure, then scale the arrival distribution so the
    instance's slackness lands within 1e-6 of the target."""
    if not 0.0 < epsilon <= 1.0:
        raise ParameterError("target slackness must lie in (0, 1]")
    if kind not in ("single", "multi", "network"):
        raise ParameterError(f"unknown kind {kind!r}")
    if kind == "single" and n != 1:
        raise ParameterError("single-queue instances have n = 1")
    if n < 1:
        raise ParameterError(f"need n >= 1 queues, got {n}")
    if n > 3 and kind != "single":
        raise ParameterError(f"n must be at most 3 for a {kind} draw, got {n}: its one maximal "
                             "schedule runs at most 3 servers, so some queue would have no capacity")
    if k < n:
        # Every queue needs at least one server or its capacity is zero
        # and no positive slackness is reachable.
        raise ParameterError("need k >= n servers")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_RETRIES):
        inst = _try_draw(rng, n, k, epsilon, kind)
        if inst is not None:
            return inst
    raise GenerationFailed(
        f"no {kind} instance with slackness {epsilon} after {_MAX_RETRIES} draws"
    )


def _try_draw(rng, n, k, epsilon, kind):
    if kind == "single":
        mu = tuple(float(v) for v in rng.uniform(0.05, 0.95, size=k))
        # lam = mu* - epsilon realizes the target directly.
        lam = max(mu) - epsilon
        if lam <= 0.0:
            return None
        return single_to_network(SingleQueueInstance(k=k, lam=float(lam), mu=mu))
    shell = _draw_structure(rng, n, k, kind)
    return None if shell is None else _scale_arrivals(shell, epsilon)


def _draw_structure(rng, n, k, kind):
    """The random shell that _scale_arrivals scales: its arrival support
    holds the zero vector; None when that is all it holds."""
    # Every queue owns at least one server; leftovers land at random.
    owners = list(range(n)) + [int(rng.integers(0, n)) for _ in range(k - n)]
    rng.shuffle(owners)
    mu = tuple(float(v) for v in rng.uniform(0.2, 0.95, size=k))
    max_active = int(rng.integers(1, min(k, 3) + 1))
    active = set(int(i) for i in rng.choice(k, size=max_active, replace=False))
    maximal = tuple(1 if i in active else 0 for i in range(k))
    schedules = ScheduleSet.closure([maximal], k)
    rows = []
    for _ in range(k):
        row = [0.0] * (n + 1)
        if kind == "network" and rng.uniform() < 0.7:
            dest = int(rng.integers(0, n))
            p = float(rng.uniform(0.2, 0.9))
            row[dest] = p
        row[n] = 1.0 - sum(row[:n])
        rows.append(tuple(row))
    if kind == "network" and all(r[n] == 1.0 for r in rows):
        row = [0.0] * (n + 1)
        row[int(rng.integers(0, n))] = 0.5
        row[n] = 0.5
        rows[int(rng.integers(0, k))] = tuple(row)
    support = [tuple(int(b) for b in rng.integers(0, 2, size=n)) for _ in range(3)]
    support.append((0,) * n)
    # Deduplicate while keeping draw order so probabilities stay aligned.
    seen, dedup = set(), []
    for vec in support:
        if vec not in seen:
            seen.add(vec)
            dedup.append(vec)
    if all(sum(v) == 0 for v in dedup):
        return None
    probs = rng.uniform(0.1, 1.0, size=len(dedup))
    probs = probs / probs.sum()
    return NetworkInstance(
        n=n,
        k=k,
        arrivals=ArrivalModel(support=tuple(dedup), probs=tuple(float(p) for p in probs)),
        mu=mu,
        schedules=schedules,
        server_queue=tuple(owners),
        transitions=tuple(rows),
    )


def _scale_arrivals(shell: NetworkInstance, epsilon: float):
    """Bisect the weight of the no-arrival row so slackness hits the target.

    Moving probability mass onto the zero vector scales every arrival
    mean by the same factor c, and slackness is continuous and strictly
    increasing as c drops, so bisection converges.
    """
    support, probs = shell.arrivals.support, shell.arrivals.probs
    zero_at = support.index((0,) * shell.n)
    solve = slackness_solver(shell)  # only the arrival means change with c

    def scaled(c: float) -> ArrivalModel:
        out = [p * c if i != zero_at else 0.0 for i, p in enumerate(probs)]
        out[zero_at] = 1.0 - sum(s for i, s in enumerate(out) if i != zero_at)
        return ArrivalModel(support=support, probs=tuple(out))

    @functools.cache
    def slack(c: float) -> float:
        return solve(scaled(c).means).epsilon

    # Zero arrivals give the largest achievable slackness for this shape;
    # the scale can exceed 1 until the zero row's mass is used up.
    # _draw_structure keeps a non-zero support row, so its mass is positive.
    c_max = 1.0 / sum(p for i, p in enumerate(probs) if i != zero_at)
    top = slack(0.0)
    if top < epsilon - _SLACK_TOL:
        return None
    if abs(top - epsilon) <= _SLACK_TOL:
        return dataclasses.replace(shell, arrivals=scaled(0.0))
    if slack(c_max) > epsilon + _SLACK_TOL:
        return None  # target below what maximal arrivals can pull down to
    lo, hi = 0.0, c_max
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        step = (mid, hi) if slack(mid) > epsilon else (lo, mid)
        # slack is deterministic, so each step is a pure function of (lo, hi): once one
        # leaves them unchanged, every later one would too, and all 80 steps end here.
        if step == (lo, hi):
            break
        lo, hi = step
    for c in (0.5 * (lo + hi), lo, hi):
        if abs(slack(c) - epsilon) <= _SLACK_TOL:
            inst = dataclasses.replace(shell, arrivals=scaled(c))
            if not validate_instance(inst):
                return inst
    return None
