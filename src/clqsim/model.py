"""Instance types, structural validation, and the capacity-region LP."""
from __future__ import annotations

import itertools
import json
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .simplex import simplex_maximize

PROB_TOL = 1e-12
DEFAULT_SCHEDULE_CAP = 4096


class EnumerationCapExceeded(RuntimeError):
    """Schedule set too large for exhaustive LP enumeration."""


@dataclass(frozen=True)
class SingleQueueInstance:
    """One queue, k servers with Bernoulli service, Bernoulli arrivals."""

    k: int
    lam: float
    mu: tuple[float, ...]

    @property
    def mu_star(self) -> float:
        return max(self.mu)

    @property
    def best_server(self) -> int:
        return max(range(self.k), key=lambda i: self.mu[i])

    @property
    def stabilizable(self) -> bool:
        return self.mu_star > self.lam

    @cached_property
    def network(self) -> "NetworkInstance":
        """The exit-only one-queue embedding, built once per instance."""
        return single_to_network(self)


@dataclass(frozen=True)
class ArrivalModel:
    """Joint arrival distribution over binary per-queue arrival vectors."""

    support: tuple[tuple[int, ...], ...]
    probs: tuple[float, ...]

    @cached_property
    def means(self) -> tuple[float, ...]:
        n = len(self.support[0])
        return tuple(
            float(sum(p * row[i] for row, p in zip(self.support, self.probs)))
            for i in range(n)
        )

    @cached_property
    def cumulative(self) -> tuple[float, ...]:
        return tuple(itertools.accumulate(self.probs))

    @classmethod
    def bernoulli_single(cls, lam: float) -> "ArrivalModel":
        # Arrival row first: the inverse-CDF draw is then 1{U <= lam},
        # pathwise identical to the scalar single-queue arrival draw.
        return cls(support=((1,), (0,)), probs=(float(lam), 1.0 - float(lam)))


@dataclass(frozen=True)
class ScheduleSet:
    """Binary server-selection vectors; must be downward-closed."""

    schedules: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.schedules)

    @classmethod
    def closure(cls, maximal: Iterable[Sequence[int]], k: int) -> "ScheduleSet":
        """Complete the given schedules downward into a valid set.

        Stored order: the given schedules (deduplicated, order kept),
        then the missing dominated ones in ascending tuple order.
        """
        given: list[tuple[int, ...]] = []
        seen: set[tuple[int, ...]] = set()
        for s in maximal:
            t = tuple(int(v) for v in s)
            if len(t) != k or any(v not in (0, 1) for v in t):
                raise ValueError(f"not a binary length-{k} schedule: {s}")
            if t not in seen:
                given.append(t)
                seen.add(t)
        full = set(seen)
        full.add((0,) * k)
        for t in seen:
            ones = [i for i, v in enumerate(t) if v]
            for r in range(len(ones)):
                for sub in itertools.combinations(ones, r):
                    row = [0] * k
                    for i in sub:
                        row[i] = 1
                    full.add(tuple(row))
        extra = sorted(full - seen)
        return cls(schedules=tuple(given) + tuple(extra))

    @classmethod
    def singletons(cls, k: int) -> "ScheduleSet":
        rows = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
        rows.append((0,) * k)
        return cls(schedules=tuple(rows))


@dataclass(frozen=True, eq=False)
class ScheduleTable:
    """What each schedule asks of the system, one row per schedule in stored order.

    servers[r] lists the servers schedule r selects, ascending; demand[r]
    holds (queue, jobs needed) pairs; row maps a schedule tuple to r.
    cap[i] is the most jobs any schedule needs from queue i, so a fit depends
    only on q clipped at cap: the key of memo (policies.feasible_rows).
    """

    schedules: tuple[tuple[int, ...], ...]
    server_queue: tuple[int, ...]
    servers: tuple[tuple[int, ...], ...]
    demand: tuple[tuple[tuple[int, int], ...], ...]
    row: dict[tuple[int, ...], int]
    cap: tuple[int, ...]
    memo: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, schedules: ScheduleSet, server_queue: Sequence[int]) -> "ScheduleTable":
        owner = tuple(server_queue)
        servers, demand, row = [], [], {}
        cap = [0] * (max(owner, default=-1) + 1)
        for r, sigma in enumerate(schedules.schedules):
            sel = tuple(i for i, v in enumerate(sigma) if v)
            load: dict[int, int] = {}
            for srv in sel:
                load[owner[srv]] = load.get(owner[srv], 0) + 1
            for qi, c in load.items():
                cap[qi] = max(cap[qi], c)
            servers.append(sel)
            demand.append(tuple(load.items()))
            row.setdefault(sigma, r)
        return cls(schedules.schedules, owner, tuple(servers), tuple(demand), row, tuple(cap))


@dataclass(frozen=True)
class NetworkInstance:
    """Queueing network: queues, servers, schedules, job transitions.

    transitions is a k x (n+1) row-stochastic matrix; column n is the
    exit. A pure multi-queue system is the exit-only special case.
    """

    n: int
    k: int
    arrivals: ArrivalModel
    mu: tuple[float, ...]
    schedules: ScheduleSet
    server_queue: tuple[int, ...]
    transitions: tuple[tuple[float, ...], ...]

    @staticmethod
    def exit_only_transitions(n: int, k: int) -> tuple[tuple[float, ...], ...]:
        row = (0.0,) * n + (1.0,)
        return (row,) * k

    @cached_property
    def destinations(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(q for q in range(self.n) if row[q] > 0.0)
            for row in self.transitions
        )

    @cached_property
    def exit_only(self) -> bool:
        return all(not d for d in self.destinations)

    @cached_property
    def schedule_table(self) -> ScheduleTable:
        return ScheduleTable.build(self.schedules, self.server_queue)


@dataclass(frozen=True)
class StructureConstants:
    m_arr: int
    m_sigma: int
    m_dep: int


@dataclass(frozen=True)
class SlacknessResult:
    epsilon: float
    witness: tuple[float, ...]


def single_to_network(inst: SingleQueueInstance) -> NetworkInstance:
    """Embed a single-queue instance as an exit-only 1-queue network.

    Schedule order is singletons first so the stored-order tie-break of
    the schedule policies coincides with the lowest-index server rule.
    """
    return NetworkInstance(
        n=1,
        k=inst.k,
        arrivals=ArrivalModel.bernoulli_single(inst.lam),
        mu=tuple(inst.mu),
        schedules=ScheduleSet.singletons(inst.k),
        server_queue=(0,) * inst.k,
        transitions=NetworkInstance.exit_only_transitions(1, inst.k),
    )


def as_network(inst: SingleQueueInstance | NetworkInstance) -> NetworkInstance:
    if isinstance(inst, SingleQueueInstance):
        return inst.network
    return inst


def validate_instance(inst: SingleQueueInstance | NetworkInstance) -> list[str]:
    """Every violated structural invariant, as human-readable strings."""
    out: list[str] = []
    single = isinstance(inst, SingleQueueInstance)
    if not single and inst.n < 1:
        out.append(f"queue count must be positive, got {inst.n}")
    if inst.k < 1:
        out.append(f"server count must be positive, got {inst.k}")
    if single and not 0.0 <= inst.lam < 1.0:
        out.append(f"lambda must lie in [0,1), got {inst.lam}")
    if len(inst.mu) != inst.k:
        out.append(f"mu has {len(inst.mu)} entries for {inst.k} servers")
    for i, m in enumerate(inst.mu):
        if not 0.0 <= m <= 1.0:
            out.append(f"mu[{i}]={m} outside [0,1]")
    if single:
        return out

    arr = inst.arrivals
    if abs(sum(arr.probs) - 1.0) > PROB_TOL:
        out.append(f"arrival probabilities sum to {sum(arr.probs)!r}, not 1")
    if any(p < 0 for p in arr.probs):
        out.append("negative arrival probability")
    if len(arr.support) != len(arr.probs):
        out.append("arrival support and probabilities differ in length")
    seen_rows = set()
    for row in arr.support:
        if len(row) != inst.n:
            out.append(f"arrival vector {row} has wrong length")
        elif any(v not in (0, 1) for v in row):
            out.append(f"arrival vector {row} is not binary")
        if row in seen_rows:
            out.append(f"duplicate arrival vector {row}")
        seen_rows.add(row)

    sched = inst.schedules.schedules
    seen = set()
    zero = (0,) * inst.k
    for s in sched:
        if len(s) != inst.k or any(v not in (0, 1) for v in s):
            out.append(f"schedule {s} is not a binary length-{inst.k} vector")
            continue
        if s in seen:
            out.append(f"duplicate schedule {s}")
        seen.add(s)
    if zero not in seen:
        out.append("schedule set lacks the all-zero schedule")
    for s in seen:
        ones = [i for i, v in enumerate(s) if v]
        for i in ones:
            sub = list(s)
            sub[i] = 0
            if tuple(sub) not in seen:
                out.append(
                    f"downward closure violated: {tuple(sub)} missing under {s}"
                )

    if len(inst.server_queue) != inst.k:
        out.append("server_queue must assign every server")
    for srv, q in enumerate(inst.server_queue):
        if not 0 <= q < inst.n:
            out.append(f"server {srv} assigned to nonexistent queue {q}")

    if len(inst.transitions) != inst.k:
        out.append(f"transitions must have {inst.k} rows")
    for srv, row in enumerate(inst.transitions):
        if len(row) != inst.n + 1:
            out.append(f"transitions row {srv} must have {inst.n + 1} columns")
            continue
        if any(not 0.0 <= p <= 1.0 for p in row):
            out.append(f"transitions row {srv} has entries outside [0,1]")
        if abs(sum(row) - 1.0) > PROB_TOL:
            out.append(f"transitions row {srv} sums to {sum(row)!r}, not 1")
    return out


def structure_constants(inst: SingleQueueInstance | NetworkInstance) -> StructureConstants:
    """Exhaustive maxima over the arrival support and schedule set."""
    net = as_network(inst)
    m_arr = max(sum(row) for row in net.arrivals.support)
    m_sigma = max(len(servers) for servers in net.schedule_table.servers)
    m_dep = sum(len(d) ** 2 for d in net.destinations)
    return StructureConstants(m_arr=int(m_arr), m_sigma=m_sigma, m_dep=m_dep)


def net_rate_matrix(inst: NetworkInstance) -> np.ndarray:
    """g[q, s]: net rate queue q gains from running schedule s alone."""
    g = np.zeros((inst.n, len(inst.schedules)))
    for s, servers in enumerate(inst.schedule_table.servers):
        for srv in servers:
            g[inst.server_queue[srv], s] += inst.mu[srv]
            for q in inst.destinations[srv]:
                g[q, s] -= inst.mu[srv] * inst.transitions[srv][q]
    return g


def traffic_slackness(
    inst: SingleQueueInstance | NetworkInstance,
    cap: int = DEFAULT_SCHEDULE_CAP,
) -> SlacknessResult:
    """Solve max eps s.t. sum(phi)=1, phi>=0, net_rate(phi) >= lam + eps.

    eps <= 0 signals a non-stabilizable instance; the LP itself is
    always feasible (point mass on the zero schedule).
    """
    net = as_network(inst)
    n_sched = len(net.schedules)
    if n_sched > cap:
        raise EnumerationCapExceeded(f"{n_sched} schedules exceeds cap {cap}")
    g = net_rate_matrix(net)
    lam = np.asarray(net.arrivals.means)
    n = net.n
    # Columns: phi (n_sched), eps+ , eps-, surplus (n).
    ncols = n_sched + 2 + n
    a = np.zeros((1 + n, ncols))
    b = np.zeros(1 + n)
    a[0, :n_sched] = 1.0
    b[0] = 1.0
    for i in range(n):
        a[1 + i, :n_sched] = g[i]
        a[1 + i, n_sched] = -1.0
        a[1 + i, n_sched + 1] = 1.0
        a[1 + i, n_sched + 2 + i] = -1.0
        b[1 + i] = lam[i]
    c = np.zeros(ncols)
    c[n_sched] = 1.0
    c[n_sched + 1] = -1.0
    x, value = simplex_maximize(c, a, b)
    phi = np.clip(x[:n_sched], 0.0, None)
    phi /= phi.sum()
    return SlacknessResult(epsilon=float(value), witness=tuple(float(p) for p in phi))


def slackness_single(inst: SingleQueueInstance) -> float:
    """Margin of the best server over the arrival rate."""
    return inst.mu_star - inst.lam


def slackness_of(inst: SingleQueueInstance | NetworkInstance) -> float:
    """Slackness for either system class."""
    if isinstance(inst, SingleQueueInstance):
        return slackness_single(inst)
    return traffic_slackness(inst).epsilon


# --- JSON instance format ---------------------------------------------------


def instance_to_dict(inst: SingleQueueInstance | NetworkInstance) -> dict:
    if isinstance(inst, SingleQueueInstance):
        return {
            "kind": "single",
            "n": 1,
            "k": inst.k,
            "lambda": inst.lam,
            "mu": list(inst.mu),
        }
    doc = {
        "kind": "multi" if inst.exit_only else "network",
        "n": inst.n,
        "k": inst.k,
        "lambda": {
            "support": [list(r) for r in inst.arrivals.support],
            "probs": list(inst.arrivals.probs),
        },
        "mu": list(inst.mu),
        "schedules": [list(s) for s in inst.schedules.schedules],
        "server_queue": list(inst.server_queue),
    }
    if not inst.exit_only:
        doc["transitions"] = [list(r) for r in inst.transitions]
    return doc


_SHAPES = ("a number", "a JSON array of numbers", "a JSON array of arrays of numbers")


def _field(doc: dict, name: str, conv, depth: int = 0, label: str | None = None):
    """doc[name] as conv(number), or as tuples nested depth deep from JSON arrays.

    An integer field takes only integral numbers.  A missing or mistyped
    value raises a one-line ValueError that names the field.
    """
    if name not in doc:
        raise ValueError(f"instance field {label or name!r} is missing")
    value = doc[name]

    def read(v, d):
        if d:
            if not isinstance(v, (list, tuple)):
                raise TypeError(v)
            return tuple(read(x, d - 1) for x in v)
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or conv(v) != v:
            raise TypeError(v)
        return conv(v)

    try:
        return read(value, depth)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(
            f"instance field {label or name!r} must be {_SHAPES[depth]}, got {value!r}"
        ) from None


def instance_from_dict(doc: dict) -> SingleQueueInstance | NetworkInstance:
    if not isinstance(doc, dict):
        raise ValueError(f"an instance must be a JSON object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if kind == "single":
        return SingleQueueInstance(
            k=_field(doc, "k", int),
            lam=_field(doc, "lambda", float),
            mu=_field(doc, "mu", float, 1),
        )
    if kind not in ("multi", "network"):
        raise ValueError(f"unknown instance kind: {kind!r}")
    n = _field(doc, "n", int)
    k = _field(doc, "k", int)
    lam = doc.get("lambda")
    if isinstance(lam, dict):
        arrivals = ArrivalModel(
            support=_field(lam, "support", int, 2, "lambda.support"),
            probs=_field(lam, "probs", float, 1, "lambda.probs"),
        )
    else:
        arrivals = ArrivalModel.bernoulli_single(_field(doc, "lambda", float))
        if n != 1:
            raise ValueError("scalar lambda requires n = 1")
    transitions = (
        _field(doc, "transitions", float, 2)
        if doc.get("transitions") is not None
        else NetworkInstance.exit_only_transitions(n, k)
    )
    return NetworkInstance(
        n=n,
        k=k,
        arrivals=arrivals,
        mu=_field(doc, "mu", float, 1),
        schedules=ScheduleSet(schedules=_field(doc, "schedules", int, 2)),
        server_queue=_field(doc, "server_queue", int, 1),
        transitions=transitions,
    )


def load_instance(path: str) -> SingleQueueInstance | NetworkInstance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def save_instance(inst: SingleQueueInstance | NetworkInstance, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2, sort_keys=True)
        fh.write("\n")
