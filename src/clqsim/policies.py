"""Learning schedulers (UCB, MW-UCB, BP-UCB) and full-knowledge oracles.

All index arithmetic keeps integer success/selection counts so sample
means are exact ratios, never drifting running averages.
"""
from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Sequence

from .model import NetworkInstance, ScheduleTable, SingleQueueInstance

VARIANTS = (
    "ucb",
    "mw-ucb",
    "bp-ucb",
    "oracle-best",
    "oracle-mw",
    "oracle-bp",
    "fixed",
    "round-robin",
)

LEARNING_VARIANTS = ("ucb", "mw-ucb", "bp-ucb")


class PolicyError(ValueError):
    """A policy produced an inadmissible decision."""


@dataclass
class PolicyState:
    """Learning state: per-server counts, successes, transition tallies."""

    k: int
    n: int
    t: int = 1
    counts: list[int] = field(default_factory=list)
    succ: list[int] = field(default_factory=list)
    trans: list[list[int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * self.k
        if not self.succ:
            self.succ = [0] * self.k
        if not self.trans:
            self.trans = [[0] * self.n for _ in range(self.k)]

    def ucb_indices(self, t: int) -> list[float]:
        """Optimistic service-rate index of every server at period t, clamped
        into [0, 1] (1.0 while untried), with 2 log t taken once."""
        two_log = 2.0 * math.log(t)
        return [
            min(1.0, s / c + math.sqrt(two_log / c)) if c else 1.0
            for s, c in zip(self.succ, self.counts)
        ]

    def record(self, server: int, success: int, target: int | None) -> None:
        """Fold one selected server's outcome into the running tallies."""
        self.counts[server] += 1
        if success:
            self.succ[server] += 1
            if target is not None:
                self.trans[server][target] += 1


def feasible_schedules(table: ScheduleTable, q: Sequence[int]) -> list[tuple[int, ...]]:
    """Schedules whose per-queue demand fits the current queue, in stored order."""
    return [
        sigma
        for sigma, need in zip(table.schedules, table.demand)
        if all(q[i] >= c for i, c in need)
    ]


def feasible_rows(table: ScheduleTable, q: Sequence[int]) -> list:
    """(schedule, servers) of each schedule that fits q, in stored order,
    memoised in table.memo on q clipped at table.cap."""
    key = tuple(map(min, q, table.cap))
    rows = table.memo.get(key)
    if rows is None:
        rows = table.memo[key] = [
            (sigma, table.servers[table.row[sigma]]) for sigma in feasible_schedules(table, q)
        ]
    return rows


def _heaviest(table: ScheduleTable, q: Sequence[int], gain: Sequence[float]) -> tuple[int, ...]:
    """Feasible schedule with the largest summed per-server gain.

    Ties go to the first-encountered schedule in stored order.
    """
    best_w, best = -math.inf, None
    for sigma, servers in feasible_rows(table, q):
        w = 0.0
        for srv in servers:
            w += gain[srv]
        if w > best_w:
            best_w, best = w, sigma
    return best


def maxweight_select(
    q: Sequence[int], rates: Sequence[float], table: ScheduleTable
) -> tuple[int, ...]:
    """Feasible schedule maximizing sum_n Q_n * (selected rate mass at n)."""
    owner = table.server_queue
    return _heaviest(table, q, [rates[srv] * q[owner[srv]] for srv in range(len(owner))])


def backpressure_select(
    q: Sequence[int],
    mu_bar: Sequence[float],
    r_lower: Sequence[Sequence[float]],
    table: ScheduleTable,
) -> tuple[int, ...]:
    """MaxWeight with per-server penalties for feeding long queues."""
    owner = table.server_queue
    gain = [
        mu_bar[srv] * q[owner[srv]] - sum(map(operator.mul, r_lower[srv], q))
        for srv in range(len(mu_bar))
    ]
    return _heaviest(table, q, gain)


@dataclass(frozen=True)
class PolicyHandle:
    """Variant tag plus the parameters the variant needs.

    Oracle runners receive true rates from the instance at run time;
    learning runners never see them.
    """

    variant: str
    fixed_server: int | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise PolicyError(f"unknown policy variant {self.variant!r}")
        if self.variant == "fixed" and self.fixed_server is None:
            raise PolicyError("fixed policy needs a server index")

    @classmethod
    def parse(cls, name: str) -> "PolicyHandle":
        """Parse a policy name: a variant such as 'mw-ucb', or 'fixed:<j>' with
        j written as a plain non-negative integer, such as 'fixed:2'."""
        variant, _, server = name.partition(":")
        if variant == "fixed" and re.fullmatch(r"0|[1-9][0-9]*", server):
            return cls(variant="fixed", fixed_server=int(server))
        if name not in VARIANTS:
            raise PolicyError(f"unknown policy {name!r}")
        return cls(variant=name)

    @property
    def name(self) -> str:
        if self.variant == "fixed":
            return f"fixed:{self.fixed_server}"
        return self.variant

    @property
    def learning(self) -> bool:
        return self.variant in LEARNING_VARIANTS


class Runner:
    """Per-run decision engine for one policy on one instance.

    On a network, __init__ binds the variant's selector once and
    select_schedule calls it per decision.  On one queue, run_single makes
    every decision itself; the Runner holds only the learning state and the
    fixed server, if any.
    """

    def __init__(self, handle: PolicyHandle, inst: SingleQueueInstance | NetworkInstance):
        single = isinstance(inst, SingleQueueInstance)
        self.k = k = inst.k
        n = 1 if single else inst.n
        self.state = PolicyState(k=k, n=n) if handle.learning else None
        self._rr = 0
        v = handle.variant
        if v == "fixed" and not 0 <= handle.fixed_server < k:
            raise PolicyError(f"fixed server {handle.fixed_server} outside range")
        mu = list(inst.mu)
        # The one server a fixed-server run uses; on one queue every oracle
        # serves the best server.
        self.fixed_server = handle.fixed_server
        if v == "oracle-best" or (single and v.startswith("oracle")):
            self.fixed_server = max(range(k), key=lambda i: mu[i])
        if single:
            return
        self.table = table = inst.schedule_table
        r_true = [[mu[srv] * inst.transitions[srv][i] for i in range(n)] for srv in range(k)]
        # True rates are fixed, so an oracle's choice depends on q alone: it is
        # memoised on tuple(q), in one dict per run.
        mw = functools.cache(lambda q: maxweight_select(q, mu, table))
        bp = functools.cache(lambda q: backpressure_select(q, mu, r_true, table))
        self._pick = {
            "ucb": self._maxweight_ucb,
            "mw-ucb": self._maxweight_ucb,
            "bp-ucb": self._backpressure_ucb,
            "oracle-mw": lambda q, t: mw(tuple(q)),
            "oracle-bp": lambda q, t: bp(tuple(q)),
            "oracle-best": lambda q, t: self._singleton_if_feasible(q, self.fixed_server),
            "fixed": lambda q, t: self._singleton_if_feasible(q, self.fixed_server),
            "round-robin": self._next_schedule,
        }[v]

    def select_schedule(self, q: Sequence[int], t: int) -> tuple[int, ...]:
        return self._pick(q, t)

    def _maxweight_ucb(self, q: Sequence[int], t: int) -> tuple[int, ...]:
        self.state.t = t
        return maxweight_select(q, self.state.ucb_indices(t), self.table)

    def _backpressure_ucb(self, q: Sequence[int], t: int) -> tuple[int, ...]:
        """BackPressure on UCB rates and LCB transitions; one sqrt(2 log t / c)
        per server serves both, with ucb_indices' arithmetic and the transition
        LCB max(0, r/c - sqrt(2 log t / c)), 0 while untried."""
        state = self.state
        state.t = t
        two_log, mu_bar, r_low = 2.0 * math.log(t), [], []
        for s, c, row in zip(state.succ, state.counts, state.trans):
            root = math.sqrt(two_log / c) if c else 0.0
            mu_bar.append(min(1.0, s / c + root) if c else 1.0)
            # A zero tally (always so when c = 0) has the LCB 0.0.
            r_low.append([max(0.0, r / c - root) if r else 0.0 for r in row])
        return backpressure_select(q, mu_bar, r_low, self.table)

    def _next_schedule(self, q: Sequence[int], t: int) -> tuple[int, ...]:
        if max(q) == 0:
            # Align with the scalar dynamics, where an empty queue never
            # consults the policy: the rotation pointer must not move.
            return (0,) * self.k
        return self._singleton_if_feasible(q, self._next_server())

    def _next_server(self) -> int:
        j = self._rr % self.k
        self._rr += 1
        return j

    def _singleton_if_feasible(self, q: Sequence[int], srv: int) -> tuple[int, ...]:
        sigma = tuple(1 if i == srv else 0 for i in range(self.k))
        if sigma in self.table.row and q[self.table.server_queue[srv]] >= 1:
            return sigma
        return (0,) * self.k
