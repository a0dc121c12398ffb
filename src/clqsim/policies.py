"""Policy names for the learning schedulers (UCB, MW-UCB, BP-UCB) and their
full-knowledge oracles, the per-run tallies, and the feasible-schedule lookup.
run_single and run_network make every decision in their own loops, on a
PolicyState they allocate per run; PolicyHandle.server resolves the one
server of a fixed-server run.

The tallies are integer success/selection counts, so sample means are exact
ratios, never drifting running averages.
"""
from __future__ import annotations

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
    """Per-run tallies: per-server counts, successes, transition tallies."""

    k: int
    n: int
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


def feasible_schedules(table: ScheduleTable, q: Sequence[int]) -> list[tuple[int, ...]]:
    """Schedules whose per-queue demand fits the current queue, in stored order."""
    return [
        sigma
        for sigma, need in zip(table.schedules, table.demand)
        if all(q[i] >= c for i, c in need)
    ]


def feasible_rows(table: ScheduleTable, q: Sequence[int]) -> list:
    """(row, servers) of each schedule that fits q, in stored order,
    memoised in table.memo on q clipped at table.cap."""
    key = tuple(map(min, q, table.cap))
    rows = table.memo.get(key)
    if rows is None:
        rows = table.memo[key] = [
            (r, table.servers[r]) for r in map(table.row.get, feasible_schedules(table, q))
        ]
    return rows


@dataclass(frozen=True)
class PolicyHandle:
    """Variant tag plus the parameters the variant needs.

    Oracles read true rates from the instance at run time; learners never
    see them.
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
    def learning(self) -> bool:
        return self.variant in LEARNING_VARIANTS

    def server(self, inst: SingleQueueInstance | NetworkInstance) -> int | None:
        """The one server a run of this policy on inst uses: j for fixed:j
        (a PolicyError unless 0 <= j < inst.k), the fastest for oracle-best
        and, on a single queue, for every oracle; None for round-robin and
        the learners."""
        v = self.variant
        if v == "fixed":
            if not 0 <= self.fixed_server < inst.k:
                raise PolicyError(f"fixed server {self.fixed_server} outside range")
            return self.fixed_server
        if v == "oracle-best" or (v.startswith("oracle") and isinstance(inst, SingleQueueInstance)):
            return max(range(inst.k), key=lambda i: inst.mu[i])
        return None

