"""The benchmark's workloads: instance, policies, batch size and load.

Each workload fixes the instance and the policies; the workload seed
passed on the command line only chooses the block of simulation seeds,
so every seed runs the same amount of work on different sample paths.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    # (function in clqsim.instances, positional arguments)
    builder: tuple
    # Every policy is simulated, reported by clq and re-run by verify; the
    # benchmark policy is one of them.
    policies: tuple[str, ...]
    benchmark: str
    seeds: int
    horizon: int
    workers: int
    write_traces: bool
    include_delta: bool = False
    epsilon: float | None = None
    coupling_seeds: int | None = None

    def build(self, instances_module):
        fn, args = self.builder
        return getattr(instances_module, fn)(*args)

    def config(self, seed: int, instance_path: str, out_dir: str) -> dict:
        doc = {
            "instance": instance_path,
            "policies": list(self.policies),
            "benchmark": self.benchmark,
            "horizon": self.horizon,
            "seeds": {"base": seed * self.seeds, "count": self.seeds},
            "snapshot_stride": 0,
            "out_dir": out_dir,
            "include_delta": self.include_delta,
            "write_traces": self.write_traces,
        }
        if self.epsilon is not None:
            doc["epsilon"] = self.epsilon
        if self.coupling_seeds is not None:
            doc["coupling_seeds"] = self.coupling_seeds
        return doc

    @property
    def coupling_periods(self) -> int:
        """verify's coupling check: 2 arms x coupling_seeds runs of 5 periods,
        made only for a single-queue instance."""
        return 2 * self.coupling_seeds * 5 if self.coupling_seeds else 0

    def periods(self) -> dict:
        """Simulated (policy, seed, period) triples per stage."""
        batch = len(self.policies) * self.seeds * self.horizon
        return {"simulate": batch, "clq": batch, "verify": batch + self.coupling_periods}

    @property
    def trace_files(self) -> int:
        return len(self.policies) * self.seeds if self.write_traces else 0


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline experiment: single queue, scalar engine, UCB
        # index, pool fan-out; verify adds 2 x 10^4 five-period coupling runs.
        Workload(
            name="fig1-batch",
            builder=("figure1_instance", ()),
            policies=("ucb", "oracle-best"),
            benchmark="oracle-best",
            seeds=4,
            horizon=30_000,
            workers=2,
            write_traces=False,
            epsilon=0.1,
            coupling_seeds=10_000,
        ),
        # Routing network: network engine with transition draws,
        # BackPressure/MaxWeight with the per-period feasible scan, and
        # delta_series/sar_multi; no CSV traces, no pool.
        Workload(
            name="tandem-route",
            builder=("tandem_instance", (3, (0.8, 0.7, 0.6), 0.4)),
            policies=("bp-ucb", "mw-ucb", "oracle-bp"),
            benchmark="oracle-bp",
            seeds=2,
            horizon=2_500,
            workers=1,
            write_traces=False,
            include_delta=True,
        ),
        # Exit-only multiclass with trace CSVs written by simulate and
        # replayed by verify; setup bisects the slackness LP.
        Workload(
            name="multi-trace",
            builder=("random_with_slackness", (3, 6, 0.1, 7, "multi")),
            policies=("mw-ucb", "oracle-mw"),
            benchmark="oracle-mw",
            seeds=3,
            horizon=3_500,
            workers=1,
            write_traces=True,
        ),
    )
}
