"""In-memory span tracing around the calls into clqsim's modules.

A span records (id, parent id, name, start, end).  Calls made once per
simulated period (policy selection, the feasible-schedule scan) are only
aggregated into a call count and summed durations, so tracing a long run
does not keep one object per period.  Every traced call, span or
aggregate, charges its duration to the enclosing call, which gives each
name a self time: its total minus the time of the traced calls inside it.

Hooks are installed on the fresh module objects of one import of clqsim,
at every place where a name is looked up: ``clqsim.cli`` binds its own
references to engine and metrics functions, ``engine.run`` reaches
``run_single``/``run_network`` through the engine globals, and the policy
and metric helpers call each other through their own module globals.
"""
from __future__ import annotations

import itertools
import os
import time

# Layer names whose self time counts as attributed.  The stages the
# benchmark times ("stage.*") are the roots and are left out.
ATTRIBUTED_PREFIXES = ("engine.", "policies.", "metrics.", "model.", "instances.", "cli.", "clqsim.")


class Stat:
    """Call count, summed duration, summed child duration and two counters."""

    __slots__ = ("calls", "total", "child", "units", "hits")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.units = 0
        self.hits = 0

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Tracer:
    """Spans and per-name aggregates of one traced pipeline repetition."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[tuple] = []
        self.stats: dict[str, Stat] = {}
        # Each frame is [span id, time of traced calls inside it].  The
        # bottom frame collects calls made outside any traced call.
        self._stack: list[list] = [[None, 0.0]]
        self._ids = itertools.count()

    def stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    def wrap(self, name: str, fn, per_period: bool = False, counter=None):
        """Return fn timed under name; counter(args, kwargs, result)
        returns (units, hits) to add to the name's counters."""
        stat = self.stat(name)
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [parent[0] if per_period else next(ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[1] += dur
                stat.calls += 1
                stat.total += dur
                stat.child += frame[1]
                if not per_period:
                    spans.append((frame[0], parent[0], name, start, end))
            if counter is not None:
                units, hits = counter(args, kwargs, result)
                stat.units += units
                stat.hits += hits
            return result

        traced.__wrapped__ = fn
        return traced

    def attributed_self_time(self) -> float:
        return sum(
            s.self_time for name, s in self.stats.items() if name.startswith(ATTRIBUTED_PREFIXES)
        )

    def to_doc(self) -> dict:
        """Spans with times relative to the tracer's creation, plus aggregates."""
        return {
            "spans": [
                {"id": i, "parent": p, "name": n, "start_s": a - self.origin, "end_s": b - self.origin}
                for i, p, n, a, b in self.spans
            ],
            "aggregates": {
                name: {
                    "calls": s.calls,
                    "total_s": s.total,
                    "self_s": s.self_time,
                    "units": s.units,
                    "hits": s.hits,
                }
                for name, s in sorted(self.stats.items())
            },
        }


def _horizon(args, kwargs, result):
    return (kwargs["horizon"] if "horizon" in kwargs else args[2]), 0


def _written_bytes(args, kwargs, result):
    return os.path.getsize(args[1]), 0


def _csv_rows(args, kwargs, result):
    with open(args[0], "rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    return max(lines - 1, 0), 0


def _scan_counts(args, kwargs, result):
    return len(args[0].schedules), len(result)


# (module, attribute, layer name, per-period, counter).  "A.b" patches
# method b on class A, which every bound-method lookup then sees.
HOOKS = (
    ("engine", "run_single", "engine.loop", False, _horizon),
    ("engine", "run_network", "engine.loop", False, _horizon),
    ("cli", "run_single", "engine.loop", False, _horizon),
    ("engine", "RandomSource.uniforms", "engine.streams", False, None),
    ("cli", "replay_error", "engine.replay", False, None),
    ("cli", "trace_to_csv", "engine.csv_write", False, _written_bytes),
    ("cli", "replay_csv_error", "engine.csv_replay", False, _csv_rows),
    ("policies", "Runner.select_server", "policies.select", True, None),
    ("policies", "Runner.select_schedule", "policies.select", True, None),
    ("policies", "feasible_schedules", "policies.feasible_scan", True, _scan_counts),
    ("cli", "delta_series", "metrics.delta", False, None),
    ("metrics", "delta_series", "metrics.delta", False, None),
    ("cli", "sar", "metrics.sar", False, None),
    ("cli", "lyapunov_report", "metrics.lyapunov", False, None),
    ("cli", "series_to_csv", "metrics.series_csv", False, _written_bytes),
    ("cli", "run_batch", "cli.batch", False, None),
    ("cli", "_simulate_job", "cli.job", False, None),
    ("cli", "_coupling_pvalue", "cli.coupling", False, None),
    ("cli", "slackness_of", "model.slackness", False, None),
    ("cli", "traffic_slackness", "model.slackness", False, None),
    ("cli", "slackness_single", "model.slackness", False, None),
    ("instances", "traffic_slackness", "model.slackness", False, None),
)


def install(tracer: Tracer, modules: dict) -> list[str]:
    """Patch every hook in a freshly imported set of clqsim modules.

    Returns the hooks whose name no longer exists; their layer then reads
    zero and trace.coverage shows the time that went unattributed.
    """
    missing = []
    for mod_name, attr, name, per_period, counter in HOOKS:
        owner = modules[mod_name]
        *path, leaf = attr.split(".")
        try:
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
        except AttributeError:
            missing.append(f"{mod_name}.{attr}")
            continue
        setattr(owner, leaf, tracer.wrap(name, fn, per_period, counter))
    return missing


def layer_metrics(tracer: Tracer, total_s: float) -> dict:
    """Per-layer figures of one traced repetition, keyed by metric name."""
    s = tracer.stat
    loop, scan = s("engine.loop"), s("policies.feasible_scan")
    return {
        "engine.loop_self_s": loop.self_time,
        "engine.periods": loop.units,
        "engine.runs": loop.calls,
        "engine.ns_per_period": loop.self_time / loop.units * 1e9 if loop.units else 0.0,
        "engine.streams_s": s("engine.streams").total,
        "engine.streams_calls": s("engine.streams").calls,
        "engine.replay_s": s("engine.replay").total,
        "engine.csv_write_s": s("engine.csv_write").total,
        "engine.csv_write_bytes": s("engine.csv_write").units,
        "engine.csv_replay_s": s("engine.csv_replay").total,
        "engine.csv_replay_rows": s("engine.csv_replay").units,
        "policies.select_s": s("policies.select").total,
        "policies.decisions": s("policies.select").calls,
        "policies.feasible_scan_s": scan.total,
        "policies.schedules_scanned": scan.units,
        "policies.feasible_ratio": scan.hits / scan.units if scan.units else 0.0,
        "metrics.delta_s": s("metrics.delta").total,
        "metrics.sar_s": s("metrics.sar").total,
        "metrics.lyapunov_self_s": s("metrics.lyapunov").self_time,
        "metrics.series_csv_s": s("metrics.series_csv").total,
        "metrics.series_csv_bytes": s("metrics.series_csv").units,
        "cli.batch_self_s": s("cli.batch").self_time,
        "cli.jobs": s("cli.job").calls,
        "model.slackness_s": s("model.slackness").total,
        "model.slackness_calls": s("model.slackness").calls,
        "instances.generate_s": s("instances.generate").total,
        "trace.coverage": tracer.attributed_self_time() / total_s,
    }
