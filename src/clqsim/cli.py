"""Batch experiment driver.

Subcommands: slackness (stability margin of an instance file), simulate
(multi-seed fan-out to trace and series CSVs), clq (cost-of-learning
report), make-instance (write instance families), verify (replay,
path-inequality, and coupling checks).  Identical configs produce
byte-identical outputs.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import numbers
import os
import platform
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .engine import _lindley, replay_csv_error, replay_error, run, seed_block_uniforms, trace_to_csv
from .instances import (
    GenerationFailed,
    figure1_instance,
    lower_bound_family,
    random_with_slackness,
    tandem_instance,
)
from .metrics import (
    SERIES_BLOCK,
    clq_details,
    fold_series,
    lyapunov_report,
    render_series_block,
    series_blocks,
    series_row,
    series_to_csv,
    theorem_bounds,
)
from .model import (
    EnumerationCapExceeded,
    SingleQueueInstance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
    slackness_of,
    slackness_single,
    traffic_slackness,
    validate_instance,
)
from .policies import PolicyError, PolicyHandle


class ConfigError(ValueError):
    """Bad experiment configuration."""


def _require_number(name: str, value, kind=numbers.Integral) -> None:
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is numbers.Integral else "a real number"
        raise ConfigError(f"{name} must be {noun}, got {value!r}")


# (name, accepted types, noun) of the config fields checked by type alone.
_TYPED_FIELDS = (
    ("instance", (str, dict), "a string or an object"),
    ("benchmark", (str, type(None)), "a string or null"),
    ("include_delta", bool, "true or false"),
    ("write_traces", bool, "true or false"),
    ("out_dir", str, "a string"),
)


@dataclasses.dataclass
class ExperimentConfig:
    """One batch run: an instance source fanned over policies and seeds."""

    instance: str | dict
    policies: list[str]
    horizon: int
    seeds: list[int]
    snapshot_stride: int = 0  # accepted for compatibility; must be 0
    out_dir: str = "results"
    benchmark: str | None = None
    epsilon: float | None = None
    include_delta: bool = False
    write_traces: bool = True
    coupling_seeds: int = 10_000

    def __post_init__(self) -> None:
        for name, kinds, noun in _TYPED_FIELDS:
            if not isinstance(getattr(self, name), kinds):
                raise ConfigError(f"{name} must be {noun}, got {getattr(self, name)!r}")
        policies = self.policies
        if not (isinstance(policies, list) and policies and all(isinstance(p, str) for p in policies)):
            raise ConfigError(f"policies must be a non-empty list of strings, got {policies!r}")
        for name in policies + ([] if self.benchmark is None else [self.benchmark]):
            try:
                PolicyHandle.parse(name)
            except PolicyError as exc:
                raise ConfigError(str(exc)) from exc
        repeated = [p for i, p in enumerate(policies) if p in policies[:i]]
        if repeated:
            raise ConfigError(f"policies lists {repeated[0]!r} more than once")
        if self.epsilon is not None:
            _require_number("epsilon", self.epsilon, numbers.Real)
            if not 0 < self.epsilon < math.inf:
                raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        for name in ("horizon", "coupling_seeds", "snapshot_stride"):
            _require_number(name, getattr(self, name))
        if self.horizon < 1:
            raise ConfigError("horizon must be at least 1")
        if self.coupling_seeds < 0:
            raise ConfigError("coupling_seeds must be non-negative (0 disables the check)")
        if self.snapshot_stride != 0:
            raise ConfigError(f"snapshot_stride must be 0, got {self.snapshot_stride!r}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        seen = set()
        for seed in self.seeds:
            _require_number("seeds entries", seed)
            if seed < 0:
                raise ConfigError(f"seeds must be non-negative, got {seed}")
            # A repeated seed would count one sample path twice and share one trace file.
            if seed in seen:
                raise ConfigError(f"seeds lists {seed} more than once")
            seen.add(seed)

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            doc = json.load(fh)
        return cls.from_dict(doc, base_dir=os.path.dirname(os.path.abspath(path)))

    @classmethod
    def from_dict(cls, doc: dict, base_dir: str = ".") -> "ExperimentConfig":
        doc = dict(doc)
        seeds = doc.get("seeds", {"base": 0, "count": 1})
        if isinstance(seeds, dict):
            if set(seeds) - {"base", "count"}:
                raise ConfigError(f"seeds takes only base and count, got {sorted(seeds)}")
            base, count = seeds.get("base", 0), seeds.get("count", 1)
            _require_number("seeds base", base)
            _require_number("seeds count", count)
            doc["seeds"] = list(range(base, base + count))
        elif not isinstance(seeds, list):
            raise ConfigError(f"seeds must be a list or {{base, count}}, got {seeds!r}")
        inst = doc.get("instance")
        if isinstance(inst, str) and not os.path.isabs(inst):
            doc["instance"] = os.path.join(base_dir, inst)
        out = doc.get("out_dir", "results")
        if isinstance(out, str) and not os.path.isabs(out):
            doc["out_dir"] = os.path.normpath(os.path.join(base_dir, out))
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"instance", "policies", "horizon"} - set(doc)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        return cls(**doc)


# Each family and the spec fields it cannot do without.
_FAMILIES = {"figure1": (), "lower-bound": ("k", "epsilon"), "tandem": ("mu", "n", "lambda0")}
_FAMILIES |= dict.fromkeys(("random-single", "random-multi", "random-network"), ("k", "epsilon"))


def build_family(spec: dict):
    """Materialize a family spec dict into a list of instances."""
    family = spec.get("family")
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ConfigError(f"unknown family {family!r}; know {tuple(_FAMILIES)}")
    for name in _FAMILIES[family]:
        if name not in spec:
            raise ConfigError(f"family {family!r} needs field {name!r}")
    mu = spec.get("mu", [])
    if not isinstance(mu, (list, tuple)):
        raise ConfigError(f"mu must be a list, got {mu!r}")
    checks = [(f, spec[f], numbers.Integral) for f in ("n", "k", "seed") if f in spec]
    checks += [(f, spec[f], numbers.Real) for f in ("epsilon", "lambda0") if f in spec]
    for name, value, kind in checks + [("mu entries", v, numbers.Real) for v in mu]:
        _require_number(name, value, kind)
    if spec.get("seed", 0) < 0:
        raise ConfigError(f"seed must be non-negative, got {spec['seed']}")
    if family == "figure1":
        return [figure1_instance()]
    if family == "lower-bound":
        return lower_bound_family(int(spec["k"]), float(spec["epsilon"]))
    if family == "tandem":
        return [tandem_instance(int(spec["n"]), tuple(map(float, mu)), float(spec["lambda0"]))]
    kind = family.split("-", 1)[1]
    n = int(spec.get("n", 1 if kind == "single" else 2))
    return [
        random_with_slackness(n, int(spec["k"]), float(spec["epsilon"]), int(spec.get("seed", 0)), kind)
    ]


def resolve_instances(source: str | dict):
    """The configured instances, each checked by validate_instance."""
    if isinstance(source, str):
        instances = [load_instance(source)]
    elif "family" in source:
        instances = build_family(source)
    else:
        instances = [instance_from_dict(source)]
    for inst in instances:
        problems = validate_instance(inst)
        if problems:
            raise ConfigError("invalid instance: " + "; ".join(problems))
    return instances


def _workers(n_jobs: int) -> int:
    """Pool size: CLQ_WORKERS (an integer >= 1) if set, at most the usable CPUs and n_jobs."""
    cap = os.environ.get("CLQ_WORKERS")
    limit = len(os.sched_getaffinity(0))
    if cap:
        if not (cap.isdecimal() and int(cap) >= 1):
            raise ConfigError(f"CLQ_WORKERS must be an integer >= 1, got {cap!r}")
        limit = min(int(cap), limit)
    return max(1, min(limit, n_jobs))


def _batch_jobs(cfg: ExperimentConfig, instances, policies, traces: bool) -> list:
    """(instance, policy, seed, horizon, trace path or None when traces is off)
    of each (member, policy, seed), in job order."""
    return [
        (inst, policy, seed, cfg.horizon, _trace_path(cfg.out_dir, policy, seed) if traces else None)
        for inst in instances
        for policy in policies
        for seed in cfg.seeds
    ]


@contextlib.contextmanager
def _pool(n_jobs: int):
    """A pool of _workers(n_jobs) processes for a command's fan-outs; None
    when one worker runs them inline, with no pickling."""
    workers = _workers(n_jobs)
    if workers == 1:
        yield None
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield pool


def _fan_out(fn, jobs: list, pool):
    """fn over jobs, in job order as they finish, on pool (None: inline)."""
    return map(fn, jobs) if pool is None else pool.map(fn, jobs, chunksize=1)


def _trace_path(out_dir: str, policy: str, seed: int) -> str:
    return os.path.join(out_dir, f"trace_{policy.replace(':', '-')}_{seed}.csv")


def _simulate_job(args):
    inst, policy, seed, horizon, trace_path, eps, include_delta = args
    trace = run(inst, policy, horizon, seed)
    if trace_path is not None:
        trace_to_csv(trace, trace_path)
    return (policy, seed) + series_row(trace, eps, include_delta)


def run_batch(cfg: ExperimentConfig, instances, policies, write_traces: bool, eps, pool=None):
    """Fan (member, policy, seed) jobs over pool (None: inline) and aggregate.

    eps is the SaR slackness _run_epsilon resolved (None: no SaR column).
    Per-seed results are combined in sorted order so the aggregate floats
    never depend on worker scheduling.
    """
    if write_traces:
        os.makedirs(cfg.out_dir, exist_ok=True)
    jobs = [
        job + (eps, cfg.include_delta)
        for job in _batch_jobs(cfg, instances, policies, write_traces)
    ]
    results = sorted(_fan_out(_simulate_job, jobs, pool), key=lambda r: (r[0], r[1]))
    return {
        policy: fold_series(cfg.horizon, (r[2:] for r in results if r[0] == policy))
        for policy in policies
    }


def _run_policies(cfg: ExperimentConfig, instances) -> list[str]:
    """Policies a command runs: the configured ones, then the benchmark.  Each
    resolves its server on every instance (PolicyHandle.server), so a fixed
    server outside an instance's range fails before any job starts."""
    policies = list(cfg.policies)
    if cfg.benchmark and cfg.benchmark not in policies:
        policies.append(cfg.benchmark)
    for policy, inst in itertools.product(policies, instances):
        PolicyHandle.parse(policy).server(inst)
    return policies


def _run_epsilon(cfg: ExperimentConfig, instances) -> float | None:
    """cfg.epsilon, else the instances' smallest positive slackness; None
    when no instance has one."""
    if cfg.epsilon is not None:
        return cfg.epsilon
    return min((e for e in map(slackness_of, instances) if e > 0), default=None)


def cmd_slackness(args) -> int:
    inst = load_instance(args.instance)
    problems = validate_instance(inst)
    if problems:
        for p in problems:
            print(f"invalid: {p}")
        return 1
    if isinstance(inst, SingleQueueInstance):
        eps = slackness_single(inst)
        print(f"epsilon = {eps!r}")
        print(f"stabilizable: {'yes' if eps > 0 else 'no'}")
        print(f"witness: always serve server {inst.best_server}")
    else:
        res = traffic_slackness(inst)
        print(f"epsilon = {res.epsilon!r}")
        print(f"stabilizable: {'yes' if res.epsilon > 0 else 'no'}")
        print("witness:")
        for sigma, w in zip(inst.schedules.schedules, res.witness):
            if w > 1e-12:
                print(f"  phi{sigma} = {w!r}")
        eps = res.epsilon
    return 0 if eps > 0 else 2


def cmd_simulate(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    instances = resolve_instances(cfg.instance)
    if len(instances) != 1:
        raise ConfigError("simulate expects a single instance; use clq for families")
    policies, eps = _run_policies(cfg, instances), _run_epsilon(cfg, instances)
    manifest = _manifest(cfg, instances[0], policies, args.config)
    # One pool runs the batch, then every policy's series row blocks together;
    # each file takes its own blocks in order, as they arrive.
    with _pool(len(policies) * max(len(cfg.seeds), -(-cfg.horizon // SERIES_BLOCK))) as pool:
        series = run_batch(cfg, instances, policies, cfg.write_traces, eps, pool)
        os.makedirs(cfg.out_dir, exist_ok=True)
        bench = series.get(cfg.benchmark) if cfg.benchmark else None
        blocks = {p: series_blocks(series[p], bench if p != cfg.benchmark else None) for p in policies}
        texts = _fan_out(render_series_block, [b for p in policies for b in blocks[p]], pool)
        for policy in policies:
            path = os.path.join(cfg.out_dir, manifest["outputs"]["series"][policy])
            series_to_csv(series[policy], path, texts=itertools.islice(texts, len(blocks[policy])))
            print(f"wrote {path}")
    mpath = os.path.join(cfg.out_dir, "manifest.json")
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {mpath}")
    return 0


def _manifest(cfg: ExperimentConfig, instance, policies, config_path: str) -> dict:
    """The manifest.json that simulate writes for cfg, read from config_path.
    Its config echo (and so config_sha256) holds the instance path and
    out_dir relative to the config file's directory, so that a result
    directory moved or copied with its config still verifies."""
    doc = dataclasses.asdict(cfg)
    for key in ("instance", "out_dir"):
        if isinstance(doc[key], str):
            doc[key] = os.path.relpath(doc[key], os.path.dirname(os.path.abspath(config_path)))
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    outputs = {"series": {}, "traces": {}}
    for policy in policies:
        outputs["series"][policy] = f"series_{policy.replace(':', '-')}.csv"
        if cfg.write_traces:
            outputs["traces"][policy] = [
                os.path.basename(_trace_path(cfg.out_dir, policy, s)) for s in cfg.seeds
            ]
    return {
        "config": doc,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "instance": instance_to_dict(instance),
        "outputs": outputs,
        "versions": {
            "clqsim": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }


def _output_failures(cfg: ExperimentConfig, instance, policies, config_path: str) -> list:
    """Check simulate's manifest.json and series files against cfg.  Like the
    trace-file comparison, these file checks add nothing to the check count."""
    want = json.loads(json.dumps(_manifest(cfg, instance, policies, config_path)))  # as read back
    series = want["outputs"]["series"]
    failures = []
    try:
        with open(os.path.join(cfg.out_dir, "manifest.json")) as fh:
            got = json.load(fh)
    except (OSError, ValueError) as exc:
        failures.append(("manifest", "-", "-", f"unreadable manifest.json: {exc}"))
    else:
        for key in ("config", "config_sha256", "instance", "outputs"):
            mine, theirs = got.get(key) if isinstance(got, dict) else None, want[key]
            if mine == theirs:
                continue
            if isinstance(mine, dict) and isinstance(theirs, dict):  # name the first differing field
                sub = next(k for k in sorted(mine | theirs) if mine.get(k) != theirs.get(k))
                key, mine, theirs = f"{key}.{sub}", mine.get(sub), theirs.get(sub)
            failures.append(("manifest", "-", "-", f"{key} {mine!r} differs from the config ({theirs!r})"))
    for policy, name in series.items():
        if not os.path.exists(os.path.join(cfg.out_dir, name)):
            failures.append(("series-file", policy, "-", f"missing series file {name}"))
    return failures


def cmd_clq(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    instances = resolve_instances(cfg.instance)
    policies, eps = _run_policies(cfg, instances), _run_epsilon(cfg, instances)
    with _pool(len(instances) * len(policies) * len(cfg.seeds)) as pool:
        series = run_batch(cfg, instances, policies, False, eps, pool)
    bench = series.get(cfg.benchmark) if cfg.benchmark else None
    if len(instances) > 1:
        print(f"family average over {len(instances)} members")
    for policy in cfg.policies:
        ps = series[policy]
        est, t_star, late = clq_details(ps, bench)
        se = float(ps.avg_queue_se[t_star - 1])
        if bench is not None:
            se = float(np.hypot(se, bench.avg_queue_se[t_star - 1]))
        line = f"{policy}: CLQ = {est!r} +- {3 * se!r} (3*SE), T* = {t_star}"
        if late:
            line += "  [peak in final 10% of horizon; estimate may be truncated]"
        print(line)
    if eps is not None:
        tb = theorem_bounds(instances[0], eps)
        print(f"bounds at epsilon = {eps!r}:")
        for name, val in dataclasses.asdict(tb).items():  # in field order
            print(f"  {name} = {'n/a' if val is None else repr(val)}")
    else:
        print("bounds: skipped (no positive slackness available)")
    return 0


def cmd_make_instance(args) -> int:
    spec = {"family": args.family}
    for key in ("n", "k", "seed", "epsilon", "lambda0"):
        val = getattr(args, key)
        if val is not None:
            spec[key] = val
    if args.mu is not None:
        spec["mu"] = [float(v) for v in args.mu.split(",")]
    members = build_family(spec)
    if len(members) == 1:
        save_instance(members[0], args.out)
        print(f"wrote {args.out}")
        return 0
    os.makedirs(args.out, exist_ok=True)
    for i, inst in enumerate(members):
        path = os.path.join(args.out, f"{args.family.replace('-', '_')}_{i}.json")
        save_instance(inst, path)
        print(f"wrote {path}")
    return 0


COUPLING_BLOCK_BYTES = 4 << 20  # bytes of service draws per seed block in _coupling_queues


def _coupling_queues(inst: SingleQueueInstance, seeds, horizon: int, mode: str) -> np.ndarray:
    """Per seed, run_single(inst, "ucb", horizon, seed, service_mode=mode)
    .q[horizon - 1, 0], the queue after periods 1..horizon-1, for horizon
    in 1..6.  Through period 5 ucb serves only server 0: no job waits in
    period 1, so before period t server 0 has c <= t - 2 <= 2 ln t pulls
    and its index s/c + sqrt(2 ln t / c) is at least 1.0 (or it is
    untried), so it wins at once.  The queue is then server 0's Lindley
    path, drawn from each seed's streams in seed blocks."""
    if not 1 <= horizon <= 6:
        raise ValueError(f"coupling horizon {horizon} outside 1..6")
    shape = (horizon,) if mode == "shared" else (horizon, inst.k)
    size = max(1, COUPLING_BLOCK_BYTES // (8 * math.prod(shape)))
    seeds = list(seeds)
    out = np.empty(len(seeds), dtype=np.int64)
    for lo in range(0, len(seeds), size):
        block = seeds[lo : lo + size]
        arrive = seed_block_uniforms(block, "arrival", horizon) <= inst.lam
        u = seed_block_uniforms(block, "service", *shape)
        served = (u if mode == "shared" else u[..., 0]) <= inst.mu[0]
        out[lo : lo + len(block)] = _lindley(arrive, served)[:, horizon - 1]
    return out


def _coupling_pvalue(inst: SingleQueueInstance, n_seeds: int, horizon: int = 5) -> float:
    """Chi-square p-value comparing Q(horizon) between the shared-uniform
    and per-server service draws, on disjoint seed ranges."""
    from scipy.stats import chi2_contingency

    counts: list[dict[int, int]] = []
    for arm, mode in enumerate(("shared", "independent")):
        lo = arm * n_seeds
        queues = _coupling_queues(inst, range(lo, lo + n_seeds), horizon, mode)
        values, freq = np.unique(queues, return_counts=True)
        counts.append(dict(zip(values.tolist(), freq.tolist())))
    values = sorted(set(counts[0]) | set(counts[1]))
    table = np.array([[counts[a].get(v, 0) for v in values] for a in (0, 1)])
    keep = table.sum(axis=0) >= 5  # merge sparse tail cells into the last kept one
    if keep.any() and not keep.all():
        head = table[:, keep]
        tail = table[:, ~keep].sum(axis=1)
        head[:, -1] += tail
        table = head
    if table.shape[1] < 2:
        return 1.0
    return float(chi2_contingency(table).pvalue)


def _verify_job(args):
    """Re-run one (member, policy, seed) and check it: (failures, checks made)."""
    inst, policy, seed, horizon, trace_path = args
    trace = run(inst, policy, horizon, seed)
    failures = []
    err = replay_error(trace)
    if err:
        failures.append(("replay", policy, seed, err))
    report = lyapunov_report(trace)
    for c in report.checks:
        if not c.passed:
            failures.append((c.name, policy, seed, f"margin {c.margin!r} at period {c.period}"))
    if trace_path is not None:  # the config writes traces
        if os.path.exists(trace_path):
            err = replay_csv_error(trace_path, trace)
        else:
            err = f"missing trace file {os.path.basename(trace_path)}"
        if err:
            failures.append(("trace-file-replay", policy, seed, err))
    return failures, len(report.checks) + 1


def cmd_verify(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    instances = resolve_instances(cfg.instance)
    # Only simulate writes output files, and it takes one instance.
    simulated = len(instances) == 1
    policies = _run_policies(cfg, instances)
    jobs = _batch_jobs(cfg, instances, policies, cfg.write_traces and simulated)
    failures = []
    checked = 0
    with _pool(len(jobs)) as pool:
        for job_failures, job_checks in _fan_out(_verify_job, jobs, pool):
            failures += job_failures
            checked += job_checks
    if simulated:
        failures += _output_failures(cfg, instances[0], policies, args.config)
    single = [i for i in instances if isinstance(i, SingleQueueInstance) and i.stabilizable]
    if single and cfg.coupling_seeds > 0:
        p = _coupling_pvalue(single[0], cfg.coupling_seeds)
        checked += 1
        if p <= 0.001:
            failures.append(("coupling-chisquare", "ucb", f"0..{2 * cfg.coupling_seeds - 1}", f"p = {p!r}"))
        else:
            print(f"coupling-chisquare: p = {p!r}")
    if failures:
        for name, policy, seed, detail in failures:
            print(f"FAIL check={name} policy={policy} seed={seed}: {detail}")
        return 3
    print(f"all checks passed ({checked} checks)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="clqsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("slackness", help="stability margin of an instance file")
    p.add_argument("instance")
    p.set_defaults(fn=cmd_slackness)

    p = sub.add_parser("simulate", help="batch simulation to CSV")
    p.add_argument("-c", "--config", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("clq", help="cost-of-learning report")
    p.add_argument("-c", "--config", required=True)
    p.set_defaults(fn=cmd_clq)

    p = sub.add_parser("make-instance", help="write an instance family to JSON")
    p.add_argument("family", choices=tuple(_FAMILIES))
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--mu")
    p.add_argument("--lambda0", type=float)
    p.set_defaults(fn=cmd_make_instance)

    p = sub.add_parser("verify", help="replay, path-inequality, and coupling checks")
    p.add_argument("-c", "--config", required=True)
    p.set_defaults(fn=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError, GenerationFailed, EnumerationCapExceeded) as exc:
        # ConfigError, ParameterError, PolicyError and json.JSONDecodeError
        # are ValueErrors.
        print(f"error: {exc}")
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'MemoryError'}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
