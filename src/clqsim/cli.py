"""Batch experiment driver.

Subcommands: slackness (stability margin of an instance file), simulate
(multi-seed fan-out to trace and series CSVs), clq (cost-of-learning
report), make-instance (write instance families), verify (replay,
path-inequality, and coupling checks).  Identical configs produce
byte-identical outputs.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import numbers
import os
import platform
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .engine import replay_csv_error, replay_error, run, trace_to_csv, ucb_queue_paths
from .instances import (
    GenerationFailed,
    figure1_instance,
    lower_bound_family,
    random_with_slackness,
    tandem_instance,
)
from .metrics import (
    clq_details,
    fold_series,
    lyapunov_report,
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
    snapshot_stride: int = 0
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
        if self.snapshot_stride < 0:
            raise ConfigError("snapshot_stride must be non-negative (0 disables snapshots)")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        for seed in self.seeds:
            _require_number("seeds entries", seed)
            if seed < 0:
                raise ConfigError(f"seeds must be non-negative, got {seed}")

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


def _fan_out(fn, jobs: list) -> list:
    """fn over jobs, results in job order, on up to CLQ_WORKERS processes."""
    workers = _workers(len(jobs))
    if workers == 1:
        return [fn(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs, chunksize=1))


def _trace_path(out_dir: str, policy: str, seed: int) -> str:
    return os.path.join(out_dir, f"trace_{policy.replace(':', '-')}_{seed}.csv")


def _simulate_job(args):
    inst, policy, seed, horizon, trace_path, stride, eps, include_delta = args
    trace = run(inst, policy, horizon, seed, stride)
    if trace_path is not None:
        trace_to_csv(trace, trace_path)
    return (policy, seed) + series_row(trace, eps, include_delta)


def run_batch(cfg: ExperimentConfig, instances, policies, write_traces: bool, eps):
    """Fan (member, policy, seed) jobs over a process pool and aggregate.

    eps is the SaR slackness _run_epsilon resolved (None: no SaR column).
    Per-seed results are combined in sorted order so the aggregate floats
    never depend on worker scheduling.
    """
    if write_traces:
        os.makedirs(cfg.out_dir, exist_ok=True)
    jobs = [
        job + (cfg.snapshot_stride, eps, cfg.include_delta)
        for job in _batch_jobs(cfg, instances, policies, write_traces)
    ]
    results = _fan_out(_simulate_job, jobs)
    results.sort(key=lambda r: (r[0], r[1]))
    return {
        policy: fold_series(cfg.horizon, (r[2:] for r in results if r[0] == policy))
        for policy in policies
    }


def _run_policies(cfg: ExperimentConfig) -> list[str]:
    """Policies a command runs: the configured ones, then the benchmark."""
    policies = list(cfg.policies)
    if cfg.benchmark and cfg.benchmark not in policies:
        policies.append(cfg.benchmark)
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
    policies, eps = _run_policies(cfg), _run_epsilon(cfg, instances)
    series = run_batch(cfg, instances, policies, cfg.write_traces, eps)
    os.makedirs(cfg.out_dir, exist_ok=True)
    bench = series.get(cfg.benchmark) if cfg.benchmark else None
    outputs = {"series": {}, "traces": {}}
    for policy in policies:
        path = os.path.join(cfg.out_dir, f"series_{policy.replace(':', '-')}.csv")
        series_to_csv(series[policy], path, bench if policy != cfg.benchmark else None)
        outputs["series"][policy] = os.path.basename(path)
        if cfg.write_traces:
            outputs["traces"][policy] = [
                os.path.basename(_trace_path(cfg.out_dir, policy, s))
                for s in cfg.seeds
            ]
        print(f"wrote {path}")
    doc = dataclasses.asdict(cfg)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    manifest = {
        "config": doc,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "instance": instance_to_dict(instances[0]),
        "outputs": outputs,
        "versions": {
            "clqsim": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    mpath = os.path.join(cfg.out_dir, "manifest.json")
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {mpath}")
    return 0


def cmd_clq(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    instances = resolve_instances(cfg.instance)
    policies, eps = _run_policies(cfg), _run_epsilon(cfg, instances)
    series = run_batch(cfg, instances, policies, False, eps)
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
        for name, val in (
            ("ucb_clq_upper", tb.ucb_clq_upper),
            ("mw_clq_upper", tb.mw_clq_upper),
            ("bp_clq_upper", tb.bp_clq_upper),
            ("single_lower", tb.single_lower),
            ("optimal_avg_upper", tb.optimal_avg_upper),
        ):
            print(f"  {name} = {'n/a' if val is None else repr(val)}")
    else:
        print("bounds: skipped (no positive slackness available)")
    return 0


def cmd_make_instance(args) -> int:
    spec = {"family": args.family}
    for key in ("n", "k", "seed"):
        val = getattr(args, key)
        if val is not None:
            spec[key] = val
    if args.epsilon is not None:
        spec["epsilon"] = args.epsilon
    if args.lambda0 is not None:
        spec["lambda0"] = args.lambda0
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


def _coupling_pvalue(inst: SingleQueueInstance, n_seeds: int, horizon: int = 5) -> float:
    """Chi-square p-value comparing Q(horizon) between the shared-uniform
    and per-server service draws, on disjoint seed ranges."""
    from scipy.stats import chi2_contingency

    counts: list[dict[int, int]] = []
    for arm, mode in enumerate(("shared", "independent")):
        lo = arm * n_seeds
        paths = ucb_queue_paths(inst, horizon, range(lo, lo + n_seeds), mode)
        values, freq = np.unique(paths[:, horizon - 1], return_counts=True)
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
    # Only simulate writes trace files, and it takes one instance.
    traces = cfg.write_traces and len(instances) == 1
    jobs = _batch_jobs(cfg, instances, _run_policies(cfg), traces)
    failures = []
    checked = 0
    for job_failures, job_checks in _fan_out(_verify_job, jobs):
        failures += job_failures
        checked += job_checks
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
        # ConfigError, ParameterError, PolicyError, DistributionError and
        # json.JSONDecodeError are ValueErrors.
        print(f"error: {exc}")
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'MemoryError'}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
