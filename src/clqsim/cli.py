"""Batch experiment driver.

Subcommands: slackness (stability margin of an instance file), simulate
(multi-seed fan-out to trace and series CSVs), clq (cost-of-learning
report), make-instance (write instance families), verify (replay,
path-inequality, and coupling checks).  Identical configs produce
byte-identical outputs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import numbers
import os
import platform
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .engine import replay_csv_error, replay_error, run, trace_to_csv, ucb_queue_paths
from .instances import (
    GenerationFailed,
    ParameterError,
    figure1_instance,
    lower_bound_family,
    random_with_slackness,
    tandem_instance,
)
from .metrics import (
    MetricSeries,
    _Welford,
    clq_details,
    delta_series,
    lyapunov_report,
    sar,
    series_to_csv,
    theorem_bounds,
)
from .model import (
    DistributionError,
    SingleQueueInstance,
    as_network,
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


@dataclass
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
        for name in ("horizon", "coupling_seeds"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.horizon < 1:
            raise ConfigError("horizon must be at least 1")
        if self.coupling_seeds < 0:
            raise ConfigError("coupling_seeds must be non-negative (0 disables the check)")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        for name in self.policies + ([self.benchmark] if self.benchmark else []):
            try:
                PolicyHandle.parse(name)
            except PolicyError as exc:
                raise ConfigError(str(exc)) from exc
        if not self.policies:
            raise ConfigError("need at least one policy")

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
            base = int(seeds.get("base", 0))
            count = int(seeds.get("count", 1))
            doc["seeds"] = list(range(base, base + count))
        else:
            doc["seeds"] = [int(s) for s in seeds]
        inst = doc.get("instance")
        if isinstance(inst, str) and not os.path.isabs(inst):
            doc["instance"] = os.path.join(base_dir, inst)
        out = doc.get("out_dir", "results")
        if not os.path.isabs(out):
            doc["out_dir"] = os.path.normpath(os.path.join(base_dir, out))
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"instance", "policies", "horizon"} - set(doc)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        return cls(**doc)


_FAMILIES = ("figure1", "lower-bound", "tandem", "random-single", "random-multi", "random-network")


def build_family(spec: dict):
    """Materialize a family spec dict into a list of instances."""
    family = spec.get("family")
    if family == "figure1":
        return [figure1_instance()]
    if family == "lower-bound":
        return lower_bound_family(int(spec["k"]), float(spec["epsilon"]))
    if family == "tandem":
        mu = tuple(float(v) for v in spec["mu"])
        return [tandem_instance(int(spec["n"]), mu, float(spec["lambda0"]))]
    if family in ("random-single", "random-multi", "random-network"):
        kind = family.split("-", 1)[1]
        n = int(spec.get("n", 1 if kind == "single" else 2))
        return [
            random_with_slackness(
                n, int(spec["k"]), float(spec["epsilon"]), int(spec.get("seed", 0)), kind
            )
        ]
    raise ConfigError(f"unknown family {family!r}; know {_FAMILIES}")


def resolve_instances(source: str | dict):
    if isinstance(source, str):
        return [load_instance(source)]
    if "family" in source:
        return build_family(source)
    return [instance_from_dict(source)]


def _workers(n_jobs: int) -> int:
    cap = os.environ.get("CLQ_WORKERS")
    limit = int(cap) if cap else (os.cpu_count() or 1)
    return max(1, min(limit, n_jobs))


def _trace_path(out_dir: str, policy: str, seed: int, member: int, members: int) -> str:
    tag = policy.replace(":", "-")
    stem = f"trace_{tag}_{seed}" if members == 1 else f"trace_m{member}_{tag}_{seed}"
    return os.path.join(out_dir, stem + ".csv")


def _simulate_job(args):
    inst, policy, seed, horizon, stride, eps, include_delta, trace_path = args
    trace = run(inst, policy, horizon, seed, stride)
    if trace_path:
        trace_to_csv(trace, trace_path)
    l1 = trace.l1()
    sar_vec = sar(trace, eps) if eps is not None else None
    delta_vec = delta_series(trace) if include_delta else None
    return policy, seed, l1, sar_vec, delta_vec


def run_batch(cfg: ExperimentConfig, instances, policies, write_traces: bool):
    """Fan (member, policy, seed) jobs over a process pool and aggregate.

    Per-seed results are combined in sorted order so the aggregate floats
    never depend on worker scheduling.
    """
    jobs = []
    if write_traces:
        os.makedirs(cfg.out_dir, exist_ok=True)
    eps = cfg.epsilon
    if eps is None:
        eps = _common_slackness(instances)
    for m, inst in enumerate(instances):
        for policy in policies:
            for seed in cfg.seeds:
                path = (
                    _trace_path(cfg.out_dir, policy, seed, m, len(instances))
                    if write_traces
                    else None
                )
                jobs.append(
                    (
                        inst,
                        policy,
                        seed,
                        cfg.horizon,
                        cfg.snapshot_stride,
                        eps if eps and eps > 0 else None,
                        cfg.include_delta,
                        path,
                    )
                )
    workers = _workers(len(jobs))
    if workers == 1:
        results = [_simulate_job(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_simulate_job, jobs, chunksize=1))
    results.sort(key=lambda r: (r[0], r[1]))

    grid = np.arange(1, cfg.horizon + 1, dtype=np.float64)
    series: dict[str, MetricSeries] = {}
    for policy in policies:
        avg_w, per_w, sar_w, delta_w = _Welford(), _Welford(), _Welford(), _Welford()
        have_sar = have_delta = False
        for p, seed, l1, sar_vec, delta_vec in results:
            if p != policy:
                continue
            l1f = l1.astype(np.float64)
            per_w.add(l1f)
            avg_w.add(np.cumsum(l1f) / grid)
            if sar_vec is not None:
                sar_w.add(sar_vec)
                have_sar = True
            if delta_vec is not None:
                delta_w.add(delta_vec)
                have_delta = True
        series[policy] = MetricSeries(
            horizon=cfg.horizon,
            n_traces=per_w.n,
            avg_queue_mean=avg_w.mean,
            avg_queue_se=avg_w.se(),
            per_period_mean=per_w.mean,
            per_period_se=per_w.se(),
            sar_mean=sar_w.mean if have_sar else None,
            sar_se=sar_w.se() if have_sar else None,
            delta_mean=delta_w.mean if have_delta else None,
        )
    return series


def _common_slackness(instances) -> float | None:
    vals = []
    for inst in instances:
        try:
            vals.append(slackness_of(inst))
        except Exception:
            return None
    positive = [v for v in vals if v > 0]
    return min(positive) if positive else None


def _config_doc(cfg: ExperimentConfig) -> dict:
    doc = {
        "instance": cfg.instance,
        "policies": cfg.policies,
        "horizon": cfg.horizon,
        "seeds": cfg.seeds,
        "snapshot_stride": cfg.snapshot_stride,
        "out_dir": cfg.out_dir,
        "benchmark": cfg.benchmark,
        "epsilon": cfg.epsilon,
        "include_delta": cfg.include_delta,
        "write_traces": cfg.write_traces,
        "coupling_seeds": cfg.coupling_seeds,
    }
    return doc


def cmd_slackness(args) -> int:
    try:
        inst = load_instance(args.instance)
        problems = validate_instance(inst)
        if problems:
            for p in problems:
                print(f"invalid: {p}")
            return 1
        if isinstance(inst, SingleQueueInstance):
            eps = slackness_single(inst)
            witness = {(inst.best_server,): 1.0}
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
    except (OSError, ValueError, KeyError, DistributionError) as exc:
        print(f"error: {exc}")
        return 1


def cmd_simulate(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    instances = resolve_instances(cfg.instance)
    if len(instances) != 1:
        raise ConfigError("simulate expects a single instance; use clq for families")
    policies = list(cfg.policies)
    if cfg.benchmark and cfg.benchmark not in policies:
        policies.append(cfg.benchmark)
    series = run_batch(cfg, instances, policies, cfg.write_traces)
    os.makedirs(cfg.out_dir, exist_ok=True)
    bench = series.get(cfg.benchmark) if cfg.benchmark else None
    outputs = {"series": {}, "traces": {}}
    for policy in policies:
        path = os.path.join(cfg.out_dir, f"series_{policy.replace(':', '-')}.csv")
        series_to_csv(series[policy], path, bench if policy != cfg.benchmark else None)
        outputs["series"][policy] = os.path.basename(path)
        if cfg.write_traces:
            outputs["traces"][policy] = [
                os.path.basename(_trace_path(cfg.out_dir, policy, s, 0, 1))
                for s in cfg.seeds
            ]
        print(f"wrote {path}")
    doc = _config_doc(cfg)
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
    policies = list(cfg.policies)
    if cfg.benchmark and cfg.benchmark not in policies:
        policies.append(cfg.benchmark)
    series = run_batch(cfg, instances, policies, write_traces=False)
    bench = series.get(cfg.benchmark) if cfg.benchmark else None
    if len(instances) > 1:
        print(f"family average over {len(instances)} members")
    eps = cfg.epsilon if cfg.epsilon is not None else _common_slackness(instances)
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
    if eps is not None and eps > 0:
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
    try:
        members = build_family(spec)
    except (ParameterError, GenerationFailed, KeyError, ConfigError) as exc:
        print(f"error: {exc}")
        return 1
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


def cmd_verify(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    instances = resolve_instances(cfg.instance)
    failures = []
    checked = 0
    for m, inst in enumerate(instances):
        net = as_network(inst)
        owner = list(net.server_queue)
        for policy in cfg.policies:
            for seed in cfg.seeds:
                trace = run(inst, policy, cfg.horizon, seed, snapshot_stride=0)
                err = replay_error(trace)
                if err:
                    failures.append(("replay", policy, seed, err))
                report = lyapunov_report(trace, inst)
                for c in report.checks:
                    checked += 1
                    if not c.passed:
                        failures.append(
                            (c.name, policy, seed, f"margin {c.margin!r} at period {c.period}")
                        )
                path = _trace_path(cfg.out_dir, policy, seed, m, len(instances))
                if os.path.exists(path):
                    err = replay_csv_error(path, net.n, net.k, owner)
                    if err:
                        failures.append(("trace-file-replay", policy, seed, err))
                checked += 1
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
    p.add_argument("family", choices=_FAMILIES)
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
    except (ConfigError, ParameterError, GenerationFailed, PolicyError) as exc:
        print(f"error: {exc}")
        return 1
    except (OSError, json.JSONDecodeError, DistributionError, KeyError, ValueError) as exc:
        print(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
