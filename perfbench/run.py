"""Benchmark of the clqsim batch pipeline: set-up, simulate, clq, verify.

Run from the repository root:

    python3 perfbench/run.py --workload fig1-batch --seed 0 --trace 0

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.

One repetition builds the workload's instance and config from the seed in
a fresh directory, then runs ``clqsim slackness``, ``simulate``, ``clq``
and ``verify`` in-process through ``clqsim.cli.main`` and checks their
outputs.  The first repetition is a warm-up whose times are discarded;
repetitions then run for about ``--seconds`` and each time is reported as
the median over them.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced 1-worker repetitions (and, where the
workload uses a pool, untraced pooled ones) with traced 1-worker ones,
and reports the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 0
MIN_REPS = 3
# Stop starting repetitions after this long, whatever --seconds says, so
# that a run ends well inside three minutes.
HARD_LIMIT_S = 140.0
COVERAGE_FLOOR = 0.9
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
STAGES = ("setup", "simulate", "clq", "verify")
CLQ_LINE = re.compile(r"^(\S+): CLQ = (\S+) \+- (\S+) \(3\*SE\)")

SPEC_PATH = ROOT / "BENCHMARK.json"


class Checks:
    """Counts attempted and failed stages and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL: {what}", file=sys.stderr)
        return ok


class Rep:
    """Times, checks and digest of one pipeline repetition."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        # Per-layer figures of a traced repetition.
        self.layers: dict | None = None
        self.times: dict[str, float] = {}
        self.checks = Checks()
        self.digest: dict | None = None

    @property
    def complete(self) -> bool:
        return all(s in self.times for s in STAGES) and not self.checks.failed

    @property
    def total(self) -> float:
        return sum(self.times[s] for s in STAGES)


def import_clqsim() -> dict:
    """Import clqsim afresh from the checkout's src/ and return its modules."""
    import importlib

    for name in [m for m in sys.modules if m == "clqsim" or m.startswith("clqsim.")]:
        del sys.modules[name]
    pkg = importlib.import_module("clqsim")
    if Path(pkg.__file__).resolve().parent != SRC / "clqsim":
        raise ImportError(f"clqsim was imported from {pkg.__file__}, not from {SRC}")
    return {
        name: importlib.import_module(f"clqsim.{name}")
        for name in ("cli", "engine", "policies", "metrics", "model", "instances")
    }


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run clqsim.cli.main in-process; return (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        print(f"clqsim {argv[0]} exited {rc}:\n{buf.getvalue()}", file=sys.stderr)
    return rc, buf.getvalue()


def output_digest(out_dir: Path, report: str) -> dict:
    """sha256 of the series CSVs, the trace CSVs and the clq/verify lines.

    manifest.json is left out: it records absolute paths of the run
    directory, so its bytes differ between checkouts.
    """
    parts = {}
    for label, pattern in (("series", "series_*.csv"), ("traces", "trace_*.csv")):
        h = hashlib.sha256()
        for path in sorted(out_dir.glob(pattern)):
            h.update(path.name.encode() + b"\0")
            h.update(hashlib.sha256(path.read_bytes()).digest())
        parts[label] = h.hexdigest()
    parts["report"] = hashlib.sha256(report.encode()).hexdigest()
    parts["all"] = hashlib.sha256(
        "".join(parts[k] for k in ("series", "traces", "report")).encode()
    ).hexdigest()
    return parts


def run_rep(wl, seed: int, workers: int, rep_dir: Path, reference: dict | None, tracer=None) -> Rep:
    """One repetition: set-up, simulate, clq, verify, then the output checks."""
    rep = Rep(workers)
    checks = rep.checks

    def traced(name: str, fn):
        return tracer.wrap(name, fn) if tracer else fn

    os.environ["CLQ_WORKERS"] = str(workers)
    rep_dir.mkdir(parents=True)
    inst_path = rep_dir / "instance.json"
    cfg_path = rep_dir / "config.json"
    out_dir = rep_dir / "out"
    stdout: dict[str, str] = {}
    mods = None

    def setup() -> bool:
        nonlocal mods
        mods = traced("clqsim.import", import_clqsim)()
        if tracer:
            from spans import install

            missing = install(tracer, mods)
            if missing:
                print(f"warning: no such names to trace: {', '.join(missing)}", file=sys.stderr)
        inst = traced("instances.generate", wl.build)(mods["instances"])
        mods["model"].save_instance(inst, str(inst_path))
        cfg_path.write_text(json.dumps(wl.config(seed, inst_path.name, out_dir.name), indent=2))
        rc, stdout["slackness"] = call_cli(mods["cli"], ["slackness", str(inst_path)])
        return rc == 0

    def stage(name: str):
        def go() -> bool:
            rc, stdout[name] = call_cli(mods["cli"], [name, "-c", str(cfg_path)])
            return rc == 0

        return go

    steps = (("setup", setup), ("simulate", stage("simulate")), ("clq", stage("clq")), ("verify", stage("verify")))
    failed_at = None
    for name, step in steps:
        if failed_at is not None:
            checks.check(False, f"stage {name} not run: stage {failed_at} failed")
            continue
        start = time.perf_counter()
        try:
            ok = traced("stage." + name, step)()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        elapsed = time.perf_counter() - start
        if checks.check(ok, f"stage {name} on {wl.name} seed {seed}"):
            rep.times[name] = elapsed
        else:
            failed_at = name
        if name == "simulate" and ok:
            series = sorted(p.name for p in out_dir.glob("series_*.csv"))
            traces = sorted(p.name for p in out_dir.glob("trace_*.csv"))
            checks.check(len(series) == len(wl.policies), f"simulate wrote series files {series}")
            checks.check(len(traces) == wl.trace_files, f"simulate wrote {len(traces)} trace files, expected {wl.trace_files}")
    if failed_at is None:
        verify_lines = stdout["verify"].strip().splitlines()
        checks.check(
            bool(verify_lines) and verify_lines[-1].startswith("all checks passed"),
            f"verify did not report 'all checks passed': {verify_lines[-1:]}",
        )
        clq = [CLQ_LINE.match(line) for line in stdout["clq"].splitlines()]
        clq = [m for m in clq if m]
        checks.check(
            len(clq) == len(wl.policies)
            and all(math.isfinite(float(m.group(2))) and math.isfinite(float(m.group(3))) for m in clq),
            f"clq lines not one finite line per policy: {[m.group(0) for m in clq]}",
        )
        rep.digest = output_digest(out_dir, stdout["clq"] + stdout["verify"])
        if reference is not None:
            checks.check(rep.digest == reference, f"output digest {rep.digest['all']} != {reference['all']}")
    shutil.rmtree(rep_dir, ignore_errors=True)
    if tracer and rep.complete:
        from spans import layer_metrics

        rep.layers = layer_metrics(tracer, rep.total)
    return rep


def median(values):
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any waited-for child, in MB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def end_to_end(reps: list[Rep], periods: int) -> dict:
    done = [r for r in reps if r.complete]
    out = {f"{s}_s": median([r.times[s] for r in done]) for s in STAGES}
    out["total_s"] = median([r.total for r in done])
    out["periods_per_s"] = median([periods / r.total for r in done])
    out["peak_rss_mb"] = peak_rss_mb()
    return out


def print_end_to_end(label: str, reps: list[Rep], periods: int, checks: Checks, units: dict) -> dict:
    metrics = end_to_end(reps, periods)
    done = [r for r in reps if r.complete]
    print(f"{label}: {len(done)} of {len(reps)} repetitions complete, workers {reps[0].workers}")
    for name, value in metrics.items():
        unit = units[name]
        if unit == "s" and done:
            key = name[:-2]
            vals = [r.total if key == "total" else r.times[key] for r in done]
            print(f"  {name} = {value:.6g} {unit} (median of {len(vals)}; min {min(vals):.6g}, max {max(vals):.6g})")
        else:
            print(f"  {name} = {value:.6g} {unit}")
    share = checks.failed / checks.attempted if checks.attempted else 1.0
    print(f"  fail_share = {share:.6g} ratio ({checks.failed} failed of {checks.attempted} stages and checks)")
    return metrics


def source_facts() -> dict:
    loc = {}
    h = hashlib.sha256()
    for path in sorted((SRC / "clqsim").glob("*.py")):
        data = path.read_bytes()
        loc[path.name] = data.count(b"\n")
        h.update(path.name.encode() + b"\0" + hashlib.sha256(data).digest())
    return {"src_loc": loc, "src_loc_total": sum(loc.values()), "src_sha256": h.hexdigest()}


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree; 'unknown' otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(nproc: int, workers: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        **source_facts(),
        "workers": workers,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def measure(passes, seconds: float, run_one) -> dict[str, list[Rep]]:
    """Run the passes in turn, cycle after cycle, for about `seconds`.

    A new cycle starts only while the median cycle so far still fits.
    """
    reps: dict[str, list[Rep]] = {label: [] for label, *_ in passes}
    cycles: list[float] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(cycles) >= MIN_REPS and elapsed + median(cycles) > seconds:
            break
        if cycles and elapsed > HARD_LIMIT_S:
            break
        t = time.perf_counter()
        for label, workers, traced in passes:
            reps[label].append(run_one(workers, traced))
        cycles.append(time.perf_counter() - t)
    return reps


def main(argv=None) -> int:
    from workloads import WORKLOADS

    spec = json.loads(SPEC_PATH.read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed; chooses the simulation seed block")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"], help="measuring time after the warm-up")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    if not (SRC / "clqsim" / "__init__.py").is_file():
        print(f"error: no clqsim sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    # Third-party imports clqsim pays once per process, before any timing:
    # numpy at import, scipy.stats in verify's coupling check.
    import numpy  # noqa: F401
    import scipy.stats  # noqa: F401

    wl = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    workers = max(1, min(wl.workers, nproc))
    periods = sum(wl.periods().values())
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    if args.seed == DEFAULT_SEED and wl.name not in golden:
        print(f"error: no pinned digest for {wl.name} in {GOLDEN}", file=sys.stderr)
        return 2
    reference = golden.get(wl.name) if args.seed == DEFAULT_SEED else None
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    counter = itertools.count()
    last_tracer = None

    def run_one(n_workers: int, traced: bool) -> Rep:
        nonlocal reference, last_tracer
        tracer = None
        if traced:
            from spans import Tracer

            tracer = Tracer()
        rep = run_rep(wl, args.seed, n_workers, run_dir / f"rep{next(counter)}", reference, tracer)
        if reference is None and rep.digest is not None:
            reference = rep.digest
        if tracer:
            last_tracer = tracer
        return rep

    print(
        f"workload {wl.name} seed {args.seed}: instance {wl.builder[0]}{wl.builder[1]}, "
        f"policies {','.join(wl.policies)} (benchmark {wl.benchmark}), {wl.seeds} seeds "
        f"from {args.seed * wl.seeds}, horizon {wl.horizon}, traces {'on' if wl.write_traces else 'off'}, "
        f"delta {'on' if wl.include_delta else 'off'}, workers {workers} of nproc {nproc}"
    )
    print(f"input size: {periods} simulated periods per repetition {wl.periods()}")
    try:
        warm = run_one(workers, False)
        if args.trace == 0:
            reps = measure([("e2e", workers, False)], args.seconds, run_one)
        else:
            passes = [("untraced-1w", 1, False), ("traced-1w", 1, True)]
            if workers > 1:
                passes.insert(0, ("e2e", workers, False))
            reps = measure(passes, args.seconds, run_one)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    all_reps = [warm] + [r for group in reps.values() for r in group]
    checks = Checks()
    for r in all_reps:
        checks.attempted += r.checks.attempted
        checks.failed += r.checks.failed
    digest = next((r.digest for r in all_reps if r.digest), None)
    print(f"output digest: {json.dumps(digest, sort_keys=True)}")

    if args.trace == 0:
        metrics = print_end_to_end("end-to-end, tracing off", reps["e2e"], periods, checks, e2e_units)
        units = e2e_units
    else:
        for label, group in reps.items():
            print_end_to_end(f"{label} pass", group, periods, checks, e2e_units)
        metrics = per_layer(reps, periods, layer_units)
        units = layer_units
        if last_tracer is not None:
            WORK.mkdir(parents=True, exist_ok=True)
            path = WORK / f"spans-{wl.name}.json"
            path.write_text(json.dumps(last_tracer.to_doc()))
            print(f"spans of the last traced repetition: {path.relative_to(ROOT)}")
    print(f"facts: {json.dumps(machine_facts(nproc, workers), sort_keys=True)}")
    result = {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def per_layer(reps: dict[str, list[Rep]], periods: int, units: dict) -> dict:
    """Medians over traced repetitions, plus ratios against untraced ones."""
    traced = [r for r in reps["traced-1w"] if r.complete]
    untraced = [r for r in reps["untraced-1w"] if r.complete]
    # Zeros stand in only when no traced repetition completed, and the
    # result is then marked incorrect.
    derived = ("trace.overhead", "pool.speedup")
    metrics = {name: median([r.layers[name] for r in traced]) for name in units if name not in derived}
    traced_total = median([r.total for r in traced])
    untraced_total = median([r.total for r in untraced])
    metrics["trace.overhead"] = traced_total / untraced_total - 1.0 if untraced_total else 0.0
    speedup = 0.0
    if "e2e" in reps:
        pooled = median([r.times["simulate"] for r in reps["e2e"] if r.complete])
        serial = median([r.times["simulate"] for r in untraced])
        speedup = serial / pooled if pooled else 0.0
    metrics["pool.speedup"] = speedup

    print(f"per-layer, traced 1-worker pass: median of {len(traced)} repetitions")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(
        f"  configured periods {periods}, traced engine.periods {metrics['engine.periods']:.0f}; "
        f"trace.coverage >= {COVERAGE_FLOOR}: {'yes' if metrics['trace.coverage'] >= COVERAGE_FLOOR else 'NO'}; "
        f"pool.speedup {'defined' if 'e2e' in reps else '0: no pool on this workload'}"
    )
    return metrics


if __name__ == "__main__":
    sys.exit(main())
