"""Cost-of-learning estimates, satisficing regret, and path diagnostics."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SingleQueueInstance, StructureConstants, as_network, structure_constants
from .engine import Trace


class EmptyInput(ValueError):
    """No traces supplied."""


class GridMismatch(ValueError):
    """Series to be compared do not share a horizon grid."""


@dataclass
class MetricSeries:
    """Seed-aggregated per-horizon metrics on the grid T = 1..horizon."""

    horizon: int
    n_traces: int
    avg_queue_mean: np.ndarray
    avg_queue_se: np.ndarray
    per_period_mean: np.ndarray
    per_period_se: np.ndarray
    sar_mean: np.ndarray | None = None
    sar_se: np.ndarray | None = None
    delta_mean: np.ndarray | None = None


class _Welford:
    """Streaming elementwise mean and standard error over seed vectors."""

    def __init__(self) -> None:
        self.n = 0
        self.mean: np.ndarray | None = None
        self.m2: np.ndarray | None = None

    def add(self, vec: np.ndarray) -> None:
        v = np.asarray(vec, dtype=np.float64)
        self.n += 1
        if self.mean is None:
            self.mean = v.copy()
            self.m2 = np.zeros_like(v)
            return
        delta = v - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (v - self.mean)

    def se(self) -> np.ndarray:
        if self.n < 2:
            return np.zeros_like(self.mean)
        return np.sqrt(self.m2 / (self.n - 1) / self.n)


def series_row(
    trace: Trace, epsilon: float | None = None, include_delta: bool = False
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """One trace's (l1, SaR, delta) vectors; SaR/delta are None unless asked for.

    SaR comes from the same delta pass as the delta column; on a single
    queue that pass is delta_series's vectorised one, equal to sar_single.
    """
    delta = None
    if include_delta or epsilon is not None:
        delta = delta_series(trace)
    sar_vec = None if epsilon is None else _sar_of(delta, epsilon)
    return trace.l1(), sar_vec, delta if include_delta else None


def fold_series(horizon: int, rows) -> MetricSeries:
    """Fold per-seed (l1, SaR, delta) rows, in the given order, into a MetricSeries.

    A SaR or delta column is present when the rows carry it.
    """
    avg_w, per_w, sar_w, delta_w = _Welford(), _Welford(), _Welford(), _Welford()
    grid = np.arange(1, horizon + 1, dtype=np.float64)
    for l1, sar_vec, delta_vec in rows:
        if len(l1) != horizon:
            raise GridMismatch(f"horizon {len(l1)} != {horizon}")
        l1 = l1.astype(np.float64)
        per_w.add(l1)
        avg_w.add(np.cumsum(l1) / grid)
        if sar_vec is not None:
            sar_w.add(sar_vec)
        if delta_vec is not None:
            delta_w.add(delta_vec)
    return MetricSeries(
        horizon=horizon,
        n_traces=per_w.n,
        avg_queue_mean=avg_w.mean,
        avg_queue_se=avg_w.se(),
        per_period_mean=per_w.mean,
        per_period_se=per_w.se(),
        sar_mean=sar_w.mean,
        sar_se=sar_w.se() if sar_w.n else None,
        delta_mean=delta_w.mean,
    )


def time_averaged_series(
    traces: list[Trace],
    epsilon: float | None = None,
    include_delta: bool = False,
) -> MetricSeries:
    """Aggregate (1/T) sum_{t<=T} ||Q(t)||_1 over seeds, with SaR/delta
    columns when requested."""
    if not traces:
        raise EmptyInput("no traces to aggregate")
    rows = (series_row(tr, epsilon, include_delta) for tr in traces)
    return fold_series(traces[0].horizon, rows)


def clq_estimate(policy_series: MetricSeries, benchmark: MetricSeries | None = None) -> float:
    """Peak benchmark-adjusted time-averaged queue length.

    With no benchmark this is max_T of the policy's own average, the
    proxy the upper-bound arguments control.
    """
    diff = _clq_curve(policy_series, benchmark)
    return float(diff.max())


def clq_details(
    policy_series: MetricSeries, benchmark: MetricSeries | None = None
) -> tuple[float, int, bool]:
    """(estimate, peak horizon T*, peak-in-final-10% flag)."""
    diff = _clq_curve(policy_series, benchmark)
    t_star = int(diff.argmax()) + 1
    late = t_star > 0.9 * policy_series.horizon
    return float(diff[t_star - 1]), t_star, late


def _clq_curve(policy_series: MetricSeries, benchmark: MetricSeries | None) -> np.ndarray:
    if benchmark is None:
        return policy_series.avg_queue_mean
    if benchmark.horizon != policy_series.horizon:
        raise GridMismatch(
            f"benchmark horizon {benchmark.horizon} != {policy_series.horizon}"
        )
    return policy_series.avg_queue_mean - benchmark.avg_queue_mean


def sar_single(trace: Trace, instance: SingleQueueInstance, epsilon: float) -> np.ndarray:
    """Cumulative (mu* - mu_J(t) - eps/2)^+ over busy periods."""
    if epsilon <= 0:
        raise ValueError("satisficing regret needs positive slackness")
    mu = np.asarray(instance.mu, dtype=np.float64)
    rate = trace.schedule[: trace.horizon].astype(np.float64) @ mu
    busy = trace.q[: trace.horizon, 0] >= 1
    inc = np.maximum(instance.mu_star - rate - epsilon / 2.0, 0.0) * busy
    return np.cumsum(inc)


def schedule_weight(q, schedule, instance, networked: bool) -> float:
    """True-rate weight of a schedule at queue vector q.

    The networked variant charges each selected server for the load its
    transitions push back into the queues.
    """
    servers = [srv for srv, on in enumerate(schedule) if on]
    return _weight(as_network(instance), servers, q, networked)


def _weight(net, servers, q, networked: bool, mu=None) -> float:
    mu = net.mu if mu is None else mu
    w = 0.0
    for srv in servers:
        w += mu[srv] * q[net.server_queue[srv]]
        if networked:
            row = net.transitions[srv]
            for dest in net.destinations[srv]:
                w -= mu[srv] * row[dest] * q[dest]
    return w


def _best_weight(net, q, q_scaled, networked: bool) -> float:
    """Largest weight at q_scaled over the schedules that fit queue vector q."""
    table = net.schedule_table
    best = -math.inf
    for servers, need in zip(table.servers, table.demand):
        if all(q[i] >= c for i, c in need):
            best = max(best, _weight(net, servers, q_scaled, networked))
    return best


def delta_loss(q, chosen, instance, networked: bool) -> float:
    """Weight loss of the chosen schedule against the true-rate argmax,
    normalized by the longest queue; 0 on an empty system."""
    qmax = max(q)
    if qmax == 0:
        return 0.0
    # Queue lengths are divided by ||q||_inf before weighing, which keeps
    # the single-queue case exact: q/q is exactly 1.0.
    q_scaled = [qi / qmax for qi in q]
    net = as_network(instance)
    return _best_weight(net, q, q_scaled, networked) - schedule_weight(
        q_scaled, chosen, net, networked
    )


def delta_series(trace: Trace) -> np.ndarray:
    """Per-period delta_loss along a trace, against the trace's own instance,
    bit for bit; networks take whole-horizon columns, in O(horizon) memory
    per schedule."""
    net = as_network(trace.instance)
    networked = not net.exit_only
    h = trace.horizon
    mu = np.asarray(net.mu, dtype=np.float64)
    if net.n == 1 and not networked and structure_constants(net).m_sigma <= 1:
        # One queue, one server at a time: every schedule fits once q >= 1, so
        # the comparator weight is the best rate of a server some schedule uses.
        top = max((mu[s] for servers in net.schedule_table.servers for s in servers), default=0.0)
        rate = trace.schedule[:h].astype(np.float64) @ mu
        busy = trace.q[:h, 0] >= 1
        return (top - rate) * busy
    # _weight on whole columns repeats its scalar operations in their order.
    q = trace.q[:h]
    qmax = q.max(axis=1)
    cols = (q / np.maximum(qmax, 1)[:, None]).T  # int / int rounds once, as v / qmax does
    best = np.full(h, -math.inf)
    for servers, need in zip(net.schedule_table.servers, net.schedule_table.demand):
        fits = np.logical_and.reduce([q[:, i] >= c for i, c in need], initial=True)
        best = np.where(fits, np.maximum(best, _weight(net, servers, cols, networked)), best)
    # An idle server's rate is 0 in that period, so its terms add exact zeros.
    rates = [m * on for m, on in zip(net.mu, trace.schedule[:h].T)]
    chosen = _weight(net, range(net.k), cols, networked, rates)
    return np.where(qmax > 0, best - chosen, 0.0)


def sar_multi(trace: Trace, epsilon: float) -> np.ndarray:
    """Satisficing regret of any trace: cumulative (delta(t) - eps/2)^+.
    On a single queue it equals sar_single bit for bit."""
    return _sar_of(delta_series(trace), epsilon)


def _sar_of(delta: np.ndarray, epsilon: float) -> np.ndarray:
    if epsilon <= 0:
        raise ValueError("satisficing regret needs positive slackness")
    return np.cumsum(np.maximum(delta - epsilon / 2.0, 0.0))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    period: int  # period attaining the worst margin


@dataclass
class LyapunovReport:
    """Sample-path inequality checks plus the quadratic drift estimate."""

    checks: tuple[CheckResult, ...]
    drift_mean: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "checks": [
                {
                    "name": c.name,
                    "pass": bool(c.passed),
                    "margin": float(c.margin),
                    "period": int(c.period),
                }
                for c in self.checks
            ],
            "drift_mean": float(self.drift_mean),
        }


_FLOAT_TOL = 1e-9


def lyapunov_report(trace: Trace) -> LyapunovReport:
    """Check the proved path inequalities on one trace, against the trace's
    own instance.

    Cumulative-vs-peak comparisons run in exact integer arithmetic over
    every prefix; the float checks carry a 1e-9 slack.
    """
    net = as_network(trace.instance)
    sc = structure_constants(net)
    h = trace.horizon
    l1 = trace.l1().astype(np.int64)
    cum = np.cumsum(l1)
    runmax = np.maximum.accumulate(l1)
    checks = []

    if net.n == 1:
        margins = 2 * cum - runmax**2
        at = int(margins.argmin())
        checks.append(
            CheckResult(
                "cum_vs_peak_sq_single", margins[at] >= 0, margins[at] / 2.0, at + 1
            )
        )
    m_arr = max(sc.m_arr, 1)
    margins = 4 * m_arr * cum - runmax**2
    at = int(margins.argmin())
    checks.append(
        CheckResult(
            "cum_vs_peak_sq_l1", margins[at] >= 0, margins[at] / (4.0 * m_arr), at + 1
        )
    )

    l1_full = trace.q.sum(axis=1)
    growth = l1_full[1 : h + 1] - l1_full[:h]
    at = int(growth.argmax())
    checks.append(
        CheckResult(
            "l1_increase_le_m_arr",
            growth[at] <= sc.m_arr,
            float(sc.m_arr - growth[at]),
            at + 1,
        )
    )
    if net.n == 1:
        step = np.abs(trace.q[1 : h + 1, 0] - trace.q[:h, 0])
        at = int(step.argmax())
        checks.append(
            CheckResult("unit_step_single", step[at] <= 1, float(1 - step[at]), at + 1)
        )

    l2 = np.sqrt((trace.q.astype(np.float64) ** 2).sum(axis=1))
    dl2 = np.abs(l2[1 : h + 1] - l2[:h])
    at = int(dl2.argmax())
    exit_only = net.exit_only
    bound = math.sqrt(
        sc.m_arr + sc.m_sigma**2 if exit_only else 2 * sc.m_arr + 3 * sc.m_sigma**2
    )
    checks.append(
        CheckResult(
            "l2_bounded_difference",
            dl2[at] <= bound + _FLOAT_TOL,
            float(bound - dl2[at]),
            at + 1,
        )
    )

    d = delta_series(trace)
    dbound = float(sc.m_sigma if exit_only else 2 * sc.m_sigma)
    hi = int(d.argmax())
    lo = int(d.argmin())
    checks.append(
        CheckResult("delta_upper", d[hi] <= dbound + _FLOAT_TOL, dbound - float(d[hi]), hi + 1)
    )
    checks.append(CheckResult("delta_nonneg", d[lo] >= -_FLOAT_TOL, float(d[lo]), lo + 1))

    v = (trace.q.astype(np.float64) ** 2).sum(axis=1)
    drift = float((v[1 : h + 1] - v[:h]).mean()) if h else 0.0
    return LyapunovReport(checks=tuple(checks), drift_mean=drift)


@dataclass(frozen=True)
class TheoremBounds:
    """Closed-form ceilings/floors evaluated for one instance.

    Fields are None where the corresponding result does not apply
    (wrong system class, zero transition mass, or outside the lower
    bound's K and epsilon regime).
    """

    ucb_clq_upper: float | None
    mw_clq_upper: float
    bp_clq_upper: float | None
    single_lower: float | None
    optimal_avg_upper: float | None


def series_to_csv(series: MetricSeries, path: str, benchmark: MetricSeries | None = None) -> None:
    """Write the per-horizon metric table.

    clq_running is the running peak of the benchmark-adjusted average,
    so its final entry is the clq_estimate of the series pair.  Floats
    print as shortest round-trip decimals; absent columns stay empty.
    """
    adjusted = _clq_curve(series, benchmark)
    running = np.maximum.accumulate(adjusted)
    cols = [
        ("avg_queue_mean", series.avg_queue_mean),
        ("avg_queue_se", series.avg_queue_se),
        ("clq_running", running),
        ("sar_mean", series.sar_mean),
        ("sar_se", series.sar_se),
        ("delta_mean", series.delta_mean),
    ]
    with open(path, "w", newline="") as fh:
        fh.write("T," + ",".join(name for name, _ in cols) + "\r\n")
        for lo in range(0, series.horizon, 2048):  # by blocks, so memory stays flat in horizon
            hi = min(lo + 2048, series.horizon)
            cells = [
                map(repr, np.asarray(col[lo:hi], dtype=np.float64).tolist())
                if col is not None
                else [""] * (hi - lo)
                for _, col in cols
            ]
            lines = map(",".join, zip(map(str, range(lo + 1, hi + 1)), *cells))
            fh.write("\r\n".join(lines) + "\r\n")


def sar_ucb_ceiling(k: int, horizon_t: float, epsilon: float) -> float:
    """Logarithmic satisficing-regret ceiling for the optimistic policy."""
    return 16.0 * k * (math.log(horizon_t) + 2.0) / epsilon


def theorem_bounds(instance, epsilon: float) -> TheoremBounds:
    if epsilon <= 0:
        raise ValueError("bounds are stated for positive slackness")
    single = isinstance(instance, SingleQueueInstance)
    # A single queue has its embedding's constants, but the embedding holds
    # k+1 schedules of length k: O(k^2) memory in the k >= 2^14 regime.
    sc = StructureConstants(1, 1, 0) if single else structure_constants(instance)
    k = instance.k
    n = 1 if single else instance.n
    ucb_upper = None
    lower = None
    opt_upper = None
    if single:
        ucb_upper = (323.0 * k + 64.0 * k * (math.log(k) + 2.0 * math.log(1.0 / epsilon))) / epsilon
        if k >= 2**14 and epsilon <= 0.25:
            lower = k / (2**14 * epsilon)
        opt_upper = instance.lam / epsilon + 0.5
    m_arr = max(sc.m_arr, 1)
    m_sig = max(sc.m_sigma, 1)
    mw_upper = (
        math.sqrt(n)
        * (16.0 * m_arr + 2**10 * k * m_sig**2 * (1.0 + math.log(m_arr * k * m_sig / epsilon)))
        / epsilon
    )
    bp_upper = None
    if sc.m_dep > 0:
        bp_upper = (
            math.sqrt(n)
            * (
                32.0 * m_arr
                + 2**12 * sc.m_dep * m_sig**2 * (1.0 + math.log(m_arr * sc.m_dep * m_sig / epsilon))
            )
            / epsilon
        )
    return TheoremBounds(
        ucb_clq_upper=ucb_upper,
        mw_clq_upper=mw_upper,
        bp_clq_upper=bp_upper,
        single_lower=lower,
        optimal_avg_upper=opt_upper,
    )
