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
    avg_w, sar_w, delta_w = _Welford(), _Welford(), _Welford()
    grid = np.arange(1, horizon + 1, dtype=np.float64)
    for l1, sar_vec, delta_vec in rows:
        if len(l1) != horizon:
            raise GridMismatch(f"horizon {len(l1)} != {horizon}")
        avg_w.add(np.cumsum(l1.astype(np.float64)) / grid)
        if sar_vec is not None:
            sar_w.add(sar_vec)
        if delta_vec is not None:
            delta_w.add(delta_vec)
    return MetricSeries(
        horizon=horizon,
        n_traces=avg_w.n,
        avg_queue_mean=avg_w.mean,
        avg_queue_se=avg_w.se(),
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


def _weight(net, servers, q, networked: bool, mu=None) -> float:
    """True-rate weight of the servers at queue vector q; networked charges
    each server for the load its transitions push back into the queues."""
    mu = net.mu if mu is None else mu
    w = 0.0
    for srv in servers:
        w += mu[srv] * q[net.server_queue[srv]]
        if networked:
            row = net.transitions[srv]
            for dest in net.destinations[srv]:
                w -= mu[srv] * row[dest] * q[dest]
    return w


def delta_series(trace: Trace) -> np.ndarray:
    """Per-period delta_loss (tests/reference.py) along a trace, against the
    trace's own instance, bit for bit; networks take whole-horizon columns,
    in O(horizon) memory per schedule."""
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
    """Sample-path inequality checks."""

    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


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
    return LyapunovReport(checks=tuple(checks))


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


SERIES_BLOCK = 8192  # rows per rendered block of a series CSV
_SERIES_HEADER = "T,avg_queue_mean,avg_queue_se,clq_running,sar_mean,sar_se,delta_mean\r\n"


def series_blocks(series: MetricSeries, benchmark: MetricSeries | None = None) -> list[tuple]:
    """The row blocks of a series CSV, SERIES_BLOCK rows each: (first row
    index, column slices, None for an absent column), in file order.

    clq_running is the running peak of the benchmark-adjusted average,
    so its final entry is the clq_estimate of the series pair.
    """
    running = np.maximum.accumulate(_clq_curve(series, benchmark))
    cols = [series.avg_queue_mean, series.avg_queue_se, running]
    cols += [series.sar_mean, series.sar_se, series.delta_mean]
    return [
        (lo, [None if col is None else col[lo : lo + SERIES_BLOCK] for col in cols])
        for lo in range(0, series.horizon, SERIES_BLOCK)
    ]


def render_series_block(block: tuple) -> str:
    """The CRLF-ended CSV rows of one series_blocks block.  Floats print as
    shortest round-trip decimals (repr), absent columns stay empty."""
    lo, cols = block
    n = len(cols[0])
    cells = [[""] * n if col is None else _run_cells(col) for col in cols]
    rows = map(",".join, zip(map(str, range(lo + 1, lo + n + 1)), *cells))
    return "\r\n".join(rows) + "\r\n"


def _run_cells(col) -> list[str]:
    """repr of each entry, called once per run of neighbours equal in their
    int64 bits, so -0.0 and 0.0 (and NaN payloads) are never merged."""
    col = np.ascontiguousarray(col, dtype=np.float64)
    bits = col.view(np.int64)
    new = np.concatenate(([True], bits[1:] != bits[:-1]))
    texts = np.array(list(map(repr, col[new].tolist())), dtype=object)
    return texts[np.cumsum(new) - 1].tolist()


def series_to_csv(series: MetricSeries, path: str, benchmark: MetricSeries | None = None, texts=None) -> None:
    """Write the per-horizon metric table: a header, then the rendered
    series_blocks.  texts are those blocks already rendered, in order;
    when None they are rendered here, one block at a time."""
    if texts is None:
        texts = map(render_series_block, series_blocks(series, benchmark))
    with open(path, "w", newline="") as fh:
        fh.write(_SERIES_HEADER)
        fh.writelines(texts)


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
