"""Series aggregation, regret accounting, path checks, closed-form bounds."""
import csv

import numpy as np
import pytest

from clqsim.engine import Trace, run, run_network, run_single
from clqsim.instances import figure1_instance, tandem_instance
from clqsim.metrics import (
    SERIES_BLOCK,
    EmptyInput,
    GridMismatch,
    MetricSeries,
    clq_details,
    clq_estimate,
    delta_series,
    lyapunov_report,
    render_series_block,
    sar_multi,
    sar_single,
    series_row,
    series_to_csv,
    theorem_bounds,
    time_averaged_series,
)
from clqsim.model import (
    ArrivalModel,
    NetworkInstance,
    ScheduleSet,
    SingleQueueInstance,
    as_network,
    single_to_network,
)
from reference import delta_loss, schedule_weight
from test_trace_digests import POLICIES as DIGEST_POLICIES, SEEDS as DIGEST_SEEDS
from test_trace_digests import _instances as digest_instances


def _hand_trace(q_rows, instance, schedule=None):
    """Minimal trace for metric unit tests; event arrays are fillers."""
    q = np.asarray(q_rows, dtype=np.int64)
    h = q.shape[0] - 1
    k = instance.k
    sched = np.zeros((h, k), dtype=np.uint8) if schedule is None else np.asarray(schedule, dtype=np.uint8)
    return Trace(
        instance=instance,
        policy="hand",
        seed=0,
        horizon=h,
        q=q,
        schedule=sched,
        arrivals=np.zeros((h, q.shape[1]), dtype=np.uint8),
        services=np.zeros((h, k), dtype=np.uint8),
        targets=None,
    )


class TestTimeAveragedSeries:
    def test_empty_system_zero_series(self):
        inst = SingleQueueInstance(2, 0.0, (0.5, 0.5))
        traces = [run_single(inst, "ucb", 50, s) for s in range(3)]
        series = time_averaged_series(traces)
        assert not series.avg_queue_mean.any()
        assert not series.avg_queue_se.any()
        assert series.n_traces == 3

    def test_deterministic_growth(self):
        # lambda = 1, mu = 0: Q(t) = t - 1, so abar(T) = (T - 1) / 2.
        inst = SingleQueueInstance(1, 1.0, (0.0,))
        series = time_averaged_series([run_single(inst, "ucb", 20, s) for s in range(2)])
        grid = np.arange(1, 21)
        assert series.avg_queue_mean == pytest.approx((grid - 1) / 2)
        assert not series.avg_queue_se.any()

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            time_averaged_series([])

    def test_grid_mismatch(self):
        inst = figure1_instance()
        a = run_single(inst, "ucb", 10, 0)
        b = run_single(inst, "ucb", 11, 0)
        with pytest.raises(GridMismatch):
            time_averaged_series([a, b])

    def test_optional_columns(self):
        inst = figure1_instance()
        traces = [run_single(inst, "ucb", 30, s) for s in range(2)]
        bare = time_averaged_series(traces)
        assert bare.sar_mean is None and bare.delta_mean is None
        full = time_averaged_series(traces, epsilon=0.1, include_delta=True)
        assert full.sar_mean is not None and full.sar_se is not None
        assert full.delta_mean is not None


class TestClqEstimate:
    def test_against_itself_is_zero(self):
        traces = [run_single(figure1_instance(), "ucb", 100, s) for s in range(3)]
        s = time_averaged_series(traces)
        assert clq_estimate(s, s) == 0.0

    def test_no_benchmark_is_running_max(self):
        traces = [run_single(figure1_instance(), "ucb", 100, s) for s in range(3)]
        s = time_averaged_series(traces)
        assert clq_estimate(s) == s.avg_queue_mean.max()

    def test_details_locate_peak(self):
        inst = SingleQueueInstance(1, 1.0, (0.0,))
        s = time_averaged_series([run_single(inst, "ucb", 40, 0)])
        est, t_star, late = clq_details(s)
        assert t_star == 40 and late
        assert est == s.avg_queue_mean[-1]

    def test_benchmark_grid_mismatch(self):
        inst = figure1_instance()
        a = time_averaged_series([run_single(inst, "ucb", 10, 0)])
        b = time_averaged_series([run_single(inst, "ucb", 20, 0)])
        with pytest.raises(GridMismatch):
            clq_estimate(a, b)


class TestSarSingle:
    def test_fixed_slow_server_rate(self):
        inst = figure1_instance()
        tr = run_single(inst, "fixed:1", 200, 3)
        out = sar_single(tr, inst, 0.1)
        busy = tr.q[:200, 0] >= 1
        inc = np.diff(np.concatenate([[0.0], out]))
        assert inc[busy] == pytest.approx(0.55 - 0.35 - 0.05)
        assert not inc[~busy].any()

    def test_oracle_accrues_nothing(self):
        inst = figure1_instance()
        tr = run_single(inst, "oracle-best", 300, 1)
        assert not sar_single(tr, inst, 0.1).any()

    def test_requires_positive_epsilon(self):
        tr = run_single(figure1_instance(), "ucb", 10, 0)
        with pytest.raises(ValueError):
            sar_single(tr, figure1_instance(), 0.0)

    def test_nondecreasing_from_zero(self):
        tr = run_single(figure1_instance(), "ucb", 300, 5)
        out = sar_single(tr, tr.instance, 0.1)
        assert out[0] >= 0
        assert (np.diff(out) >= 0).all()

    @pytest.mark.parametrize("policy", ["ucb", "round-robin", "fixed:0"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_series_row_matches_sar_single(self, policy, seed):
        # series_row takes SaR from the delta pass, sar_single from the rates.
        inst = figure1_instance()
        tr = run_single(inst, policy, 2000, seed)
        l1, sar_vec, delta = series_row(tr, 0.1)
        assert np.array_equal(l1, tr.l1())
        assert sar_vec.tobytes() == sar_single(tr, inst, 0.1).tobytes()
        assert sar_multi(tr, 0.1).tobytes() == sar_vec.tobytes()
        assert delta is None
        _, sar_with, delta = series_row(tr, 0.1, include_delta=True)
        assert sar_with.tobytes() == sar_vec.tobytes()
        assert delta.tobytes() == delta_series(tr).tobytes()
        assert series_row(tr)[1:] == (None, None)


class TestScheduleWeight:
    def test_plain_weight(self):
        inst = NetworkInstance(
            n=2,
            k=2,
            arrivals=ArrivalModel(support=((1, 1),), probs=(1.0,)),
            mu=(0.5, 0.9),
            schedules=ScheduleSet.closure([(1, 1)], 2),
            server_queue=(0, 1),
            transitions=NetworkInstance.exit_only_transitions(2, 2),
        )
        assert schedule_weight((3, 1), (1, 0), inst, networked=False) == pytest.approx(1.5)

    def test_networked_feedback_penalty(self):
        inst = NetworkInstance(
            n=2,
            k=2,
            arrivals=ArrivalModel(support=((1, 0),), probs=(1.0,)),
            mu=(0.9, 0.5),
            schedules=ScheduleSet.closure([(1, 1)], 2),
            server_queue=(0, 1),
            transitions=((0.0, 8 / 9, 1 / 9), (0.0, 0.0, 1.0)),
        )
        # 0.9 * 1 - 0.9 * (8/9) * 5 = -3.1
        w = schedule_weight((1, 5), (1, 0), inst, networked=True)
        assert w == pytest.approx(-3.1, abs=1e-9)


class TestDeltaLoss:
    def test_empty_system_zero(self):
        net = single_to_network(figure1_instance())
        assert delta_loss((0,), (0, 0, 0, 0, 0), net, networked=False) == 0.0

    def test_best_choice_zero(self):
        net = single_to_network(figure1_instance())
        assert delta_loss((5,), (0, 0, 0, 0, 1), net, networked=False) == 0.0

    def test_single_queue_gap(self):
        net = single_to_network(figure1_instance())
        got = delta_loss((3,), (0, 1, 0, 0, 0), net, networked=False)
        assert got == pytest.approx(0.55 - 0.35)

    def test_idling_charged_when_busy(self):
        net = single_to_network(figure1_instance())
        got = delta_loss((2,), (0, 0, 0, 0, 0), net, networked=False)
        assert got == pytest.approx(0.55)


class TestDeltaSeries:
    def test_fast_path_matches_general(self):
        inst = figure1_instance()
        tr = run_single(inst, "ucb", 300, 2)
        # The one-queue fast path against delta_loss's scan over schedules.
        assert delta_series(tr).tobytes() == delta_by_period(tr).tobytes()

    def test_constant_gap(self):
        inst = SingleQueueInstance(2, 1.0, (0.6, 0.5))
        tr = run_single(inst, "fixed:1", 11, 0)
        d = delta_series(tr)
        assert d[0] == 0.0  # starts empty
        assert d[1:] == pytest.approx(np.full(10, 0.6 - 0.5))


DIGEST_INSTANCES = digest_instances()


def delta_by_period(tr):
    """delta_loss, the one-period reference, at every period of a trace,
    networked unless the trace's instance is exit-only."""
    networked = not as_network(tr.instance).exit_only
    return np.array(
        [delta_loss(tr.q[t].tolist(), tr.schedule[t].tolist(), tr.instance, networked)
         for t in range(tr.horizon)]
    )


class TestDeltaSeriesBitwise:
    """The whole-horizon delta pass equals delta_loss period by period, bit for bit."""

    @pytest.mark.parametrize("policy", DIGEST_POLICIES)
    @pytest.mark.parametrize("label", sorted(DIGEST_INSTANCES))
    def test_digest_matrix(self, label, policy):
        for seed in DIGEST_SEEDS:
            tr = run(DIGEST_INSTANCES[label], policy, 500, seed)
            assert delta_series(tr).tobytes() == delta_by_period(tr).tobytes()


class TestSarMulti:
    def test_constant_gap_total(self):
        inst = SingleQueueInstance(2, 1.0, (0.6, 0.5))
        tr = run_single(inst, "fixed:1", 11, 0)
        out = sar_multi(tr, epsilon=0.1)
        assert out[-1] == pytest.approx(10 * ((0.6 - 0.5) - 0.05))

    def test_matches_single_exactly_on_embedding(self):
        inst = figure1_instance()
        net = single_to_network(inst)
        for seed in range(3):
            single = run_single(inst, "ucb", 400, seed)
            multi = run_network(net, "mw-ucb", 400, seed)
            a = sar_single(single, inst, 0.1)
            b = sar_multi(multi, epsilon=0.1)
            assert np.array_equal(a, b)

    def test_routing_network_is_cumulative_delta_loss(self):
        inst = tandem_instance(2, (0.8, 0.6), 0.5)
        tr = run_network(inst, "bp-ucb", 50, 0)
        want = np.cumsum(np.maximum(delta_by_period(tr) - 0.05 / 2.0, 0.0))
        assert sar_multi(tr, 0.05).tobytes() == want.tobytes()


class TestLyapunovReport:
    def test_hand_trace_margins(self):
        inst = SingleQueueInstance(1, 1.0, (0.0,))
        tr = _hand_trace([[0], [1], [2], [3], [3]], inst)
        rep = lyapunov_report(tr)
        assert rep.passed
        by_name = {c.name: c for c in rep.checks}
        # Both cumulative-vs-peak margins are tight at the first prefix
        # (cum = 0, peak = 0) and slack afterwards.
        assert by_name["cum_vs_peak_sq_l1"].margin == 0.0
        assert by_name["cum_vs_peak_sq_l1"].period == 1
        assert by_name["cum_vs_peak_sq_single"].margin == 0.0
        assert by_name["unit_step_single"].margin == 0.0

    def test_detects_violation(self):
        inst = SingleQueueInstance(1, 1.0, (0.0,))
        tr = _hand_trace([[0], [2], [2], [2], [2]], inst)  # jump of 2
        rep = lyapunov_report(tr)
        assert not rep.passed
        failed = {c.name for c in rep.checks if not c.passed}
        assert "unit_step_single" in failed
        assert "l1_increase_le_m_arr" in failed

    def test_simulated_traces_pass(self):
        for inst, policy in [
            (figure1_instance(), "ucb"),
            (tandem_instance(2, (0.8, 0.6), 0.5), "bp-ucb"),
        ]:
            tr = run_single(inst, policy, 400, 7) if isinstance(
                inst, SingleQueueInstance
            ) else run_network(inst, policy, 400, 7)
            rep = lyapunov_report(tr)
            assert rep.passed, [c.name for c in rep.checks if not c.passed]


class TestTheoremBounds:
    def test_figure1_frozen_values(self):
        tb = theorem_bounds(figure1_instance(), 0.1)
        assert tb.ucb_clq_upper == 36036.74591495101
        assert tb.optimal_avg_upper == 5.0
        assert tb.single_lower is None  # K = 5 is far below the regime
        assert tb.mw_clq_upper > 0
        assert tb.bp_clq_upper is None  # no transition mass

    def test_lower_bound_regime(self):
        k = 2**14
        big = SingleQueueInstance(k, 0.5, tuple([0.75] * k))
        assert theorem_bounds(big, 0.25).single_lower == 4.0
        assert theorem_bounds(big, 0.26).single_lower is None
        small = SingleQueueInstance(k - 1, 0.5, tuple([0.75] * (k - 1)))
        assert theorem_bounds(small, 0.25).single_lower is None

    def test_network_fields(self):
        tb = theorem_bounds(tandem_instance(2, (0.8, 0.6), 0.5), 0.05)
        assert tb.ucb_clq_upper is None
        assert tb.single_lower is None
        assert tb.bp_clq_upper is not None and tb.bp_clq_upper > 0

    def test_requires_positive_epsilon(self):
        with pytest.raises(ValueError):
            theorem_bounds(figure1_instance(), 0.0)


class TestSeriesCsv:
    def test_full_round_trip(self, tmp_path):
        inst = figure1_instance()
        traces = [run_single(inst, "ucb", 60, s) for s in range(3)]
        bench = [run_single(inst, "oracle-best", 60, s) for s in range(3)]
        series = time_averaged_series(traces, epsilon=0.1, include_delta=True)
        bench_series = time_averaged_series(bench)
        path = tmp_path / "series.csv"
        series_to_csv(series, str(path), benchmark=bench_series)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "T",
            "avg_queue_mean",
            "avg_queue_se",
            "clq_running",
            "sar_mean",
            "sar_se",
            "delta_mean",
        ]
        assert len(rows) == 61
        body = rows[1:]
        assert [int(r[0]) for r in body] == list(range(1, 61))
        assert float(body[-1][3]) == clq_estimate(series, bench_series)
        running = [float(r[3]) for r in body]
        assert running == sorted(running)  # running peak is nondecreasing
        for i in (7, 23, 59):
            assert float(body[i][1]) == series.avg_queue_mean[i]
            assert float(body[i][4]) == series.sar_mean[i]

    def test_optional_columns_empty(self, tmp_path):
        traces = [run_single(figure1_instance(), "ucb", 20, s) for s in range(2)]
        series = time_averaged_series(traces)
        path = tmp_path / "bare.csv"
        series_to_csv(series, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        for r in rows[1:]:
            assert r[4] == "" and r[5] == "" and r[6] == ""

    @pytest.mark.parametrize(
        "epsilon, include_delta, with_bench", [(0.1, True, True), (None, False, False)]
    )
    def test_bytes_equal_row_loop(self, tmp_path, epsilon, include_delta, with_bench):
        # Reference: one row at a time, every float through repr.
        inst = figure1_instance()
        series = time_averaged_series(
            [run_single(inst, "ucb", 300, s) for s in range(3)], epsilon, include_delta
        )
        bench = time_averaged_series([run_single(inst, "oracle-best", 300, s) for s in range(3)])
        bench = bench if with_bench else None
        path = tmp_path / "series.csv"
        series_to_csv(series, str(path), benchmark=bench)
        assert path.read_bytes() == _row_loop_csv(series, bench)

    def test_bytes_equal_row_loop_across_blocks(self, tmp_path):
        # Three blocks, the last one short, on every column.
        horizon = 2 * SERIES_BLOCK + 1235
        inst = figure1_instance()
        series = time_averaged_series(
            [run_single(inst, "ucb", horizon, s) for s in range(3)], 0.1, include_delta=True
        )
        bench = time_averaged_series([run_single(inst, "oracle-best", horizon, s) for s in range(3)])
        path = tmp_path / "series.csv"
        for b in (bench, None):
            series_to_csv(series, str(path), benchmark=b)
            assert path.read_bytes() == _row_loop_csv(series, b)

    def test_run_rendering_hand_built(self, tmp_path):
        nan, inf = float("nan"), float("inf")
        signed_nan = np.frombuffer(np.array([0x7FF8000000000001], dtype=np.int64).tobytes())[0]
        mean = np.array([0.0, -0.0, -0.0, 0.0, nan, nan, signed_nan, inf, inf, -inf, 1.5, 1.5])
        one_run = np.full(len(mean), 2.5)
        series = MetricSeries(len(mean), 2, mean, np.zeros(len(mean)), sar_mean=one_run, sar_se=-mean)
        block = render_series_block((0, [mean, mean, mean, one_run, -mean, None]))
        rows = [line.split(",") for line in block.split("\r\n")[:-1]]
        assert [r[1] for r in rows] == [
            "0.0", "-0.0", "-0.0", "0.0", "nan", "nan", "nan", "inf", "inf", "-inf", "1.5", "1.5"
        ]
        assert [r[4] for r in rows] == ["2.5"] * len(mean)
        assert [r[5] for r in rows][:4] == ["-0.0", "0.0", "0.0", "-0.0"]
        assert [r[0] for r in rows] == [str(t) for t in range(1, len(mean) + 1)]
        assert all(r[6] == "" for r in rows)
        assert render_series_block((41, [mean[1:2], mean[:1], mean[4:5], None, None, None])) == (
            "42,-0.0,0.0,nan,,,\r\n"
        )
        path = tmp_path / "hand.csv"
        series_to_csv(series, str(path))
        assert path.read_bytes() == _row_loop_csv(series, None)


def _row_loop_csv(series, bench) -> bytes:
    """A series CSV as the per-row loop wrote it: every float through repr."""
    adjusted = series.avg_queue_mean - (0.0 if bench is None else bench.avg_queue_mean)
    cols = (
        series.avg_queue_mean,
        series.avg_queue_se,
        np.maximum.accumulate(adjusted),
        series.sar_mean,
        series.sar_se,
        series.delta_mean,
    )
    want = "T,avg_queue_mean,avg_queue_se,clq_running,sar_mean,sar_se,delta_mean\r\n"
    for i in range(series.horizon):
        vals = ["" if col is None else repr(float(col[i])) for col in cols]
        want += f"{i + 1}," + ",".join(vals) + "\r\n"
    return want.encode()
