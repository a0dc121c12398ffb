"""Dynamics, determinism, replay, embeddings, and the coupling check's queues."""
import csv
import io
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clqsim import cli, engine
from clqsim.engine import (
    STREAM_IDS,
    RandomSource,
    replay_csv_error,
    replay_error,
    run,
    run_network,
    run_single,
    seed_block_uniforms,
    trace_csv_lines,
    trace_to_csv,
)
from clqsim.instances import figure1_instance, random_with_slackness, tandem_instance
from clqsim.model import (
    ArrivalModel,
    NetworkInstance,
    ScheduleSet,
    SingleQueueInstance,
    single_to_network,
    slackness_single,
)
from clqsim.policies import PolicyError, PolicyState
from reference import mu_hat_of


class TestRandomSource:
    def test_reproducible(self):
        a = RandomSource(7, "arrival").uniforms(100)
        b = RandomSource(7, "arrival").uniforms(100)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RandomSource(7, "arrival").uniforms(100)
        s = RandomSource(7, "service").uniforms(100)
        assert not np.array_equal(a, s)

    def test_prefix_stability(self):
        short = RandomSource(3, "service").uniforms(10)
        long = RandomSource(3, "service").uniforms(1000)
        assert np.array_equal(short, long[:10])


class TestSeedBlockUniforms:
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**127, 2**128 - 1]

    @pytest.mark.parametrize("stream", sorted(STREAM_IDS))
    @pytest.mark.parametrize("shape", [(9,), (9, 3)])
    def test_matches_random_source(self, stream, shape):
        got = seed_block_uniforms(self.SEEDS, stream, *shape)
        assert got.shape == (len(self.SEEDS), *shape) and got.dtype == np.float64
        for row, seed in zip(got, self.SEEDS):
            assert np.array_equal(row, RandomSource(seed, stream).uniforms(*shape)), seed

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(0, 2**128 - 1), min_size=1, max_size=4),
        st.sampled_from(sorted(STREAM_IDS)),
    )
    def test_any_seed_below_2_128(self, seeds, stream):
        got = seed_block_uniforms(seeds, stream, 4, 2)
        for row, seed in zip(got, seeds):
            assert np.array_equal(row, RandomSource(seed, stream).uniforms(4, 2)), seed

    def test_numpy_integer_seeds(self):
        got = seed_block_uniforms(np.arange(3), "service", 6)
        assert np.array_equal(got, seed_block_uniforms([0, 1, 2], "service", 6))

    @pytest.mark.parametrize("shape", [(5,), (5, 2)])
    def test_no_seeds(self, shape):
        assert seed_block_uniforms([], "arrival", *shape).shape == (0, *shape)

    # Seeds at the top of the domain, where every hash and LCG limb is full.
    TOP = [2**128 - 1 - i for i in range(40)] + [2**127 + 3, 0]

    @pytest.mark.parametrize("stream", ["arrival", "service"])
    @pytest.mark.parametrize(
        "shape",
        [
            (1,),
            (5,),
            (engine.BLOCK_DRAWS,),
            (engine.BLOCK_DRAWS + 1,),
            (5, 5),
            (engine.BLOCK_DRAWS // 4, 4),
            (engine.BLOCK_DRAWS // 4 + 1, 4),
            (40, 5),
        ],
    )
    def test_both_sides_of_block_draws(self, stream, shape):
        """Rows up to BLOCK_DRAWS come from the block LCG, longer ones from
        numpy's PCG64; both equal RandomSource, in the shared (h,) and the
        per-server (h, k) service shapes."""
        got = seed_block_uniforms(self.TOP, stream, *shape)
        for row, seed in zip(got, self.TOP):
            assert np.array_equal(row, RandomSource(seed, stream).uniforms(*shape)), seed
        assert seed_block_uniforms([], stream, *shape).shape == (0, *shape)

    def test_short_rows_build_no_generator(self, monkeypatch):
        seeds = [2**128 - 1 - i for i in range(engine.BLOCK_SEEDS_PER_DRAW * 25)]
        want = [RandomSource(s, "service").uniforms(5, 5) for s in seeds]
        monkeypatch.setattr(np.random, "PCG64", None)
        assert np.array_equal(seed_block_uniforms(seeds, "service", 5, 5), want)

    @staticmethod
    def _spy_blocks(monkeypatch) -> list:
        """Record the seed count of every _pcg64_block call."""
        calls, block = [], engine._pcg64_block
        monkeypatch.setattr(engine, "_pcg64_block", lambda w, out: calls.append(len(w)) or block(w, out))
        return calls

    @pytest.mark.parametrize("shape", [(1,), (5,), (5, 2), (5, 5), (engine.BLOCK_DRAWS,)])
    def test_both_sides_of_block_seeds(self, monkeypatch, shape):
        """Short rows come from the block LCG from BLOCK_SEEDS_PER_DRAW seeds
        per draw on, and from numpy's PCG64 below; both equal RandomSource."""
        at = engine.BLOCK_SEEDS_PER_DRAW * math.prod(shape)
        calls = self._spy_blocks(monkeypatch)
        for n in (at - 1, at):
            seeds = [2**128 - 1 - i for i in range(n - 1)] + [0]
            got = seed_block_uniforms(seeds, "service", *shape)
            for row, seed in zip(got, seeds):
                assert np.array_equal(row, RandomSource(seed, "service").uniforms(*shape)), seed
        assert calls == [at]

    @pytest.mark.parametrize("mode", ["shared", "independent"])
    def test_coupling_blocks_take_the_block_lcg(self, monkeypatch, mode):
        # Each arm of the coupling check (10**4 seeds) fits one block of
        # cli.COUPLING_BLOCK_BYTES and draws its arrival and service rows in
        # one pass.
        calls = self._spy_blocks(monkeypatch)
        cli._coupling_queues(figure1_instance(), range(10_000), 5, mode)
        assert calls == [10_000, 10_000]

    @pytest.mark.parametrize("seed", [-1, 2**128, 2**200])
    def test_seed_domain(self, seed):
        with pytest.raises(ValueError, match=r"2\*\*128"):
            seed_block_uniforms([0, seed], "arrival", 3)


class TestRunSingle:
    def test_no_arrivals_stays_empty(self):
        inst = SingleQueueInstance(3, 0.0, (0.5, 0.5, 0.5))
        tr = run_single(inst, "ucb", 50, 0)
        assert not tr.q.any()
        assert not tr.schedule.any()

    def test_pure_accumulation(self):
        inst = SingleQueueInstance(1, 1.0, (0.0,))
        tr = run_single(inst, "ucb", 40, 1)
        # Q(t) = t - 1: arrivals always land, service never succeeds.
        assert np.array_equal(tr.q[:, 0], np.arange(41))

    def test_starts_empty(self):
        tr = run_single(figure1_instance(), "ucb", 10, 3)
        assert tr.q[0, 0] == 0

    def test_deterministic(self):
        inst = figure1_instance()
        a = run_single(inst, "ucb", 500, 11)
        b = run_single(inst, "ucb", 500, 11)
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.schedule, b.schedule)
        assert np.array_equal(a.services, b.services)
        assert np.array_equal(a.arrivals, b.arrivals)

    def test_unit_steps(self):
        tr = run_single(figure1_instance(), "round-robin", 500, 5)
        steps = np.abs(np.diff(tr.q[:, 0]))
        assert steps.max() <= 1

    def test_replay_matches(self):
        for policy in ("ucb", "oracle-best", "fixed:1", "round-robin"):
            tr = run_single(figure1_instance(), policy, 300, 2)
            assert replay_error(tr) is None

    def test_service_modes_have_same_law_shape(self):
        inst = SingleQueueInstance(2, 0.4, (0.5, 0.7))
        shared = run_single(inst, "ucb", 200, 0, service_mode="shared")
        indep = run_single(inst, "ucb", 200, 0, service_mode="independent")
        assert replay_error(shared) is None
        assert replay_error(indep) is None

    def test_snapshot_stride_must_be_zero(self):
        # Runs record no estimator snapshots, so the keyword accepts only 0.
        single, net = figure1_instance(), tandem_instance(2, (0.8, 0.6), 0.5)
        for fn, inst in [(run_single, single), (run_network, net), (run, single), (run, net)]:
            with pytest.raises(ValueError, match="snapshot_stride must be 0"):
                fn(inst, "ucb", 100, 0, snapshot_stride=10)

    def test_estimates_are_exact_ratios(self, monkeypatch):
        state = PolicyState(5, 1)
        monkeypatch.setattr(engine, "PolicyState", lambda k, n: state)
        tr = run_single(figure1_instance(), "ucb", 400, 9)
        for k in range(5):
            served = int(tr.schedule[:, k].sum())
            won = int(tr.services[:, k].sum())
            assert state.counts[k] == served
            if served:
                assert mu_hat_of(state)[k] == won / served

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            run_single(figure1_instance(), "ucb", 0, 0)


def _fixed_server_reference(inst, server, horizon, seed, service_mode):
    """Per-period loop of a single queue served only by server: the recursion
    Q(t+1) = Q(t) - S(t) + A(t), service tried only when Q(t) >= 1."""
    u_arr = RandomSource(seed, "arrival").uniforms(horizon)
    shape = (horizon,) if service_mode == "shared" else (horizon, inst.k)
    u_srv = RandomSource(seed, "service").uniforms(*shape)
    q = np.zeros((horizon + 1, 1), dtype=np.int64)
    schedule = np.zeros((horizon, inst.k), dtype=np.uint8)
    services = np.zeros((horizon, inst.k), dtype=np.uint8)
    arrivals = np.zeros((horizon, 1), dtype=np.uint8)
    for t in range(horizon):
        s = 0
        if q[t, 0] > 0:
            u = u_srv[t] if service_mode == "shared" else u_srv[t, server]
            s = int(u <= inst.mu[server])
            schedule[t, server], services[t, server] = 1, s
        arrivals[t, 0] = int(u_arr[t] <= inst.lam)
        q[t + 1, 0] = q[t, 0] - s + arrivals[t, 0]
    return q, schedule, services, arrivals


def _run_single_lines(*args, **kwargs):
    """run_single(*args, **kwargs) and the number of its own source lines
    executed, counted with a trace function on run_single's frames only."""
    code, lines, previous = run_single.__code__, 0, sys.gettrace()

    def count(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return count

    sys.settrace(lambda frame, event, arg: count if frame.f_code is code else None)
    try:
        trace = run_single(*args, **kwargs)
    finally:
        sys.settrace(previous)
    return trace, lines


class TestFixedServerClosedForm:
    @pytest.mark.parametrize(
        "policy, server", [("oracle-best", 4), ("oracle-mw", 4), ("fixed:1", 1)]
    )
    @pytest.mark.parametrize("service_mode", ["shared", "independent"])
    @pytest.mark.parametrize("horizon", [1, 2, 5000])
    def test_equals_reference_recursion(self, policy, server, service_mode, horizon):
        inst = figure1_instance()  # lam 0.45: fixed:1 (mu 0.35) is unstable
        # The closed form replaces the loop: run_single executes as many lines
        # at this horizon as at horizon 3, so no per-period code runs.
        _, lines = _run_single_lines(inst, policy, 3, 0, service_mode=service_mode)
        for seed in range(10):
            tr, n = _run_single_lines(inst, policy, horizon, seed, service_mode=service_mode)
            assert n == lines
            want = _fixed_server_reference(inst, server, horizon, seed, service_mode)
            for got, ref in zip((tr.q, tr.schedule, tr.services, tr.arrivals), want):
                assert got.dtype == ref.dtype and np.array_equal(got, ref)

    def test_line_count_sees_the_loop(self):
        inst = figure1_instance()
        assert _run_single_lines(inst, "round-robin", 3, 0)[1] < _run_single_lines(inst, "round-robin", 30, 0)[1]

    def test_no_embedding_built(self, monkeypatch):
        from clqsim import model

        def refuse(inst):
            raise AssertionError("single-queue embedding built")

        monkeypatch.setattr(model, "single_to_network", refuse)
        inst = figure1_instance()
        for policy in ("ucb", "mw-ucb", "oracle-best", "fixed:2", "round-robin"):
            run_single(inst, policy, 200, 0)
        monkeypatch.undo()
        assert model.as_network(inst) is model.as_network(inst)


class TestRunNetwork:
    def test_single_server_network_replay(self):
        inst = NetworkInstance(
            n=1,
            k=1,
            arrivals=ArrivalModel(support=((1,),), probs=(1.0,)),
            mu=(0.9,),
            schedules=ScheduleSet.closure([(1,)], 1),
            server_queue=(0,),
            transitions=NetworkInstance.exit_only_transitions(1, 1),
        )
        tr = run_network(inst, "mw-ucb", 30, 0)
        assert replay_error(tr) is None

    def test_deterministic_arrival_row(self):
        inst = NetworkInstance(
            n=2,
            k=2,
            arrivals=ArrivalModel(support=((1, 0),), probs=(1.0,)),
            mu=(0.0, 0.0),
            schedules=ScheduleSet.closure([(1, 1)], 2),
            server_queue=(0, 1),
            transitions=NetworkInstance.exit_only_transitions(2, 2),
        )
        tr = run_network(inst, "oracle-mw", 25, 4)
        assert np.array_equal(tr.q[:, 0], np.arange(26))
        assert not tr.q[:, 1].any()

    def test_embedding_reproduces_run_single(self):
        inst = figure1_instance()
        net = single_to_network(inst)
        for seed in (0, 1, 2):
            single = run_single(inst, "ucb", 400, seed)
            multi = run_network(net, "mw-ucb", 400, seed)
            assert np.array_equal(single.q[:, 0], multi.q[:, 0])
            assert np.array_equal(single.schedule, multi.schedule)
            assert np.array_equal(single.services, multi.services)
            assert np.array_equal(single.arrivals, multi.arrivals)

    def test_tandem_hand_step(self):
        # Deterministic services: queue 1's intake each period equals
        # queue 0's successes, one period later.
        inst = tandem_instance(2, (1.0, 1.0), 1.0)
        tr = run_network(inst, "oracle-mw", 6, 0)
        assert [list(r) for r in tr.q[:4]] == [[0, 0], [1, 0], [1, 1], [1, 1]]
        for t in range(5):
            fed = int(tr.services[t, 0])
            gain = tr.q[t + 1, 1] - tr.q[t, 1] + int(tr.services[t, 1])
            assert gain == fed

    def test_transition_targets_recorded(self):
        inst = tandem_instance(2, (1.0, 1.0), 1.0)
        tr = run_network(inst, "oracle-mw", 10, 0)
        assert tr.targets is not None
        hit = tr.services[:, 0] == 1
        assert (tr.targets[hit, 0] == 1).all()
        exits = tr.services[:, 1] == 1
        assert (tr.targets[exits, 1] == 2).all()

    def test_exit_only_conservation(self):
        inst = tandem_instance(1, (0.6,), 0.5)
        tr = run_network(inst, "oracle-mw", 500, 8)
        assert tr.arrivals.sum() == tr.q[-1].sum() + tr.services.sum()

    def test_network_replay(self):
        inst = tandem_instance(3, (0.8, 0.7, 0.6), 0.4)
        for policy in ("bp-ucb", "mw-ucb", "oracle-bp"):
            tr = run_network(inst, policy, 400, 3)
            assert replay_error(tr) is None

    def test_infeasible_schedule_rejected(self, monkeypatch):
        # The feasible-rows lookup offers only (1, 1) at t=1, when both
        # queues are empty; the engine must refuse to run an infeasible row.
        inst = tandem_instance(2, (0.9, 0.9), 0.5)
        table = inst.schedule_table
        both = table.row[(1, 1)]
        monkeypatch.setitem(table.memo, (0, 0), [(both, table.servers[both])])
        with pytest.raises(PolicyError, match=r"schedule \(1, 1\) infeasible at t=1"):
            run_network(inst, "oracle-mw", 5, 0)

    @pytest.mark.parametrize("policy", ["round-robin", "fixed:0", "mw-ucb", "oracle-bp"])
    def test_schedule_set_without_zero_rejected(self, policy):
        # No schedule fits the empty start, so no policy has a row to run.
        inst = NetworkInstance(
            n=2,
            k=2,
            arrivals=ArrivalModel(support=((1, 1), (0, 0)), probs=(0.5, 0.5)),
            mu=(0.5, 0.5),
            schedules=ScheduleSet(schedules=((1, 0), (0, 1))),
            server_queue=(0, 1),
            transitions=NetworkInstance.exit_only_transitions(2, 2),
        )
        with pytest.raises(PolicyError, match="lacks the all-zero schedule"):
            run_network(inst, policy, 5, 0)


class TestRunDispatcher:
    def test_dispatch_by_type(self):
        single = run(figure1_instance(), "ucb", 50, 0)
        assert single.q.shape == (51, 1)
        net = run(tandem_instance(2, (0.8, 0.6), 0.5), "bp-ucb", 50, 0)
        assert net.q.shape == (51, 2)


def _auxiliary(inst):
    """The coupling's auxiliary queue: one server of rate mu* - eps/2."""
    return SingleQueueInstance(1, inst.lam, (inst.mu_star - slackness_single(inst) / 2.0,))


class TestCoupledPair:
    # The coupled pair is a UCB run and an oracle-best run of the auxiliary
    # queue under the same seed; common random numbers tie them together.
    def test_shared_arrivals(self):
        inst = figure1_instance()
        primary = run_single(inst, "ucb", 300, 2)
        auxiliary = run_single(_auxiliary(inst), "oracle-best", 300, 2)
        assert np.array_equal(primary.arrivals, auxiliary.arrivals)

    def test_zero_arrivals_both_empty(self):
        inst = SingleQueueInstance(2, 0.0, (0.5, 0.7))
        primary = run_single(inst, "ucb", 100, 0)
        auxiliary = run_single(_auxiliary(inst), "oracle-best", 100, 0)
        assert not primary.q.any()
        assert not auxiliary.q.any()


class TestUcbQueuePaths:
    """cli._coupling_queues, server 0's Lindley queue, equals ucb's queue
    from run_single up to horizon 6."""

    INSTANCES = [
        figure1_instance(),
        SingleQueueInstance(2, 0.5, (0.3, 0.7)),
        SingleQueueInstance(1, 0.6, (0.65,)),
        SingleQueueInstance(7, 0.5, (0.05, 0.1, 0.15, 0.2, 0.3, 0.6, 0.95)),
    ]

    @staticmethod
    def _ucb_queue(inst, horizon, seed, mode):
        return run_single(inst, "ucb", horizon, seed, service_mode=mode).q[horizon - 1, 0]

    @pytest.mark.parametrize("inst", INSTANCES)
    @pytest.mark.parametrize("mode", ["shared", "independent"])
    @pytest.mark.parametrize("horizon", range(1, 7))
    def test_matches_run_single(self, inst, mode, horizon, monkeypatch):
        # 6720 bytes hold the service draws of 20 to 840 seeds by shape, so
        # most cases run several blocks and then a partial one.
        monkeypatch.setattr(cli, "COUPLING_BLOCK_BYTES", 6720)
        seeds = range(1000, 1200)
        got = cli._coupling_queues(inst, seeds, horizon, mode)
        assert got.shape == (200,) and got.dtype == np.int64
        for q, seed in zip(got, seeds):
            assert q == self._ucb_queue(inst, horizon, seed, mode), seed

    def test_default_block_partial(self):
        inst = figure1_instance()
        size = cli.COUPLING_BLOCK_BYTES // (8 * 5 * inst.k)
        got = cli._coupling_queues(inst, range(size + 7), 5, "independent")
        for seed in (0, size - 1, size, size + 6):
            assert got[seed] == self._ucb_queue(inst, 5, seed, "independent"), seed

    @pytest.mark.parametrize("mode", ["shared", "independent"])
    def test_block_straddles_2_32(self, mode, monkeypatch):
        # One block of 64 seeds below 2**32 and 64 from it on, then a short one.
        inst = SingleQueueInstance(2, 0.5, (0.3, 0.7))
        monkeypatch.setattr(cli, "COUPLING_BLOCK_BYTES", 128 * 8 * 6 * (1 if mode == "shared" else 2))
        seeds = range(2**32 - 64, 2**32 + 80)
        got = cli._coupling_queues(inst, seeds, 6, mode)
        for q, seed in zip(got, seeds):
            assert q == self._ucb_queue(inst, 6, seed, mode), seed

    def test_no_seeds(self):
        assert cli._coupling_queues(figure1_instance(), [], 5, "shared").shape == (0,)

    def test_validation(self):
        for horizon in (0, 7):
            with pytest.raises(ValueError, match="1..6"):
                cli._coupling_queues(figure1_instance(), [0], horizon, "shared")
        with pytest.raises(ValueError):
            cli._coupling_queues(figure1_instance(), [0, -1], 5, "shared")


class TestTraceCsv:
    def test_round_trip_replay(self, tmp_path):
        inst = tandem_instance(2, (0.8, 0.6), 0.5)
        tr = run_network(inst, "bp-ucb", 200, 1)
        path = tmp_path / "t.csv"
        trace_to_csv(tr, str(path))
        assert replay_csv_error(str(path), tr) is None

    def test_detects_corruption(self, tmp_path):
        tr = run_single(figure1_instance(), "ucb", 100, 0)
        path = tmp_path / "t.csv"
        trace_to_csv(tr, str(path))
        lines = path.read_text().splitlines()
        parts = lines[50].split(",")
        want = parts[1]
        parts[1] = str(int(parts[1]) + 1)
        lines[50] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        err = replay_csv_error(str(path), tr)
        assert err == f"line 51: q_0 '{parts[1]}' differs from the re-run ('{want}')"

    def test_rejects_nonempty_start(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = ["t,q_0,schedule,arrivals,services,transitions"]
        rows += [f"{t},5,0,0,0," for t in range(1, 11)]
        path.write_text("\n".join(rows) + "\n")
        err = replay_csv_error(str(path), run_single(figure1_instance(), "ucb", 10, 0))
        assert err == "line 2: q_0 '5' differs from the re-run ('0')"

    def test_rejects_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t,q_0,schedule,arrivals,services,transitions\n")
        tr = run_single(figure1_instance(), "ucb", 10, 0)
        assert replay_csv_error(str(path), tr) == "no data rows"

    def test_rejects_self_consistent_file_of_another_run(self, tmp_path):
        tr = run_single(figure1_instance(), "ucb", 200, 0)
        path = tmp_path / "t.csv"
        rows = ["t,q_0,schedule,arrivals,services,transitions"]
        rows += [f"{t},0,0,0,0," for t in range(1, 201)]
        path.write_text("\n".join(rows) + "\n")
        err = replay_csv_error(str(path), tr)
        assert err is not None and "differs from the re-run" in err

    def test_rejects_wrong_row_count(self, tmp_path):
        tr = run_single(figure1_instance(), "ucb", 100, 0)
        path = tmp_path / "t.csv"
        trace_to_csv(tr, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        assert replay_csv_error(str(path), tr) == "99 data rows for horizon 100"

    def test_final_period_transition_compared(self, tmp_path):
        # The last row's events change no later queue vector, so only the
        # comparison with the trace can see a rewritten destination.
        inst = tandem_instance(2, (0.8, 0.6), 0.5)
        tr = next(
            t for t in (run_network(inst, "bp-ucb", 200, s) for s in range(50))
            if t.services[-1, 0]
        )
        path = tmp_path / "t.csv"
        trace_to_csv(tr, str(path))
        lines = path.read_text().splitlines()
        assert "0>1" in lines[-1]
        lines[-1] = lines[-1].replace("0>1", "0>2")
        path.write_text("\n".join(lines) + "\n")
        err = replay_csv_error(str(path), tr)
        assert err is not None and err.startswith("line 201: transitions")

    @pytest.mark.parametrize("cell", ["0>1>2", "0>", "0>-1", "0>3"])
    def test_malformed_transition_cell(self, tmp_path, cell):
        inst = tandem_instance(2, (0.8, 0.6), 0.5)
        tr = run_network(inst, "bp-ucb", 200, 1)
        path = tmp_path / "t.csv"
        trace_to_csv(tr, str(path))
        lines = path.read_text().splitlines()
        parts = lines[40].split(",")
        want = parts[-1]
        parts[-1] = cell
        lines[40] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        err = replay_csv_error(str(path), tr)
        assert err == f"line 41: transitions '{cell}' differs from the re-run ('{want}')"

    def test_lf_line_ends_accepted(self, tmp_path):
        tr = run_network(tandem_instance(2, (0.8, 0.6), 0.5), "bp-ucb", 50, 0)
        path = tmp_path / "t.csv"
        trace_to_csv(tr, str(path))
        assert path.read_bytes().count(b"\r\n") == 51
        path.write_text("\n".join(path.read_text().splitlines()) + "\n")
        assert replay_csv_error(str(path), tr) is None


def _reference_csv(trace) -> bytes:
    """The trace CSV as the per-row csv.writer loop wrote it."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    n = trace.q.shape[1]
    w.writerow(
        ["t"] + [f"q_{i}" for i in range(n)] + ["schedule", "arrivals", "services", "transitions"]
    )
    masks = []
    for events in (trace.schedule, trace.arrivals, trace.services):
        masks.append([sum(1 << int(c) for c in np.nonzero(row)[0]) for row in events])
    for t in range(trace.horizon):
        trans = ""
        if trace.targets is not None:
            pairs = [f"{srv}>{trace.targets[t, srv]}" for srv in np.nonzero(trace.services[t])[0]]
            trans = ";".join(pairs)
        w.writerow([t + 1] + trace.q[t].tolist() + [m[t] for m in masks] + [trans])
    return buf.getvalue().encode()


class TestTraceCsvBytes:
    """trace_to_csv writes the bytes of the csv.writer row loop it replaced."""

    POLICIES = (
        "ucb", "mw-ucb", "bp-ucb", "oracle-best", "oracle-mw", "oracle-bp", "fixed:0", "round-robin"
    )

    @pytest.mark.parametrize(
        "inst",
        [
            figure1_instance(),
            tandem_instance(3, (0.8, 0.7, 0.6), 0.4),
            random_with_slackness(3, 6, 0.1, 7, "multi"),
            random_with_slackness(2, 4, 0.1, 3, "network"),
        ],
        ids=["fig1", "tandem-3", "multi-3-6", "network-2-4"],
    )
    def test_equals_row_loop(self, tmp_path, inst):
        path = tmp_path / "t.csv"
        seen = set()
        for policy in self.POLICIES:
            for seed in (0, 1, 2):
                for horizon in (1, 2, 500):
                    tr = run(inst, policy, horizon, seed)
                    trace_to_csv(tr, str(path))
                    assert path.read_bytes() == _reference_csv(tr), (policy, seed, horizon)
                    seen.update(line.rsplit(",", 1)[1] for line in trace_csv_lines(tr)[1:])
        if not isinstance(inst, SingleQueueInstance) and not inst.exit_only:
            assert "" in seen and any(";" in cell for cell in seen)

    def test_masks_beyond_int64(self, tmp_path):
        inst = SingleQueueInstance(70, 0.9, tuple(0.02 + 0.01 * (j % 5) for j in range(70)))
        tr = run_single(inst, "round-robin", 300, 0)
        assert tr.schedule[:, 63:].any()
        path = tmp_path / "t.csv"
        trace_to_csv(tr, str(path))
        assert path.read_bytes() == _reference_csv(tr)
        assert max(int(line.split(",")[2]) for line in trace_csv_lines(tr)[1:]) >= 2**63


def _masks_row_loop(events) -> list[int]:
    """The per-event loop engine._masks replaced."""
    masks = [0] * events.shape[0]
    rows, cols = np.nonzero(events)
    for r, c in zip(rows.tolist(), cols.tolist()):
        masks[r] |= 1 << c
    return masks


class TestMasks:
    @pytest.mark.parametrize("cols", [1, 5, 63, 64, 70, 129])
    @pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
    def test_equals_event_loop(self, cols, density):
        rng = np.random.default_rng(cols)
        events = (rng.random((257, cols)) < density).astype(np.uint8)
        got = engine._masks(events)
        assert got == _masks_row_loop(events)
        assert all(type(m) is int for m in got)
        if density == 1.0:
            assert got == [2**cols - 1] * 257

    def test_no_rows(self):
        assert engine._masks(np.zeros((0, 5), dtype=np.uint8)) == []
