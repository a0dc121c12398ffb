"""Dynamics, determinism, replay, embeddings, and the coupled pair."""
import numpy as np
import pytest

from clqsim import engine
from clqsim.engine import (
    RandomSource,
    replay_csv_error,
    replay_error,
    run,
    run_coupled_single,
    run_network,
    run_single,
    trace_to_csv,
    ucb_queue_paths,
)
from clqsim.instances import figure1_instance, tandem_instance
from clqsim.model import (
    ArrivalModel,
    NetworkInstance,
    ScheduleSet,
    SingleQueueInstance,
    single_to_network,
)
from clqsim.policies import PolicyError


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

    def test_snapshots_stride(self):
        tr = run_single(figure1_instance(), "ucb", 100, 0, snapshot_stride=10)
        assert list(tr.snapshots.periods) == list(range(1, 101, 10))
        tr0 = run_single(figure1_instance(), "ucb", 100, 0, snapshot_stride=0)
        assert tr0.snapshots is None

    def test_estimates_are_exact_ratios(self):
        tr = run_single(figure1_instance(), "ucb", 400, 9)
        state = tr.final_state
        for k in range(5):
            served = int(tr.schedule[:, k].sum())
            won = int(tr.services[:, k].sum())
            assert state.counts[k] == served
            if served:
                assert state.mu_hat[k] == won / served

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            run_single(figure1_instance(), "ucb", 0, 0)


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
        # Force the policy to emit (1, 1) at t=1 when both queues are empty;
        # the engine must refuse to run an infeasible schedule.
        from clqsim import engine
        from clqsim.policies import PolicyHandle, Runner

        inst = tandem_instance(2, (0.9, 0.9), 0.5)
        runner = Runner(PolicyHandle.parse("oracle-mw"), inst)
        runner.select_schedule = lambda q, t: (1, 1)
        monkeypatch.setattr(engine, "Runner", lambda h, i: runner)
        with pytest.raises(PolicyError):
            run_network(inst, "oracle-mw", 5, 0)


class TestRunDispatcher:
    def test_dispatch_by_type(self):
        single = run(figure1_instance(), "ucb", 50, 0)
        assert single.q.shape == (51, 1)
        net = run(tandem_instance(2, (0.8, 0.6), 0.5), "bp-ucb", 50, 0)
        assert net.q.shape == (51, 2)


class TestCoupledPair:
    def test_primary_identical_to_plain_run(self):
        inst = figure1_instance()
        pair = run_coupled_single(inst, "ucb", 400, 6)
        plain = run_single(inst, "ucb", 400, 6)
        assert np.array_equal(pair.primary.q, plain.q)
        assert np.array_equal(pair.primary.schedule, plain.schedule)

    def test_shared_arrivals(self):
        pair = run_coupled_single(figure1_instance(), "ucb", 300, 2)
        assert np.array_equal(pair.primary.arrivals, pair.auxiliary.arrivals)

    def test_auxiliary_dynamics(self):
        # Q~(t+1) = (Q~(t) - S~(t))^+ + A(t), exactly.
        pair = run_coupled_single(figure1_instance(), "ucb", 300, 2)
        aux = pair.auxiliary
        q = aux.q[:, 0]
        s = aux.services[:, 0]
        a = aux.arrivals[:, 0]
        for t in range(300):
            assert q[t + 1] == max(q[t] - s[t], 0) + a[t]

    def test_auxiliary_is_single_server_run(self):
        inst = figure1_instance()
        pair = run_coupled_single(inst, "ucb", 250, 4)
        aux_inst = pair.auxiliary.instance
        assert aux_inst.mu[0] == pytest.approx(inst.mu_star - pair.epsilon / 2)
        direct = run_single(aux_inst, "oracle-best", 250, 4)
        assert np.array_equal(direct.q, pair.auxiliary.q)

    def test_zero_arrivals_both_empty(self):
        inst = SingleQueueInstance(2, 0.0, (0.5, 0.7))
        pair = run_coupled_single(inst, "ucb", 100, 0)
        assert not pair.primary.q.any()
        assert not pair.auxiliary.q.any()

    def test_requires_stabilizable(self):
        inst = SingleQueueInstance(2, 0.5, (0.4, 0.4))
        with pytest.raises(ValueError):
            run_coupled_single(inst, "ucb", 10, 0)


class TestUcbQueuePaths:
    @pytest.mark.parametrize(
        "inst", [figure1_instance(), SingleQueueInstance(2, 0.5, (0.3, 0.7))]
    )
    @pytest.mark.parametrize("mode", ["shared", "independent"])
    @pytest.mark.parametrize("horizon", [5, 200])
    def test_matches_run_single(self, inst, mode, horizon, monkeypatch):
        # 300 seeds in blocks of 128: two full blocks and a partial one.
        monkeypatch.setattr(engine, "LOCKSTEP_BLOCK", 128)
        seeds = range(1000, 1300)
        paths = ucb_queue_paths(inst, horizon, seeds, mode)
        assert paths.shape == (300, horizon + 1) and paths.dtype == np.int64
        for row, seed in zip(paths, seeds):
            ref = run_single(inst, "ucb", horizon, seed, snapshot_stride=0, service_mode=mode)
            assert np.array_equal(row, ref.q[:, 0]), seed

    def test_default_block_partial(self):
        inst = figure1_instance()
        seeds = list(range(engine.LOCKSTEP_BLOCK + 7))
        paths = ucb_queue_paths(inst, 5, seeds, "independent")
        for seed in (0, engine.LOCKSTEP_BLOCK - 1, engine.LOCKSTEP_BLOCK, seeds[-1]):
            ref = run_single(inst, "ucb", 5, seed, snapshot_stride=0, service_mode="independent")
            assert np.array_equal(paths[seed], ref.q[:, 0])

    def test_no_seeds(self):
        assert ucb_queue_paths(figure1_instance(), 5, []).shape == (0, 6)

    def test_validation(self):
        with pytest.raises(ValueError):
            ucb_queue_paths(figure1_instance(), 0, [0])
        with pytest.raises(ValueError):
            ucb_queue_paths(figure1_instance(), 5, [0], "per-server")


class TestTraceCsv:
    def test_round_trip_replay(self, tmp_path):
        inst = tandem_instance(2, (0.8, 0.6), 0.5)
        tr = run_network(inst, "bp-ucb", 200, 1)
        path = tmp_path / "t.csv"
        trace_to_csv(tr, str(path))
        assert replay_csv_error(str(path), 2, 2, [0, 1]) is None

    def test_detects_corruption(self, tmp_path):
        tr = run_single(figure1_instance(), "ucb", 100, 0)
        path = tmp_path / "t.csv"
        trace_to_csv(tr, str(path))
        lines = path.read_text().splitlines()
        parts = lines[50].split(",")
        parts[1] = str(int(parts[1]) + 1)
        lines[50] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        err = replay_csv_error(str(path), 1, 5, [0] * 5)
        assert err is not None and "replay" in err

    def test_rejects_nonempty_start(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = ["t,q_0,schedule,arrivals,services,transitions"]
        rows += [f"{t},5,0,0,0," for t in range(1, 11)]
        path.write_text("\n".join(rows) + "\n")
        err = replay_csv_error(str(path), 1, 5, [0] * 5)
        assert err is not None and err.startswith("line 2:") and "empty start" in err

    def test_rejects_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t,q_0,schedule,arrivals,services,transitions\n")
        assert replay_csv_error(str(path), 1, 5, [0] * 5) == "no data rows"

    @pytest.mark.parametrize("cell", ["0>1>2", "0>", "0>-1", "0>3"])
    def test_malformed_transition_cell(self, tmp_path, cell):
        inst = tandem_instance(2, (0.8, 0.6), 0.5)
        tr = run_network(inst, "bp-ucb", 200, 1)
        path = tmp_path / "t.csv"
        trace_to_csv(tr, str(path))
        lines = path.read_text().splitlines()
        parts = lines[40].split(",")
        parts[-1] = cell
        lines[40] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        assert replay_csv_error(str(path), 2, 2, [0, 1]) == "line 41: malformed row"
