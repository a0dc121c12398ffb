"""Index formulas, schedule argmaxes, estimator updates, and policy purity."""
import math

import pytest

from clqsim import engine
from clqsim.engine import run_network, run_single
from clqsim.instances import random_with_slackness, tandem_instance
from clqsim.model import (
    ArrivalModel,
    NetworkInstance,
    ScheduleSet,
    ScheduleTable,
    SingleQueueInstance,
    single_to_network,
)
from clqsim.policies import (
    PolicyError,
    PolicyHandle,
    PolicyState,
    Runner,
    feasible_schedules,
)
from reference import (
    backpressure_select,
    lcb_transition,
    maxweight_select,
    mu_hat_of,
    r_hat_of,
    ucb_index,
    ucb_select,
)


class TestUcbIndex:
    def test_unvisited_clamps_to_one(self):
        assert ucb_index(0.0, 0, 1) == 1.0
        assert ucb_index(0.7, 0, 1_000) == 1.0

    def test_hand_value(self):
        # 0.2 + sqrt(2 ln(e^2) / 32) = 0.2 + sqrt(1/8)
        got = ucb_index(0.2, 32, math.e**2)
        assert got == pytest.approx(0.2 + math.sqrt(0.125), abs=1e-15)
        assert got == pytest.approx(0.55355, abs=5e-6)

    def test_upper_clamp(self):
        assert ucb_index(0.9, 2, 10) == 1.0

    def test_monotone_in_t_and_count(self):
        assert ucb_index(0.3, 10, 50) <= ucb_index(0.3, 10, 500)
        assert ucb_index(0.3, 40, 50) <= ucb_index(0.3, 10, 50)


class TestLcbTransition:
    def test_unvisited_is_zero(self):
        assert lcb_transition(0.9, 0, 10) == 0.0

    def test_hand_value(self):
        got = lcb_transition(0.5, 32, math.e**2)
        assert got == pytest.approx(0.5 - math.sqrt(0.125), abs=1e-15)
        assert got == pytest.approx(0.14645, abs=5e-6)

    def test_lower_clamp(self):
        assert lcb_transition(0.05, 8, 10) == 0.0

    def test_never_exceeds_estimate(self):
        for c in (1, 4, 100):
            assert lcb_transition(0.4, c, 7) <= 0.4


class TestUcbSelect:
    def test_empty_queue_idles(self):
        state = PolicyState(k=3, n=1)
        assert ucb_select(state, 0) is None

    def test_cold_start_picks_lowest_index(self):
        state = PolicyState(k=3, n=1)
        assert ucb_select(state, 5) == 0

    def test_tie_break(self):
        state = PolicyState(k=3, n=1)
        state.t = 100
        # Indices engineered to (low, tie, tie): server 1 wins the tie.
        state.counts = [400, 100, 100]
        state.succ = [40, 55, 55]
        i1 = ucb_index(0.1, 400, 100)
        i2 = ucb_index(0.55, 100, 100)
        assert i1 < i2
        assert ucb_select(state, 1) == 1


class TestFeasibleSchedules:
    def test_empty_system(self):
        s = ScheduleSet.closure([(1, 1)], 2)
        assert feasible_schedules(ScheduleTable.build(s, (0, 0)), [0, 0]) == [(0, 0)]

    def test_long_queues_allow_everything(self):
        s = ScheduleSet.closure([(1, 1)], 2)
        assert set(feasible_schedules(ScheduleTable.build(s, (0, 1)), [3, 3])) == set(s.schedules)

    def test_two_servers_one_job(self):
        s = ScheduleSet.closure([(1, 1)], 2)
        got = set(feasible_schedules(ScheduleTable.build(s, (0, 0)), [1]))
        assert got == {(0, 0), (1, 0), (0, 1)}


class TestMaxWeight:
    def test_empty_queue_zero_schedule(self):
        s = ScheduleSet.singletons(2)
        assert maxweight_select([0], (0.5, 0.9), ScheduleTable.build(s, (0, 0))) == (0, 0)

    def test_long_queue_beats_fast_server(self):
        s = ScheduleSet(schedules=((1, 0), (0, 1), (0, 0)))
        got = maxweight_select([3, 1], (0.5, 0.9), ScheduleTable.build(s, (0, 1)))
        assert got == (1, 0)  # weight 1.5 > 0.9

    def test_stored_order_tie_break(self):
        s = ScheduleSet(schedules=((0, 1), (1, 0), (0, 0)))
        got = maxweight_select([1, 1], (0.5, 0.5), ScheduleTable.build(s, (0, 1)))
        assert got == (0, 1)


class TestBackPressure:
    def test_penalty_excludes_feeding_server(self):
        s = ScheduleSet.closure([(1, 1)], 2)
        r_lower = ((0.0, 0.8), (0.0, 0.0))
        got = backpressure_select([1, 5], (0.9, 0.2), r_lower, ScheduleTable.build(s, (0, 1)))
        assert got == (0, 1)

    def test_zero_penalty_matches_maxweight(self):
        s = ScheduleSet.closure([(1, 1)], 2)
        zeros = ((0.0, 0.0), (0.0, 0.0))
        for q in ([1, 5], [4, 2], [0, 3]):
            bp = backpressure_select(q, (0.9, 0.2), zeros, ScheduleTable.build(s, (0, 1)))
            mw = maxweight_select(q, (0.9, 0.2), ScheduleTable.build(s, (0, 1)))
            assert bp == mw

    def test_empty_queue_zero_schedule(self):
        s = ScheduleSet.closure([(1, 1)], 2)
        zeros = ((0.0, 0.0), (0.0, 0.0))
        assert backpressure_select([0, 0], (0.9, 0.2), zeros, ScheduleTable.build(s, (0, 1))) == (0, 0)


class TestObserve:
    """run_network folds each selected server's outcome into the run's tallies."""

    def test_running_mean(self, monkeypatch):
        # One always-busy server that always succeeds, from 1 success in 3:
        # period 1 is idle, period 2 serves.
        inst = single_to_network(SingleQueueInstance(1, 1.0, (1.0,)))
        runner = Runner(PolicyHandle.parse("ucb"), inst)
        runner.state.counts, runner.state.succ = [3], [1]
        monkeypatch.setattr(engine, "Runner", lambda handle, instance: runner)
        state = run_network(inst, "ucb", 2, 0).final_state
        assert state.counts == [4]
        assert mu_hat_of(state) == [0.5]

    def test_transition_indicator(self):
        # Server 0 feeds queue 1 on every success; server 1's jobs exit,
        # which tallies no transition.
        tr = run_network(tandem_instance(2, (1.0, 1.0), 1.0), "bp-ucb", 10, 0)
        state = tr.final_state
        assert state.succ[0] > 0 and state.succ[1] > 0
        assert r_hat_of(state) == [[0.0, 1.0], [0.0, 0.0]]


class TestPolicyHandle:
    def test_parse_round_trip(self):
        for name in ("ucb", "mw-ucb", "bp-ucb", "oracle-best", "oracle-mw", "oracle-bp", "round-robin"):
            assert PolicyHandle.parse(name).name == name

    def test_fixed_parse(self):
        for j in (0, 3, 12):
            h = PolicyHandle.parse(f"fixed:{j}")
            assert h.fixed_server == j
            assert h.name == f"fixed:{j}"

    def test_unknown_rejected(self):
        with pytest.raises(PolicyError):
            PolicyHandle.parse("greedy")

    @pytest.mark.parametrize(
        "name",
        ["mw_ucb", "oracle_best", "round_robin", "MW-UCB", "fixed", "fixed:", "fixed:01",
         "fixed:abc", "fixed:-1", "fixed:+1", "fixed: 1", "fixed:1.0", "fixed:\u0663", "ucb:0"],
    )
    def test_only_one_spelling(self, name):
        with pytest.raises(PolicyError):
            PolicyHandle.parse(name)

    def test_learning_flags(self):
        assert PolicyHandle.parse("ucb").learning
        assert PolicyHandle.parse("bp-ucb").learning
        assert not PolicyHandle.parse("oracle-mw").learning
        assert not PolicyHandle.parse("fixed:0").learning


def _busy_servers(trace) -> set:
    """The servers a single-queue trace runs, checking that it runs exactly
    one in each busy period and none in an idle one."""
    busy = trace.q[:-1, 0] > 0
    assert busy.any()
    assert (trace.schedule.sum(axis=1) == busy).all()
    return set(trace.schedule[busy].argmax(axis=1).tolist())


class TestRunner:
    def test_oracle_best_is_pure(self):
        inst = SingleQueueInstance(3, 0.4, (0.2, 0.9, 0.5))
        assert Runner(PolicyHandle.parse("oracle-best"), inst).fixed_server == 1
        assert _busy_servers(run_single(inst, "oracle-best", 60, 0)) == {1}

    def test_fixed_server(self):
        inst = SingleQueueInstance(3, 0.4, (0.2, 0.9, 0.5))
        assert Runner(PolicyHandle.parse("fixed:2"), inst).fixed_server == 2
        assert _busy_servers(run_single(inst, "fixed:2", 60, 0)) == {2}

    def test_round_robin_cycles(self):
        inst = SingleQueueInstance(3, 0.4, (0.2, 0.9, 0.5))
        assert Runner(PolicyHandle.parse("round-robin"), inst).fixed_server is None
        tr = run_single(inst, "round-robin", 60, 0)
        busy = tr.q[:-1, 0] > 0
        assert tr.schedule[busy].argmax(axis=1).tolist()[:4] == [0, 1, 2, 0]

    def test_oracle_mw_ignores_observations(self):
        # Every busy period runs the faster server, from the first decision
        # to the last, and the run keeps no tallies.
        net = single_to_network(SingleQueueInstance(2, 0.3, (0.3, 0.6)))
        tr = run_network(net, "oracle-mw", 200, 0)
        busy = tr.q[:-1, 0] > 0
        assert busy[:20].any() and busy[-20:].any()
        assert tr.schedule[busy].tolist() == [[0, 1]] * int(busy.sum())
        assert not tr.schedule[~busy].any()
        assert tr.final_state is None

    def test_oracle_bp_uses_true_transition_rates(self):
        # Server 0 (mu=0.9) pushes everything to queue 1; while queue 1 is
        # the longer, the oracle must keep server 0 idle, where MaxWeight
        # would run both servers.
        net = NetworkInstance(
            n=2,
            k=2,
            arrivals=ArrivalModel(support=((1, 0), (0, 0)), probs=(0.4, 0.6)),
            mu=(0.9, 0.2),
            schedules=ScheduleSet.closure([(1, 1)], 2),
            server_queue=(0, 1),
            transitions=((0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
        )
        tr = run_network(net, "oracle-bp", 300, 0)
        held = [t for t in range(300) if tr.q[t, 1] > tr.q[t, 0] >= 1]
        assert held
        for t in held:
            assert tuple(tr.schedule[t].tolist()) == (0, 1)
            assert maxweight_select(tr.q[t].tolist(), net.mu, net.schedule_table) == (1, 1)


def _direct_oracle(policy, inst):
    """The oracle's selector called without the Runner, on true rates."""
    table = inst.schedule_table
    if policy == "oracle-mw":
        return lambda q: maxweight_select(q, inst.mu, table)
    r_true = [[m * p for p in row[: inst.n]] for m, row in zip(inst.mu, inst.transitions)]
    return lambda q: backpressure_select(q, inst.mu, r_true, table)


def _mirrored_pair():
    """Two one-server-at-a-time instances with swapped rates: at q = (1, 1)
    their MaxWeight and BackPressure choices differ."""
    def build(mu):
        return NetworkInstance(
            n=2,
            k=2,
            arrivals=ArrivalModel(support=((1, 1), (0, 0)), probs=(0.3, 0.7)),
            mu=mu,
            schedules=ScheduleSet(schedules=((1, 0), (0, 1), (0, 0))),
            server_queue=(0, 1),
            transitions=NetworkInstance.exit_only_transitions(2, 2),
        )

    return build((0.9, 0.5)), build((0.5, 0.9))


@pytest.mark.parametrize("policy", ["oracle-mw", "oracle-bp"])
class TestOracleMemo:
    """Oracle choices are memoised on q per run; each must be the direct selector's."""

    @pytest.mark.parametrize(
        "inst",
        [
            tandem_instance(3, (0.8, 0.7, 0.6), 0.4),
            random_with_slackness(2, 4, 0.1, 3, "network"),
            random_with_slackness(3, 6, 0.1, 7, "multi"),
        ],
        ids=["tandem-3", "network-2-4", "multi-3-6"],
    )
    def test_every_period_is_direct_select(self, policy, inst):
        tr = run_network(inst, policy, 1000, 0)
        select = _direct_oracle(policy, inst)
        for t in range(tr.horizon):
            assert tuple(tr.schedule[t].tolist()) == select(tr.q[t].tolist())

    def test_equal_queues_on_two_instances(self, policy):
        # The memo is per run: at q = (1, 1) the two instances choose
        # differently, and a second run of the first chooses as its first
        # did.  While one queue is empty, which the loop reaches by changing
        # its queue list in place, the other's server runs: the key is the
        # vector's value.
        a, b = _mirrored_pair()
        for inst, at_ones in ((a, (1, 0)), (b, (0, 1)), (a, (1, 0))):
            tr = run_network(inst, policy, 400, 1)
            chosen = {}
            for q, sigma in zip(tr.q[:-1].tolist(), tr.schedule.tolist()):
                chosen.setdefault(tuple(q), set()).add(tuple(sigma))
            assert chosen[(1, 1)] == {at_ones}
            drained = {q: sigma for q, sigma in chosen.items() if (q[0] == 0) != (q[1] == 0)}
            assert drained
            for q, sigma in drained.items():
                assert sigma == {(int(q[0] > 0), int(q[1] > 0))}

    def test_equal_queue_paths_on_two_instances(self, policy):
        chosen = []
        for inst in _mirrored_pair():
            tr = run_network(inst, policy, 400, 1)
            select = _direct_oracle(policy, inst)
            seen = {}
            for t in range(tr.horizon):
                q = tuple(tr.q[t].tolist())
                seen[q] = tuple(tr.schedule[t].tolist())
                assert seen[q] == select(q)
            chosen.append(seen)
        # Both runs visit queue vectors on which the two oracles disagree.
        assert any(chosen[0][q] != chosen[1][q] for q in chosen[0].keys() & chosen[1].keys())
