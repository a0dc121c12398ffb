"""Randomized invariants: anything here must hold on every sample path."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clqsim.engine import replay_error, run, run_network, run_single
from clqsim.instances import random_with_slackness, tandem_instance
from clqsim.metrics import delta_series, sar_multi, sar_single
from clqsim.model import (
    ScheduleSet,
    ScheduleTable,
    SingleQueueInstance,
    net_rate_matrix,
    single_to_network,
    structure_constants,
    traffic_slackness,
    validate_instance,
)
from clqsim.policies import (
    PolicyHandle,
    PolicyState,
    Runner,
    backpressure_select,
    feasible_rows,
    feasible_schedules,
    maxweight_select,
)
from reference import delta_loss, lcb_transition, mu_hat_of, r_hat_of, ucb_index, ucb_select
from slackness_oracle import slackness_by_enumeration

from clqsim.model import instance_to_dict, as_network

probs = st.floats(0.0, 1.0, allow_nan=False)
rates = st.floats(0.05, 0.95, allow_nan=False)


def single_instances(max_k=4):
    return st.builds(
        lambda lam, mu: SingleQueueInstance(len(mu), lam, tuple(mu)),
        probs,
        st.lists(probs, min_size=1, max_size=max_k),
    )


def generated_networks():
    return st.builds(
        lambda seed, kind, n, k: random_with_slackness(
            n=n, k=max(k, n), epsilon=0.1, seed=seed, kind=kind
        ),
        st.integers(0, 10_000),
        st.sampled_from(["multi", "network"]),
        st.integers(1, 3),
        st.integers(1, 4),
    )


class TestSlacknessAgreement:
    @settings(max_examples=25, deadline=None)
    @given(generated_networks())
    def test_lp_matches_enumeration(self, inst):
        doc = instance_to_dict(inst)
        assert traffic_slackness(inst).epsilon == pytest.approx(
            slackness_by_enumeration(doc), abs=1e-6
        )

    @settings(max_examples=25, deadline=None)
    @given(single_instances())
    def test_single_queue_embedding_agrees(self, inst):
        net = single_to_network(inst)
        assert traffic_slackness(net).epsilon == pytest.approx(
            slackness_by_enumeration(instance_to_dict(net)), abs=1e-6
        )

    @settings(max_examples=25, deadline=None)
    @given(generated_networks())
    def test_witness_is_feasible(self, inst):
        sol = traffic_slackness(inst)
        phi = np.asarray(sol.witness)
        assert phi.min() >= -1e-9
        assert phi.sum() == pytest.approx(1.0, abs=1e-9)
        served = net_rate_matrix(inst) @ phi
        lam = np.asarray(inst.arrivals.means)
        assert (np.asarray(served) >= lam + sol.epsilon - 1e-9).all()

    @settings(max_examples=20, deadline=None)
    @given(single_instances(), st.integers(0, 3), rates)
    def test_monotone_in_service_rate(self, inst, which, bump):
        k = which % inst.k
        mu = list(inst.mu)
        mu[k] = min(1.0, mu[k] + bump)
        faster = SingleQueueInstance(inst.k, inst.lam, tuple(mu))
        before = traffic_slackness(single_to_network(inst)).epsilon
        after = traffic_slackness(single_to_network(faster)).epsilon
        assert after >= before - 1e-9


class TestEngineInvariants:
    @settings(max_examples=15, deadline=None)
    @given(single_instances(), st.integers(0, 50))
    def test_single_path_properties(self, inst, seed):
        tr = run_single(inst, "ucb", 120, seed)
        assert replay_error(tr) is None
        steps = np.abs(np.diff(tr.q[:, 0]))
        assert steps.max(initial=0) <= 1
        # conservation: every arrival is either still queued or was served
        assert tr.arrivals.sum() == tr.q[-1].sum() + tr.services.sum()

    @settings(max_examples=10, deadline=None)
    @given(generated_networks(), st.integers(0, 50))
    def test_network_path_properties(self, inst, seed):
        tr = run_network(inst, "mw-ucb", 120, seed)
        assert replay_error(tr) is None
        sc = structure_constants(inst)
        growth = tr.q[1:].sum(axis=1) - tr.q[:-1].sum(axis=1)
        assert growth.max(initial=0) <= sc.m_arr
        if inst.exit_only:
            assert tr.arrivals.sum() == tr.q[-1].sum() + tr.services.sum()

    @settings(max_examples=10, deadline=None)
    @given(single_instances(), st.integers(0, 50))
    def test_determinism(self, inst, seed):
        a = run(inst, "ucb", 80, seed)
        b = run(inst, "ucb", 80, seed)
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.services, b.services)


class TestPolicyInvariants:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.tuples(probs, st.integers(0, 40)), min_size=1, max_size=5),
        st.integers(1, 10_000),
        st.integers(1, 40),
    )
    def test_ucb_select_is_index_argmax(self, stats, t, q):
        k = len(stats)
        state = PolicyState(k, 1)
        state.t = t
        for i, (mu_hat, count) in enumerate(stats):
            state.counts[i] = count
            state.succ[i] = mu_hat * count
        choice = ucb_select(state, q)
        idx = [ucb_index(mu_hat_of(state)[i], state.counts[i], t) for i in range(k)]
        assert choice == int(np.argmax(idx))  # argmax takes the lowest index on ties

    @settings(max_examples=50, deadline=None)
    @given(probs, st.integers(0, 100), st.integers(1, 10_000))
    def test_index_brackets_estimate(self, mu_hat, count, t):
        up = ucb_index(mu_hat, count, t)
        lo = lcb_transition(mu_hat, count, t)
        assert 0.0 <= lo <= up <= 1.0
        if count:
            assert lo <= mu_hat <= up or up == 1.0 or lo == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 100), st.integers(1, 10_000))
    def test_index_shrinks_with_count(self, count, t):
        wide = ucb_index(0.5, count, t)
        narrow = ucb_index(0.5, count + 1, t)
        assert narrow <= wide

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(rates, min_size=2, max_size=4),
        st.lists(st.integers(0, 6), min_size=2, max_size=4),
        st.floats(0.1, 10.0),
    )
    def test_maxweight_scale_covariance(self, mu, q, c):
        k = min(len(mu), len(q))
        mu, q = mu[:k], tuple(q[:k])
        table = ScheduleTable.build(ScheduleSet.singletons(k), list(range(k)))
        base = maxweight_select(q, mu, table)
        scaled = maxweight_select(q, [c * m for m in mu], table)
        assert base == scaled

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=3))
    def test_feasible_schedules_respect_queues(self, q):
        n = len(q)
        schedules = ScheduleSet.closure([tuple([1] * n)], n)
        server_queue = list(range(n))
        for sigma in feasible_schedules(ScheduleTable.build(schedules, server_queue), tuple(q)):
            demand = [0] * n
            for srv, on in enumerate(sigma):
                demand[server_queue[srv]] += on
            assert all(demand[i] <= q[i] for i in range(n))


class TestEstimatorInvariants:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 30))
    def test_transition_mass_below_service(self, seed):
        inst = tandem_instance(2, (0.8, 0.6), 0.5)
        tr = run_network(inst, "bp-ucb", 200, seed)
        state = tr.final_state
        for k in range(inst.k):
            assert sum(r_hat_of(state)[k]) <= mu_hat_of(state)[k] + 1e-12

    @settings(max_examples=10, deadline=None)
    @given(single_instances(max_k=3), st.integers(0, 30))
    def test_confidence_radius_holds(self, inst, seed):
        # Hoeffding at T = 500: per-server failure odds ~ T^-4, and the
        # run is seed-deterministic, so this cannot flake.
        tr = run_single(inst, "ucb", 500, seed)
        state = tr.final_state
        t = 501
        for k in range(inst.k):
            if state.counts[k] == 0:
                continue
            radius = math.sqrt(2.0 * math.log(t) / state.counts[k])
            assert abs(mu_hat_of(state)[k] - inst.mu[k]) <= radius


class TestMetricInvariants:
    @settings(max_examples=10, deadline=None)
    @given(single_instances(), st.integers(0, 30))
    def test_sar_nondecreasing(self, inst, seed):
        tr = run_single(inst, "ucb", 100, seed)
        out = sar_single(tr, inst, 0.1)
        assert out[0] >= 0.0
        assert (np.diff(out) >= 0.0).all()

    @settings(max_examples=10, deadline=None)
    @given(generated_networks(), st.integers(0, 30))
    def test_delta_range(self, inst, seed):
        tr = run_network(inst, "mw-ucb", 100, seed)
        sc = structure_constants(inst)
        bound = sc.m_sigma if inst.exit_only else 2 * sc.m_sigma
        d = delta_series(tr)
        assert d.min(initial=0.0) >= -1e-9
        assert d.max(initial=0.0) <= bound + 1e-9

    @settings(max_examples=10, deadline=None)
    @given(single_instances(max_k=3), st.integers(0, 30))
    def test_embedding_sar_exact(self, inst, seed):
        net = single_to_network(inst)
        single = run_single(inst, "ucb", 150, seed)
        multi = run_network(net, "mw-ucb", 150, seed)
        assert np.array_equal(
            sar_single(single, inst, 0.1), sar_multi(multi, epsilon=0.1)
        )

    @settings(max_examples=10, deadline=None)
    @given(single_instances(max_k=3), st.integers(0, 30))
    def test_delta_fast_path_matches_general(self, inst, seed):
        tr = run_single(inst, "ucb", 100, seed)
        want = [
            delta_loss(tr.q[t].tolist(), tr.schedule[t].tolist(), inst, False)
            for t in range(100)
        ]
        assert delta_series(tr).tobytes() == np.array(want).tobytes()

    @settings(max_examples=15, deadline=None)
    @given(
        generated_networks(),
        st.sampled_from(["mw-ucb", "bp-ucb", "oracle-bp", "round-robin"]),
        st.integers(0, 30),
    )
    def test_delta_series_is_delta_loss_bitwise(self, inst, policy, seed):
        tr = run_network(inst, policy, 150, seed)
        networked = not inst.exit_only
        want = [
            delta_loss(tr.q[t].tolist(), tr.schedule[t].tolist(), inst, networked)
            for t in range(150)
        ]
        assert delta_series(tr).tobytes() == np.array(want).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(generated_networks(), st.lists(st.integers(0, 8), min_size=1, max_size=3))
    def test_delta_loss_of_zero_schedule(self, inst, q):
        qv = tuple((q * inst.n)[: inst.n])
        zero = tuple([0] * inst.k)
        loss = delta_loss(qv, zero, inst, networked=not inst.exit_only)
        assert loss >= -1e-12


class TestStructureInvariants:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 200))
    def test_closure_validates(self, n, seed):
        rng = np.random.default_rng(seed)
        maximal = [tuple(rng.integers(0, 2, n)) for _ in range(2)]
        schedules = ScheduleSet.closure(maximal, n)
        assert schedules.zero_index is not None
        got = set(schedules.schedules)
        for sigma in maximal:
            assert tuple(sigma) in got
        for sigma in got:  # downward closed
            for i in range(n):
                if sigma[i]:
                    down = list(sigma)
                    down[i] = 0
                    assert tuple(down) in got

    @settings(max_examples=15, deadline=None)
    @given(generated_networks())
    def test_generated_instances_validate(self, inst):
        assert validate_instance(inst) == []


class TestOraclePurity:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 30))
    def test_maxweight_trace_is_pointwise_argmax(self, seed):
        inst = tandem_instance(2, (0.8, 0.6), 0.5)
        tr = run_network(inst, "oracle-mw", 150, seed)
        for t in range(150):
            want = maxweight_select(
                tuple(int(v) for v in tr.q[t]),
                inst.mu,
                inst.schedule_table,
            )
            assert tuple(tr.schedule[t]) == want


def _tallies(k):
    """(count, successes) per server with successes <= count, untried servers
    and repeated pairs, so exact index ties occur."""
    pair = st.integers(0, 12).flatmap(lambda c: st.tuples(st.just(c), st.integers(0, c)))
    return st.lists(st.one_of(pair, st.just((0, 0)), st.just((4, 2))), min_size=k, max_size=k)


_NETWORKS = [
    random_with_slackness(3, 6, 0.1, 7, "multi"),
    random_with_slackness(2, 4, 0.1, 3, "network"),
    random_with_slackness(3, 5, 0.1, 11, "network"),
    tandem_instance(3, (0.8, 0.7, 0.6), 0.4),
]


def _queues(inst, top=9):
    return st.lists(st.integers(0, top), min_size=inst.n, max_size=inst.n)


class TestBoundSelectors:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(_tallies), st.integers(1, 10_000))
    def test_ucb_server_equals_ucb_select(self, tallies, t):
        k = len(tallies)
        runner = Runner(PolicyHandle.parse("ucb"), SingleQueueInstance(k, 0.3, (0.5,) * k))
        state = runner.state
        state.counts[:] = [c for c, _ in tallies]
        state.succ[:] = [s for _, s in tallies]
        ref = PolicyState(k=k, n=1, t=t, counts=list(state.counts), succ=list(state.succ))
        assert runner.select_server(3, t) == ucb_select(ref, 3)
        assert state.t == t

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 4000), st.data())
    def test_ucb_leader_bound_equals_ucb_select(self, k, t, data):
        """Runner keeps its leader bound from call to call.  Every choice must
        still be ucb_select's while the leader and other servers are pulled,
        t jumps past the bound's horizon, and indices tie exactly (repeated
        tallies) or at the clamp (untried or rarely pulled servers)."""
        tally = st.one_of(
            st.sampled_from([(0, 0), (3, 1), (900, 450), (900, 451), (2000, 1200)]),
            st.integers(1, 3000).flatmap(lambda c: st.tuples(st.just(c), st.integers(0, c))),
        )
        runner = Runner(PolicyHandle.parse("ucb"), SingleQueueInstance(k, 0.3, (0.5,) * k))
        state = runner.state
        for srv, (c, s) in enumerate(data.draw(st.lists(tally, min_size=k, max_size=k))):
            state.counts[srv], state.succ[srv] = c, s
        for _ in range(data.draw(st.integers(1, 60))):
            ref = PolicyState(k=k, n=1, t=t, counts=list(state.counts), succ=list(state.succ))
            j = runner.select_server(1, t)
            assert j == ucb_select(ref, 1)
            srv = data.draw(st.sampled_from([j, j, j, *range(k)]))
            state.record(srv, data.draw(st.integers(0, 1)), None)
            t += data.draw(st.sampled_from([0, 1, 1, 1, 2, 9, 40, 400]))

    def test_leader_bound_stops_at_the_clamp(self):
        """Server 0 crosses the clamp before the bound's horizon, so the bound
        is above 1.0; once the leader (server 1) passes it too, the clamp's
        first-index rule picks server 0."""
        runner = Runner(PolicyHandle.parse("ucb"), SingleQueueInstance(2, 0.3, (0.5, 0.5)))
        state = runner.state
        state.counts[:], state.succ[:] = [753, 681], [651, 584]
        assert runner.select_server(1, 1000) == 1
        state.record(1, 1, None)
        ref = PolicyState(k=2, n=1, t=1001, counts=list(state.counts), succ=list(state.succ))
        assert runner.select_server(1, 1001) == ucb_select(ref, 1) == 0

    @pytest.mark.parametrize(
        "counts, succ, t, want",
        [
            ([0, 0, 0], [0, 0, 0], 1, 0),  # all untried
            ([50, 0, 0], [10, 0, 0], 9, 1),  # first untried server
            ([1, 1, 0], [1, 1, 0], 2, 0),  # clamped tie at 1.0
            ([400, 100, 100], [40, 55, 55], 100, 1),  # exact tie below the clamp
        ],
    )
    def test_ucb_server_ties(self, counts, succ, t, want):
        runner = Runner(PolicyHandle.parse("ucb"), SingleQueueInstance(3, 0.3, (0.5,) * 3))
        runner.state.counts[:], runner.state.succ[:] = counts, succ
        ref = PolicyState(k=3, n=1, t=t, counts=list(counts), succ=list(succ))
        assert runner.select_server(1, t) == ucb_select(ref, 1) == want

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(_NETWORKS), st.integers(1, 5000), st.data())
    def test_bp_ucb_equals_reference(self, inst, t, data):
        q = data.draw(_queues(inst))
        runner = Runner(PolicyHandle.parse("bp-ucb"), inst)
        state = runner.state
        for srv, (c, s) in enumerate(data.draw(_tallies(inst.k))):
            state.counts[srv], state.succ[srv] = c, s
            state.trans[srv] = [data.draw(st.integers(0, s))] + [0] * (inst.n - 1)
        r_low = [
            [lcb_transition(r / c if c else 0.0, c, t) for r in row]
            for row, c in zip(state.trans, state.counts)
        ]
        mu_bar = [ucb_index(s / c if c else 0.0, c, t) for s, c in zip(state.succ, state.counts)]
        want = backpressure_select(q, mu_bar, r_low, inst.schedule_table)
        assert runner.select_schedule(q, t) == want


class TestFeasibleMemo:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(_NETWORKS), st.data())
    def test_memo_equals_scan(self, inst, data):
        table = inst.schedule_table
        q = data.draw(_queues(inst))
        rows = feasible_rows(table, q)
        assert [sigma for sigma, _ in rows] == feasible_schedules(table, q)
        assert all(servers == table.servers[table.row[sigma]] for sigma, servers in rows)
        assert feasible_rows(table, q) is rows  # a second lookup hits the memo
