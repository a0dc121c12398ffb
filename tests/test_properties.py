"""Randomized invariants: anything here must hold on every sample path."""
import math
import os
import string
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clqsim import engine
from clqsim.engine import replay_error, run, run_network, run_single
from clqsim.instances import figure1_instance, random_with_slackness, tandem_instance
from clqsim.metrics import delta_series, sar_multi, sar_single
from clqsim.model import (
    ArrivalModel,
    NetworkInstance,
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
    LEARNING_VARIANTS,
    VARIANTS,
    PolicyState,
    feasible_schedules,
)
import reference
from reference import (
    backpressure_select,
    delta_loss,
    lcb_transition,
    maxweight_select,
    mu_hat_of,
    r_hat_of,
    tallies_of,
    ucb_index,
    ucb_indices,
    ucb_select,
)
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


def generated_networks(kinds=("multi", "network")):
    return st.builds(
        lambda seed, kind, n, k: random_with_slackness(
            n=n, k=max(k, n), epsilon=0.1, seed=seed, kind=kind
        ),
        st.integers(0, 10_000),
        st.sampled_from(kinds),
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


class TestTraceCsvReplay:
    """engine.replay_csv_error's one-string compare returns the message of
    the line-by-line reference, None included, on a file with one byte
    changed: figure 1 and generated routing networks, CRLF and LF files."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.just(figure1_instance()), generated_networks(kinds=("network",))),
        st.sampled_from([v if v != "fixed" else "fixed:0" for v in VARIANTS]),
        st.integers(1, 40),
        st.integers(0, 50),
        st.booleans(),
        st.data(),
    )
    def test_edited_byte_gives_reference_message(self, inst, policy, horizon, seed, lf, data):
        tr = run(inst, policy, horizon, seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            engine.trace_to_csv(tr, path)
            with open(path, "rb") as fh:
                raw = bytearray(fh.read().replace(b"\r\n", b"\n") if lf else fh.read())
            at = data.draw(st.integers(0, len(raw) - 1), label="at")
            raw[at] = data.draw(st.sampled_from(string.printable.encode()), label="byte")
            with open(path, "wb") as fh:
                fh.write(raw)
            assert engine.replay_csv_error(path, tr) == reference.replay_csv_error(path, tr)


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
        for i, (mu_hat, count) in enumerate(stats):
            state.counts[i] = count
            state.succ[i] = mu_hat * count
        choice = ucb_select(state, q, t)
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
        state = tallies_of(tr)
        for k in range(inst.k):
            assert sum(r_hat_of(state)[k]) <= mu_hat_of(state)[k] + 1e-12

    @settings(max_examples=10, deadline=None)
    @given(single_instances(max_k=3), st.integers(0, 30))
    def test_confidence_radius_holds(self, inst, seed):
        # Hoeffding at T = 500: per-server failure odds ~ T^-4, and the
        # run is seed-deterministic, so this cannot flake.
        tr = run_single(inst, "ucb", 500, seed)
        state = tallies_of(tr)
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
        assert (0,) * n in schedules.schedules
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


def _tallies(k, top=12):
    """(count, successes) per server with successes <= count <= top, untried
    servers and repeated pairs, so exact index ties occur."""
    pair = st.integers(0, top).flatmap(lambda c: st.tuples(st.just(c), st.integers(0, c)))
    return st.lists(st.one_of(pair, st.just((0, 0)), st.just((4, 2))), min_size=k, max_size=k)


_NETWORKS = [
    random_with_slackness(3, 6, 0.1, 7, "multi"),
    random_with_slackness(2, 4, 0.1, 3, "network"),
    random_with_slackness(3, 5, 0.1, 11, "network"),
    tandem_instance(3, (0.8, 0.7, 0.6), 0.4),
]


def _checked_ucb_run(inst, horizon, seed=0, tallies=(), log=math.log):
    """run_single(inst, "ucb", ...) from the given starting (count, successes)
    tallies, with math.log replaced by log in run_single and ucb_select alike.
    Asserts that every busy period's server is ucb_select's on the tallies
    the trace's prefix gives, and that the run leaves those tallies in the
    state it was given.  Returns the trace."""
    state = PolicyState(inst.k, 1)
    for srv, (c, s) in enumerate(tallies):
        state.counts[srv], state.succ[srv] = c, s
    counts, succ = list(state.counts), list(state.succ)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "PolicyState", lambda k, n: state)
        mp.setattr(math, "log", log)
        tr = run_single(inst, "ucb", horizon, seed)
        for t, (q, row, won) in enumerate(zip(tr.q[:-1, 0].tolist(), tr.schedule, tr.services), 1):
            want = ucb_select(PolicyState(inst.k, 1, list(counts), list(succ)), q, t)
            assert row.sum() == (q > 0), f"period {t}"
            if want is not None:
                assert row[want] == 1, f"period {t}: server {row.argmax()}, ucb_select {want}"
                counts[want] += 1
                succ[want] += int(won[want])
    assert (state.counts, state.succ) == (counts, succ)
    return tr


def _shifted_log(d):
    """math.log moved d periods on: period t takes log(t + d)."""
    log = math.log
    return lambda x: log(x + d)


def _index(tally, log_t):
    """UCB index, unclamped, of a tried (count, successes) tally where
    math.log(t) gives log_t."""
    c, s = tally
    return s / c + math.sqrt(2.0 * log_t / c)


def _least(pred, lo, hi):
    """Smallest float in (lo, hi] where pred holds, for pred false at lo,
    true at hi and monotone in between."""
    while math.nextafter(lo, hi) < hi:
        mid = lo + (hi - lo) / 2
        if not lo < mid < hi:
            mid = math.nextafter(lo, hi)
        lo, hi = (lo, mid) if pred(mid) else (mid, hi)
    return hi


# Arrivals and server 1's services always succeed, server 0's never
# (uniforms lie in [0, 1)), so every period from 2 on is busy.
_DETERMINISTIC = SingleQueueInstance(2, 1.0, (0.0, 1.0))


class TestBoundSelectors:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(_tallies), st.integers(1, 10_000), st.integers(2, 12))
    def test_ucb_server_equals_ucb_select(self, tallies, t, horizon):
        """From any tallies, with period 2 taking log(t)."""
        k = len(tallies)
        inst = SingleQueueInstance(k, 1.0, (0.5,) * k)
        _checked_ucb_run(inst, horizon, tallies=tallies, log=_shifted_log(t - 2))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 4000),
        st.integers(1, 400),
        st.integers(0, 2**32),
        st.data(),
    )
    def test_ucb_leader_bound_equals_ucb_select(self, k, t, horizon, seed, data):
        """The leader bound carries from period to period.  Every choice must
        still be ucb_select's while the leader and other servers are pulled,
        periods pass the bound's horizon, and indices tie exactly (repeated
        tallies) or at the clamp (untried or rarely pulled servers)."""
        tally = st.one_of(
            st.sampled_from([(0, 0), (3, 1), (900, 450), (900, 451), (2000, 1200)]),
            st.integers(1, 3000).flatmap(lambda c: st.tuples(st.just(c), st.integers(0, c))),
        )
        tallies = data.draw(st.lists(tally, min_size=k, max_size=k))
        mu = data.draw(st.lists(st.sampled_from([0.3, 0.5, 0.5, 0.6, 0.99]), min_size=k, max_size=k))
        inst = SingleQueueInstance(k, data.draw(st.sampled_from([0.5, 0.9, 1.0])), tuple(mu))
        _checked_ucb_run(inst, horizon, seed, tallies, _shifted_log(t - 1))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6),
        st.one_of(
            st.floats(0.05, 0.95).map(lambda r: ("equal", r)),
            st.just(("near-one", None)),
            st.just(("spread", None)),
        ),
        st.floats(0.3, 1.0),
        st.integers(200, 2500),
        st.integers(0, 2**32),
        st.data(),
    )
    def test_run_single_ucb_equals_ucb_select(self, k, rates, lam, horizon, seed, data):
        """Untouched runs: equal rates give exact index ties, rates near 1 the
        clamp, and horizons past period 256 span several bound windows."""
        kind, r = rates
        if kind == "equal":
            mu = (r,) * k
        else:
            lo = 0.9 if kind == "near-one" else 0.05
            mu = tuple(data.draw(st.lists(st.floats(lo, 1.0), min_size=k, max_size=k)))
        _checked_ucb_run(SingleQueueInstance(k, lam, mu), horizon, seed)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6),
        st.floats(0.3, 1.0),
        st.integers(1, 600),
        st.integers(0, 2**32),
    )
    def test_run_single_round_robin_rotates(self, k, lam, horizon, seed):
        tr = run_single(SingleQueueInstance(k, lam, (0.5,) * k), "round-robin", horizon, seed)
        busy = tr.q[:-1, 0] > 0
        assert (tr.schedule.sum(axis=1) == busy).all()
        assert tr.schedule[busy].argmax(axis=1).tolist() == [i % k for i in range(busy.sum())]

    def test_leader_bound_stops_at_the_clamp(self):
        """Periods 2 and 3 take log(1000) and log(1001).  Server 0 crosses the
        clamp before the bound's horizon, so the bound is above 1.0; once the
        leader (server 1) passes it too, the clamp's first-index rule picks
        server 0."""
        inst = SingleQueueInstance(2, 1.0, (1.0, 1.0))
        tr = _checked_ucb_run(inst, 3, tallies=[(753, 651), (681, 584)], log=_shifted_log(998))
        assert tr.schedule[1:].argmax(axis=1).tolist() == [1, 0]

    def test_leader_bound_slack_covers_a_log_ulp(self):
        """A log that is off by a few ulps can make an index at period t
        exceed the same index at the bound's horizon.  Here periods below 256
        take a huge log (every index at the clamp: server 0 is pulled), the
        scan at 256 leads with server 1 up to period 258, and log(258) sits a
        few ulps below log(257), where server 0's index reaches server 1's.
        The 1e-9 in the bound keeps period 257 on the full scan."""
        tallies = [(2000, 1000), (40000, 26000)]
        rival, leader = (2000 + 254, 1000), (40001, 26001)  # the tallies at period 257
        ahead = _least(lambda x: _index(rival, x) >= _index(leader, x), 1.0, 1e3)
        below = math.nextafter(_least(lambda x: _index(rival, x) >= _index(leader, ahead), 1.0, ahead), 0.0)
        assert _index(rival, below) < _index(leader, ahead) <= _index(rival, ahead) < 1.0
        assert _index(rival, ahead) - _index(rival, below) < 1e-12
        log = math.log
        logs = {257: ahead, 258: below}
        tr = _checked_ucb_run(
            _DETERMINISTIC, 257, tallies=tallies, log=lambda x: 1e6 if x < 256 else logs.get(x) or log(x)
        )
        assert tr.schedule[255:].argmax(axis=1).tolist() == [1, 0]

    def test_rival_pull_ends_the_leader_bound(self):
        """The scan at 512 leads with server 1 up to period 515.  A huge log
        at 513 puts every index at the clamp, so server 0 is pulled; at 514
        server 0's index beats the leader's although the leader is above the
        bound, so the bound must no longer hold."""
        log = math.log
        logs = {513: 1e6, 514: 200.0}
        tr = _checked_ucb_run(
            _DETERMINISTIC,
            514,
            tallies=[(2000, 1000), (40000, 26000)],
            log=lambda x: 1e6 if x < 512 else logs.get(x) or log(x),
        )
        assert tr.schedule[511:].argmax(axis=1).tolist() == [1, 0, 0]

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
        """The first decision, at period 2, taking log(t)."""
        inst = SingleQueueInstance(3, 1.0, (0.5,) * 3)
        tr = _checked_ucb_run(inst, 2, tallies=list(zip(counts, succ)), log=_shifted_log(t - 2))
        assert tr.schedule[1].argmax() == want

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(st.sampled_from(_NETWORKS), generated_networks(kinds=("network",))),
        st.integers(1, 5000),
        st.data(),
    )
    def test_bp_ucb_equals_reference(self, inst, t, data):
        """From any tallies, with transition tallies in every destination
        column, and period 1 taking log(t).  Counts up to 3000 keep the
        confidence radius small, so the starting tallies' LCBs are positive
        and their penalties move decisions."""
        tallies = data.draw(st.one_of(_tallies(inst.k), _tallies(inst.k, top=3000)))
        trans = [
            data.draw(st.lists(st.integers(0, s), min_size=inst.n, max_size=inst.n))
            for _, s in tallies
        ]
        horizon = data.draw(st.integers(1, 40))
        _checked_network_run(inst, "bp-ucb", horizon, tallies=tallies, trans=trans, log=_shifted_log(t - 1))


def _checked_network_run(inst, policy, horizon, seed=0, tallies=(), trans=(), log=math.log):
    """run_network(inst, policy, ...) for a learning policy from the given
    starting (count, successes) tallies and transition tally rows, with
    math.log replaced by log in run_network and the references alike.
    Asserts that every period's schedule is the reference selector's on the
    tallies the trace's prefix gives: maxweight_select on ucb_indices for
    ucb and mw-ucb, backpressure_select on ucb_index and lcb_transition for
    bp-ucb.  Asserts that the run leaves those tallies in the state it was
    given.  Returns the trace."""
    state = PolicyState(inst.k, inst.n)
    for srv, (c, s) in enumerate(tallies):
        state.counts[srv], state.succ[srv] = c, s
    for srv, row in enumerate(trans):
        state.trans[srv] = list(row)
    ref = PolicyState(
        k=inst.k, n=inst.n, counts=list(state.counts), succ=list(state.succ),
        trans=[list(row) for row in state.trans],
    )
    table = inst.schedule_table
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "PolicyState", lambda k, n: state)
        mp.setattr(math, "log", log)
        tr = run_network(inst, policy, horizon, seed)
        for t, (q, sigma) in enumerate(zip(tr.q[:-1].tolist(), tr.schedule.tolist()), 1):
            if policy == "bp-ucb":
                mu_bar = [ucb_index(s / c if c else 0.0, c, t) for s, c in zip(ref.succ, ref.counts)]
                r_low = [
                    [lcb_transition(r / c if c else 0.0, c, t) for r in row]
                    for row, c in zip(ref.trans, ref.counts)
                ]
                want = backpressure_select(q, mu_bar, r_low, table)
            else:
                want = maxweight_select(q, ucb_indices(ref, t), table)
            assert tuple(sigma) == want, f"period {t}: {tuple(sigma)}, reference {want}"
            for srv in np.flatnonzero(sigma).tolist():
                ref.counts[srv] += 1
                if tr.services[t - 1, srv]:
                    ref.succ[srv] += 1
                    if tr.targets is not None and (d := int(tr.targets[t - 1, srv])) < inst.n:
                        ref.trans[srv][d] += 1
    assert (state.counts, state.succ, state.trans) == (ref.counts, ref.succ, ref.trans)
    return tr


_TANDEM = tandem_instance(3, (0.8, 0.7, 0.6), 0.4)
# Instances where some active servers share a queue.  On the first, the
# servers sharing queue 1 tie in most periods with several maximal rows, so
# the first stored wins; on the second and third, the gains mostly decide.
_SHARED_QUEUE = [
    random_with_slackness(2, 4, 0.1, 15, "multi"),
    random_with_slackness(2, 5, 0.1, 21, "multi"),
    random_with_slackness(2, 3, 0.1, 17, "multi"),
    random_with_slackness(3, 6, 0.1, 7, "multi"),
    single_to_network(figure1_instance()),
]


def _some_networks():
    return st.one_of(generated_networks(), st.just(_TANDEM))


class TestNetworkDecisions:
    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(LEARNING_VARIANTS),
        _some_networks(),
        st.integers(0, 10_000),
        st.integers(1, 60),
        st.integers(0, 2**32),
        st.data(),
    )
    def test_learner_equals_reference(self, policy, inst, shift, horizon, seed, data):
        """Every decision of run_network's loop is the reference selector's,
        from any tallies (repeated and untried ones force exact ties; a
        shift of 0 takes log(1) = 0, so equal sample means tie too), with
        period 1 taking log(1 + shift)."""
        tallies = data.draw(_tallies(inst.k))
        trans = [
            data.draw(st.lists(st.integers(0, s), min_size=inst.n, max_size=inst.n))
            for _, s in tallies
        ]
        _checked_network_run(inst, policy, horizon, seed, tallies, trans, _shifted_log(shift))

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(("ucb", "mw-ucb")),
        st.one_of(generated_networks(), st.sampled_from(_SHARED_QUEUE)),
        st.integers(1, 2000),
        st.integers(0, 2**32),
    )
    def test_fresh_learner_equals_reference(self, policy, inst, horizon, seed):
        """Fresh ucb and mw-ucb runs with the real math.log, long enough for
        queues to build: run_network weighs only the maximal feasible rows
        (and runs a lone one on q alone), yet every decision is
        maxweight_select's over all feasible rows."""
        _checked_network_run(inst, policy, horizon, seed)

    def test_several_maximal_rows_bind(self):
        """Servers 1, 2 and 4 share queue 0, servers 0 and 3 queue 1.  About
        a third of this run's periods offer two or more maximal feasible
        rows, and in nearly all of those the gains pick one that is not
        stored first."""
        inst = _SHARED_QUEUE[1]
        tr = _checked_network_run(inst, "mw-ucb", 3000, 0)
        several = []
        for q, sigma in zip(tr.q[:-1].tolist(), map(tuple, tr.schedule.tolist())):
            fits = feasible_schedules(inst.schedule_table, q)
            top = [a for a in fits if not any(a != b and all(map(int.__le__, a, b)) for b in fits)]
            if len(top) >= 2:
                several.append(sigma != top[0])
        assert len(several) > 900 and sum(several) > 900

    def test_two_servers_on_one_job(self):
        """One job arrives every period and every service succeeds, so queue
        0 holds one job from period 2 on: (0, 1) and (1, 0) both fit and
        are maximal, (1, 1) does not fit.  Server 0's higher index wins at
        period 2 although (0, 1) is stored first."""
        inst = NetworkInstance(
            n=1,
            k=2,
            arrivals=ArrivalModel(support=((1,),), probs=(1.0,)),
            mu=(1.0, 1.0),
            schedules=ScheduleSet.closure([(1, 1)], 2),
            server_queue=(0, 0),
            transitions=NetworkInstance.exit_only_transitions(1, 2),
        )
        assert inst.schedules.schedules.index((0, 1)) < inst.schedules.schedules.index((1, 0))
        tr = _checked_network_run(inst, "mw-ucb", 40, tallies=[(10, 8), (10, 2)])
        assert tr.q[1:, 0].tolist() == [1] * 40
        assert tr.schedule[1].tolist() == [1, 0] and tr.schedule[:, 1].any()

    def test_past_the_float_guard(self):
        """Starting counts of 10**25 put m_sigma**2 * m_arr * H * sqrt(c0 + H)
        above 2**50, so the run weighs every feasible row; it still binds."""
        tallies = [(10**25, 6 * 10**24), (10**25, 5 * 10**24), (10**25, 7 * 10**24)]
        _checked_network_run(_TANDEM, "mw-ucb", 300, 0, tallies)

    def test_bp_penalty_in_ascending_queue_order(self):
        """Both servers of queue 0 route to queues 1..3 with the same LCBs in
        mirrored order, so their penalties differ only in the rounding of the
        sum.  Summed from queue 0 up, server 1's is the smaller, so period 2
        (every queue at 1) runs (0, 1); summed from queue 3 down, (1, 0)."""
        inst = NetworkInstance(
            n=4,
            k=2,
            arrivals=ArrivalModel(support=((1, 1, 1, 1),), probs=(1.0,)),
            mu=(0.5, 0.5),
            schedules=ScheduleSet.closure([(1, 0), (0, 1)], 2),
            server_queue=(0, 0),
            transitions=((0.0, 0.2, 0.2, 0.2, 0.4),) * 2,
        )
        trans = [[0, 10, 10, 30], [0, 30, 10, 10]]
        tr = _checked_network_run(inst, "bp-ucb", 2, tallies=[(50, 50)] * 2, trans=trans)
        assert tr.schedule.tolist() == [[0, 0], [0, 1]]

    @settings(max_examples=20, deadline=None)
    @given(_some_networks(), st.integers(0, 2**32))
    def test_every_schedule_fits(self, inst, seed):
        """Each variant's every recorded schedule fits its start-of-period q."""
        owned = np.zeros((inst.k, inst.n), dtype=np.int64)
        owned[range(inst.k), inst.server_queue] = 1
        for variant in VARIANTS:
            policy = f"fixed:{seed % inst.k}" if variant == "fixed" else variant
            tr = run_network(inst, policy, 200, seed)
            need = tr.schedule.astype(np.int64) @ owned
            assert (need <= tr.q[:-1]).all(), policy
