"""Instance types, validation, slackness LP, and JSON round-trips."""
import json

import numpy as np
import pytest

from clqsim.model import (
    ArrivalModel,
    EnumerationCapExceeded,
    NetworkInstance,
    ScheduleSet,
    ScheduleTable,
    SingleQueueInstance,
    as_network,
    instance_from_dict,
    instance_to_dict,
    net_rate_matrix,
    single_to_network,
    slackness_of,
    slackness_single,
    structure_constants,
    traffic_slackness,
    validate_instance,
)


def two_queue_singletons() -> NetworkInstance:
    return NetworkInstance(
        n=2,
        k=2,
        arrivals=ArrivalModel.bernoulli_product((0.2, 0.2)),
        mu=(0.6, 0.6),
        schedules=ScheduleSet(schedules=((1, 0), (0, 1), (0, 0))),
        server_queue=(0, 1),
        transitions=NetworkInstance.exit_only_transitions(2, 2),
    )


def tandem_two() -> NetworkInstance:
    return NetworkInstance(
        n=2,
        k=2,
        arrivals=ArrivalModel(support=((1, 0), (0, 0)), probs=(0.5, 0.5)),
        mu=(0.8, 0.6),
        schedules=ScheduleSet.closure([(1, 1)], 2),
        server_queue=(0, 1),
        transitions=((0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
    )


class TestArrivalModel:
    def test_bernoulli_single_means(self):
        m = ArrivalModel.bernoulli_single(0.45)
        assert m.support == ((1,), (0,))
        assert m.means == pytest.approx([0.45])

    def test_product_means(self):
        m = ArrivalModel.bernoulli_product((0.2, 0.5))
        assert sorted(m.support) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert m.means == pytest.approx([0.2, 0.5])
        assert sum(m.probs) == pytest.approx(1.0, abs=1e-12)

    def test_cumulative_ends_at_one(self):
        m = ArrivalModel.bernoulli_product((0.3, 0.7))
        assert m.cumulative[-1] == pytest.approx(1.0, abs=1e-12)


class TestScheduleSet:
    def test_closure_completes_downward(self):
        s = ScheduleSet.closure([(1, 1)], 2)
        assert set(s.schedules) == {(1, 1), (1, 0), (0, 1), (0, 0)}
        assert s.schedules[0] == (1, 1)  # given schedules keep their order

    def test_closure_rejects_non_binary(self):
        with pytest.raises(ValueError):
            ScheduleSet.closure([(2, 0)], 2)

    def test_singletons_order(self):
        s = ScheduleSet.singletons(3)
        assert s.schedules == ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))


class TestScheduleTable:
    @pytest.mark.parametrize("seed", range(8))
    def test_rows_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        n = int(rng.integers(1, 4))
        owner = tuple(int(v) for v in rng.integers(0, n, k))
        maximal = [tuple(int(v) for v in rng.integers(0, 2, k)) for _ in range(2)]
        for sched in (ScheduleSet.closure(maximal, k), ScheduleSet.singletons(k)):
            table = ScheduleTable.build(sched, owner)
            assert table.schedules == sched.schedules
            assert len(table.servers) == len(table.demand) == len(sched)
            for r, sigma in enumerate(sched.schedules):
                assert table.row[sigma] == r
                assert table.servers[r] == tuple(i for i in range(k) if sigma[i])
                need = [0] * n
                for srv in range(k):
                    need[owner[srv]] += sigma[srv]
                assert dict(table.demand[r]) == {q: c for q, c in enumerate(need) if c}

    def test_cached_on_instance(self):
        inst = two_queue_singletons()
        assert inst.schedule_table is inst.schedule_table
        assert inst.schedule_table.server_queue == inst.server_queue


class TestValidate:
    def test_valid_two_queue(self):
        assert validate_instance(two_queue_singletons()) == []

    def test_row_stochasticity(self):
        inst = NetworkInstance(
            n=2,
            k=2,
            arrivals=ArrivalModel.bernoulli_product((0.2, 0.2)),
            mu=(0.6, 0.6),
            schedules=ScheduleSet(schedules=((1, 0), (0, 1), (0, 0))),
            server_queue=(0, 1),
            transitions=((0.0, 0.5, 0.4), (0.0, 0.0, 1.0)),
        )
        problems = validate_instance(inst)
        assert len(problems) == 1
        assert "row 0" in problems[0]

    def test_downward_closure_violation(self):
        inst = NetworkInstance(
            n=1,
            k=2,
            arrivals=ArrivalModel.bernoulli_single(0.2),
            mu=(0.5, 0.5),
            schedules=ScheduleSet(schedules=((1, 1), (0, 0))),
            server_queue=(0, 0),
            transitions=NetworkInstance.exit_only_transitions(1, 2),
        )
        problems = validate_instance(inst)
        assert any("closure" in p for p in problems)

    def test_single_queue_bad_lambda(self):
        bad = SingleQueueInstance(k=1, lam=1.5, mu=(0.5,))
        assert any("lambda" in p for p in validate_instance(bad))


class TestStructureConstants:
    def test_single_embedding(self):
        sc = structure_constants(single_to_network(SingleQueueInstance(2, 0.3, (0.4, 0.5))))
        assert (sc.m_arr, sc.m_sigma, sc.m_dep) == (1, 1, 0)

    def test_pairing_schedule(self):
        sc = structure_constants(two_queue_singletons())
        assert sc.m_sigma == 1
        full = NetworkInstance(
            n=2,
            k=2,
            arrivals=ArrivalModel.bernoulli_product((0.2, 0.2)),
            mu=(0.6, 0.6),
            schedules=ScheduleSet.closure([(1, 1)], 2),
            server_queue=(0, 1),
            transitions=NetworkInstance.exit_only_transitions(2, 2),
        )
        assert structure_constants(full).m_sigma == 2

    def test_tandem_destinations(self):
        sc = structure_constants(tandem_two())
        # Server 0 feeds one queue, server 1 exits.
        assert sc.m_dep == 1
        assert sc.m_arr == 1


class TestEffectiveServiceRate:
    """The net service rate under schedule distribution phi is net_rate_matrix(inst) @ phi."""

    def test_zero_schedule_point_mass(self):
        inst = two_queue_singletons()
        phi = [0.0, 0.0, 1.0]
        assert net_rate_matrix(inst) @ phi == pytest.approx([0.0, 0.0])

    def test_single_server_point_mass(self):
        inst = single_to_network(SingleQueueInstance(2, 0.3, (0.4, 0.7)))
        phi = [0.0, 1.0, 0.0]
        assert net_rate_matrix(inst) @ phi == pytest.approx([0.7])

    def test_tandem_inflow_deduction(self):
        inst = tandem_two()
        phi = [1.0, 0.0, 0.0, 0.0]  # point mass on (1,1)
        assert net_rate_matrix(inst) @ phi == pytest.approx([0.8, -0.2])

    def test_linear_in_phi(self):
        inst = tandem_two()
        p1 = np.array([0.5, 0.2, 0.2, 0.1])
        p2 = np.array([0.1, 0.3, 0.3, 0.3])
        mix = 0.3 * p1 + 0.7 * p2
        g = net_rate_matrix(inst)
        lhs = g @ mix
        rhs = 0.3 * (g @ p1) + 0.7 * (g @ p2)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestSlackness:
    def test_figure1_value(self):
        inst = SingleQueueInstance(5, 0.45, (0.045, 0.35, 0.35, 0.35, 0.55))
        assert slackness_single(inst) == pytest.approx(0.10, abs=1e-12)
        res = traffic_slackness(single_to_network(inst))
        assert res.epsilon == pytest.approx(0.10, abs=1e-9)

    def test_boundary_zero(self):
        assert slackness_single(SingleQueueInstance(1, 0.5, (0.5,))) == pytest.approx(0.0)

    def test_max_minus_lambda(self):
        assert slackness_single(SingleQueueInstance(2, 0.5, (0.4, 0.7))) == pytest.approx(0.2)

    def test_two_queue_witness(self):
        res = traffic_slackness(two_queue_singletons())
        assert res.epsilon == pytest.approx(0.1, abs=1e-9)
        assert res.witness[0] == pytest.approx(0.5, abs=1e-9)
        assert res.witness[1] == pytest.approx(0.5, abs=1e-9)

    def test_witness_feasible(self):
        inst = tandem_two()
        res = traffic_slackness(inst)
        assert min(res.witness) >= -1e-9 and sum(res.witness) == pytest.approx(1.0, abs=1e-9)
        rates = net_rate_matrix(inst) @ res.witness
        means = [0.5, 0.0]
        for n in range(2):
            assert rates[n] >= means[n] + res.epsilon - 1e-9

    def test_non_stabilizable_reported(self):
        inst = SingleQueueInstance(2, 0.5, (0.4, 0.4))
        res = traffic_slackness(single_to_network(inst))
        assert res.epsilon == pytest.approx(-0.1, abs=1e-9)
        assert slackness_of(inst) == pytest.approx(-0.1)

    def test_enumeration_cap(self):
        inst = two_queue_singletons()
        with pytest.raises(EnumerationCapExceeded):
            traffic_slackness(inst, cap=2)


class TestJsonRoundTrip:
    def test_single(self, tmp_path):
        inst = SingleQueueInstance(3, 0.4, (0.2, 0.5, 0.6))
        doc = instance_to_dict(inst)
        assert doc["kind"] == "single"
        back = instance_from_dict(json.loads(json.dumps(doc)))
        assert back == inst

    def test_network_round_trip(self):
        inst = tandem_two()
        back = instance_from_dict(instance_to_dict(inst))
        assert back == inst

    def test_exit_only_omits_transitions(self):
        doc = instance_to_dict(two_queue_singletons())
        assert doc["kind"] == "multi"
        assert "transitions" not in doc
        back = instance_from_dict(doc)
        assert back.exit_only

    def test_scalar_lambda_needs_one_queue(self):
        doc = instance_to_dict(two_queue_singletons())
        doc["lambda"] = 0.3
        with pytest.raises(ValueError):
            instance_from_dict(doc)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            instance_from_dict({"kind": "fluid"})


def test_as_network_idempotent():
    net = two_queue_singletons()
    assert as_network(net) is net
