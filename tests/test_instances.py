"""Named instances, families, and the slackness-targeted generator."""
import dataclasses
import hashlib
import json

import numpy as np
import pytest

from clqsim import model
from clqsim.instances import (
    GenerationFailed,
    ParameterError,
    figure1_instance,
    lower_bound_family,
    random_with_slackness,
    tandem_instance,
)
from clqsim.model import (
    ArrivalModel,
    NetworkInstance,
    SingleQueueInstance,
    instance_to_dict,
    single_to_network,
    slackness_single,
    slackness_solver,
    traffic_slackness,
    validate_instance,
)


class TestFigure1:
    def test_exact_parameters(self):
        inst = figure1_instance()
        assert inst.k == 5
        assert inst.lam == 0.45
        assert inst.mu == (0.045, 0.35, 0.35, 0.35, 0.55)

    def test_slackness(self):
        assert slackness_single(figure1_instance()) == pytest.approx(0.10)

    def test_validates(self):
        assert validate_instance(single_to_network(figure1_instance())) == []


class TestLowerBoundFamily:
    def test_member_construction(self):
        fam = lower_bound_family(4, 0.1)
        assert len(fam) == 5
        assert fam[0].mu == (0.6, 0.4, 0.4, 0.4)
        assert all(m.lam == 0.5 for m in fam)

    def test_slackness_split(self):
        fam = lower_bound_family(4, 0.1)
        for member in fam[:4]:
            assert slackness_single(member) == pytest.approx(0.1)
        assert slackness_single(fam[4]) == pytest.approx(-0.1)

    def test_members_differ_in_one_coordinate(self):
        fam = lower_bound_family(6, 0.2)
        uniform = np.asarray(fam[-1].mu)
        for i, member in enumerate(fam[:-1]):
            diff = np.flatnonzero(np.asarray(member.mu) != uniform)
            assert list(diff) == [i]

    @pytest.mark.parametrize("eps", [0.0, 0.26, -1.0])
    def test_epsilon_range(self, eps):
        with pytest.raises(ParameterError):
            lower_bound_family(4, eps)

    def test_k_range(self):
        with pytest.raises(ParameterError):
            lower_bound_family(0, 0.1)


class TestTandem:
    def test_routing_rows(self):
        inst = tandem_instance(3, (0.8, 0.7, 0.6), 0.4)
        assert inst.transitions[0] == (0.0, 1.0, 0.0, 0.0)
        assert inst.transitions[1] == (0.0, 0.0, 1.0, 0.0)
        assert inst.transitions[2] == (0.0, 0.0, 0.0, 1.0)
        assert validate_instance(inst) == []

    def test_slackness_two_stage(self):
        inst = tandem_instance(2, (0.8, 0.6), 0.5)
        assert traffic_slackness(inst).epsilon == pytest.approx(0.05)

    def test_critical_load(self):
        inst = tandem_instance(2, (0.8, 0.6), 0.6)
        assert traffic_slackness(inst).epsilon == pytest.approx(0.0, abs=1e-9)

    def test_length_one_matches_single(self):
        inst = tandem_instance(1, (0.7,), 0.4)
        single = SingleQueueInstance(1, 0.4, (0.7,))
        assert traffic_slackness(inst).epsilon == pytest.approx(
            slackness_single(single)
        )

    def test_parameter_checks(self):
        with pytest.raises(ParameterError):
            tandem_instance(2, (0.8,), 0.4)  # length mismatch
        with pytest.raises(ParameterError):
            tandem_instance(0, (), 0.4)


class TestRandomWithSlackness:
    @pytest.mark.parametrize("kind", ["single", "multi", "network"])
    def test_hits_target(self, kind):
        for seed in range(4):
            inst = random_with_slackness(
                n=1 if kind == "single" else 3, k=4, epsilon=0.1, seed=seed, kind=kind
            )
            assert isinstance(inst, NetworkInstance)
            assert validate_instance(inst) == []
            assert traffic_slackness(inst).epsilon == pytest.approx(0.1, abs=1e-6)

    def test_deterministic_in_seed(self):
        a = random_with_slackness(n=3, k=4, epsilon=0.15, seed=42, kind="network")
        b = random_with_slackness(n=3, k=4, epsilon=0.15, seed=42, kind="network")
        assert a == b
        c = random_with_slackness(n=3, k=4, epsilon=0.15, seed=43, kind="network")
        assert a != c

    def test_kind_shapes(self):
        multi = random_with_slackness(n=2, k=5, epsilon=0.1, seed=0, kind="multi")
        assert multi.exit_only
        net = random_with_slackness(n=2, k=5, epsilon=0.1, seed=0, kind="network")
        assert not net.exit_only

    def test_parameter_checks(self):
        with pytest.raises(ParameterError):
            random_with_slackness(n=2, k=2, epsilon=0.0, seed=0, kind="multi")
        with pytest.raises(ParameterError):
            random_with_slackness(n=2, k=2, epsilon=0.1, seed=0, kind="mesh")
        with pytest.raises(ParameterError):
            random_with_slackness(n=3, k=2, epsilon=0.1, seed=0, kind="single")
        for kind in ("multi", "network"):
            with pytest.raises(ParameterError, match="n >= 1"):
                random_with_slackness(n=0, k=3, epsilon=0.1, seed=0, kind=kind)

    @pytest.mark.parametrize("kind", ["multi", "network"])
    @pytest.mark.parametrize("n, k", [(4, 4), (4, 8), (6, 18)])
    def test_more_than_three_queues_refused(self, kind, n, k):
        """A drawn structure's one maximal schedule runs at most 3 servers,
        so with n > 3 some queue has no capacity and no draw can succeed:
        the call is refused before any search."""
        with pytest.raises(ParameterError) as exc:
            random_with_slackness(n=n, k=k, epsilon=0.1, seed=0, kind=kind)
        assert str(exc.value) == (
            f"n must be at most 3 for a {kind} draw, got {n}: its one maximal "
            "schedule runs at most 3 servers, so some queue would have no capacity"
        )

    def test_multi_trace_draw_solves_few_lps(self, monkeypatch):
        """perfbench's multi-trace draw solves at most 65 LPs: the bisection
        stops at its fixed point and never solves one scale twice (a fresh
        LP at each of 80 steps made 91)."""
        solves = []
        real = model.simplex_maximize
        monkeypatch.setattr(model, "simplex_maximize", lambda *args: solves.append(1) or real(*args))
        random_with_slackness(3, 6, 0.1, 7, "multi")
        assert 0 < len(solves) <= 65


def _rescaled(inst, c):
    """inst with every non-zero arrival row's probability scaled by c and
    the rest on the zero row: same structure, other arrival means."""
    zero = (0,) * inst.n
    probs = [p * c if row != zero else 0.0 for row, p in zip(inst.arrivals.support, inst.arrivals.probs)]
    probs[inst.arrivals.support.index(zero)] = 1.0 - sum(probs)
    return dataclasses.replace(inst, arrivals=ArrivalModel(inst.arrivals.support, tuple(probs)))


class TestSlacknessSolver:
    @pytest.mark.parametrize(
        "args", [(3, 6, 0.1, 7, "multi"), (2, 4, 0.1, 3, "network"), (3, 5, 0.2, 11, "network")]
    )
    def test_one_build_equals_traffic_slackness(self, args):
        """One solver built on a structure gives traffic_slackness' epsilon
        and witness bit for bit at other arrival means, solved in any order,
        scales past stability included."""
        base = random_with_slackness(*args)
        solve = slackness_solver(base)
        zero = base.arrivals.support.index((0,) * base.n)
        c_max = 1.0 / (1.0 - base.arrivals.probs[zero])  # all mass off the zero row
        variants = [_rescaled(base, c) for c in (0.0, 0.3, 1.0, c_max, 0.7 * c_max, 1.0)]
        bits = lambda r: (r.epsilon.hex(), [w.hex() for w in r.witness])
        want = [bits(traffic_slackness(v)) for v in variants]
        assert [bits(solve(v.arrivals.means)) for v in variants] == want
        assert [bits(solve(v.arrivals.means)) for v in reversed(variants)] == want[::-1]
        assert len({w[0] for w in want}) == 5
        assert float.fromhex(want[3][0]) < 0.0 < float.fromhex(want[0][0])


# (n, k) shapes per kind for the generator pin; every shape runs at each
# epsilon in _PIN_EPSILONS and each seed in range(3).
_PIN_SHAPES = {"single": ((1, 1), (1, 4)), "multi": ((1, 1), (2, 3), (3, 5)), "network": ((1, 1), (2, 4), (3, 5))}
_PIN_EPSILONS = (0.1, 0.6, 1.0)
_PIN_DIGEST = "a0d3516629d05e9bee38ea27bb3c6fbd1308aee6073c6209a281654654b4b05f"


class TestGeneratorPinned:
    def test_sweep_digest(self):
        """random_with_slackness over a fixed sweep, hashed: each instance as
        instance_to_dict's sorted JSON, or the GenerationFailed message.  The
        sweep reaches every retry of the generator: single draws whose
        lam = max(mu) - epsilon is not positive (epsilon 0.6 and 1.0), draws
        whose arrival support is only the zero vector (n = 1 multi), network
        draws whose transitions all exit, repaired with one 0.5/0.5 row, and
        searches that run out of draws (29 of the 72 cases)."""
        h, failed, repaired = hashlib.sha256(), 0, 0
        for kind, shapes in _PIN_SHAPES.items():
            for n, k in shapes:
                for epsilon in _PIN_EPSILONS:
                    for seed in range(3):
                        try:
                            inst = random_with_slackness(n, k, epsilon, seed, kind)
                        except GenerationFailed as exc:
                            failed += 1
                            h.update(str(exc).encode())
                        else:
                            h.update(json.dumps(instance_to_dict(inst), sort_keys=True).encode())
                            repaired += kind == "network" and any(0.5 in row[:n] for row in inst.transitions)
                        h.update(b"\n")
        assert (failed, repaired > 0) == (29, True)
        assert h.hexdigest() == _PIN_DIGEST
