"""Named instances, families, and the slackness-targeted generator."""
import hashlib
import json

import numpy as np
import pytest

from clqsim.instances import (
    GenerationFailed,
    ParameterError,
    figure1_instance,
    lower_bound_family,
    random_with_slackness,
    tandem_instance,
)
from clqsim.model import (
    NetworkInstance,
    SingleQueueInstance,
    instance_to_dict,
    single_to_network,
    slackness_single,
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
