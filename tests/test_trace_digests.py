"""Bitwise guard on the engine: sha256 of every trace array over a fixed matrix.

tests/golden/trace_digests.json pins, for four instances (figure 1, an
exit-only multiclass, a three-stage tandem and a routing network), every
policy and seeds 0-2 at H=2000, the digest of the q, schedule, services,
arrivals and targets arrays.  A refactor that flips one UCB tie or one
event anywhere in that matrix changes a digest.  The file is only
regenerated (``python tests/test_trace_digests.py``) when the simulated law
itself is meant to change.
"""
import hashlib
import json
import os
import pickle

import numpy as np
import pytest

from clqsim.engine import run
from clqsim.instances import figure1_instance, random_with_slackness, tandem_instance

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "trace_digests.json")
POLICIES = ("ucb", "mw-ucb", "bp-ucb", "oracle-best", "oracle-mw", "oracle-bp", "fixed:0", "round-robin")
SEEDS = (0, 1, 2)
HORIZON = 2000


def _instances():
    return {
        "fig1": figure1_instance(),
        "multi-3-6": random_with_slackness(3, 6, 0.1, 7, "multi"),
        "tandem-3": tandem_instance(3, (0.8, 0.7, 0.6), 0.4),
        "network-2-4": random_with_slackness(2, 4, 0.1, 3, "network"),
    }


def trace_digest(trace) -> str:
    """sha256 over the shape and int64 values of each event array."""
    h = hashlib.sha256()
    for name in ("q", "schedule", "services", "arrivals", "targets"):
        arr = getattr(trace, name)
        h.update(name.encode())
        if arr is None:
            h.update(b"none")
            continue
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def compute_digests() -> dict[str, str]:
    out = {}
    for label, inst in _instances().items():
        for policy in POLICIES:
            for seed in SEEDS:
                trace = run(inst, policy, HORIZON, seed, snapshot_stride=0)
                out[f"{label}/{policy}/{seed}"] = trace_digest(trace)
    return out


def test_trace_digests_unchanged():
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = compute_digests()
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, f"{len(changed)} traces changed, first: {changed[:5]}"


@pytest.mark.parametrize("label", ["tandem-3", "multi-3-6", "network-2-4"])
def test_shared_instance_runs_equal_fresh_runs(label):
    """All policies back to back on one instance object, which shares its
    cached schedule_table between runs: no decision may leak from one run
    into the next, so each trace equals a fresh instance's."""
    shared = _instances()[label]
    for policy in POLICIES:
        for seed in (0, 1):
            got = trace_digest(run(shared, policy, HORIZON, seed))
            assert got == trace_digest(run(_instances()[label], policy, HORIZON, seed)), (policy, seed)


@pytest.mark.parametrize("label", ["tandem-3", "multi-3-6"])
def test_runs_leave_schedule_table_unchanged(label):
    """run_network keeps its caches in the run: the instance's cached
    schedule_table pickles to the same bytes after every policy has run on it."""
    inst = _instances()[label]
    before = pickle.dumps(inst.schedule_table)
    for policy in POLICIES:
        run(inst, policy, HORIZON, 0)
    assert pickle.dumps(inst.schedule_table) == before


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(compute_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
