"""Stability of the learning schedulers against their oracles.

Runs MW-UCB on a generated multiclass instance and BP-UCB on a three-stage
tandem, each against the matching true-rate oracle, and reports the
time-averaged total queue length over the final 10% of the horizon.
"""
import argparse
import sys

import numpy as np

from clqsim.engine import run_network
from clqsim.instances import random_with_slackness, tandem_instance


def final_window_load(inst, policy, horizon, n_seeds) -> float:
    window = []
    for seed in range(n_seeds):
        tr = run_network(inst, policy, horizon, seed)
        window.append(tr.l1()[int(0.9 * horizon):].mean())
    return float(np.mean(window))


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=int, default=30_000)
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args(argv)
    if args.horizon < 1:
        print("error: horizon must be at least 1")
        return 1
    if args.seeds < 1:
        print("error: need at least one seed")
        return 1

    cases = [
        (
            "multiclass (3 queues, 6 servers, slackness 0.1)",
            random_with_slackness(n=3, k=6, epsilon=0.1, seed=7, kind="multi"),
            "mw-ucb",
            "oracle-mw",
        ),
        (
            "tandem (mu = 0.8, 0.7, 0.6, lambda0 = 0.4)",
            tandem_instance(3, (0.8, 0.7, 0.6), 0.4),
            "bp-ucb",
            "oracle-bp",
        ),
    ]
    for label, inst, learner, oracle in cases:
        learned = final_window_load(inst, learner, args.horizon, args.seeds)
        baseline = final_window_load(inst, oracle, args.horizon, args.seeds)
        ratio = learned / baseline if baseline else float("inf")
        print(f"{label}:")
        print(f"  {learner:<10} final-10% load = {learned:.3f}")
        print(f"  {oracle:<10} final-10% load = {baseline:.3f}  (ratio {ratio:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(run())
