"""Headline single-queue experiment: UCB against the best-fixed-server oracle.

Writes the experiment config and instance under --out, then runs
`clqsim simulate` once: it writes the series CSVs (per-seed traces with
--traces) and a manifest, and prints the cost-of-learning report after its
"wrote" lines. Defaults match the acceptance run (horizon 1e5, 50 seeds);
pass smaller values for a quick look.
"""
import argparse
import json
import os
import sys

from clqsim.cli import main as cli_main
from clqsim.instances import figure1_instance
from clqsim.model import save_instance


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=int, default=100_000)
    ap.add_argument("--seeds", type=int, default=50)
    ap.add_argument("--out", default="results/figure1")
    ap.add_argument("--traces", action="store_true", help="also keep per-seed trace CSVs")
    args = ap.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    instance_path = os.path.join(args.out, "instance.json")
    save_instance(figure1_instance(), instance_path)

    config = {
        "instance": "instance.json",
        "policies": ["ucb", "oracle-best"],
        "benchmark": "oracle-best",
        "epsilon": 0.1,
        "horizon": args.horizon,
        "seeds": {"base": 0, "count": args.seeds},
        "out_dir": ".",
        "write_traces": bool(args.traces),
    }
    config_path = os.path.join(args.out, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh, indent=2)

    return cli_main(["simulate", "-c", config_path])


if __name__ == "__main__":
    sys.exit(run())
