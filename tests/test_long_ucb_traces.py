"""Long-horizon UCB traces pinned by digest.

tests/golden/trace_digests.json stops at H=2000.  These runs go on to
H=3x10^4 on figure 1 (seeds 0-3) and H=2x10^4 on a 64-server lower-bound
member, where run_single's UCB loop passes many leader-bound windows
(until = t + 1 + t // 256) and, at k=64, many full scans.  The digests were
taken with the per-period loop that tests/reference.py keeps as
run_single_loop, so they hold run_single to that loop's traces.
"""
import pytest

from clqsim.engine import run_single
from clqsim.instances import figure1_instance, lower_bound_family
from test_trace_digests import trace_digest

FIG1 = {
    0: "11556b13f020c1096c2441f8e04e66b051e0f46a37df2c009a07fc0770d2dc75",
    1: "9952dd5a1bc06d0ebdc4b056813344180c3073db88177b9c646c8ac870b2b083",
    2: "f44b8581a500cbe9eb8bbb324f20bbb6f141b095d5decd0357f675b62d161816",
    3: "3e8f36c8af7b724c574cbcb6ed384c4cb34b76c490f961ebb3bd653041168263",
}


@pytest.mark.parametrize("seed", sorted(FIG1))
def test_figure1_ucb(seed):
    assert trace_digest(run_single(figure1_instance(), "ucb", 30_000, seed)) == FIG1[seed]


def test_lower_bound_64_servers_ucb():
    inst = lower_bound_family(64, 0.25)[32]
    want = "c056082c91cf9dce850cb5cd91f5117d15f05e9e81fb5d3b1f4e0d7a6c4d296f"
    assert trace_digest(run_single(inst, "ucb", 20_000, 0)) == want
