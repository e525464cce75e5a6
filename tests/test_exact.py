"""The gain kernel and the selectors against exact arithmetic (tests/exact.py).

Each bound is selection._rounding_margin of the design size in question:
half of it bounds one evaluation's distance from the exact phi of the
file's doubles, and the whole of it the distance between two evaluations.
"""

import itertools
import math

import pytest

import senselect as ss
from senselect import objective, selection

import exact
from conftest import three_sensor_problem

K_BUDGET = 3


@pytest.fixture(scope="module", params=[
    ss.ProblemSpec("chain", n=20, n_s=10, seed=7),  # README's chain
    ss.ProblemSpec("random", n=12, n_s=9, seed=5),
    ss.ProblemSpec("chain", n=60, n_s=20, seed=0),  # mirror designs tie in the last bits
    ss.ProblemSpec("chain", n=40, n_s=16, seed=0,
                   sensor_nodes=(3, 3, 5, 8, 8, 8, 12, 15, 20, 20, 22, 25, 30, 30, 34, 36)),
], ids=["readme-chain", "random-12x9", "chain-60x20", "duplicated-nodes-40x16"])
def case(request):
    p = ss.generate(request.param)
    return p, exact.kernel(p)


def _margin(p, size: int) -> float:
    return selection._rounding_margin(objective.SchurKernel(p, 0), size)


def test_exact_kernel_of_the_three_sensor_problem():
    """Unit weight, prior and noise: K is the Gram matrix of the rows
    (2, 0), (0, 1), (1, 1), and det(I + K) over {0, 2} is 11."""
    K = exact.kernel(three_sensor_problem())
    assert K == [[4, 0, 2], [0, 1, 1], [2, 1, 2]]
    assert exact.info_det(K, [0, 2]) == 11
    assert abs(exact.phi(K, [0, 2]) - math.log(11.0)) <= 2 * math.ulp(math.log(11.0))


def test_greedy_prefixes_lie_within_half_the_margin_of_exact_phi(case):
    p, K = case
    prefix = []
    for i, _, phi in ss.greedy(p, K_BUDGET).per_step:
        prefix.append(p.active.index(i))
        assert abs(phi - exact.phi(K, sorted(prefix))) <= _margin(p, len(prefix)) / 2


def test_pair_gains_lie_within_half_the_margin_of_exact_differences(case):
    """Every entry of pair_gains(R, R), the gain of v after w, against the
    exact phi(S + w + v) - phi(S + w), at the root and after greedy's first
    step; a determinant ratio rounds once."""
    p, K = case
    m = len(p.active)
    first = p.active.index(ss.greedy(p, 1).chosen.indices[0])
    kern = objective.SchurKernel(p, 1)
    for S in ([], [first]):
        kern.t = 0
        for j in S:
            kern.add(j)
        rest = [j for j in range(m) if j not in S]
        gains = kern.pair_gains(rest, rest).tolist()
        tol = _margin(p, len(S) + 2) / 2
        for a, w in enumerate(rest):
            base = exact.info_det(K, sorted(S + [w]))
            for b, v in enumerate(rest):
                if v != w:
                    want = exact.log(exact.info_det(K, sorted(S + [w, v])) / base)
                    assert abs(gains[a][b] - want) <= tol


def test_exhaustive_optimum_lies_within_the_margin_of_the_exact_optimum(case):
    """Both the reported phi_final and the exact phi of the reported design."""
    p, K = case
    opt = max(exact.phi(K, S) for S in itertools.combinations(range(len(p.active)), K_BUDGET))
    r = ss.exhaustive(p, K_BUDGET)
    tol = _margin(p, K_BUDGET)
    assert abs(r.phi_final - opt) <= tol
    assert opt - exact.phi(K, [p.active.index(i) for i in r.chosen]) <= tol
