"""The gain kernel and the selectors against exact arithmetic (tests/exact.py).

Each bound is selection._rounding_margin of the design size in question:
half of it bounds one evaluation's distance from the exact phi of the
file's doubles, and the whole of it the distance between two evaluations.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
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


# The paper's two rank-one identities in the M-inner product, where u (x) v
# has the representation u v' M and <x, y> = x' M y:
#     det(A + u (x) v) = (1 + <A^-1 u, v>) det(A)
#     (A + u (x) v)^-1 = A^-1 - A^-1 u v' M A^-1 / (1 + <A^-1 u, v>)

def _matvec(A, x):
    return [sum(a * b for a, b in zip(row, x)) for row in A]


def _transpose(A):
    return [list(col) for col in zip(*A)]


def _abs(A):
    return [[abs(a) for a in row] for row in A]


def _norm_inf(A):
    return max(sum(map(abs, row)) for row in A)


def _rank_one(A, M, u, v):
    """A + u (x) v, whose (i, j) entry is A_ij + u_i (v' M)_j."""
    vm = _matvec(_transpose(M), v)
    return [[a + ui * w for a, w in zip(row, vm)] for row, ui in zip(A, u)]


def _inner(M, x, y):
    return sum(a * b for a, b in zip(x, _matvec(M, y)))


def _rational_cases():
    """Rational instances with n <= 4: a weight M = B'B + I, an invertible
    operator representation A, and vectors u and v, none of them dyadic."""
    rng = random.Random(31)

    def q():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    for n in (1, 2, 3, 4) * 6:
        B = [[q() for _ in range(n)] for _ in range(n)]
        M = [[sum(B[k][i] * B[k][j] for k in range(n)) + (i == j) for j in range(n)]
             for i in range(n)]
        A = [[q() for _ in range(n)] for _ in range(n)]
        if exact.det(A) != 0:
            yield M, A, [q() for _ in range(n)], [q() for _ in range(n)]


def test_rank_one_identities_hold_exactly_in_the_weighted_inner_product():
    """With no tolerance: each side is a rational function of rationals.
    Where <A^-1 u, v> = -1 the determinant lemma puts the updated operator's
    determinant at 0, exactly, and no inverse exists."""
    cases = list(_rational_cases())
    assert len(cases) >= 20
    for M, A, u, v in cases:
        x = _matvec(exact.inverse(A), u)
        den = 1 + _inner(M, x, v)
        updated = _rank_one(A, M, u, v)
        assert exact.det(updated) == den * exact.det(A)
        if den != 0:
            a_inv = exact.inverse(A)
            row = _matvec(_transpose(a_inv), _matvec(M, v))  # v' M A^-1, as a column
            want = [[z - xi * r / den for z, r in zip(zrow, row)] for zrow, xi in zip(a_inv, x)]
            assert exact.inverse(updated) == want
        if any(x):
            w = [-xi / _inner(M, x, x) for xi in x]  # <A^-1 u, w> = -1
            assert exact.det(_rank_one(A, M, u, w)) == 0


UNIT = Fraction(1, 2 ** 53)  # the unit roundoff of a double


def _gamma(k: int) -> Fraction:
    """Higham's gamma_k = k u / (1 - k u): (1 + d_1) ... (1 + d_k) - 1 with
    each |d_i| <= u lies within it, and so does a dot product of length k."""
    return k * UNIT / (1 - k * UNIT)


def _float_cases():
    """Doubles with n <= 4, read exactly as rationals: the space's stored
    weight, an operator representation A and its floating inverse Z, u, v."""
    rng = np.random.default_rng(32)
    for n in (1, 2, 3, 4) * 5:
        B = rng.standard_normal((n, n))
        space = ss.WeightedSpace(B.T @ B + np.eye(n))
        A = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        yield space, A, np.linalg.inv(A), rng.standard_normal(n), rng.standard_normal(n)


def _exact(a):
    return [_exact(x) for x in a] if isinstance(a, (list, np.ndarray)) else Fraction(float(a))


def test_rank1_det_factor_lies_within_its_rounding_bound():
    """rank1_det_factor solves A x = u by LU with partial pivoting, then
    forms 1 + x' (M v).  The solve is backward stable (Higham, Accuracy and
    Stability of Numerical Algorithms, Thms 9.4-9.5): (A + dA) x^ = u with
    |dA| <= gamma_3n |L^||U^|, and |L^| <= 1, |U^| <= rho max|A_ij| with
    rho = 2^(n-1) (1 + u)^(2(n-1)), so ||dA||_inf <= eta = gamma_3n n^2 rho
    max|A_ij|.  With k = ||A^-1||_inf eta < 1, ||x^ - x||_inf <= r ||x||_inf,
    r = k / (1 - k).  With a = ||x||_inf and b = || |M| |v| ||_1, M v and the
    dot product each add gamma_n, and the final sum u, giving
        |g^ - g| <= a b (r + gamma_n)(1 + gamma_n) + gamma_n P + u (1 + P),
    P = a b (1 + r)(1 + gamma_n)^2.  Exact: g = det(A + u (x) v) / det(A)."""
    for space, A, _, u, v in _float_cases():
        n = space.n
        Mq, Aq, uq, vq = _exact(space.M), _exact(A), _exact(u), _exact(v)
        want = exact.det(_rank_one(Aq, Mq, uq, vq)) / exact.det(Aq)
        got = ss.rank1_det_factor(ss.Operator(space, A), u, v)
        a = max(map(abs, _matvec(exact.inverse(Aq), uq)))
        b = sum(_matvec(_abs(Mq), list(map(abs, vq))))
        rho = 2 ** (n - 1) * (1 + UNIT) ** (2 * (n - 1))
        k = _norm_inf(exact.inverse(Aq)) * _gamma(3 * n) * n * n * rho * max(map(abs, sum(Aq, [])))
        assert k < 1
        r, gn = k / (1 - k), _gamma(n)
        P = a * b * (1 + r) * (1 + gn) ** 2
        bound = a * b * (r + gn) * (1 + gn) + gn * P + UNIT * (1 + P)
        assert abs(Fraction(got) - want) <= bound


def test_rank1_inverse_update_lies_within_its_rounding_bound():
    """rank1_inverse_update(Z, u, v) forms x = Z u, m = M v, g = x' m,
    d = 1 + g, w = Z' m and Z - outer(x, w) / d.  With X = |Z||u|,
    W = |Z|' |M||v| and C = X' |M||v|, the matrix-vector products and the dot
    give |x^ - x| <= gamma_n X, |w^ - w| <= e_w W with e_w = gamma_n (2 + gamma_n),
    |g^ - g| <= 3 gamma_n (1 + gamma_n)^2 C = e_g, and |d^ - d| <= e_d =
    e_g + u (1 + C + e_g).  An entry of outer(x, w) / d rounds twice more,
    and the subtraction once:
        |R^_ij - R_ij| <= e_P (1 + u) + u |R_ij|,
        e_P = X_i W_j / (|d| - e_d) (gamma_2 (1 + gamma_n)(1 + e_w)
              + gamma_n (1 + e_w) + e_w + e_d / |d|).
    Exact: R = (Z^-1 + u (x) v)^-1, the inverse of the updated operator."""
    for space, _, Z, u, v in _float_cases():
        n = space.n
        Mq, Zq, uq, vq = _exact(space.M), _exact(Z), _exact(u), _exact(v)
        want = exact.inverse(_rank_one(exact.inverse(Zq), Mq, uq, vq))
        got = ss.rank1_inverse_update(ss.Operator(space, Z), u, v).rep
        X = _matvec(_abs(Zq), list(map(abs, uq)))
        Mb = _matvec(_abs(Mq), list(map(abs, vq)))
        W = _matvec(_transpose(_abs(Zq)), Mb)
        C = sum(x * m for x, m in zip(X, Mb))
        d = 1 + _inner(Mq, _matvec(Zq, uq), vq)
        gn = _gamma(n)
        e_w = gn * (2 + gn)
        e_g = 3 * gn * (1 + gn) ** 2 * C
        e_d = e_g + UNIT * (1 + C + e_g)
        assert abs(d) > e_d
        scale = (_gamma(2) * (1 + gn) * (1 + e_w) + gn * (1 + e_w) + e_w + e_d / abs(d))
        for i in range(n):
            for j in range(n):
                e_p = X[i] * W[j] / (abs(d) - e_d) * scale
                bound = e_p * (1 + UNIT) + UNIT * abs(want[i][j])
                assert abs(Fraction(got[i, j]) - want[i][j]) <= bound
