"""Greedy, lazy greedy, exhaustive search, certificates, random baseline."""

import dataclasses
import itertools
import math
import sys

import numpy as np
import pytest

import senselect as ss
from senselect import objective, selection

from conftest import identity_problem, random_problem, report_fields, three_sensor_problem


def test_greedy_three_sensor_trace():
    p = three_sensor_problem()
    r = ss.greedy(p, 2)
    assert r.chosen.indices == (0, 2)
    assert r.phi_final == pytest.approx(math.log(11.0), rel=1e-14)
    assert r.eig_final == 0.5 * r.phi_final
    # first step takes sensor 0 (gain log 5), second takes sensor 2 (log 2.2)
    assert r.per_step[0][0] == 0
    assert r.per_step[0][1] == pytest.approx(math.log(5.0), rel=1e-14)
    assert r.per_step[1][0] == 2
    assert r.per_step[1][1] == pytest.approx(math.log(2.2), rel=1e-14)


def test_greedy_identity_ties_pick_lowest_indices():
    p = identity_problem(5)
    for k in (1, 3, 5):
        r = ss.greedy(p, k)
        assert r.chosen.indices == tuple(range(k))
        assert r.phi_final == pytest.approx(k * math.log(2.0), rel=1e-13)


def test_greedy_k1_equals_exhaustive_k1():
    rng = np.random.default_rng(61)
    for _ in range(10):
        p = random_problem(rng, int(rng.integers(2, 7)), int(rng.integers(2, 9)))
        assert ss.greedy(p, 1).chosen == ss.exhaustive(p, 1).chosen


def test_greedy_k0_returns_empty_design():
    p = three_sensor_problem()
    r = ss.greedy(p, 0)
    assert r.chosen.indices == ()
    assert r.per_step == ()
    assert r.phi_final == 0.0


def test_greedy_budget_validation():
    p = three_sensor_problem()
    with pytest.raises(ValueError):
        ss.greedy(p, 4)
    with pytest.raises(ValueError):
        ss.greedy(p, -1)


def test_greedy_returns_exactly_k_sensors():
    rng = np.random.default_rng(62)
    p = random_problem(rng, 6, 10)
    for k in range(0, 11, 2):
        assert len(ss.greedy(p, k).chosen) == k


def test_greedy_skips_inactive_candidates():
    space = ss.WeightedSpace.euclidean(3)
    f = np.vstack([np.eye(3), np.zeros((1, 3))])
    p = ss.build_problem(space, f, np.ones(4), np.zeros(3), np.eye(3))
    r = ss.greedy(p, 3)
    assert 3 not in r.chosen
    with pytest.raises(ValueError):
        ss.greedy(p, 4)  # only three active candidates exist


def test_greedy_gains_positive_and_non_increasing():
    rng = np.random.default_rng(63)
    for _ in range(10):
        p = random_problem(rng, int(rng.integers(2, 7)), 8)
        r = ss.greedy(p, 5)
        gains = [g for _, g, _ in r.per_step]
        assert all(g > 0.0 for g in gains)
        for a, b in zip(gains, gains[1:]):
            assert b <= a + 1e-9


def test_greedy_per_step_rederivable_from_phi_sequence():
    rng = np.random.default_rng(64)
    p = random_problem(rng, 5, 7)
    r = ss.greedy(p, 4)
    prev = 0.0
    for _, gain, phi in r.per_step:
        assert gain == pytest.approx(phi - prev, abs=1e-12)
        prev = phi
    assert r.phi_final == pytest.approx(prev, abs=1e-9)


def test_greedy_threads_match_serial():
    rng = np.random.default_rng(65)
    p = random_problem(rng, 6, 12)
    a = ss.greedy(p, 4, threads=1)
    b = ss.greedy(p, 4, threads=4)
    assert report_fields(a) == report_fields(b)


def test_lazy_matches_greedy_on_random_instances():
    rng = np.random.default_rng(66)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        n_s = int(rng.integers(2, 13))
        p = random_problem(rng, n, n_s)
        k = int(rng.integers(0, min(6, n_s) + 1))
        g = ss.greedy(p, k)
        l = ss.lazy_greedy(p, k)
        assert l.method == "lazy_greedy"
        assert g.chosen == l.chosen
        assert g.per_step == l.per_step
        assert g.phi_final == l.phi_final
        assert (g.gain_evals, g.k, g.problem_hash) == (l.gain_evals, l.k, l.problem_hash)


def test_lazy_three_sensor_trace():
    p = three_sensor_problem()
    r = ss.lazy_greedy(p, 2)
    assert r.chosen.indices == (0, 2)


def test_gain_evals_counts():
    rng = np.random.default_rng(76)
    space = ss.WeightedSpace.euclidean(4)
    f = np.vstack([rng.standard_normal((9, 4)), np.zeros((2, 4))])
    p = ss.build_problem(space, f, np.ones(11), np.zeros(4), np.eye(4))
    active = len(p.active)
    assert active == 9
    assert ss.greedy(p, 0).gain_evals == 0
    for k in (1, 5, 9):
        g = ss.greedy(p, k)
        assert g.gain_evals == sum(active - t for t in range(k))
        assert ss.lazy_greedy(p, k).gain_evals == g.gain_evals
    assert ss.exhaustive(p, 2).gain_evals is None


def _assert_same_run(p, k):
    g = ss.greedy(p, k)
    l = ss.lazy_greedy(p, k)
    assert g.chosen == l.chosen
    assert g.per_step == l.per_step  # bitwise
    assert g.phi_final == l.phi_final
    return g, l


def test_greedy_lazy_bitwise_equal_at_scale():
    """Forty steps over three hundred candidates, and a saturated run.

    Lazy greedy runs plain greedy's loop, so it evaluates the same gains;
    at these sizes any difference in operation order between the two
    would show in the last bits.
    """
    p = random_problem(np.random.default_rng(77), 60, 300)
    g, l = _assert_same_run(p, 40)
    assert l.gain_evals == g.gain_evals
    # k > n: every later step conditions on a spanning design
    _assert_same_run(random_problem(np.random.default_rng(78), 6, 30, cond=1e4), 20)


def test_readme_chain_step_order():
    p = ss.generate(ss.ProblemSpec("chain", n=20, n_s=10, seed=7))
    for r in _assert_same_run(p, 3):
        assert [i for i, _, _ in r.per_step] == [9, 0, 1]


def test_mirror_symmetric_tie_goes_to_phi_eig_then_lowest_index():
    """Sensors at mirrored nodes of a chain tie in exact arithmetic.

    The near-tie is settled by phi_eig of the extended design, and an
    exact tie of phi_eig by the lower index.
    """
    spec = ss.ProblemSpec("chain", n=20, n_s=3, seed=0, sensor_nodes=(4, 15, 9))
    p = ss.generate(spec)
    a, b = ss.phi_eig(p, (0,)), ss.phi_eig(p, (1,))
    assert abs(a - b) <= 1e-13 * a
    assert max(ss.phi_eig(p, (2,)), a, b) == max(a, b)
    want = 1 if b > a else 0
    for r in _assert_same_run(p, 1):
        assert r.chosen.indices == (want,)
    # after sensor 2, the duplicates 0 and 1 tie bitwise everywhere
    twin = ss.generate(ss.ProblemSpec("chain", n=20, n_s=3, seed=0, sensor_nodes=(9, 9, 2)))
    for r in _assert_same_run(twin, 2):
        assert [i for i, _, _ in r.per_step] == [2, 0]


def test_saturated_gains_match_dense_phi_differences():
    """k > n on ill-conditioned instances; the tolerance is a priori.

    Each phi is a Cholesky factorization of dimension at most n + k whose
    entries are bounded by 1 + max K_vv, so to first order each of the two
    phi values in a difference errs by at most (n + k) eps (1 + max K_vv).
    """
    eps = np.finfo(float).eps
    for seed in range(79, 84):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        p = random_problem(rng, n, 3 * n + 6, cond=1e4)
        k = 2 * n + 3
        w = p.space.whitening_factor.T @ p.precond_vecs
        tol = 2.0 * (n + k) * eps * (1.0 + float(np.max(np.sum(w * w, axis=0))))
        r = ss.greedy(p, k)
        prev, idx = 0.0, []
        for i, gain, _ in r.per_step:
            idx.append(i)
            val = ss.phi_eig(p, idx)
            assert abs(gain - (val - prev)) <= tol
            prev = val


def test_exhaustive_three_sensor_enumeration():
    p = three_sensor_problem()
    r = ss.exhaustive(p, 2)
    assert r.chosen.indices == (0, 2)
    assert r.phi_final == pytest.approx(math.log(11.0), rel=1e-14)
    # the two losing pairs, checked densely
    assert ss.phi_eig(p, (0, 1)) == pytest.approx(math.log(10.0), rel=1e-14)
    assert ss.phi_eig(p, (1, 2)) == pytest.approx(math.log(5.0), rel=1e-14)


def test_exhaustive_full_budget_returns_everything():
    rng = np.random.default_rng(67)
    p = random_problem(rng, 4, 6)
    r = ss.exhaustive(p, 6)
    assert r.chosen.indices == tuple(range(6))


def test_exhaustive_identity_tie_break_lexicographic():
    p = identity_problem(4)
    assert ss.exhaustive(p, 2).chosen.indices == (0, 1)


def test_exhaustive_cap_enforced():
    rng = np.random.default_rng(68)
    p = random_problem(rng, 3, 12)
    with pytest.raises(ss.CapExceededError):
        ss.exhaustive(p, 6, cap=math.comb(12, 6) - 1)
    ss.exhaustive(p, 6, cap=math.comb(12, 6))  # exactly at the cap is fine


def test_exhaustive_permutation_invariance():
    rng = np.random.default_rng(69)
    p = random_problem(rng, 5, 7)
    perm = rng.permutation(7)
    q = ss.build_problem(
        p.space, p.F[perm, :], p.sigma[perm], p.m_pr, p.gamma_pr.rep
    )
    r_p = ss.exhaustive(p, 3)
    r_q = ss.exhaustive(q, 3)
    # candidate j of the permuted problem is candidate perm[j] of the original
    mapped = tuple(sorted(int(perm[j]) for j in r_q.chosen))
    assert mapped == r_p.chosen.indices


def _chain(n, n_s, nodes=None, seed=0):
    return ss.generate(ss.ProblemSpec("chain", n=n, n_s=n_s, seed=seed, sensor_nodes=nodes))


def _with_inactive(p, dead):
    f = p.F.copy()
    f[list(dead)] = 0.0
    return ss.build_problem(p.space, f, p.sigma, p.m_pr, p.gamma_pr.rep)


def _brute_force(p, k):
    """The first phi_eig maximizer among all size-k subsets in lexicographic
    order, with its trace in ascending index order, all from phi_eig."""
    best = max(itertools.combinations(p.active, k), key=lambda S: ss.phi_eig(p, S))
    phi = [ss.phi_eig(p, best[:t]) for t in range(k + 1)]
    return best, tuple((i, phi[t + 1] - phi[t], phi[t + 1]) for t, i in enumerate(best))


@pytest.mark.parametrize("problem, budgets", [
    (lambda: random_problem(np.random.default_rng(70), 5, 8), (0, 1, 4)),
    (lambda: random_problem(np.random.default_rng(71), 3, 9), (0, 1, 5)),
    (lambda: _chain(30, 8), (0, 1, 4)),
    (lambda: _chain(14, 7, (3, 3, 6, 9, 9, 12, 3)), (0, 1, 2, 3)),
    (lambda: _with_inactive(random_problem(np.random.default_rng(72), 4, 8), (0, 3, 6)),
     (0, 1, 3)),
    (lambda: identity_problem(5), (0, 1, 2)),
    # mirror-symmetric designs tie to 2.6e-14 in phi
    (lambda: _chain(60, 20), (3,)),
], ids=["random", "random-saturated", "chain", "duplicated-nodes", "inactive", "identity",
        "chain-mirror-tie"])
def test_exhaustive_matches_brute_force(problem, budgets):
    """Budgets 0, 1 and an interior one given, and the full budget |active|."""
    p = problem()
    for k in (*budgets, len(p.active)):
        r = ss.exhaustive(p, k)
        chosen, per_step = _brute_force(p, k)
        assert r.chosen.indices == chosen
        assert r.per_step == per_step
        assert r.phi_final == ss.phi_eig(p, chosen)
        assert_band_matches_reference(p, k)


def near_optimal_reference(kern, k):
    """The tie band as the depth-first search without bounds finds it.

    exhaustive's search before branch and bound, kept as the reference:
    every prefix appends one factor row, and at depth k - 1 every leaf
    extension is scored at once.
    """
    if k == 0:
        return [()]
    m = len(kern.active)
    res = np.empty((k, m))
    res[0] = kern.diag
    phi, path, nxt = [0.0] * k, [0] * k, [0] * k
    best, floor, band = -math.inf, -math.inf, []
    t = 0
    while t >= 0:
        r, j = res[t], nxt[t]
        if t == k - 1:
            vals = phi[t] + np.log1p(r[j:])
            top = float(vals.max())
            if top > best:
                best, floor = top, (1.0 - selection.TIE_RTOL) * top
                band = [(v, s) for v, s in band if v >= floor]
            prefix = tuple(path[:t])
            band += [(float(vals[i]), prefix + (j + i,))
                     for i in np.flatnonzero(vals >= floor).tolist()]
            t -= 1
        elif j > m - k + t:  # too few positions left after j
            t -= 1
        else:
            nxt[t], path[t] = j + 1, j
            kern.t = t
            e = kern.add(j)
            np.subtract(r, e * e, out=res[t + 1])
            phi[t + 1] = phi[t] + math.log1p(r[j])
            nxt[t + 1] = j + 1
            t += 1
    return [s for _, s in band]


def assert_band_matches_reference(p, k):
    """Branch and bound keeps the reference's band: the same sets, in the same order."""
    band = selection._near_optimal(objective.SchurKernel(p, k), k)
    assert band == near_optimal_reference(objective.SchurKernel(p, k), k)
    return band


@pytest.mark.parametrize("problem, k", [
    (lambda: _chain(20, 10, None, seed=7), 3),  # README's chain
    (lambda: _chain(100, 24), 5),
    (lambda: _chain(60, 20), 3),
    (lambda: _chain(40, 16, (3, 3, 6, 9, 9, 12, 3, 20, 20, 25, 30, 33, 33, 35, 8, 8)), 4),
    (lambda: identity_problem(8), 4),  # all 70 designs tie
    # k = 2: the root itself scores the leaves
    (lambda: _chain(20, 10, None, seed=7), 2),
    (lambda: _chain(100, 24), 2),
], ids=["readme-chain", "chain-100x24", "chain-60", "duplicated-nodes", "identity-all-tie",
        "readme-chain-k2", "chain-100x24-k2"])
def test_branch_and_bound_keeps_the_band_on_mirror_chains_duplicates_and_ties(problem, k):
    p = problem()
    band = assert_band_matches_reference(p, k)
    if p.n_s == 8:
        assert len(band) == math.comb(8, 4)


def test_full_budget_beyond_the_recursion_limit():
    """C(m, m) = 1 passes the cap at any m, so the search depth is not bounded by it."""
    p = random_problem(np.random.default_rng(73), 5, 1050)
    assert len(p.active) > sys.getrecursionlimit()
    assert ss.exhaustive(p, len(p.active)).chosen.indices == tuple(p.active)


def _factor_rows(monkeypatch, run):
    """SchurKernel.add calls made by run()."""
    calls = []
    add = objective.SchurKernel.add

    def counted(self, j):
        calls.append(j)
        return add(self, j)

    with monkeypatch.context() as patch:
        patch.setattr(objective.SchurKernel, "add", counted)
        run()
    return len(calls)


@pytest.mark.parametrize("spec, most", [
    (ss.ProblemSpec("random", n=40, n_s=24, seed=5), 100),
    (ss.ProblemSpec("random", n=40, n_s=24, seed=6), 100),
    (ss.ProblemSpec("chain", n=100, n_s=24, seed=5), 2000),
], ids=["random-40x24-seed5", "random-40x24-seed6", "chain-100x24"])
def test_branch_and_bound_prunes_factor_rows(monkeypatch, spec, most):
    """Counted, not timed: the search without bounds appends 10,625 rows here."""
    p = ss.generate(spec)
    rows = _factor_rows(monkeypatch, lambda: selection._near_optimal(
        objective.SchurKernel(p, 5), 5))
    assert rows <= most
    full = _factor_rows(monkeypatch, lambda: near_optimal_reference(
        objective.SchurKernel(p, 5), 5))
    assert full == 10_625


@pytest.mark.parametrize("spec, k, rows, band", [
    (ss.ProblemSpec("chain", n=20, n_s=10, seed=7), 3, 4, 2),  # README's chain
    (ss.ProblemSpec("chain", n=100, n_s=24, seed=5), 5, 756, 2),
    (ss.ProblemSpec("random", n=40, n_s=24, seed=5), 5, 6, 1),
    (ss.ProblemSpec("random", n=40, n_s=24, seed=6), 5, 7, 1),
    (ss.ProblemSpec("random", n=100, n_s=60, seed=5), 8, 202, 1),
    (ss.ProblemSpec("random", n=400, n_s=200, seed=5), 10, 24, 1),
], ids=["readme-chain", "chain-100x24", "random-40x24-seed5", "random-40x24-seed6",
        "random-100x60", "random-400x200"])
def test_best_bound_first_finds_its_own_incumbent(monkeypatch, spec, k, rows, band):
    """Entering the child with the largest bound first, the first dive's
    leaves give the incumbent, with no greedy pass before the search: fewer
    rows than the 6, 760, 10 and 11 of a greedy pass and lexicographic order
    on the first four.  On the last two, most children of the first dive's
    nodes fall below the floor that its leaves set; each is tested once, when
    its turn comes, and the counts pin the order in which nodes are entered."""
    p = ss.generate(spec)
    found = []
    assert _factor_rows(monkeypatch, lambda: found.extend(selection._near_optimal(
        objective.SchurKernel(p, k), k))) == rows
    assert len(found) == band


@pytest.mark.parametrize("problem", [
    lambda: random_problem(np.random.default_rng(73), 6, 9),
    lambda: _chain(20, 10, seed=7),  # README's chain
    lambda: _chain(14, 7, (3, 3, 6, 9, 9, 12, 3)),
    lambda: _with_inactive(random_problem(np.random.default_rng(74), 4, 8), (0, 3, 6)),
], ids=["random", "readme-chain", "duplicated-nodes", "inactive"])
def test_pair_gains_rows_are_log1p_of_the_residuals_after_add(problem):
    """Branch and bound's bounds and leaves rest on it: row a of
    pair_gains(R, R) is log1p of the residuals that add(R[a]) leaves, at the
    root and after each of greedy's first two steps, within the
    objective.rounding_bound of a design of the prefix plus the pair."""
    p = problem()
    m = len(p.active)
    order = [p.active.index(i) for i, _, _ in ss.greedy(p, 2).per_step]
    kern = objective.SchurKernel(p, 3)
    for t in range(3):
        kern.t = 0
        for j in order[:t]:
            kern.add(j)
        rest = [j for j in range(m) if j not in order[:t]]
        gains = kern.pair_gains(rest, rest)
        tol = objective.rounding_bound(kern.n, t + 2, float(kern.diag.max()))
        for row, w in zip(gains, rest):
            kern.t = t
            kern.add(w)
            assert np.max(np.abs(row - np.log1p(kern.r[rest]))) <= tol


def _phi_eig_calls(monkeypatch, run):
    calls = []
    phi_eig = objective.phi_eig

    def counted(p, S):
        calls.append(S)
        return phi_eig(p, S)

    with monkeypatch.context() as patch:
        patch.setattr(objective, "phi_eig", counted)
        report = run()
    return report, len(calls)


def test_fixed_design_reports_score_each_design_once(monkeypatch):
    """phi_final is the last prefix of the ascending trace, not a third call
    on the chosen design: exhaustive breaks its two-way tie (2) and traces
    3 prefixes; random_baseline traces 3 prefixes."""
    p = _chain(20, 10, None, seed=7)
    for run, calls in ((lambda: ss.exhaustive(p, 3), 5),
                       (lambda: ss.random_baseline(p, 3, 1), 3)):
        report, n = _phi_eig_calls(monkeypatch, run)
        assert n == calls
        assert report.phi_final == ss.phi_eig(p, report.chosen) == report.per_step[-1][2]
    report, n = _phi_eig_calls(monkeypatch, lambda: ss.random_baseline(p, 0, 1))
    assert (n, report.phi_final, report.per_step) == (0, 0.0, ())


def test_certify_three_sensor_ratio_is_exactly_one():
    p = three_sensor_problem()
    g = ss.greedy(p, 2)
    e = ss.exhaustive(p, 2)
    out = ss.certify_bound(g, e)
    cert = out.bound_certificate
    assert cert is not None
    assert cert.ratio == 1.0
    assert cert.opt_phi == e.phi_final
    assert cert.floor == pytest.approx(1.0 - 1.0 / math.e, abs=1e-16)


def test_certify_full_budget_ratio_exactly_one():
    rng = np.random.default_rng(70)
    p = random_problem(rng, 4, 5)
    out = ss.certify_bound(ss.greedy(p, 5), ss.exhaustive(p, 5))
    assert out.bound_certificate.ratio == 1.0


def test_certify_ratio_within_guarantee_on_random_instances():
    rng = np.random.default_rng(71)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        n_s = int(rng.integers(3, 13))
        p = random_problem(rng, n, n_s)
        k = int(rng.integers(1, min(5, n_s) + 1))
        out = ss.certify_bound(ss.greedy(p, k), ss.exhaustive(p, k))
        assert 1.0 - 1.0 / math.e - 1e-12 <= out.bound_certificate.ratio <= 1.0


def test_certify_rejects_mismatched_problems():
    rng = np.random.default_rng(72)
    p = random_problem(rng, 4, 5)
    q = random_problem(rng, 4, 5)
    with pytest.raises(ValueError):
        ss.certify_bound(ss.greedy(p, 2), ss.exhaustive(q, 2))


def test_certify_rejects_mismatched_budget():
    p = three_sensor_problem()
    with pytest.raises(ValueError):
        ss.certify_bound(ss.greedy(p, 1), ss.exhaustive(p, 2))


def test_certify_raises_on_impossible_ratio():
    # a tampered report is the only way to get below the floor
    p = three_sensor_problem()
    g = ss.greedy(p, 2)
    e = ss.exhaustive(p, 2)
    fake = dataclasses.replace(g, phi_final=0.1 * e.phi_final)
    with pytest.raises(ss.BoundViolationError):
        ss.certify_bound(fake, e)


def test_random_baseline_deterministic_per_seed():
    rng = np.random.default_rng(73)
    p = random_problem(rng, 4, 9)
    a = ss.random_baseline(p, 4, seed=11)
    b = ss.random_baseline(p, 4, seed=11)
    c = ss.random_baseline(p, 4, seed=12)
    assert report_fields(a) == report_fields(b)
    assert a.method == "random"
    assert a.seed == 11
    assert len(a.chosen) == 4
    assert a.chosen != c.chosen or a.per_step != c.per_step


def test_random_baseline_full_budget_is_everything():
    rng = np.random.default_rng(74)
    p = random_problem(rng, 3, 5)
    assert ss.random_baseline(p, 5, seed=0).chosen.indices == tuple(range(5))


def test_random_baseline_dominated_by_greedy_on_average():
    rng = np.random.default_rng(75)
    p = random_problem(rng, 5, 10)
    g = ss.greedy(p, 3).phi_final
    mean = np.mean([ss.random_baseline(p, 3, seed=s).phi_final for s in range(100)])
    assert mean <= g + 1e-12


def test_reports_carry_problem_hash_and_wall_time():
    p = three_sensor_problem()
    r = ss.greedy(p, 1)
    assert r.problem_hash == p.content_hash()
    assert r.wall_time is not None and r.wall_time >= 0.0
