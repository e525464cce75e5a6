"""Monte Carlo oracle, Gaussian KL, and the property-campaign drivers."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import senselect as ss
from senselect import objective, verify

from conftest import (
    identity_problem,
    maxabs,
    posterior_mean_error_bound,
    random_problem,
    scalar_problem,
)


def test_kl_of_prior_against_itself_is_zero():
    rng = np.random.default_rng(81)
    p = random_problem(rng, 4, 3)
    post = ss.posterior(p, (), np.zeros(0))
    assert abs(ss.kl_gaussian(p, post)) <= 1e-12


def test_kl_scalar_hand_value():
    p = scalar_problem()
    post = ss.posterior(p, (0,), np.array([2.0]))
    want = 0.25 + 0.5 * math.log(2.0)
    assert ss.kl_gaussian(p, post) == pytest.approx(want, rel=1e-13)


def test_kl_nonnegative_on_random_posteriors():
    rng = np.random.default_rng(82)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        n_s = int(rng.integers(1, 6))
        p = random_problem(rng, n, n_s)
        size = int(rng.integers(0, n_s + 1))
        s = tuple(sorted(rng.choice(n_s, size=size, replace=False).tolist()))
        post = ss.posterior(p, s, rng.standard_normal(size))
        assert ss.kl_gaussian(p, post) >= -1e-12


def test_kl_invariant_under_change_of_basis():
    """KL is a statement about measures, so relabeling coordinates is free."""
    rng = np.random.default_rng(83)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        p = random_problem(rng, n, 4)
        s = (0, 2)
        post = ss.posterior(p, s, rng.standard_normal(2))
        base = ss.kl_gaussian(p, post)

        t = np.eye(n) + 0.2 * rng.standard_normal((n, n))
        ti = np.linalg.inv(t)
        m2 = ti.T @ p.space.M @ ti
        space2 = ss.WeightedSpace(0.5 * (m2 + m2.T))
        p2 = ss.build_problem(
            space2,
            p.F @ ti,
            p.sigma,
            t @ p.m_pr,
            t @ p.gamma_pr.rep @ ti,
        )
        post2 = ss.Posterior(t @ post.mean, ss.Operator(space2, t @ post.cov.rep @ ti))
        assert ss.kl_gaussian(p2, post2) == pytest.approx(base, rel=1e-9, abs=1e-11)


def test_kl_rejects_mismatched_dimensions():
    p = identity_problem(3)
    q = identity_problem(2)
    post = ss.posterior(q, (0,), np.array([1.0]))
    with pytest.raises(ValueError):
        ss.kl_gaussian(p, post)


def test_mc_empty_design_is_exact_zero():
    rng = np.random.default_rng(84)
    p = random_problem(rng, 3, 3)
    est = ss.mc_eig(p, (), n_samples=50, seed=9)
    assert est.mean_kl == 0.0
    assert est.std_error == 0.0
    assert est.n_samples == 50


def test_mc_rejects_tiny_sample_counts():
    p = scalar_problem()
    with pytest.raises(ValueError):
        ss.mc_eig(p, (0,), n_samples=1, seed=0)


def test_counts_below_the_report_floor_are_refused(monkeypatch):
    """The library refuses the counts that read_report refuses in a file.

    mc_eig checks its count before the empty-design shortcut, and
    verification_run checks both counts before its first check runs.
    """
    p = random_problem(np.random.default_rng(94), 3, 5)
    with pytest.raises(ValueError, match="trials must be at least 0"):
        ss.check_monotone(p, trials=-1)
    for mode in ("random", "exhaustive"):
        with pytest.raises(ValueError, match="trials must be at least 0"):
            ss.check_submodular(p, mode=mode, trials=-2)
    with pytest.raises(ValueError, match="n_samples must be at least 2"):
        ss.mc_eig(p, (), -5, 0)

    def must_not_run(*args, **kwargs):
        raise AssertionError("a property check ran before the counts were checked")

    monkeypatch.setattr(verify, "check_monotone", must_not_run)
    with pytest.raises(ValueError, match="trials must be at least 0"):
        ss.verification_run(p, trials=-1)
    with pytest.raises(ValueError, match="samples must be at least 2"):
        ss.verification_run(p, samples=1)


@pytest.mark.parametrize("run", [
    lambda p: ss.check_monotone(p, trials=3, seed=-1),
    lambda p: ss.check_submodular(p, mode="random", trials=3, seed=-1),
    lambda p: ss.check_submodular(p, mode="exhaustive", seed=-1),
    lambda p: ss.check_submodular(p, mode="auto", seed=-1),
    lambda p: ss.mc_eig(p, p.active, 10, -1),
    lambda p: ss.mc_eig(p, (), 10, -1),
    lambda p: ss.verification_run(p, trials=3, samples=10, seed=-1),
    lambda p: ss.random_baseline(p, 3, seed=-1),
], ids=["check_monotone", "check_submodular", "check_submodular-exhaustive",
        "check_submodular-auto", "mc_eig", "mc_eig-empty", "verification_run",
        "random_baseline"])
def test_negative_seed_is_refused_before_any_draw(monkeypatch, run):
    """Every mode refuses the seed, so auto mode's choice does not decide it."""
    p = random_problem(np.random.default_rng(94), 3, 5)
    assert len(p.active) <= verify.EXHAUSTIVE_LIMIT

    def must_not_draw(*args, **kwargs):
        raise AssertionError("a generator was made before the seed was checked")

    monkeypatch.setattr(verify.np.random, "default_rng", must_not_draw)
    with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
        run(p)


@pytest.mark.parametrize("mode, problem", [
    ("random", lambda: random_problem(np.random.default_rng(95), 4, 12)),
    ("exhaustive", scalar_problem),
], ids=["random", "exhaustive"])
def test_no_pair_checked_reads_zero_breach(mode, problem):
    rep = ss.check_submodular(problem(), mode=mode, trials=0)
    assert (rep.mode, rep.checks, rep.violations) == (mode, 0, 0)
    assert rep.max_breach == 0.0


def test_no_trial_reads_zero_min_gain():
    """An extreme over no trial reads 0.0, as max_breach does."""
    rep = ss.check_monotone(random_problem(np.random.default_rng(95), 4, 12), trials=0)
    assert rep == ss.MonotoneReport(trials=0, violations=0, min_gain=0.0, max_formula_err=0.0)


def test_no_trial_forms_no_whitened():
    """Checks of no trial score no design, so they leave p.whitened unformed."""
    p = random_problem(np.random.default_rng(7), 30, 40)
    assert "whitened" not in vars(p)
    assert ss.check_monotone(p, trials=0) == ss.MonotoneReport(0, 0, 0.0, 0.0)
    assert (ss.check_submodular(p, mode="random", trials=0)
            == ss.SubmodularReport("random", 0, 0, 0.0, None))
    assert "whitened" not in vars(p)


def test_reference_phi_matches_phi_eig_on_both_gram_sides():
    """Designs smaller and larger than n, on ill-conditioned instances; a
    design holds positions in p.active, as the checks draw them.

    Each value, from either side, is a Cholesky factorization of
    dimension at most n + s whose entries are bounded by 1 + max K_vv, so
    to first order each errs by at most (n + s) eps (1 + max K_vv), and
    the two by at most twice that.
    """
    eps = np.finfo(float).eps
    for seed in range(96, 101):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        p = random_problem(rng, n, 3 * n + 4, cond=1e4)
        w = p.space.whitening_factor.T @ p.precond_vecs
        big = 1.0 + float(np.max(np.sum(w * w, axis=0)))
        m = len(p.active)
        sizes = [0, 1, n - 1, n, n + 1, m, *rng.integers(0, m + 1, 20).tolist()]
        designs = [tuple(rng.choice(m, s, replace=False).tolist()) for s in sizes]
        assert {len(d) > n for d in designs} == {False, True}
        got = verify._reference_phi(p, designs)
        for d, value in zip(designs, got.tolist()):
            sensors = [p.active[j] for j in d]
            assert abs(value - ss.phi_eig(p, sensors)) <= 2.0 * (n + len(d)) * eps * big
        assert got[0] == 0.0
        # a design's order does not matter, and equal designs get equal values
        again = verify._reference_phi(p, [d[::-1] for d in designs])
        assert again.tolist() == got.tolist()


def _with_gaps(seed, n, n_s, dead):
    """random_problem(seed, n, n_s) with the sensors in dead made inactive."""
    q = random_problem(np.random.default_rng(seed), n, n_s)
    f = q.F.copy()
    f[list(dead)] = 0.0
    p = ss.build_problem(q.space, f, q.sigma, q.m_pr, q.gamma_pr.rep)
    assert p.inactive == tuple(dead)
    return p


def _parent_draws(p, trials, seed, monotone):
    """The designs the sampled checks evaluated before their values were batched,
    drawn one trial at a time as sensor indices: (S, S + v) per monotone trial,
    (A + v, A, B + v, B) per submodular one."""
    rng = np.random.default_rng(seed)
    active = np.asarray(p.active)
    out = []
    for _ in range(trials):
        if monotone:
            size = int(rng.integers(0, active.size))
            S = tuple(int(i) for i in np.sort(rng.choice(active, size, replace=False)))
            rest = np.asarray([i for i in active if i not in S])
            out += [S, S + (int(rng.choice(rest)),)]
            continue
        b_size = int(rng.integers(1, active.size))
        B = np.sort(rng.choice(active, b_size, replace=False))
        a_size = int(rng.integers(0, b_size + 1))
        A = tuple(int(i) for i in np.sort(rng.choice(B, a_size, replace=False)))
        B = tuple(int(i) for i in B)
        rest = np.asarray([i for i in active if i not in B])
        v = int(rng.choice(rest))
        out += [A + (v,), A, B + (v,), B]
    return out


def _parent_table(p):
    """The designs of the exhaustive check's table, as sensor indices, by bit mask."""
    return [tuple(i for b, i in enumerate(p.active) if mask >> b & 1)
            for mask in range(1 << len(p.active))]


def _sensors(p, batch):
    """A batch of designs in positions of p.active, as sensor indices."""
    return [tuple(p.active[j] for j in d) for d in batch]


def test_sampled_checks_draw_the_same_designs_and_call_no_phi_eig(monkeypatch):
    """Every draw stays in its order; the reference values come in one call.

    Neither check makes a phi_eig call: check_monotone takes phi(S) and
    each trial's residual from one _gram_factor of S, so its one batch
    holds the S + v designs, v last; each S is that design minus its last
    entry.  The checks draw positions in p.active; mapped to sensors, they
    are the index designs of _parent_draws.  On a problem with gaps in
    p.active, a candidate outside a design is drawn from the active ones
    alone.
    """
    p = random_problem(np.random.default_rng(101), 5, 14)
    gaps = _with_gaps(102, 5, 14, (0, 6, 7, 12))
    ident = identity_problem(4)
    batches, phi_eig_calls = [], []
    reference, phi_eig = verify._reference_phi, objective.phi_eig

    def recording(q, designs):
        batches.append(list(designs))
        return reference(q, designs)

    def counting(q, S):
        phi_eig_calls.append(S)
        return phi_eig(q, S)

    monkeypatch.setattr(verify, "_reference_phi", recording)
    monkeypatch.setattr(objective, "phi_eig", counting)
    ss.check_submodular(p, mode="random", trials=40, seed=23)
    ss.check_submodular(ident, mode="exhaustive")
    ss.check_monotone(p, trials=30, seed=22)
    ss.check_submodular(gaps, mode="random", trials=40, seed=23)
    ss.check_monotone(gaps, trials=30, seed=22)
    ss.check_submodular(gaps, mode="exhaustive")
    assert phi_eig_calls == []
    assert _sensors(p, batches[0]) == _parent_draws(p, 40, 23, monotone=False)
    assert _sensors(ident, batches[1]) == _parent_table(ident)
    for q, batch in ((p, batches[2]), (gaps, batches[4])):
        parent = _parent_draws(q, 30, 22, monotone=True)
        assert _sensors(q, batch) == parent[1::2]  # S + v
        assert [d[:-1] for d in _sensors(q, batch)] == parent[0::2]  # S
    assert _sensors(gaps, batches[3]) == _parent_draws(gaps, 40, 23, monotone=False)
    assert _sensors(gaps, batches[5]) == _parent_table(gaps)
    # recorded from the checks that called phi_eig once per design
    assert _sensors(p, batches[0][:4]) == [(8,), (), (9, 8), (9,)]
    S = (0, 1, 2, 3, 5, 6, 7, 10, 11, 13)
    assert _sensors(p, batches[2][:1]) == [S + (4,)]


def test_mc_scalar_matches_analytic_value():
    p = scalar_problem()
    est = ss.mc_eig(p, (0,), n_samples=4000, seed=101)
    target = 0.5 * math.log(2.0)
    assert est.std_error > 0.0
    assert abs(est.mean_kl - target) <= 3.0 * est.std_error


def test_mc_weighted_problem_matches_half_phi():
    rng = np.random.default_rng(85)
    p = random_problem(rng, 3, 4)
    s = (0, 1, 3)
    est = ss.mc_eig(p, s, n_samples=3000, seed=202)
    target = 0.5 * ss.phi_eig(p, s)
    assert abs(est.mean_kl - target) <= 3.0 * est.std_error


def test_mc_deterministic_per_seed():
    p = scalar_problem()
    a = ss.mc_eig(p, (0,), n_samples=500, seed=7)
    b = ss.mc_eig(p, (0,), n_samples=500, seed=7)
    c = ss.mc_eig(p, (0,), n_samples=500, seed=8)
    assert (a.mean_kl, a.std_error) == (b.mean_kl, b.std_error)
    assert a.mean_kl != c.mean_kl


def test_mc_matches_per_sample_reference():
    """mc_eig agrees with a loop of kl_gaussian(p, posterior(p, S, y_s)).

    The loop draws the same Z, then E.  Both sides share the covariance,
    its trace and its log determinant bit for bit, so per sample only the
    data y, the mean and the quadratic term <Gpr^-1 d, d> (B = M Gpr^-1,
    d = mean - m_pr) may round differently:
      - y: a triangular solve with L (kappa(L)) and two products of inner
        dimension at most n;
      - the mean: the error of y through C M^-1 F_S' Gn^-1, plus its own
        rounding (posterior_mean_error_bound);
      - the quadratic term: 2 |delta d| ||B d||_1 to first order, plus two
        products of inner dimension n;
      - the divergence: half the quadratic term's error, plus the sum of
        its five terms.
    The averages differ by the largest per-sample difference plus the
    rounding of numpy's pairwise sums.
    """
    eps = np.finfo(float).eps
    inf = np.inf
    rng = np.random.default_rng(91)
    for n, n_s, s, n_samples, seed in ((5, 6, (0, 2, 3, 5), 2500, 7), (3, 7, (1, 4), 1203, 8)):
        p = random_problem(rng, n, n_s)
        cols = list(s)
        est = ss.mc_eig(p, s, n_samples=n_samples, seed=seed)

        draw = np.random.default_rng(seed)
        Z = draw.standard_normal((n, n_samples))
        E = draw.standard_normal((len(s), n_samples))
        L = p.space.whitening_factor
        X = np.linalg.solve(L.T, Z)
        m = p.m_pr[:, None] + p.gamma_pr_sqrt.rep @ X
        F_S = p.F[cols, :]
        Y = F_S @ m + p.sigma[cols, None] * E
        y_abs = np.abs(F_S) @ (np.abs(p.m_pr)[:, None] + np.abs(p.gamma_pr_sqrt.rep) @ np.abs(X))
        y_err = 3.0 * (n + 1) * eps * np.linalg.cond(L, inf) * (
            y_abs + np.abs(p.sigma[cols, None] * E)).max(axis=0)

        G_inv, M = p.gamma_pr_inv.rep, p.space.M
        B = M @ G_inv
        kls, bounds = np.empty(n_samples), np.empty(n_samples)
        for i in range(n_samples):
            post = ss.posterior(p, s, Y[:, i])
            kls[i] = ss.kl_gaussian(p, post)
            C = post.cov.rep
            to_mean = C @ np.linalg.solve(M, F_S.T / p.sigma[cols] ** 2)
            dd = (2.0 * posterior_mean_error_bound(p, s, post, Y[:, i])
                  + 2.0 * np.linalg.norm(to_mean, inf) * y_err[i])
            d = post.mean - p.m_pr
            quad_abs = float((np.abs(G_inv) @ np.abs(d)) @ (np.abs(M) @ np.abs(d)))
            d_quad = (dd * 2.0 * np.abs(B @ d).sum() + dd * dd * np.abs(B).sum()
                      + 4.0 * (n + 1) * eps * quad_abs)
            terms = (abs(np.trace(G_inv @ C)) + n + quad_abs + abs(p.gamma_pr_logdet)
                     + abs(np.linalg.slogdet(C)[1]))
            bounds[i] = 0.5 * d_quad + 4.0 * eps * terms

        sums = 2.0 * (math.log2(n_samples) + 10) * eps
        mean = float(np.mean(kls))
        std = float(np.std(kls, ddof=1))
        assert abs(est.mean_kl - mean) <= bounds.max() + sums * float(np.mean(np.abs(kls)))
        tol_std = (bounds.max() * math.sqrt(n_samples / (n_samples - 1)) + sums * std)
        assert abs(est.std_error - std / math.sqrt(n_samples)) <= tol_std / math.sqrt(n_samples)
        assert est.n_samples == n_samples and est.seed == seed


def _parent_mc(p, s, n_samples, seed):
    """mean_kl and std_error made the way mc_eig made them before it streamed.

    Z, then E, are drawn in full, and 1,000-sample blocks of them go
    through posterior and kl_gaussian.
    """
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((p.n, n_samples))
    E = rng.standard_normal((len(s), n_samples))
    draw = np.linalg.solve(p.space.whitening_factor, p.gamma_pr_sqrt.rep.T).T
    F_S, sigma = p.F[list(s), :], p.sigma[list(s), None]
    kls = []
    for b in range(0, n_samples, 1000):
        m = p.m_pr[:, None] + draw @ Z[:, b:b + 1000]
        Y = F_S @ m + sigma * E[:, b:b + 1000]
        kls.append(ss.kl_gaussian(p, ss.posterior(p, s, Y.T)))
    kls = np.concatenate(kls)
    return float(np.mean(kls)), float(np.std(kls, ddof=1) / math.sqrt(n_samples))


def _mc_designs():
    """(problem, design) pairs: the full active set, a one-sensor design, and
    the active set of a problem with inactive sensors."""
    p = random_problem(np.random.default_rng(95), 6, 5)
    gaps = _with_gaps(96, 5, 8, (1, 4))
    return [(p, p.active), (p, (3,)), (gaps, gaps.active)]


@pytest.mark.parametrize("n_samples", [2, 999, 1000, 1001, 2501])
def test_mc_streamed_draws_give_the_whole_draws_estimate_bit_for_bit(n_samples):
    """mc_eig equals (==) the estimate of the draws held in full."""
    for q, s in _mc_designs():
        est = ss.mc_eig(q, s, n_samples=n_samples, seed=13)
        assert (est.mean_kl, est.std_error) == _parent_mc(q, s, n_samples, 13)


@pytest.mark.parametrize("n_samples", [2, 255, 256, 257, 2501])
def test_mc_block_size_moves_no_bits(monkeypatch, n_samples):
    """The estimate is the same (==) with blocks of 1,000 and of 256 columns."""
    for q, s in _mc_designs():
        got = []
        for size in (1000, 256):
            monkeypatch.setattr(verify, "_MC_BLOCK", size)
            est = ss.mc_eig(q, s, n_samples=n_samples, seed=13)
            got.append((est.mean_kl, est.std_error))
        assert got[0] == got[1]


@pytest.mark.parametrize("n", [1, 255, 256, 257, 999, 1000, 1001, 2501])
def test_normal_blocks_are_the_column_blocks_of_one_draw(n):
    blocks = list(verify._normal_blocks(np.random.default_rng(17), 3, n))
    assert [b.shape[1] for b in blocks[:-1]] == [verify._MC_BLOCK] * (len(blocks) - 1)
    assert 0 < blocks[-1].shape[1] <= verify._MC_BLOCK
    whole = np.random.default_rng(17).standard_normal((3, n))
    assert np.array_equal(np.hstack(blocks), whole)


def test_mc_peak_memory_grows_by_less_than_a_block_of_draws():
    """From 2,000 to 20,000 samples, mc_eig's traced peak grows by less than
    (n + |S|) * _MC_BLOCK doubles plus the 18,000 more divergences it holds.

    The divergences are one double per sample, which np.mean and np.std
    need all of; at 256 columns the block of draws alone (131 KB) is
    below their 144 KB.  Holding the draws in full grows by
    (n + |S|) * 18,000 doubles, 9.2 MB.
    """
    p = random_problem(np.random.default_rng(97), 40, 24)
    s = p.active
    ss.mc_eig(p, s, 2, 0)  # the problem's cached arrays are made here, outside the trace

    def peak(n_samples):
        tracemalloc.start()
        try:
            ss.mc_eig(p, s, n_samples, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    block = (p.n + len(s)) * verify._MC_BLOCK * 8
    assert peak(20000) - peak(2000) < block + 8 * 18000


def test_mc_forms_the_posterior_covariance_once(monkeypatch):
    """Three blocks of samples share one inverse and one log determinant."""
    p = random_problem(np.random.default_rng(98), 6, 5)
    p.gamma_pr_logdet, p.gamma_pr_inv  # cached by the first use, not counted
    calls = []
    for name in ("inv", "slogdet"):
        def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    ss.mc_eig(p, p.active, n_samples=2501, seed=3)
    assert sorted(calls) == ["inv", "slogdet"]


def test_mc_gathers_the_design_columns_once(monkeypatch):
    """Three blocks of samples share one gather of the design's sensor vectors,
    which the posterior covariance uses too."""
    p = random_problem(np.random.default_rng(98), 6, 5)
    want = ss.mc_eig(p, p.active, n_samples=2 * verify._MC_BLOCK + 1, seed=3)
    gathers = []

    class Counted(np.ndarray):
        def __getitem__(self, key):
            gathers.append(key)
            return np.asarray(self)[key]
    p.__dict__["sensor_vecs"] = p.sensor_vecs.view(Counted)
    got = ss.mc_eig(p, p.active, n_samples=2 * verify._MC_BLOCK + 1, seed=3)
    assert len(gathers) == 1
    assert (got.mean_kl, got.std_error) == (want.mean_kl, want.std_error)


def test_mc_stderr_concentration():
    """Standard error must shrink like 1 / sqrt(samples), within a factor 2."""
    p = scalar_problem()
    ests = {
        n: ss.mc_eig(p, (0,), n_samples=n, seed=55) for n in (1000, 10000, 100000)
    }
    root10 = math.sqrt(10.0)
    r1 = ests[1000].std_error / ests[10000].std_error
    r2 = ests[10000].std_error / ests[100000].std_error
    assert root10 / 2.0 <= r1 <= root10 * 2.0
    assert root10 / 2.0 <= r2 <= root10 * 2.0


def test_mc_prior_samples_realize_requested_covariance():
    """Empirical second moments in the weighted sense approach Gamma_pr."""
    rng = np.random.default_rng(86)
    p = random_problem(rng, 3, 2)
    n = 200000
    z = np.random.default_rng(4242).standard_normal((3, n))
    l = p.space.whitening_factor
    draws = p.gamma_pr_sqrt.rep @ np.linalg.solve(l.T, z)
    emp = draws @ draws.T / n  # Euclidean moment E[x x']
    want = p.gamma_pr.rep @ np.linalg.inv(p.space.M)  # Gamma_pr M^-1
    assert maxabs(emp - want) <= 0.02 * max(1.0, maxabs(want))


def test_check_monotone_identity_problem():
    p = identity_problem(4)
    rep = ss.check_monotone(p, trials=50, seed=3)
    assert rep.ok
    assert rep.violations == 0
    assert rep.trials == 50
    assert rep.min_gain == pytest.approx(math.log(2.0), rel=1e-12)
    assert rep.max_formula_err <= 1e-12


def test_check_monotone_random_instances():
    rng = np.random.default_rng(87)
    for _ in range(5):
        p = random_problem(rng, 6, 7)
        rep = ss.check_monotone(p, trials=100, seed=int(rng.integers(0, 1000)))
        assert rep.ok
        assert rep.min_gain > 0.0
        assert rep.max_formula_err <= 1e-9


def test_check_monotone_skips_inactive_rows():
    space = ss.WeightedSpace.euclidean(3)
    f = np.vstack([np.eye(3), np.zeros((1, 3))])
    p = ss.build_problem(space, f, np.ones(4), np.zeros(3), np.eye(3))
    rep = ss.check_monotone(p, trials=60, seed=5)
    assert rep.ok and rep.violations == 0


@pytest.mark.parametrize("make, sides", [
    (lambda: random_problem(np.random.default_rng(104), 12, 9), {False}),
    (lambda: random_problem(np.random.default_rng(105), 6, 20), {False, True}),
    (lambda: _with_gaps(102, 5, 14, (0, 6, 7, 12)), {False, True}),
])
def test_monotone_residuals_match_the_kernel_after_add(monkeypatch, make, sides):
    """Each trial's Gram-side residual equals SchurKernel.r[v] after adding S.

    Both are Cholesky computations of dimension at most n + s.  Every entry
    of I + K_SS, the kernel's matrix and the small Gram side, and of
    I + W_S W_S', the large one, is bounded by 1 + tr K over S + v, so to
    first order each residual errs by at most (n + s) eps (1 + tr), and the
    two differ by at most twice that.  sides lists whether |S| > n, over
    the trials.
    """
    p = make()
    batches, residuals = [], []
    reference, residual = verify._reference_phi, verify._residual

    def recording_batch(q, designs):
        batches.append(list(designs))
        return reference(q, designs)

    def recording(c, ws, x):
        residuals.append(residual(c, ws, x))
        return residuals[-1]

    monkeypatch.setattr(verify, "_reference_phi", recording_batch)
    monkeypatch.setattr(verify, "_residual", recording)
    assert ss.check_monotone(p, trials=60, seed=7).ok
    (batch,) = batches  # S + v per trial, v last
    trials = [(d[:-1], d[-1], got) for d, got in zip(batch, residuals, strict=True)]
    assert {len(S) > p.n for S, _, _ in trials} == sides
    kern = objective.SchurKernel(p, len(p.active))
    for S, v, got in trials:
        _assert_residual_matches_kernel(p, kern, S, v, got)


def _assert_residual_matches_kernel(p, kern, S, v, got):
    """got is a_vv after S within 2 (n + s) eps (1 + tr K over S + v) of kern.r[v]."""
    kern.t = 0
    for j in S:
        kern.add(j)
    tr = float(np.sum(kern.diag[[*S, v]]))
    eps = np.finfo(float).eps
    assert abs(got - kern.r[v]) <= 2.0 * (p.n + len(S)) * eps * (1.0 + tr)


def test_monotone_factors_each_design_once(monkeypatch):
    """check_monotone(trials=T) runs T Cholesky factorizations, one per drawn S,
    the empty design included, plus one batched one per distinct size of
    S + v: phi(S) comes from the trial's factor, not from a second one."""
    p = random_problem(np.random.default_rng(108), 6, 20)
    batches, calls = [], []
    reference, cholesky = verify._reference_phi, np.linalg.cholesky
    monkeypatch.setattr(verify, "_reference_phi",
                        lambda q, designs: batches.append(list(designs)) or reference(q, designs))
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
    trials = 30
    assert ss.check_monotone(p, trials=trials, seed=9).ok
    (batch,) = batches
    assert {len(d) - 1 for d in batch} - {len(d) for d in batch} - {0}  # sizes only S has
    assert len(calls) == trials + len({len(d) for d in batch})
    assert sum(len(shape) == 2 for shape in calls) == trials


def test_gram_factor_gives_phi_and_residual_on_both_sides_of_n():
    """At |S| in {n - 1, n, n + 1}, where _gram_factor changes side, the
    trial's factor gives phi(S) within 2 (n + s) eps (1 + max K_vv) of
    _reference_phi and of phi_eig's n x n factor, and _residual's a_vv
    within the kernel bound of
    test_monotone_residuals_match_the_kernel_after_add."""
    p = random_problem(np.random.default_rng(109), 6, 20)
    rng = np.random.default_rng(110)
    w = p.whitened.T
    big = 1.0 + float(np.max(np.sum(w * w, axis=1)))
    kern = objective.SchurKernel(p, len(p.active))
    eps = np.finfo(float).eps
    for size in (p.n - 1, p.n, p.n + 1):
        for _ in range(5):
            pos = rng.choice(len(p.active), size + 1, replace=False).tolist()
            S, v = tuple(sorted(pos[:-1])), pos[-1]
            ws = w[list(S)]
            c = verify._gram_factor(ws, p.n)
            assert c.shape == (min(size, p.n),) * 2
            phi = float(verify._logdet(c))
            for ref in (verify._reference_phi(p, [S])[0], ss.phi_eig(p, [p.active[j] for j in S])):
                assert abs(phi - ref) <= 2.0 * (p.n + size) * eps * big
            _assert_residual_matches_kernel(p, kern, S, v, verify._residual(c, ws, w[v]))


def test_monotone_peak_memory_is_below_one_design_of_kernel_rows(monkeypatch):
    """On random 20 x 400, check_monotone's traced peak stays below |S|max * m
    doubles: the factor rows alone of a SchurKernel sized by the largest
    drawn design, which also holds as many rows of residuals."""
    p = random_problem(np.random.default_rng(107), 20, 400)
    ss.check_monotone(p, trials=1)  # the problem's cached arrays are made here, outside the trace
    sizes, reference = [], verify._reference_phi
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_reference_phi",
                      lambda q, designs: sizes.extend(map(len, designs)) or reference(q, designs))
        ss.check_monotone(p, trials=10, seed=4)
    tracemalloc.start()
    try:
        ss.check_monotone(p, trials=10, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (max(sizes) - 1) * len(p.active) * 8  # S + v is the longest design


def test_check_submodular_orthogonal_sensors_all_tight():
    p = identity_problem(4)
    rep = ss.check_submodular(p, mode="exhaustive")
    assert rep.ok
    assert rep.violations == 0
    assert abs(rep.max_breach) <= 1e-12  # equality throughout
    assert rep.max_formula_err <= 1e-12


def test_check_submodular_duplicated_sensor_strict():
    space = ss.WeightedSpace.euclidean(2)
    f = np.array([[1.0, 0.0], [1.0, 0.0]])
    p = ss.build_problem(space, f, np.ones(2), np.zeros(2), np.eye(2))
    rep = ss.check_submodular(p, mode="exhaustive")
    assert rep.ok
    assert rep.max_breach < 0.0  # strictly diminishing everywhere
    assert rep.max_breach == pytest.approx(math.log(1.5) - math.log(2.0), abs=1e-12)


def test_check_submodular_random_mode_clean():
    rng = np.random.default_rng(88)
    p = random_problem(rng, 5, 12)
    rep = ss.check_submodular(p, mode="random", trials=150, seed=21)
    assert rep.ok
    assert rep.mode == "random"
    assert rep.checks == 150
    assert rep.violations == 0


def _submodular_reference(p):
    """The exhaustive check one (A, v, w) at a time, on design_state.

    Returns the formula errors of the plain gains, and the breaches and
    formula errors of the conditioned gains, so that violations can be
    counted for any tolerances.
    """
    active = p.active
    phi = {c: ss.phi_eig(p, c)
           for r in range(len(active) + 1) for c in itertools.combinations(active, r)}

    def with_(A, *extra):
        return tuple(sorted(A + extra))

    plain_errs, breaches, pair_errs = [], [], []
    for r in range(len(active)):
        for A in itertools.combinations(active, r):
            state = ss.design_state(p, A)
            rest = [c for c in active if c not in A]
            plain = {v: ss.marginal_gain(state, v) for v in rest}
            plain_errs += [abs(plain[v] - (phi[with_(A, v)] - phi[A])) for v in rest]
            for v, w in itertools.permutations(rest, 2):
                g = ss.marginal_gain_conditioned(state, v, w)
                breaches.append(g - plain[v])
                pair_errs.append(abs(g - (phi[with_(A, v, w)] - phi[with_(A, w)])))
    return np.array(plain_errs), np.array(breaches), np.array(pair_errs)


def _submodular_cases():
    rng = np.random.default_rng(93)
    dead = random_problem(rng, 5, 8)
    f = dead.F.copy()
    f[3] = 0.0  # inactive: positions in p.active are no longer indices
    yield ss.generate(ss.ProblemSpec("chain", n=20, n_s=10, seed=7))  # README's chain
    yield random_problem(rng, 4, 6)
    yield random_problem(rng, 3, 9)
    yield ss.build_problem(dead.space, f, dead.sigma, dead.m_pr, dead.gamma_pr.rep)


def test_exhaustive_submodular_blocks_match_per_pair_reference(monkeypatch):
    """The block check counts what the per-pair loop counts.

    Both sides share phi_eig and every residual a_vv bit for bit, so they
    differ only in a_vw: the Schur block forms it with matrix products,
    the reference with dot products of inner dimension at most n and m
    whose terms are bounded by max K_vv (Cauchy-Schwarz), so the two
    a_vw differ by at most 2 (n + m + 2) eps max K_vv.  Through the
    conditioned gain that error is scaled by 2 |a_vw| / (1 + a_ww) <=
    sqrt(max K_vv), and each side rounds the formula by a few eps (1 +
    max K_vv).  max_breach and max_formula_err move by no more than the
    largest gain does.
    """
    eps = np.finfo(float).eps
    for p in _submodular_cases():
        m = len(p.active)
        w = p.space.whitening_factor.T @ p.precond_vecs
        big = 1.0 + float(np.max(np.sum(w * w, axis=0)))
        tol = 2.0 * (p.n + m + 6) * eps * big ** 1.5
        plain_errs, breaches, pair_errs = _submodular_reference(p)
        for name in (None, "SUBMODULAR_TOL", "FORMULA_TOL"):
            with monkeypatch.context() as patch:
                if name:
                    patch.setattr(verify, name, -1.0)
                rep = ss.check_submodular(p, mode="exhaustive")
                bad_pair = (breaches > verify.SUBMODULAR_TOL) | (pair_errs > verify.FORMULA_TOL)
                violations = int(np.sum(plain_errs > verify.FORMULA_TOL) + np.sum(bad_pair))
            assert (rep.checks, rep.violations) == (breaches.size, violations)
            assert (violations > 0) == (name is not None)
            assert abs(rep.max_breach - breaches.max()) <= tol
            assert abs(rep.max_formula_err - max(plain_errs.max(), pair_errs.max())) <= tol


def test_check_submodular_modes_agree():
    rng = np.random.default_rng(89)
    for _ in range(5):
        p = random_problem(rng, 4, 6)
        ex = ss.check_submodular(p, mode="exhaustive")
        ra = ss.check_submodular(p, mode="random", trials=100, seed=31)
        assert ex.ok == ra.ok == True  # noqa: E712


def test_check_submodular_auto_dispatch():
    rng = np.random.default_rng(90)
    small = random_problem(rng, 3, 6)
    big = random_problem(rng, 3, 14)
    assert ss.check_submodular(small).mode == "exhaustive"
    assert ss.check_submodular(big, trials=50).mode == "random"


def test_verification_run_full_pipeline():
    p = ss.generate(ss.ProblemSpec("chain", n=12, n_s=6, seed=3))
    summary = ss.verification_run(p, trials=40, samples=400, seed=17)
    assert summary.ok
    assert summary.monotone.ok
    assert summary.submodular.ok
    assert summary.mc_ok
    assert summary.seed == 17
    assert summary.mc_target == pytest.approx(0.5 * ss.phi_eig(p, summary.mc_design))
    assert abs(summary.mc.mean_kl - summary.mc_target) <= 3.0 * summary.mc.std_error


def test_verification_run_runs_mc_first_and_returns_the_parts_run_alone(monkeypatch):
    """The Monte Carlo pass runs before the property checks, and the summary
    holds what each part gives run on its own."""
    p = random_problem(np.random.default_rng(99), 8, 12)
    alone = (ss.check_monotone(p, trials=30, seed=4),
             ss.check_submodular(p, mode="auto", trials=30, seed=5),
             ss.mc_eig(p, p.active, 700, 6))
    order = []
    for name in ("mc_eig", "check_monotone", "check_submodular"):
        def recorded(*args, _name=name, _real=getattr(verify, name), **kwargs):
            order.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(verify, name, recorded)
    summary = ss.verification_run(p, trials=30, samples=700, seed=4)
    assert order == ["mc_eig", "check_monotone", "check_submodular"]
    assert (summary.monotone, summary.submodular, summary.mc) == alone
    assert summary.mc_design == p.active and summary.seed == 4
    assert summary.mc_target == 0.5 * ss.phi_eig(p, p.active)
