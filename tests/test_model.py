"""Inverse-problem construction, sensor vectors, and the posterior map."""

import numpy as np
import pytest

import senselect as ss
from senselect import fileio
from senselect.wspace import adjoint_forward

from conftest import (
    identity_problem,
    logdet_oracle,
    maxabs,
    misfit_rep,
    posterior_mean_error_bound,
    random_problem,
    random_spd,
    scalar_problem,
)


def test_identity_problem_sensor_vectors_are_basis():
    p = identity_problem(3)
    assert maxabs(p.sensor_vecs - np.eye(3)) == 0.0
    assert maxabs(p.precond_vecs - np.eye(3)) <= 1e-14


def test_sensor_vectors_are_formed_on_first_read(tmp_path):
    """Generating and writing a problem forms neither n x n_s array; the
    first read gives the eager formulas' bits."""
    p = ss.generate(ss.ProblemSpec("random", n=6, n_s=9, seed=4))
    fileio.write_problem(p, tmp_path / "p.txt")
    assert "sensor_vecs" not in p.__dict__ and "precond_vecs" not in p.__dict__
    s = adjoint_forward(p.space, p.F) / p.sigma[None, :]
    assert p.sensor_vecs.tobytes() == s.tobytes()
    assert p.precond_vecs.tobytes() == (p.gamma_pr_sqrt.rep @ s).tobytes()


def test_weighted_sensor_vector_hand_oracle():
    # sigma^-1 M^-1 F' e_1 with M = diag(2,1), F = [[1,0]], sigma = 2
    space = ss.WeightedSpace(np.diag([2.0, 1.0]))
    p = ss.build_problem(
        space,
        np.array([[1.0, 0.0]]),
        np.array([2.0]),
        np.zeros(2),
        np.eye(2),
    )
    assert p.sensor_vecs[:, 0] == pytest.approx(np.array([0.25, 0.0]), abs=1e-16)


def test_zero_row_marks_candidate_inactive():
    space = ss.WeightedSpace.euclidean(2)
    f = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    p = ss.build_problem(space, f, np.ones(3), np.zeros(2), np.eye(2))
    assert p.inactive == (1,)
    assert p.active == (0, 2)


def test_build_rejects_nonpositive_sigma():
    space = ss.WeightedSpace.euclidean(2)
    with pytest.raises(ValueError):
        ss.build_problem(space, np.eye(2), np.array([1.0, 0.0]), np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        ss.build_problem(space, np.eye(2), np.array([1.0, -1.0]), np.zeros(2), np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "field, name",
    [
        ("F", "forward map F"),
        ("sigma", "noise levels sigma"),
        ("m_pr", "prior mean m_pr"),
        ("gamma_pr", "prior covariance Gamma_pr"),
    ],
)
def test_build_rejects_non_finite_data(field, name, bad):
    space = ss.WeightedSpace(np.diag([2.0, 1.0]))
    data = dict(F=np.eye(2), sigma=np.ones(2), m_pr=np.zeros(2), gamma_pr=np.eye(2))
    data[field][-1, ...] = bad
    with pytest.raises(ValueError, match=name):
        ss.build_problem(space, **data)


def test_build_rejects_non_selfadjoint_prior():
    space = ss.WeightedSpace(np.diag([2.0, 1.0]))
    # Euclidean-symmetric but not selfadjoint in the weighted product
    gpr = np.array([[1.0, 0.3], [0.3, 1.0]])
    with pytest.raises(ValueError):
        ss.build_problem(space, np.eye(2), np.ones(2), np.zeros(2), gpr)


def test_build_rejects_indefinite_prior():
    space = ss.WeightedSpace.euclidean(2)
    with pytest.raises(ValueError):
        ss.build_problem(space, np.eye(2), np.ones(2), np.zeros(2), np.diag([1.0, -0.5]))


@pytest.mark.parametrize("seed", range(20))
def test_build_rejects_singular_prior(seed):
    """Gamma = Q diag(0, 1, 2) Q' is singular, but rounding leaves its smallest
    eigenvalue a few ulps either side of 0: at seed 0 the Cholesky of M Gamma
    alone refuses it, at seed 2 the eigenvalue test alone, and at seed 9 both
    passed while the eigenvalue test asked only for w > 0."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    gpr = q @ np.diag([0.0, 1.0, 2.0]) @ q.T
    space = ss.WeightedSpace.euclidean(3)
    with pytest.raises(ValueError, match="not positive definite"):
        ss.build_problem(space, np.eye(3), np.ones(3), np.zeros(3), gpr)


def test_build_rejects_dimension_mismatch():
    space = ss.WeightedSpace.euclidean(3)
    with pytest.raises(ValueError):
        ss.build_problem(space, np.eye(2), np.ones(2), np.zeros(3), np.eye(3))


def test_prior_sqrt_squares_back():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        p = random_problem(rng, n, 2)
        r = p.gamma_pr_sqrt.rep
        g = p.gamma_pr.rep
        assert maxabs(r @ r - g) <= 1e-9 * max(1.0, maxabs(g))
        assert ss.is_selfadjoint(p.gamma_pr_sqrt)


def test_hessian_empty_design_is_zero():
    p = identity_problem(3)
    assert maxabs(ss.hessian_misfit(p, ()).rep) == 0.0
    assert maxabs(ss.hessian_preconditioned(p, ()).rep) == 0.0


def test_hessian_identity_problem_single_sensor():
    p = identity_problem(3)
    want = np.zeros((3, 3))
    want[0, 0] = 1.0
    assert maxabs(ss.hessian_misfit(p, (0,)).rep - want) == 0.0


def test_hessian_full_design_matches_triple_product():
    rng = np.random.default_rng(22)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        n_s = int(rng.integers(1, 9))
        p = random_problem(rng, n, n_s)
        full = tuple(range(n_s))
        got = ss.hessian_misfit(p, full).rep
        want = misfit_rep(p, full)
        assert maxabs(got - want) <= 1e-10 * max(1.0, maxabs(want))


def test_hessian_preconditioned_matches_sandwich():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        n_s = int(rng.integers(1, 9))
        p = random_problem(rng, n, n_s)
        full = tuple(range(n_s))
        r = p.gamma_pr_sqrt.rep
        want = r @ misfit_rep(p, full) @ r
        got = ss.hessian_preconditioned(p, full).rep
        assert maxabs(got - want) <= 1e-10 * max(1.0, maxabs(want))


def test_hessian_preconditioned_trivial_prior_equals_misfit():
    rng = np.random.default_rng(24)
    space = ss.WeightedSpace.euclidean(4)
    f = rng.standard_normal((5, 4))
    p = ss.build_problem(space, f, np.ones(5), np.zeros(4), np.eye(4))
    s = (0, 2, 4)
    assert maxabs(
        ss.hessian_preconditioned(p, s).rep - ss.hessian_misfit(p, s).rep
    ) <= 1e-13


def test_hessian_rejects_out_of_range_index():
    p = identity_problem(3)
    with pytest.raises(ValueError):
        ss.hessian_misfit(p, (3,))
    with pytest.raises(ValueError):
        ss.hessian_misfit(p, (-1,))


def test_hessian_rejects_inactive_index():
    space = ss.WeightedSpace.euclidean(2)
    f = np.array([[1.0, 0.0], [0.0, 0.0]])
    p = ss.build_problem(space, f, np.ones(2), np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        ss.hessian_misfit(p, (1,))


def test_hessian_additive_over_partition():
    rng = np.random.default_rng(25)
    p = random_problem(rng, 5, 8)
    a = (0, 2, 5)
    rest = (1, 7)
    b = tuple(sorted(a + rest))
    total = ss.hessian_preconditioned(p, b).rep
    parts = ss.hessian_preconditioned(p, a).rep + ss.hessian_preconditioned(p, rest).rep
    assert maxabs(total - parts) <= 1e-13 * max(1.0, maxabs(total))


def test_hessian_preconditioned_is_selfadjoint_psd():
    rng = np.random.default_rng(26)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        p = random_problem(rng, n, 6)
        s = tuple(sorted(rng.choice(6, size=3, replace=False).tolist()))
        h = ss.hessian_preconditioned(p, s)
        assert ss.is_selfadjoint(h)
        # eigenvalues of the M-symmetrized similarity stay nonnegative
        l = p.space.whitening_factor
        sym = l.T @ h.rep @ np.linalg.inv(l.T)
        w = np.linalg.eigvalsh(0.5 * (sym + sym.T))
        assert w.min() >= -1e-10


def test_posterior_scalar_hand_values():
    p = scalar_problem()
    post = ss.posterior(p, (0,), np.array([2.0]))
    assert post.mean == pytest.approx(np.array([1.0]), abs=1e-15)
    assert post.cov.rep == pytest.approx(np.array([[0.5]]), abs=1e-15)


def test_posterior_empty_design_returns_prior():
    rng = np.random.default_rng(27)
    p = random_problem(rng, 4, 3)
    post = ss.posterior(p, (), np.zeros(0))
    assert np.array_equal(post.mean, p.m_pr)
    assert np.array_equal(post.cov.rep, p.gamma_pr.rep)


def test_posterior_noise_free_prior_mean_data_is_fixed_point():
    rng = np.random.default_rng(28)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        p = random_problem(rng, n, 5)
        s = (0, 2, 4)
        y = p.F[list(s), :] @ p.m_pr
        post = ss.posterior(p, s, y)
        assert maxabs(post.mean - p.m_pr) <= 1e-9 * max(1.0, maxabs(p.m_pr))


def test_posterior_matches_dense_normal_equations():
    rng = np.random.default_rng(29)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        n_s = int(rng.integers(1, 7))
        p = random_problem(rng, n, n_s)
        size = int(rng.integers(1, n_s + 1))
        s = tuple(sorted(rng.choice(n_s, size=size, replace=False).tolist()))
        y = rng.standard_normal(size)
        post = ss.posterior(p, s, y)

        gpr_inv = np.linalg.inv(p.gamma_pr.rep)
        cov = np.linalg.inv(misfit_rep(p, s) + gpr_inv)
        fs = p.F[list(s), :]
        w = 1.0 / p.sigma[list(s)] ** 2
        rhs = np.linalg.solve(p.space.M, fs.T @ (w * y)) + gpr_inv @ p.m_pr
        mean = cov @ rhs
        assert maxabs(post.cov.rep - cov) <= 1e-9 * max(1.0, maxabs(cov))
        assert maxabs(post.mean - mean) <= 1e-9 * max(1.0, maxabs(mean))


def test_posterior_covariance_never_exceeds_prior():
    rng = np.random.default_rng(30)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        p = random_problem(rng, n, 4)
        s = (0, 3)
        post = ss.posterior(p, s, rng.standard_normal(2))
        gap = p.gamma_pr.rep - post.cov.rep
        for _ in range(5):
            x = rng.standard_normal(n)
            assert float(x @ (p.space.M @ (gap @ x))) >= -1e-10


def test_posterior_rejects_wrong_data_length():
    p = identity_problem(3)
    for y in (np.array([1.0]), np.ones((5, 1)), np.ones((5, 3))):
        with pytest.raises(ValueError):
            ss.posterior(p, (0, 1), y)


def test_posterior_rows_match_one_dimensional_calls():
    """A 2-D y gives one mean row per data set and the one shared covariance.

    The two paths evaluate the same formulas with differently shaped
    products, so each row may differ from its 1-D call by twice the
    rounding bound of one mean.
    """
    rng = np.random.default_rng(33)
    for _ in range(15):
        n = int(rng.integers(1, 7))
        n_s = int(rng.integers(1, 7))
        p = random_problem(rng, n, n_s)
        size = int(rng.integers(0, n_s + 1))
        s = tuple(sorted(rng.choice(n_s, size=size, replace=False).tolist()))
        y = 3.0 * rng.standard_normal((9, size))
        batch = ss.posterior(p, s, y)
        assert batch.mean.shape == (9, n)
        for row, mean in zip(y, batch.mean):
            one = ss.posterior(p, s, row)
            assert np.array_equal(one.cov.rep, batch.cov.rep)
            tol = 2.0 * posterior_mean_error_bound(p, s, one, row)
            assert maxabs(mean - one.mean) <= tol
    p = random_problem(rng, 3, 2)
    empty = ss.posterior(p, (), np.zeros((4, 0)))
    assert np.array_equal(empty.mean, np.tile(p.m_pr, (4, 1)))
    assert np.array_equal(empty.cov.rep, p.gamma_pr.rep)


def test_posterior_cov_selfadjoint_pd():
    rng = np.random.default_rng(31)
    p = random_problem(rng, 5, 4)
    post = ss.posterior(p, (0, 1, 2, 3), rng.standard_normal(4))
    assert ss.is_selfadjoint(post.cov, tol=1e-9)
    l = p.space.whitening_factor
    sym = l.T @ post.cov.rep @ np.linalg.inv(l.T)
    assert np.linalg.eigvalsh(0.5 * (sym + sym.T)).min() > 0.0


def test_logdet_similarity_invariance():
    """The objective value must not depend on the square-root choice."""
    rng = np.random.default_rng(32)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        n_s = int(rng.integers(1, 9))
        p = random_problem(rng, n, n_s)
        size = int(rng.integers(0, n_s + 1))
        s = tuple(sorted(rng.choice(n_s, size=size, replace=False).tolist()))
        val = ss.phi_eig(p, s)
        want = logdet_oracle(p, s)
        assert abs(val - want) <= 1e-9 * max(1.0, abs(want))


def test_validate_design_normalizes_and_rejects():
    p = identity_problem(4)
    assert ss.validate_design(p, [3, 1]) == (1, 3)
    with pytest.raises(ValueError):
        ss.validate_design(p, [1, 1])
    with pytest.raises(ValueError):
        ss.validate_design(p, [4])


# (message, call with a count or an index x): greedy(p, 2.9) chose 2 sensors,
# Design((1.5, 3)) held (1, 3) and check_submodular(p, seed="x") raised int()'s
# message, which names no argument
_NOT_INTEGERS = {
    "budget": ("budget must be an integer", lambda p, x: ss.greedy(p, x)),
    "cap": ("cap must be an integer", lambda p, x: ss.exhaustive(p, 0, cap=x)),
    "n_samples": ("n_samples must be an integer", lambda p, x: ss.mc_eig(p, (0, 1), x, 0)),
    "mc seed": ("seed must be an integer", lambda p, x: ss.mc_eig(p, (0, 1), 2, x)),
    "trials": ("trials must be an integer", lambda p, x: ss.check_monotone(p, x)),
    "check seed": ("seed must be an integer", lambda p, x: ss.check_submodular(p, seed=x)),
    "design": ("cannot be interpreted as an integer", lambda p, x: ss.Design((x, 3))),
    "candidate": ("cannot be interpreted as an integer",
                  lambda p, x: ss.marginal_gain(ss.design_state(p), x)),
    "extend": ("cannot be interpreted as an integer",
               lambda p, x: ss.extend(ss.design_state(p), x)),
}


@pytest.mark.parametrize("call", _NOT_INTEGERS)
@pytest.mark.parametrize("bad", [2.9, -0.5, np.float64(2.0), "2"])
def test_non_integer_counts_and_indices_are_refused_not_truncated(call, bad):
    """A float, even a whole one, or a string raises a TypeError, which names
    a count by its argument; numpy's integers still pass."""
    p = identity_problem(4)
    msg, run = _NOT_INTEGERS[call]
    with pytest.raises(TypeError, match=msg):
        run(p, bad)
    run(p, np.int64(2))


def test_content_hash_sensitive_to_fields():
    rng = np.random.default_rng(33)
    p = random_problem(rng, 3, 4)
    base = p.content_hash()
    assert base == p.content_hash()

    f2 = p.F.copy()
    f2[0, 0] += 1e-9
    q = ss.build_problem(p.space, f2, p.sigma, p.m_pr, p.gamma_pr.rep)
    assert q.content_hash() != base

    sig2 = p.sigma.copy()
    sig2[1] *= 1.0 + 1e-12
    q = ss.build_problem(p.space, p.F, sig2, p.m_pr, p.gamma_pr.rep)
    assert q.content_hash() != base

    same = ss.build_problem(p.space, p.F.copy(), p.sigma.copy(), p.m_pr.copy(),
                            p.gamma_pr.rep.copy())
    assert same.content_hash() == base


def test_scalar_identity_round_trip_of_gamma_pr_inverse():
    rng = np.random.default_rng(34)
    p = random_problem(rng, 4, 2)
    prod = p.gamma_pr_inv.rep @ p.gamma_pr.rep
    assert maxabs(prod - np.eye(4)) <= 1e-10
