"""Shared builders and independent oracles for the test suite.

Oracles here use plain numpy (dense solves, slogdet) and never call into
the package's incremental code paths, so a defect cannot hide on both
sides of a comparison.
"""

import os
import shutil
import tempfile
import threading
from contextlib import contextmanager

import numpy as np
import pytest

import senselect as ss


def pytest_configure(config):
    # Hypothesis caches constants scraped from the sources under ./.hypothesis
    # while collecting; a temporary home keeps the checkout clean.
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:  # only the property tests need it, and they say so
        return
    config.hypothesis_home = tempfile.mkdtemp(prefix="senselect-hypothesis-")
    set_hypothesis_home_dir(config.hypothesis_home)


def pytest_unconfigure(config):
    if hasattr(config, "hypothesis_home"):
        shutil.rmtree(config.hypothesis_home, ignore_errors=True)


@pytest.fixture(scope="session", autouse=True)
def _private_cache_home(tmp_path_factory):
    """Point the problem cache at a temporary directory, for this process and
    the CLI processes it starts, so that the suite never writes to ~/.cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@contextmanager
def piped(data: bytes):
    """The path of the read end of a pipe that a thread fills with data, then closes.

    data fits the pipe's buffer, so the writer ends whether or not it is read."""
    r, w = os.pipe()

    def fill():
        with os.fdopen(w, "wb") as fh:
            fh.write(data)
    writer = threading.Thread(target=fill)
    writer.start()
    try:
        yield f"/dev/fd/{r}"
    finally:
        writer.join(timeout=10)
        os.close(r)
    assert not writer.is_alive()


def maxabs(a) -> float:
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def random_spd(rng, n, cond=30.0):
    # deliberately not the package generator: orthogonal factor from QR,
    # log-uniform spectrum, explicit symmetrization
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.exp(rng.uniform(0.0, np.log(cond), size=n))
    a = (q * lam) @ q.T
    return 0.5 * (a + a.T)


def random_space(rng, n, cond=30.0) -> ss.WeightedSpace:
    return ss.WeightedSpace(random_spd(rng, n, cond))


def random_problem(rng, n, n_s, cond=20.0, weighted=True) -> ss.InverseProblem:
    """Dense random instance fed straight through build_problem."""
    m = random_spd(rng, n, cond) if weighted else np.eye(n)
    space = ss.WeightedSpace(m)
    # M^-1 * SPD is selfadjoint and positive definite in the M inner product
    gpr = np.linalg.solve(m, random_spd(rng, n, cond))
    f = rng.standard_normal((n_s, n))
    sigma = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=n_s))
    m_pr = rng.standard_normal(n)
    return ss.build_problem(space, f, sigma, m_pr, gpr)


def identity_problem(n=3) -> ss.InverseProblem:
    """Unit weight, unit prior, F = I: every sensor vector is a basis vector."""
    space = ss.WeightedSpace.euclidean(n)
    return ss.build_problem(space, np.eye(n), np.ones(n), np.zeros(n), np.eye(n))


def three_sensor_problem() -> ss.InverseProblem:
    """Two parameters, three sensors with rows (2,0), (0,1), (1,1).

    With unit weight and unit prior the preconditioned sensor vectors
    equal the rows, so closed-form values are easy to trace by hand:
    the value of design {0, 2} is log 11 and the best pair is {0, 2}.
    """
    space = ss.WeightedSpace.euclidean(2)
    f = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return ss.build_problem(space, f, np.ones(3), np.zeros(2), np.eye(2))


def singular_prior_problem(seed) -> ss.InverseProblem:
    """Three identity sensors under the prior Q diag(0, 1, 2) Q', Q drawn
    from seed: built, or refused by build_problem.  Rounding leaves the
    prior's smallest eigenvalue a few ulps either side of 0."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    gpr = q @ np.diag([0.0, 1.0, 2.0]) @ q.T
    space = ss.WeightedSpace.euclidean(3)
    return ss.build_problem(space, np.eye(3), np.ones(3), np.zeros(3), gpr)


def scalar_problem() -> ss.InverseProblem:
    space = ss.WeightedSpace.euclidean(1)
    return ss.build_problem(
        space, np.array([[1.0]]), np.array([1.0]), np.zeros(1), np.array([[1.0]])
    )


def misfit_rep(p, subset):
    """F(S)* Gamma_n(S)^-1 F(S) assembled directly from the raw fields."""
    subset = list(subset)
    n = p.space.n
    if not subset:
        return np.zeros((n, n))
    fs = p.F[subset, :]
    w = 1.0 / p.sigma[subset] ** 2
    return np.linalg.solve(p.space.M, fs.T @ (fs * w[:, None]))


def posterior_mean_error_bound(p, s, post, y):
    """Max-norm bound on the rounding error of one posterior mean row.

    The row is C (M^-1 F_S' Gn^-1 y + Gpr^-1 m_pr): a product of inner
    dimension q = |S|, a Cholesky solve with M, whose forward error
    carries kappa(M), and a product of inner dimension n.  Gpr^-1 m_pr
    comes from the same call however y is shaped, so two evaluations
    share its error and it is left out.
    """
    n, cols = p.n, list(s)
    inf = np.inf
    c = post.cov.rep
    minv = np.linalg.inv(p.space.M)
    data = np.abs(y / p.sigma[cols] ** 2) @ np.abs(p.F[cols, :])
    rhs = np.abs(minv) @ data + np.abs(p.gamma_pr_inv.rep @ p.m_pr)
    solve = 3.0 * np.linalg.cond(p.space.M, inf) * np.linalg.norm(minv, inf)
    return (n + len(cols)) * np.finfo(float).eps * (
        np.linalg.norm(c, inf) * solve * float(np.max(data, initial=0.0))
        + float(np.max(np.abs(c) @ rhs)))


def logdet_oracle(p, subset) -> float:
    """log det(I + Gamma_pr H(S)) by one slogdet.

    Similarity-invariant, so it checks the objective without sharing the
    square-root construction with the code under test.
    """
    a = np.eye(p.space.n) + p.gamma_pr.rep @ misfit_rep(p, subset)
    sign, val = np.linalg.slogdet(a)
    assert sign > 0
    return float(val)


def report_fields(r: ss.SelectionReport):
    """Comparable view of a selection report, excluding runtime metadata."""
    return (
        r.method,
        r.chosen.indices,
        r.per_step,
        r.phi_final,
        r.eig_final,
        r.k,
        r.problem_hash,
        r.seed,
        r.bound_certificate,
    )
