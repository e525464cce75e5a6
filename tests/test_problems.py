"""Deterministic problem generators: random instances and the 1-D chain."""

import numpy as np
import pytest

import senselect as ss
from senselect.problems import chain_mass_matrix, chain_stiffness_matrix

from conftest import maxabs


def test_random_same_seed_bitwise_identical():
    spec = ss.ProblemSpec("random", n=5, n_s=7, seed=123)
    a = ss.generate(spec)
    b = ss.generate(spec)
    assert np.array_equal(a.space.M, b.space.M)
    assert np.array_equal(a.F, b.F)
    assert np.array_equal(a.sigma, b.sigma)
    assert np.array_equal(a.m_pr, b.m_pr)
    assert np.array_equal(a.gamma_pr.rep, b.gamma_pr.rep)
    assert a.content_hash() == b.content_hash()


def test_random_different_seeds_differ():
    a = ss.generate(ss.ProblemSpec("random", n=4, n_s=5, seed=1))
    b = ss.generate(ss.ProblemSpec("random", n=4, n_s=5, seed=2))
    assert a.content_hash() != b.content_hash()


def test_random_prior_selfadjoint_and_objective_positive():
    for seed in range(10):
        p = ss.generate(ss.ProblemSpec("random", n=4, n_s=6, seed=seed))
        assert ss.is_selfadjoint(p.gamma_pr)
        assert ss.phi_eig(p, p.active) > 0.0


def test_random_conditioning_bounds_weight_spectrum():
    spec = ss.ProblemSpec("random", n=6, n_s=2, seed=9, conditioning=30.0)
    p = ss.generate(spec)
    w = np.linalg.eigvalsh(p.space.M)
    assert w.min() > 0
    assert w.max() / w.min() <= 30.0 * 1.000001


def test_random_rejects_degenerate_spec():
    with pytest.raises(ValueError):
        ss.generate(ss.ProblemSpec("random", n=0, n_s=3, seed=0))
    with pytest.raises(ValueError):
        ss.generate(ss.ProblemSpec("random", n=3, n_s=0, seed=0))
    with pytest.raises(ValueError):
        ss.generate(ss.ProblemSpec("random", n=3, n_s=3, seed=0, conditioning=0.5))


def test_generate_rejects_unknown_kind():
    with pytest.raises(ValueError):
        ss.generate(ss.ProblemSpec("mesh", n=3, n_s=2, seed=0))


def test_mass_matrix_stencil_and_partition_of_unity():
    n, h = 6, 0.2
    m = chain_mass_matrix(n, h)
    assert m[2, 2] == pytest.approx(4.0 * h / 6.0, rel=1e-15)
    assert m[2, 3] == pytest.approx(h / 6.0, rel=1e-15)
    assert m[0, 0] == pytest.approx(2.0 * h / 6.0, rel=1e-15)
    # row sums integrate the hat functions: total mass equals domain length
    assert float(m.sum()) == pytest.approx((n - 1) * h, rel=1e-14)


def test_stiffness_matrix_stencil():
    n, h = 5, 0.25
    k = chain_stiffness_matrix(n, h)
    assert k[1, 1] == pytest.approx(2.0 / h, rel=1e-15)
    assert k[1, 2] == pytest.approx(-1.0 / h, rel=1e-15)
    assert k[0, 0] == pytest.approx(1.0 / h, rel=1e-15)
    # constants lie in the kernel of the natural-boundary stiffness
    assert maxabs(k @ np.ones(n)) <= 1e-12 / h


def test_chain_matrices_tridiagonal():
    n = 9
    m = chain_mass_matrix(n, 0.125)
    k = chain_stiffness_matrix(n, 0.125)
    for a in (m, k):
        for i in range(n):
            for j in range(n):
                if abs(i - j) > 1:
                    assert a[i, j] == 0.0


def test_chain_default_unit_domain():
    p = ss.generate(ss.ProblemSpec("chain", n=15, n_s=5, seed=0))
    assert float(p.space.M.sum()) == pytest.approx(1.0, rel=1e-13)
    assert p.F.shape == (5, 15)
    assert p.active == (0, 1, 2, 3, 4)


def test_chain_explicit_element_size():
    p = ss.generate(ss.ProblemSpec("chain", n=8, n_s=3, seed=0, element_size=0.5))
    assert float(p.space.M.sum()) == pytest.approx(7 * 0.5, rel=1e-13)


def test_chain_is_deterministic():
    spec = ss.ProblemSpec("chain", n=12, n_s=6, seed=42)
    assert ss.generate(spec).content_hash() == ss.generate(spec).content_hash()


def test_chain_prior_selfadjoint_in_mass_inner_product():
    p = ss.generate(ss.ProblemSpec("chain", n=10, n_s=4, seed=0))
    assert ss.is_selfadjoint(p.gamma_pr)
    assert maxabs(p.gamma_pr.rep - p.gamma_pr.rep.T) > 1e-10  # not Euclidean-symmetric


def test_chain_validation_errors():
    with pytest.raises(ValueError):
        ss.generate(ss.ProblemSpec("chain", n=2, n_s=1, seed=0))
    with pytest.raises(ValueError):
        ss.generate(ss.ProblemSpec("chain", n=6, n_s=5, seed=0))  # only 4 interior
    with pytest.raises(ValueError):
        ss.generate(ss.ProblemSpec("chain", n=6, n_s=1, seed=0, sensor_nodes=(0,)))
    with pytest.raises(ValueError):
        ss.generate(ss.ProblemSpec("chain", n=6, n_s=2, seed=0, sensor_nodes=(1,)))
    with pytest.raises(ValueError):
        ss.generate(ss.ProblemSpec("chain", n=6, n_s=1, seed=0, prior_weight=-1.0))


def test_chain_duplicated_node_sensors():
    spec = ss.ProblemSpec("chain", n=10, n_s=3, seed=0, sensor_nodes=(4, 4, 7))
    p = ss.generate(spec)
    assert np.array_equal(p.F[0], p.F[1])
    st = ss.design_state(p)
    plain = ss.marginal_gain(st, 0)
    cond = ss.marginal_gain_conditioned(st, 0, 1)
    assert cond < plain  # a twin sensor is strictly less valuable
    rep = ss.check_submodular(p, mode="exhaustive")
    assert rep.ok and rep.max_breach <= 0.0


def test_chain_greedy_regression_snapshot():
    """Frozen greedy trace on a fixed chain.

    Sensors sit at mesh nodes (1,3,5,7,9,10,12,14,16,18); the smooth prior
    makes clustered picks wasteful, so the chosen nodes keep pairwise
    distance of at least two mesh cells.
    """
    p = ss.generate(ss.ProblemSpec("chain", n=20, n_s=10, seed=7))
    r = ss.greedy(p, 3)
    assert r.chosen.indices == (0, 1, 9)
    assert r.phi_final == pytest.approx(6.8419513211807192, rel=1e-12)
    nodes = (1, 3, 5, 7, 9, 10, 12, 14, 16, 18)
    picked = sorted(nodes[i] for i in r.chosen)
    gaps = [b - a for a, b in zip(picked, picked[1:])]
    assert min(gaps) >= 2


def test_problem_spec_is_frozen():
    spec = ss.ProblemSpec("random", n=3, n_s=2, seed=0)
    with pytest.raises(Exception):
        spec.n = 4


def test_chain_refinement_converges_at_second_order():
    """Nested meshes of the unit domain, n - 1 = 20 * 2^j for j = 0, ..., 5,
    each with 19 sensors at x = 0.05, ..., 0.95.  Piecewise-linear elements
    converge at O(h^2), so successive differences of phi(all sensors) fall
    in a ratio that tends to 4 as h halves: |4 - ratio| itself shrinks from
    level to level.  Greedy with k = 4 picks the same physical points at
    every level, the two sensors at each end; the mirror x -> 1 - x maps that
    set to itself, so no tie decides it."""
    xs = [0.05 * i for i in range(1, 20)]
    phis = []
    for j in range(6):
        n = 20 * 2 ** j + 1
        nodes = tuple(round(x * (n - 1)) for x in xs)
        p = ss.generate(ss.ProblemSpec("chain", n=n, n_s=len(xs), seed=0, sensor_nodes=nodes))
        phis.append(ss.phi_eig(p, range(len(xs))))
        assert sorted(xs[i] for i in ss.greedy(p, 4).chosen) == [xs[0], xs[1], xs[-2], xs[-1]]
    diffs = np.diff(phis)
    assert np.all(diffs > 0)
    off = np.abs(4.0 - diffs[:-1] / diffs[1:])
    assert np.all(off[1:] < off[:-1]), off
