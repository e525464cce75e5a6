"""Weighted-space primitives against hand and dense-numpy oracles."""

import numpy as np
import pytest

import senselect as ss
from senselect.wspace import identity

from conftest import maxabs, random_space, random_spd


def test_inner_orthogonal_basis():
    space = ss.WeightedSpace.euclidean(2)
    assert space.inner(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_inner_weighted_unit_vector():
    space = ss.WeightedSpace(np.diag([2.0, 1.0]))
    u = np.array([1.0, 0.0])
    assert space.inner(u, u) == pytest.approx(2.0, abs=0.0)


def test_inner_zero_vector():
    rng = np.random.default_rng(3)
    space = random_space(rng, 4)
    u = rng.standard_normal(4)
    assert space.inner(u, np.zeros(4)) == 0.0


def test_inner_symmetry_random():
    rng = np.random.default_rng(4)
    space = random_space(rng, 5)
    u = rng.standard_normal(5)
    v = rng.standard_normal(5)
    assert space.inner(u, v) == pytest.approx(space.inner(v, u), rel=1e-13)


def test_inner_dimension_mismatch():
    space = ss.WeightedSpace.euclidean(2)
    with pytest.raises(ValueError):
        space.inner(np.ones(3), np.ones(2))


def test_space_rejects_asymmetric_weight():
    m = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        ss.WeightedSpace(m)


def test_space_rejects_indefinite_weight():
    with pytest.raises(ValueError):
        ss.WeightedSpace(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_space_rejects_non_finite_weight(bad, where):
    # np.linalg.cholesky returns NaN for most of these without raising
    m = np.diag([2.0, 1.0])
    m[where] = m[where[::-1]] = bad
    with pytest.raises(ValueError, match="weight matrix M"):
        ss.WeightedSpace(m)


def test_space_accepts_roundoff_asymmetry():
    rng = np.random.default_rng(5)
    m = random_spd(rng, 4)
    m = m + 1e-14 * rng.standard_normal((4, 4))
    space = ss.WeightedSpace(m)
    # stored weight is exactly symmetric after construction
    assert maxabs(space.M - space.M.T) == 0.0


def test_tensor_identity_weight():
    space = ss.WeightedSpace.euclidean(2)
    u = np.array([1.0, 0.0])
    t = ss.tensor(space, u, u)
    assert np.array_equal(t.rep, np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_tensor_weighted():
    space = ss.WeightedSpace(np.diag([2.0, 1.0]))
    u = np.array([1.0, 0.0])
    t = ss.tensor(space, u, u)
    assert np.array_equal(t.rep, np.array([[2.0, 0.0], [0.0, 0.0]]))


def test_tensor_apply_hand_oracle():
    space = ss.WeightedSpace.euclidean(2)
    t = ss.tensor(space, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    out = t.apply(np.array([0.0, 3.0]))
    assert np.array_equal(out, np.array([3.0, 0.0]))


def test_tensor_apply_matches_inner_scaling():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        space = random_space(rng, n)
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        x = rng.standard_normal(n)
        got = ss.tensor(space, u, v).apply(x)
        want = space.inner(v, x) * u
        assert maxabs(got - want) <= 1e-13 * max(1.0, maxabs(want))


def test_adjoint_identity_weight_is_transpose():
    space = ss.WeightedSpace.euclidean(3)
    f = np.arange(6.0).reshape(2, 3)
    assert maxabs(ss.adjoint_forward(space, f) - f.T) == 0.0


def test_adjoint_weighted_hand_oracle():
    space = ss.WeightedSpace(np.diag([2.0, 1.0]))
    f = np.array([[1.0, 0.0]])
    out = ss.adjoint_forward(space, f)
    assert out == pytest.approx(np.array([[0.5], [0.0]]), abs=1e-15)


def test_adjoint_pairing_identity():
    """<F*y, v>_M must equal y^T F v to near machine precision."""
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        q = int(rng.integers(1, 9))
        space = random_space(rng, n)
        f = rng.standard_normal((q, n))
        fstar = ss.adjoint_forward(space, f)
        y = rng.standard_normal(q)
        v = rng.standard_normal(n)
        lhs = space.inner(fstar @ y, v)
        rhs = float(y @ (f @ v))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_det_factor_unit_vector_identity_weight():
    space = ss.WeightedSpace.euclidean(2)
    u = np.array([1.0, 0.0])
    assert ss.rank1_det_factor(identity(space), u, u) == pytest.approx(2.0, abs=0.0)


def test_det_factor_weighted_dense_cross_check():
    space = ss.WeightedSpace(np.diag([2.0, 1.0]))
    u = np.array([1.0, 0.0])
    factor = ss.rank1_det_factor(identity(space), u, u)
    assert factor == pytest.approx(3.0, abs=1e-14)
    dense = np.linalg.det(np.eye(2) + np.outer(u, u) @ space.M)
    assert factor == pytest.approx(dense, rel=1e-14)


def test_det_factor_zero_direction():
    rng = np.random.default_rng(13)
    space = random_space(rng, 3)
    u = rng.standard_normal(3)
    assert ss.rank1_det_factor(identity(space), u, np.zeros(3)) == 1.0


def test_det_factor_random_logdet_property():
    """Over 100 random SPD operators the factor reproduces the logdet jump."""
    rng = np.random.default_rng(14)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        space = random_space(rng, n)
        a_rep = np.linalg.solve(space.M, random_spd(rng, n))  # SPD in the space
        a = ss.Operator(space, a_rep)
        u = rng.standard_normal(n)
        jump = np.linalg.slogdet(a_rep + np.outer(u, u) @ space.M)[1]
        jump -= np.linalg.slogdet(a_rep)[1]
        factor = ss.rank1_det_factor(a, u, u)
        assert np.log(factor) == pytest.approx(jump, rel=1e-9, abs=1e-12)


def test_inverse_update_weighted_hand_oracle():
    space = ss.WeightedSpace(np.diag([2.0, 1.0]))
    u = np.array([1.0, 0.0])
    out = ss.rank1_inverse_update(identity(space), u, u)
    assert maxabs(out.rep - np.diag([1.0 / 3.0, 1.0])) <= 1e-15


def test_inverse_update_zero_direction_is_noop():
    rng = np.random.default_rng(15)
    space = random_space(rng, 4)
    a_inv = identity(space)
    v = rng.standard_normal(4)
    out = ss.rank1_inverse_update(a_inv, np.zeros(4), v)
    assert np.array_equal(out.rep, a_inv.rep)


def test_inverse_update_then_downdate_round_trip():
    rng = np.random.default_rng(16)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        space = random_space(rng, n)
        a_rep = np.linalg.solve(space.M, random_spd(rng, n))
        a_inv = ss.Operator(space, np.linalg.inv(a_rep))
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        up = ss.rank1_inverse_update(a_inv, u, v)
        back = ss.rank1_inverse_update(up, -u, v)
        # A priori Sherman-Morrison amplification: the downdate divides by
        # 1 + gamma' = 1 / (1 + gamma), and the length-n dot product behind
        # gamma = <A^-1 u, v> carries a rounding error of n eps g, with
        # g = sum_i |(A^-1 u)_i (M v)_i| >= |gamma|.
        g = float(np.abs(a_inv.rep @ u) @ np.abs(space.M @ v))
        bound = n * (1.0 + g) ** 2 * np.finfo(float).eps * max(1.0, maxabs(a_inv.rep))
        assert maxabs(back.rep - a_inv.rep) <= bound


def test_inverse_update_product_is_identity():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        space = random_space(rng, n)
        a_rep = np.linalg.solve(space.M, random_spd(rng, n))
        a_inv = ss.Operator(space, np.linalg.inv(a_rep))
        u = rng.standard_normal(n)
        up = ss.rank1_inverse_update(a_inv, u, u)
        updated = a_rep + np.outer(u, u) @ space.M
        assert maxabs(up.rep @ updated - np.eye(n)) <= 1e-9


def test_inverse_update_singular_denominator_guard():
    space = ss.WeightedSpace.euclidean(2)
    u = np.array([1.0, 0.0])
    v = np.array([-1.0, 0.0])
    with pytest.raises(ss.SingularUpdateError):
        ss.rank1_inverse_update(identity(space), u, v)


def test_is_selfadjoint_identity():
    rng = np.random.default_rng(18)
    space = random_space(rng, 5)
    assert ss.is_selfadjoint(identity(space))


def test_is_selfadjoint_rejects_weighted_shear():
    space = ss.WeightedSpace(np.diag([2.0, 1.0]))
    t = ss.Operator(space, np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not ss.is_selfadjoint(t)


def test_selfadjoint_in_weight_but_not_euclidean():
    # M-selfadjointness is a property of the pair (rep, M), not of rep alone
    rng = np.random.default_rng(19)
    m = random_spd(rng, 4)
    space = ss.WeightedSpace(m)
    rep = np.linalg.solve(m, random_spd(rng, 4))
    assert ss.is_selfadjoint(ss.Operator(space, rep))
    assert maxabs(rep - rep.T) > 1e-6


def test_operator_shape_validation():
    space = ss.WeightedSpace.euclidean(3)
    with pytest.raises(ValueError):
        ss.Operator(space, np.zeros((2, 3)))
