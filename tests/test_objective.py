"""Objective value, closed-form gains, and the incremental design state."""

import math

import numpy as np
import pytest

import senselect as ss
from senselect import objective

from conftest import (
    identity_problem,
    logdet_oracle,
    maxabs,
    random_problem,
    three_sensor_problem,
)


def test_design_sorts_and_validates():
    d = ss.Design((3, 1, 2))
    assert d.indices == (1, 2, 3)
    assert len(d) == 3
    assert 2 in d
    assert list(d) == [1, 2, 3]
    with pytest.raises(ValueError):
        ss.Design((1, 1))
    with pytest.raises(ValueError):
        ss.Design((-1,))


def _four_active_of_five():
    """Five candidates on three parameters; candidate 3 is inactive."""
    f = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                  [0.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    return ss.build_problem(ss.WeightedSpace.euclidean(3), f, np.ones(5), np.zeros(3), np.eye(3))


# Entry points that take a design S, and entry points that take a candidate
# v, the latter on the state of design (1,).  A candidate's "duplicate" is
# a member of that design.
_DESIGN_CALLS = {
    "phi_eig": ss.phi_eig,
    "eig_nats": ss.eig_nats,
    "design_state": ss.design_state,
    "hessian_misfit": ss.hessian_misfit,
    "hessian_preconditioned": ss.hessian_preconditioned,
    "posterior": lambda p, S: ss.posterior(p, S, np.zeros(len(S))),
    "mc_eig": lambda p, S: ss.mc_eig(p, S, 10, 0),
}
_CANDIDATE_CALLS = {
    "overlap(v, 0)": lambda st, v: ss.overlap(st, v, 0),
    "overlap(0, v)": lambda st, v: ss.overlap(st, 0, v),
    "marginal_gain": ss.marginal_gain,
    "marginal_gain_conditioned(v, 0)": lambda st, v: ss.marginal_gain_conditioned(st, v, 0),
    "marginal_gain_conditioned(0, v)": lambda st, v: ss.marginal_gain_conditioned(st, 0, v),
    "extend": ss.extend,
}
_FAULTS = {  # fault: (bad design, design message, bad candidate, candidate message)
    "duplicate": ((0, 0), "design contains duplicate indices",
                  1, "candidate 1 is already in the design"),
    "negative": ((-1,), "design contains negative indices",
                 -1, r"candidate index -1 out of range \[0, 5\)"),
    "out of range": ((5,), r"candidate index 5 out of range \[0, 5\)",
                     5, r"candidate index 5 out of range \[0, 5\)"),
    "inactive": ((3,), r"candidate index 3 is inactive \(zero forward-map row\)",
                 3, r"candidate index 3 is inactive \(zero forward-map row\)"),
}
# The documented exceptions to a refusal: a member's coefficient a_1v is
# defined, and an inactive candidate has a zero sensor vector, so it gains
# nothing and changes no other gain.
_ACCEPTED = {
    ("overlap(v, 0)", "duplicate"): lambda st, got: got == ss.overlap(st, 1, 0),
    ("overlap(0, v)", "duplicate"): lambda st, got: got == ss.overlap(st, 0, 1),
    ("marginal_gain", "inactive"): lambda st, got: got == 0.0,
    ("marginal_gain_conditioned(v, 0)", "inactive"): lambda st, got: got == 0.0,
    ("marginal_gain_conditioned(0, v)", "inactive"):
        lambda st, got: got == ss.marginal_gain(st, 0),
}


@pytest.mark.parametrize("call, fault", [
    (call, fault) for call in (*_DESIGN_CALLS, *_CANDIDATE_CALLS) for fault in _FAULTS
])
def test_one_validator_message_per_fault(call, fault):
    """Every public entry point refuses each fault with the same message,
    raised in model.py by validate_design, Design or the candidate check."""
    p = _four_active_of_five()
    design, design_msg, v, candidate_msg = _FAULTS[fault]
    if call in _DESIGN_CALLS:
        run, msg = (lambda: _DESIGN_CALLS[call](p, design)), design_msg
    else:
        st = ss.design_state(p, (1,))
        run, msg = (lambda: _CANDIDATE_CALLS[call](st, v)), candidate_msg
        if (call, fault) in _ACCEPTED:
            assert _ACCEPTED[call, fault](st, run())
            return
    with pytest.raises(ValueError, match=msg) as exc:
        run()
    assert exc.traceback[-1].path.name == "model.py"


def test_phi_empty_design_is_exactly_zero():
    p = identity_problem(3)
    assert ss.phi_eig(p, ()) == 0.0


def test_phi_identity_problem_single_sensor():
    p = identity_problem(3)
    for i in range(3):
        assert ss.phi_eig(p, (i,)) == pytest.approx(math.log(2.0), rel=1e-15)


def test_phi_three_sensor_pair_is_log_11():
    p = three_sensor_problem()
    assert ss.phi_eig(p, (0, 2)) == pytest.approx(math.log(11.0), rel=1e-14)


def test_phi_matches_independent_logdet():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        n_s = int(rng.integers(1, 10))
        p = random_problem(rng, n, n_s)
        size = int(rng.integers(0, n_s + 1))
        s = tuple(sorted(rng.choice(n_s, size=size, replace=False).tolist()))
        want = logdet_oracle(p, s)
        assert abs(ss.phi_eig(p, s) - want) <= 1e-9 * max(1.0, abs(want))


def test_phi_is_order_insensitive():
    p = three_sensor_problem()
    assert ss.phi_eig(p, (2, 0)) == ss.phi_eig(p, (0, 2))


def test_eig_nats_is_exactly_half():
    rng = np.random.default_rng(42)
    p = random_problem(rng, 4, 5)
    s = (0, 2)
    assert ss.eig_nats(p, s) == 0.5 * ss.phi_eig(p, s)


def test_overlap_identity_problem_at_empty_state():
    p = identity_problem(3)
    st = ss.design_state(p)
    assert ss.overlap(st, 0, 0) == pytest.approx(1.0, abs=1e-15)
    # distinct basis vectors are orthogonal in the identity weight
    assert ss.overlap(st, 0, 1) == pytest.approx(0.0, abs=1e-15)


def test_overlap_three_sensor_hand_value():
    # after selecting sensor 0, the operator inverse is diag(1/5, 1) and
    # the self-overlap of sensor 2 becomes 1/5 + 1 = 1.2
    p = three_sensor_problem()
    st = ss.extend(ss.design_state(p), 0)
    assert ss.overlap(st, 2, 2) == pytest.approx(1.2, rel=1e-14)


def test_overlap_symmetry():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        n_s = int(rng.integers(2, 9))
        p = random_problem(rng, n, n_s)
        st = ss.design_state(p)
        picks = rng.choice(n_s, size=min(2, n_s), replace=False)
        for v in picks:
            st = ss.extend(st, int(v))
        rest = [i for i in range(n_s) if i not in st.design]
        for i in rest:
            for j in rest:
                a = ss.overlap(st, i, j)
                b = ss.overlap(st, j, i)
                assert abs(a - b) <= 1e-11 * max(1.0, abs(a))


def test_overlap_rejects_inactive():
    space = ss.WeightedSpace.euclidean(2)
    f = np.array([[1.0, 0.0], [0.0, 0.0]])
    p = ss.build_problem(space, f, np.ones(2), np.zeros(2), np.eye(2))
    st = ss.design_state(p)
    with pytest.raises(ValueError):
        ss.overlap(st, 1, 0)


def test_marginal_gain_identity_problem():
    p = identity_problem(4)
    st = ss.design_state(p)
    for v in range(4):
        assert ss.marginal_gain(st, v) == pytest.approx(math.log(2.0), rel=1e-15)


def test_marginal_gain_three_sensor_chain_consistency():
    p = three_sensor_problem()
    st = ss.extend(ss.design_state(p), 0)
    gain = ss.marginal_gain(st, 2)
    assert gain == pytest.approx(math.log(2.2), rel=1e-14)
    assert math.log(5.0) + gain == pytest.approx(math.log(11.0), rel=1e-14)
    assert ss.phi_eig(p, (0, 2)) == pytest.approx(math.log(11.0), rel=1e-14)


def test_marginal_gain_rejects_member():
    p = three_sensor_problem()
    st = ss.extend(ss.design_state(p), 0)
    with pytest.raises(ValueError):
        ss.marginal_gain(st, 0)


def test_marginal_gain_inactive_is_zero():
    space = ss.WeightedSpace.euclidean(2)
    f = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    p = ss.build_problem(space, f, np.ones(3), np.zeros(2), np.eye(2))
    st = ss.design_state(p)
    assert ss.marginal_gain(st, 1) == 0.0


def test_marginal_gain_matches_from_scratch_difference():
    rng = np.random.default_rng(44)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        n_s = int(rng.integers(2, 9))
        p = random_problem(rng, n, n_s)
        size = int(rng.integers(0, n_s))
        s = sorted(rng.choice(n_s, size=size, replace=False).tolist())
        st = ss.design_state(p, s)
        v = int(rng.choice([i for i in range(n_s) if i not in s]))
        gain = ss.marginal_gain(st, v)
        want = ss.phi_eig(p, s + [v]) - ss.phi_eig(p, s)
        assert gain > 0.0
        assert abs(gain - want) <= 1e-9


def test_conditioned_gain_decoupled_sensors():
    p = identity_problem(3)
    st = ss.design_state(p)
    assert ss.marginal_gain_conditioned(st, 0, 1) == pytest.approx(
        ss.marginal_gain(st, 0), rel=1e-15
    )


def test_conditioned_gain_duplicated_sensor():
    """A twin sensor keeps a positive but strictly smaller gain."""
    space = ss.WeightedSpace.euclidean(2)
    f = np.array([[1.0, 0.0], [1.0, 0.0]])
    p = ss.build_problem(space, f, np.ones(2), np.zeros(2), np.eye(2))
    st = ss.design_state(p)
    plain = ss.marginal_gain(st, 0)
    cond = ss.marginal_gain_conditioned(st, 0, 1)
    # alpha = 1 for the unit sensor vector: log(1 + 1 - 1/2) vs log 2
    assert plain == pytest.approx(math.log(2.0), rel=1e-15)
    assert cond == pytest.approx(math.log(1.5), rel=1e-14)
    assert cond < plain
    want = ss.phi_eig(p, (0, 1)) - ss.phi_eig(p, (1,))
    assert cond == pytest.approx(want, abs=1e-12)


def test_conditioned_gain_three_sensor_hand_value():
    p = three_sensor_problem()
    st = ss.design_state(p)
    got = ss.marginal_gain_conditioned(st, 2, 0)
    assert got == pytest.approx(math.log(2.2), rel=1e-14)
    want = ss.phi_eig(p, (0, 2)) - ss.phi_eig(p, (0,))
    assert got == pytest.approx(want, abs=1e-12)


def test_conditioned_gain_never_exceeds_plain():
    rng = np.random.default_rng(45)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        n_s = int(rng.integers(3, 9))
        p = random_problem(rng, n, n_s)
        size = int(rng.integers(0, n_s - 1))
        s = sorted(rng.choice(n_s, size=size, replace=False).tolist())
        st = ss.design_state(p, s)
        rest = [i for i in range(n_s) if i not in s]
        v, w = rng.choice(rest, size=2, replace=False)
        v, w = int(v), int(w)
        assert ss.marginal_gain_conditioned(st, v, w) <= ss.marginal_gain(st, v) + 1e-9


def test_conditioned_gain_argument_validation():
    p = three_sensor_problem()
    st = ss.extend(ss.design_state(p), 1)
    with pytest.raises(ValueError):
        ss.marginal_gain_conditioned(st, 0, 0)
    with pytest.raises(ValueError):
        ss.marginal_gain_conditioned(st, 1, 2)
    with pytest.raises(ValueError):
        ss.marginal_gain_conditioned(st, 0, 1)


def test_extend_single_step_matches_from_scratch():
    rng = np.random.default_rng(46)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        n_s = int(rng.integers(1, 9))
        p = random_problem(rng, n, n_s)
        v = int(rng.integers(0, n_s))
        st = ss.extend(ss.design_state(p), v)
        assert abs(st.phi - ss.phi_eig(p, (v,))) <= 1e-12


def test_extend_rejects_duplicate():
    p = three_sensor_problem()
    st = ss.extend(ss.design_state(p), 2)
    with pytest.raises(ValueError):
        ss.extend(st, 2)


def test_extend_twenty_steps_stays_faithful():
    rng = np.random.default_rng(47)
    p = random_problem(rng, 15, 25)
    st = ss.design_state(p)
    order = rng.permutation(25)[:20]
    for v in order:
        st = ss.extend(st, int(v))
    dense = ss.phi_eig(p, st.design)
    assert abs(st.phi - dense) <= 1e-8 * max(1.0, abs(dense))
    cols = list(st.design)
    a = np.eye(15) + p.precond_vecs[:, cols] @ (p.space.M @ p.precond_vecs[:, cols]).T
    assert maxabs(st.info_inv.rep @ a - np.eye(15)) <= 1e-8


def test_extend_then_gains_match_fresh_differences():
    rng = np.random.default_rng(48)
    p = random_problem(rng, 6, 8)
    st = ss.design_state(p)
    for v in (4, 1):
        st = ss.extend(st, v)
    base = ss.phi_eig(p, (1, 4))
    for v in (0, 2, 3, 5, 6, 7):
        want = ss.phi_eig(p, (1, 4, v)) - base
        assert abs(ss.marginal_gain(st, v) - want) <= 1e-9


def test_design_state_accepts_starting_subset():
    p = three_sensor_problem()
    st = ss.design_state(p, (0, 2))
    assert tuple(st.design) == (0, 2)
    assert st.phi == pytest.approx(math.log(11.0), rel=1e-14)


def test_refactor_counter_resets_and_value_survives():
    # 52 extends with k > n = 8: the saturated regime of the Schur factor
    rng = np.random.default_rng(49)
    p = random_problem(rng, 8, 60)
    st = ss.design_state(p)
    for v in rng.permutation(60)[:52]:
        st = ss.extend(st, int(v))
    dense = ss.phi_eig(p, st.design)
    assert abs(st.phi - dense) <= 1e-8 * max(1.0, abs(dense))


def test_overlap_matches_dense_inverse_after_twenty_extends():
    """Schur entries against <A^-1 st_i, st_j>_M from the dense inverse.

    k = 20 > n = 6, M is not the identity, and sensor 7 is inactive.  The
    tolerance bounds both sides' rounding: the dense inverse errs by about
    n eps kappa(A) |A^-1| relative to |st_i| |M st_j|, and the Schur entry
    by about (n + k) eps (1 + max K_vv).
    """
    rng = np.random.default_rng(52)
    n, n_s, dead = 6, 30, 7
    q = random_problem(rng, n, n_s, cond=1e3)
    f = q.F.copy()
    f[dead] = 0.0
    p = ss.build_problem(q.space, f, q.sigma, q.m_pr, q.gamma_pr.rep)
    assert dead not in p.active
    st = ss.design_state(p)
    for v in rng.permutation(p.active)[:20]:
        st = ss.extend(st, int(v))
    st_vecs, m_st = p.precond_vecs, p.space.M @ p.precond_vecs
    a_inv = st.info_inv.rep
    a = np.eye(n) + ss.hessian_preconditioned(p, st.design).rep
    w = p.space.whitening_factor.T @ st_vecs
    k_max = float(np.max(np.sum(w * w, axis=0)))
    eps = np.finfo(float).eps
    scale = np.linalg.cond(a) * np.linalg.norm(a_inv, 2)
    for i in p.active:
        for j in p.active:
            want = float((a_inv @ st_vecs[:, i]) @ m_st[:, j])
            tol = (n + 20) * eps * (
                scale * np.linalg.norm(st_vecs[:, i]) * np.linalg.norm(m_st[:, j]) + 1.0 + k_max
            )
            assert abs(ss.overlap(st, i, j) - want) <= tol
    with pytest.raises(ValueError):
        ss.overlap(st, dead, p.active[0])

    rest = [v for v in p.active if v not in st.design]
    before = [ss.marginal_gain(st, v) for v in rest]
    child = ss.extend(st, rest[0])
    child_gains = [ss.marginal_gain(child, v) for v in rest[2:]]
    ss.extend(st, rest[1])
    assert [ss.marginal_gain(st, v) for v in rest] == before
    assert [ss.marginal_gain(child, v) for v in rest[2:]] == child_gains
    assert len(st.design) == 20


def test_argmax_invariant_under_half_scaling():
    rng = np.random.default_rng(50)
    p = random_problem(rng, 5, 9)
    st = ss.design_state(p)
    gains = np.array([ss.marginal_gain(st, v) for v in range(9)])
    assert int(np.argmax(gains)) == int(np.argmax(0.5 * gains))


def test_nested_submodularity_small_exhaustive():
    """Diminishing returns for every nested pair on a 5-sensor instance."""
    from itertools import combinations

    rng = np.random.default_rng(51)
    p = random_problem(rng, 4, 5)
    phis = {s: ss.phi_eig(p, s) for r in range(6) for s in combinations(range(5), r)}
    for b in phis:
        for r in range(len(b) + 1):
            for a in combinations(b, r):
                for v in range(5):
                    if v in b:
                        continue
                    ga = phis[tuple(sorted(a + (v,)))] - phis[a]
                    gb = phis[tuple(sorted(b + (v,)))] - phis[b]
                    assert ga >= gb - 1e-9


def _in_basis(p, T):
    """p with parameters m = T m': M' = T'MT, F' = FT, m_pr' = T^-1 m_pr, and
    the prior operator T^-1 Gamma_pr T, whose covariance matrix is T^-1 C T^-T."""
    m = T.T @ p.space.M @ T
    return ss.build_problem(ss.WeightedSpace(0.5 * (m + m.T)), p.F @ T, p.sigma,
                            np.linalg.solve(T, p.m_pr), np.linalg.solve(T, p.gamma_pr.rep @ T))


@pytest.mark.parametrize("spec", [ss.ProblemSpec("random", n=12, n_s=9, seed=5),
                                  ss.ProblemSpec("random", n=40, n_s=24, seed=5)],
                         ids=["random-12x9", "random-40x24"])
def test_phi_eig_and_greedy_invariant_under_change_of_basis(spec):
    """phi is a statement about the measures, not the coordinates.  Under
    three random bases T = Q1 diag(d) Q2', d in [1/2, 2], phi_eig of a
    design of every size agrees within objective.rounding_bound, and
    greedy chooses the same sensors in the same order.  On these instances exact arithmetic
    separates greedy's designs by at least 0.089; on the mirror chains
    rounding decides greedy's choice."""
    p = ss.generate(spec)
    rng = np.random.default_rng(37)
    for _ in range(3):
        q1, q2 = (np.linalg.qr(rng.standard_normal((p.n, p.n)))[0] for _ in range(2))
        q = _in_basis(p, q1 @ np.diag(np.exp(rng.uniform(-math.log(2), math.log(2), p.n))) @ q2.T)
        big = max(float(objective.SchurKernel(r, 0).diag.max()) for r in (p, q))
        for size in range(1, p.n_s + 1):
            S = rng.choice(p.n_s, size, replace=False).tolist()
            tol = objective.rounding_bound(p.n, size, big)
            assert abs(ss.phi_eig(q, S) - ss.phi_eig(p, S)) <= tol
        order = [[i for i, _, _ in ss.greedy(r, 5).per_step] for r in (p, q)]
        assert order[0] == order[1]
