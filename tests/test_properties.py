"""Hypothesis properties of the shared gain kernel on small random problems.

Examples are derandomized and no example database is kept, so runs are
repeatable; conftest moves Hypothesis' on-disk cache out of the checkout.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import senselect as ss

from conftest import random_problem

PROPERTY = settings(database=None, derandomize=True, max_examples=60, deadline=None)


@st.composite
def problems(draw):
    """n <= 6, n_s <= 8, non-identity M; zeroed forward-map rows are inactive."""
    n = draw(st.integers(1, 6))
    n_s = draw(st.integers(1, 8))
    q = random_problem(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, n_s)
    dead = draw(st.lists(st.booleans(), min_size=n_s, max_size=n_s).filter(
        lambda d: not all(d)))
    f = q.F.copy()
    f[np.asarray(dead)] = 0.0
    return ss.build_problem(q.space, f, q.sigma, q.m_pr, q.gamma_pr.rep)


@PROPERTY
@given(problems(), st.data())
def test_extend_chain_gain_equals_phi_difference(p, data):
    """Tolerance as in the saturated greedy test: each phi_eig is a Cholesky
    factorization of dimension at most n + k with entries bounded by
    1 + max K_vv."""
    order = data.draw(st.permutations(p.active))
    w = p.space.whitening_factor.T @ p.precond_vecs
    tol = 2.0 * (p.n + len(order)) * np.finfo(float).eps * (
        1.0 + float(np.max(np.sum(w * w, axis=0))))
    state = ss.design_state(p)
    for v in order:
        base = list(state.design)
        want = ss.phi_eig(p, base + [v]) - ss.phi_eig(p, base)
        assert abs(ss.marginal_gain(state, v) - want) <= tol
        state = ss.extend(state, v)


@PROPERTY
@given(problems(), st.data())
def test_greedy_and_lazy_greedy_per_step_bitwise_equal(p, data):
    k = data.draw(st.integers(0, len(p.active)))
    assert ss.lazy_greedy(p, k).per_step == ss.greedy(p, k).per_step
