"""Information-gain set objective and its discrete derivatives.

For a design S the objective is phi(S) = log det(I + Ht(S)), twice the
expected information gain of the corresponding experiment.  With
A = I + Ht(S), the marginal gain of adding sensor v is

    phi(S + v) - phi(S) = log(1 + a_vv),    a_ij = <A^-1 st_i, st_j>

and the gain of v after first adding w has the closed form

    log(1 + a_vv - a_vw^2 / (1 + a_ww))

evaluated with the coefficients of the unextended design, which is what
makes one-step submodularity checks cheap.

SchurKernel, the gain kernel of selection and verification alike, holds
an incremental Cholesky factorization of I + K, with K the Gram matrix of
the sensor vectors.  By Woodbury every coefficient a_ij is a Schur entry
of that factorization, read through SchurKernel.r, block or pair_gains; a
gain reported as one number is math.log1p of r_v, an array of gains is
np.log1p's.  DesignState carries the factor rows of its members.
"""

from __future__ import annotations

import copy
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    Design,
    InverseProblem,
    active_position,
    candidate_position,
    hessian_preconditioned,
    validate_design,
)
from .wspace import Operator


def phi_eig(p: InverseProblem, S) -> float:
    """log det(I + Ht(S)), evaluated by a dense symmetric factorization.

    The representation of I + Ht(S) is mapped by the similarity transform
    L' (.) L^-T (with M = L L') to a symmetric positive definite matrix
    whose Cholesky factor gives the log determinant.  The empty design
    returns exactly 0.  Log terms are summed in sorted order so designs
    with identical spectra evaluate to identical floats.
    """
    idx = validate_design(p, S)
    if not idx:
        return 0.0
    L = p.space.whitening_factor
    W = L.T @ p.precond_vecs[:, list(idx)]
    B = np.eye(p.n) + W @ W.T
    B = 0.5 * (B + B.T)
    c = np.linalg.cholesky(B)
    return 2.0 * float(np.sum(np.sort(np.log(np.diag(c)))))


def eig_nats(p: InverseProblem, S) -> float:
    """Expected information gain of the design, in nats: half of phi_eig."""
    return 0.5 * phi_eig(p, S)


@dataclass(eq=False)
class DesignState:
    """A design together with the Schur factor rows of its members.

    phi holds phi_eig(S) from design_state, and the parent's phi plus the
    gain log1p(a_vv) from extend; acceptance criterion 5 holds the two
    within a relative 1e-8.  kernel holds one factor row per member, in
    the order added; extend returns a new state and leaves this one as is.
    """

    problem: InverseProblem
    design: Design
    phi: float
    kernel: SchurKernel

    @cached_property
    def info_inv(self) -> Operator:
        """(I + Ht(S))^-1, formed densely from the design on first read."""
        A = np.eye(self.problem.n) + hessian_preconditioned(self.problem, self.design).rep
        return Operator(self.problem.space, np.linalg.inv(A))


def design_state(p: InverseProblem, S=()) -> DesignState:
    """The state of design S: its members added in index order through
    SchurKernel.add, the call greedy makes, so its residuals are greedy's."""
    idx = validate_design(p, S)
    kern = SchurKernel(p, len(idx))
    for i in idx:
        kern.add(candidate_position(p, i))
    return DesignState(p, Design(idx), phi_eig(p, idx), kern)


def overlap(state: DesignState, i, j) -> float:
    """Coefficient a_ij = <A^-1 st_i, st_j> of the current design.

    By Woodbury this is the Schur entry K_ij - sum_s e_s[i] e_s[j] of the
    state's factor rows: the residual r_i on the diagonal, an entry of
    SchurKernel.block off it.  Only active candidates have sensor vectors;
    inactive indices are rejected.
    """
    p, kern = state.problem, state.kernel
    i, j = active_position(p, i), active_position(p, j)
    return float(kern.r[j] if i == j else kern.block([i], [j])[0, 0])


def marginal_gain(state: DesignState, v) -> float:
    """phi(S + v) - phi(S) = log(1 + a_vv).

    Inactive candidates gain exactly 0 by convention (their sensor vector
    is zero); search loops exclude them up front.
    """
    j = candidate_position(state.problem, v, state.design)
    return 0.0 if j is None else math.log1p(state.kernel.r[j])


def marginal_gain_conditioned(state: DesignState, v, w) -> float:
    """Gain of v after first adding w, from the coefficients at S alone.

    Equals log(1 + a_vv - a_vw^2 / (1 + a_ww)).  Pure: the state is not
    extended.  A zero-sensor w changes nothing, so the plain gain of v is
    returned in that case.
    """
    p, kern = state.problem, state.kernel
    jv = candidate_position(p, v, state.design)
    jw = candidate_position(p, w, state.design)
    if int(v) == int(w):
        raise ValueError("conditioned gain requires two distinct candidates")
    if jv is None:
        return 0.0
    if jw is None:
        return math.log1p(kern.r[jv])
    return float(kern.pair_gains([jw], [jv])[0, 0])


def extend(state: DesignState, v) -> DesignState:
    """New state with v added, through the same SchurKernel.add as greedy.

    The determinant lemma gives the phi increment log(1 + a_vv), and a_vv
    is the Schur residual of v.  The new state copies the factor rows, so
    the state extended stays valid.
    """
    p, v = state.problem, operator.index(v)
    j = active_position(p, v, state.design)
    kern = copy.copy(state.kernel)  # shares the whitened vectors and diagonal
    kern.rows = np.vstack((kern.rows[:kern.t], np.empty_like(kern.diag)))
    kern.res = np.vstack((kern.res[:kern.t + 1], np.empty_like(kern.diag)))
    gain = math.log1p(kern.r[j])
    kern.add(j)
    return DesignState(p, Design(state.design.indices + (v,)), state.phi + gain, kern)


class SchurKernel:
    """Incremental Cholesky factor of I + K over the active candidates.

    K = W'W is the Gram matrix of the whitened sensor vectors, read
    without a copy from W = p.whitened.  Forming it as st' (M st) instead
    is not a Gram product, and in the saturated regime (more sensors
    than parameters) its rounding error grows with the conditioning of M.

    Positions 0 .. m-1 index p.active.  After t selections the factor holds
    rows e_0 .. e_{t-1}, and res[t] holds every candidate's Schur residual

        r_v = K_vv - sum_{s<t} e_s[v]^2,    gain of v = log1p(r_v),

    with res[0] = diag = K_vv; r reads res[t].  Selecting position j appends

        e_t = (K[:, j] - sum_{s<t} e_s e_s[j]) / sqrt(1 + r_j),

    one column of K (an n x m product) plus O(t m) work, and sets
    res[t + 1] = res[t] - e_t * e_t.  The row is needed anyway, so a gain
    costs nothing beyond it: stale upper bounds (lazy evaluation) would
    save no work.  Lowering t rewinds to a prefix of the selections; the
    next add overwrites the rows and residuals after it.  Three reads give
    Schur entries: r (a_vv), block (a_vw) and pair_gains (gains of v after w).
    """

    def __init__(self, p: InverseProblem, k: int):
        self.active = p.active
        self._w = p.whitened
        self.n = p.n
        self.rows = np.empty((k, len(self.active)))
        self.res = np.empty((k + 1, len(self.active)))
        # K_vv for every position: the residuals before any selection
        self.diag = np.einsum("ij,ij->j", self._w, self._w, out=self.res[0])
        self.t = 0

    @property
    def r(self) -> np.ndarray:
        return self.res[self.t]

    def add(self, j: int) -> np.ndarray:
        """Append the factor row of position j and the residuals after it."""
        t = self.t
        r = self.res[t]
        prev = self.rows[:t]
        col = self._w.T @ self._w[:, j]
        e = (col - prev.T @ prev[:, j]) / math.sqrt(1.0 + r[j])
        self.rows[t] = e
        np.subtract(r, e * e, out=self.res[t + 1])
        self.t = t + 1
        return e

    def block(self, pos, cols) -> np.ndarray:
        """Schur block K[pos, cols] - E[:, pos]' E[:, cols].

        Entry (a, b) is the coefficient a_vw of w = pos[a] and v = cols[b];
        on the diagonal read r instead.
        """
        return (self._w[:, pos].T @ self._w[:, cols]
                - self.rows[:self.t, pos].T @ self.rows[:self.t, cols])

    def pair_gains(self, pos, cols) -> np.ndarray:
        """Entry (a, b) is the gain of v = cols[b] after w = pos[a].

        That is log1p(r_v - a_vw^2 / (1 + r_w)), computed as log1p(r_v - e_v^2)
        with e = a_w / sqrt(1 + r_w) the factor row that add(w) would append:
        row a is log1p of the residuals that add(w) would leave.
        """
        r = self.r
        e = self.block(pos, cols) / np.sqrt(1.0 + r[pos])[:, None]
        return np.log1p(r[cols] - e * e)
