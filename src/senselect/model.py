"""Linear Gaussian inverse problem with uncorrelated sensor noise.

Observation model y = F m + eta, eta ~ N(0, diag(sigma_i^2)), with a
Gaussian prior N(m_pr, Gamma_pr) on a weighted space.  The posterior is
Gaussian with

    Gamma_post = (H + Gamma_pr^-1)^-1
    m_post     = Gamma_post (F* Gn^-1 y + Gamma_pr^-1 m_pr)

where F* = M^-1 F' is the adjoint of the forward map and H = F* Gn^-1 F
is the data-misfit Hessian.  Because the noise is uncorrelated, H splits
into rank-one contributions, one per sensor:

    H(S)  = sum_{i in S} s_i (x) s_i,    s_i  = sigma_i^-1 F* e_i
    Ht(S) = sum_{i in S} st_i (x) st_i,  st_i = Gamma_pr^1/2 s_i

Ht(S) is the prior-preconditioned misfit Hessian of the design S; the
package's set objective is log det(I + Ht(S)).  Sensors whose forward-map
row is identically zero carry no information (s_i = 0) and are flagged
inactive at construction.
"""

from __future__ import annotations

import bisect
import hashlib
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .wspace import Operator, WeightedSpace, adjoint_forward, require_finite, symmetric_part

SQRT_CONSISTENCY_TOL = 1e-9


class InverseProblem:
    """Immutable bundle of the problem data and derived per-sensor vectors.

    Use build_problem to construct; the constructor validates the data
    (every array finite, noise levels positive, prior selfadjoint in the
    weighted inner product, and M Gamma_pr with a Cholesky factor).  The
    prior's square root and its two checks, an eigenvalue told from 0 and
    a root that squares back, run on the first read of gamma_pr_sqrt, which
    every score reads and which generating or writing a problem never does.
    """

    def __init__(self, space: WeightedSpace, F, sigma, m_pr, gamma_pr):
        self.space = space
        n = space.n

        F = np.asarray(F, dtype=float)
        if F.ndim != 2 or F.shape[1] != n:
            raise ValueError(f"forward map must have {n} columns, got shape {F.shape}")
        require_finite(F, "forward map F")
        q = F.shape[0]

        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != (q,):
            raise ValueError(f"expected {q} noise levels, got shape {sigma.shape}")
        require_finite(sigma, "noise levels sigma")
        if not np.all(sigma > 0):
            raise ValueError("noise levels must be strictly positive")

        m_pr = space.check_vector(m_pr)
        require_finite(m_pr, "prior mean m_pr")

        if isinstance(gamma_pr, Operator):
            if gamma_pr.space is not space:
                raise ValueError("prior covariance lives on a different space")
        else:
            gamma_pr = Operator(space, gamma_pr)
        require_finite(gamma_pr.rep, "prior covariance Gamma_pr")
        G = gamma_pr.rep
        MG = symmetric_part(space.M @ G)  # the symmetrized product is kept for gamma_pr_inv
        if MG is None:
            raise ValueError("prior covariance is not selfadjoint in the weighted inner product")
        # not a duplicate of _selfadjoint_sqrt's test: near singular, rounding splits them
        try:
            np.linalg.cholesky(MG)
        except np.linalg.LinAlgError as exc:
            raise ValueError("prior covariance is not positive definite") from exc
        self._mg = MG

        self.F = F
        self.sigma = sigma
        self.m_pr = m_pr
        self.gamma_pr = gamma_pr

        nonzero = np.any(F != 0.0, axis=1)
        self.active = tuple(int(i) for i in np.flatnonzero(nonzero))
        self.inactive = tuple(int(i) for i in np.flatnonzero(~nonzero))

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def n_s(self) -> int:
        return int(self.F.shape[0])

    @cached_property
    def gamma_pr_sqrt(self) -> Operator:
        """Gamma_pr^1/2, the prior's selfadjoint square root, formed and
        checked on first read: a prior whose eigenvalues rounding does not
        tell from 0, or whose root does not square back to Gamma_pr within
        SQRT_CONSISTENCY_TOL, is refused then, with the message a build
        would give.  Writing a problem file never reads it."""
        G = self.gamma_pr.rep
        root = _selfadjoint_sqrt(self.space, G)
        R = root.rep
        err = np.abs(R @ R - G).max()
        if err > SQRT_CONSISTENCY_TOL * max(1.0, np.abs(G).max()):
            raise ValueError(f"prior square root inconsistent with covariance (err {err:.3e})")
        return root

    # Per-sensor representers, formed on first read: column i gives s_i
    # and st_i.  Writing a problem file reads neither.
    @cached_property
    def sensor_vecs(self) -> np.ndarray:
        return adjoint_forward(self.space, self.F) / self.sigma[None, :]

    @cached_property
    def precond_vecs(self) -> np.ndarray:
        return self.gamma_pr_sqrt.rep @ self.sensor_vecs

    @cached_property
    def whitened(self) -> np.ndarray:
        # L' st (M = L L') of the active sensors, SchurKernel's W; column j is p.active[j]
        vecs = self.precond_vecs
        if len(self.active) < self.n_s:
            vecs = vecs[:, list(self.active)]
        return self.space.whitening_factor.T @ vecs

    @cached_property
    def gamma_pr_inv(self) -> Operator:
        # Gamma_pr^-1 = (M Gamma_pr)^-1 M, with the symmetrized M Gamma_pr
        return Operator(self.space, np.linalg.solve(self._mg, self.space.M))

    @cached_property
    def gamma_pr_logdet(self) -> float:
        sign, val = np.linalg.slogdet(self.gamma_pr.rep)
        if sign <= 0:
            raise ValueError("prior covariance has nonpositive determinant")
        return float(val)

    @cached_property
    def _hash(self) -> str:
        return content_digest(self.space.M, self.gamma_pr.rep, self.F, self.sigma, self.m_pr)

    def content_hash(self) -> str:
        """Stable hex digest of the problem's content, made once; its reports' problem_hash."""
        return self._hash


def content_digest(M, gamma_pr, F, sigma, m_pr) -> str:
    """content_hash of these blocks, given in file order but digested in the first order."""
    h = hashlib.sha256()
    h.update(b"senselect-problem-v1")
    for tag, arr in ((b"M", M), (b"F", F), (b"sigma", sigma), (b"m_pr", m_pr),
                     (b"Gamma_pr", gamma_pr)):
        a = np.ascontiguousarray(arr, dtype=float)
        h.update(tag)
        h.update(str(a.shape).encode())
        h.update(a)  # its bytes, read in place
    return h.hexdigest()


def build_problem(space: WeightedSpace, F, sigma, m_pr, gamma_pr) -> InverseProblem:
    return InverseProblem(space, F, sigma, m_pr, gamma_pr)


def _selfadjoint_sqrt(space: WeightedSpace, G: np.ndarray) -> Operator:
    """Principal square root of a covariance, selfadjoint in the weighted space.

    Mapping to orthonormal coordinates z = L' x (with M = L L') turns the
    covariance into the symmetric matrix C = L' G L^-T; its eigenvalue
    square root mapped back, R = L^-T sqrt(C) L', is the unique positive
    selfadjoint square root of G.
    """
    L = space.whitening_factor
    X = np.linalg.solve(L, G.T).T  # G L^-T
    C = L.T @ X
    C = 0.5 * (C + C.T)
    w, V = np.linalg.eigh(C)
    if w[0] <= C.shape[0] * np.finfo(float).eps * w[-1]:  # not told from 0 by eigh's accuracy
        raise ValueError("prior covariance is not positive definite")
    S = (V * np.sqrt(w)) @ V.T
    R = np.linalg.solve(L.T, S)  # L^-T sqrt(C)
    return Operator(space, R @ L.T)


@dataclass(frozen=True)
class Design:
    """Sorted tuple of distinct 0-based candidate indices."""

    indices: tuple[int, ...] = ()

    def __post_init__(self):
        idx = tuple(operator.index(i) for i in self.indices)
        if len(set(idx)) != len(idx):
            raise ValueError(f"design contains duplicate indices: {idx}")
        if any(i < 0 for i in idx):
            raise ValueError(f"design contains negative indices: {idx}")
        object.__setattr__(self, "indices", tuple(sorted(idx)))

    def __iter__(self):
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, i) -> bool:
        return i in self.indices


def count_at_least(value, lo: int, name: str) -> int:
    """value as an int, refused by name if not an integer (2.9 is not
    truncated) or below lo; the CLI and read_report call it too."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < lo:
        raise ValueError(f"{name} must be at least {lo}, got {value}")
    return value


def validate_design(p: InverseProblem, S) -> tuple[int, ...]:
    """Normalize a candidate subset to a sorted tuple of active indices."""
    idx = Design(S).indices
    for i in idx:
        active_position(p, i)
    return idx


def candidate_position(p: InverseProblem, i, outside=()) -> int | None:
    """Position of candidate i in p.active, or None when i is inactive.

    Refuses an index outside [0, n_s) and a member of the design outside.
    """
    i = operator.index(i)
    if not 0 <= i < p.n_s:
        raise ValueError(f"candidate index {i} out of range [0, {p.n_s})")
    if i in outside:
        raise ValueError(f"candidate {i} is already in the design")
    j = bisect.bisect_left(p.active, i)
    return j if j < len(p.active) and p.active[j] == i else None


def active_position(p: InverseProblem, i, outside=()) -> int:
    """candidate_position of an index that must also be active."""
    j = candidate_position(p, i, outside)
    if j is None:
        raise ValueError(f"candidate index {int(i)} is inactive (zero forward-map row)")
    return j


@dataclass(eq=False)
class Posterior:
    """Gaussian posterior: mean vector and covariance operator."""

    mean: np.ndarray
    cov: Operator


def hessian_misfit(p: InverseProblem, S) -> Operator:
    """Data-misfit Hessian H(S) = sum_{i in S} s_i (x) s_i."""
    return Operator(p.space, _outer_sum(p, p.sensor_vecs[:, list(validate_design(p, S))]))


def hessian_preconditioned(p: InverseProblem, S) -> Operator:
    """Prior-preconditioned misfit Hessian Ht(S) = sum_{i in S} st_i (x) st_i."""
    return Operator(p.space, _outer_sum(p, p.precond_vecs[:, list(validate_design(p, S))]))


def _outer_sum(p: InverseProblem, vecs) -> np.ndarray:
    """The representation of sum_j v_j (x) v_j over the columns v_j of vecs."""
    return vecs @ (p.space.M @ vecs).T


def posterior(p: InverseProblem, S, y) -> Posterior:
    """Posterior mean and covariance for data y observed at the sensors in S.

    y must hold one entry per selected sensor, ordered by ascending sensor
    index.  A 2-D y holds one data set per row; the mean then has one row
    per data set, and all of them share the one covariance.  An empty
    design returns the prior unchanged.
    """
    idx = validate_design(p, S)
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        y = y.reshape(-1)
    if y.shape[-1] != len(idx):
        raise ValueError(f"expected {len(idx)} data values, got {y.shape[-1]}")
    if not idx:
        mean = np.broadcast_to(p.m_pr, y.shape[:-1] + (p.n,)).copy()
        return Posterior(mean, Operator(p.space, p.gamma_pr.rep.copy()))
    cols = list(idx)
    vecs = p.sensor_vecs[:, cols]
    cov_rep = _posterior_cov(p, vecs)
    return Posterior(_posterior_mean(p, vecs, p.sigma[cols], y, cov_rep),
                     Operator(p.space, cov_rep))


def _posterior_cov(p: InverseProblem, vecs) -> np.ndarray:
    """Gamma_post = (H(S) + Gamma_pr^-1)^-1 of a nonempty design, from its
    sensor vectors vecs = p.sensor_vecs[:, S].

    It does not depend on the data, so mc_eig forms it once per call.
    """
    return np.linalg.inv(_outer_sum(p, vecs) + p.gamma_pr_inv.rep)


def _posterior_mean(p: InverseProblem, vecs, sigma, y, cov_rep) -> np.ndarray:
    """Posterior mean rows for data rows y, given a design's sensor vectors
    vecs = p.sensor_vecs[:, S], its noise levels sigma and its Gamma_post."""
    # rows M^-1 F_S' Gn^-1 y = sum_i y_i / sigma_i s_i
    rhs = (y / sigma) @ vecs.T + p.gamma_pr_inv.rep @ p.m_pr
    return rhs @ cov_rep.T
