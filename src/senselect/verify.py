"""Independent numerical checks of the objective's claimed structure.

kl_gaussian and mc_eig tie the algebraic objective back to its
information-theoretic meaning: the expected (over prior draws and
simulated data) Kullback-Leibler divergence from posterior to prior must
match half of log det(I + Ht(S)).  check_monotone and check_submodular
test the two structural properties behind the greedy guarantee, comparing
the closed-form gains against from-scratch objective differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import objective
from .model import InverseProblem, Posterior, count_at_least, posterior, validate_design

GAIN_FLOOR = 1e-14
FORMULA_TOL = 1e-9
SUBMODULAR_TOL = 1e-9
EXHAUSTIVE_LIMIT = 10
# mc_eig maps its draws to data and divergences this many samples at a
# time, so that only the standard normal draws are held in full
_MC_BLOCK = 1000


def kl_gaussian(p: InverseProblem, post: Posterior):
    """KL divergence from a Gaussian posterior to the prior of p.

    Evaluated in the weighted space:

        1/2 [ tr(Gpr^-1 Gpost) - n + <Gpr^-1 (m - m_pr), m - m_pr>
              + log det Gpr - log det Gpost ]

    Every term is invariant under a change of coordinates, so plain matrix
    representations can be used throughout.  A posterior with one mean row
    per data set (see posterior) gives one divergence per row; the trace
    and the log determinant are shared by all of them.
    """
    G_inv = p.gamma_pr_inv.rep
    C = post.cov.rep
    tr = float(np.einsum("ij,ji->", G_inv, C))
    d = post.mean - p.m_pr
    quad = np.sum((d @ G_inv.T) * (d @ p.space.M), axis=-1)
    sign, logdet_post = np.linalg.slogdet(C)
    if sign <= 0:
        raise ValueError("posterior covariance has nonpositive determinant")
    kl = 0.5 * (tr - p.n + quad + p.gamma_pr_logdet - float(logdet_post))
    return float(kl) if kl.ndim == 0 else kl


@dataclass(frozen=True)
class McEigEstimate:
    n_samples: int
    mean_kl: float
    std_error: float
    seed: int


def mc_eig(p: InverseProblem, S, n_samples: int, seed: int) -> McEigEstimate:
    """Monte Carlo estimate of the expected information gain of design S.

    Per sample: draw a parameter from the prior (m = m_pr + R L^-T z with
    z standard normal, R the prior square root, and L the whitening factor
    of the space), simulate data y ~ N(F(S) m, Gn(S)), then average
    kl_gaussian of the resulting posterior.  All parameter draws happen
    before all noise draws, which pins the stream for a given seed.

    Once per call, before any sample, the n x n map R L^-T is solved (the
    one linear solve of mc_eig); Gamma_pr^-1 is cached on the problem at
    its first use.  The samples then go through posterior and kl_gaussian as
    rows of one data matrix, a block at a time, since the covariance does
    not depend on y; each block forms the posterior covariance, its trace
    and its log determinant once, with numpy alone.

    An empty design is a fixed point (posterior equals prior, KL is
    identically zero), so it returns an exact zero estimate.  n_samples
    must be at least 2, for a standard error, and seed at least 0, whatever
    the design.
    """
    n_samples = count_at_least(n_samples, 2, "n_samples")
    seed = count_at_least(seed, 0, "seed")
    idx = validate_design(p, S)
    if not idx:
        return McEigEstimate(n_samples, 0.0, 0.0, seed)
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((p.n, n_samples))
    E = rng.standard_normal((len(idx), n_samples))
    L = p.space.whitening_factor
    draw = np.linalg.solve(L, p.gamma_pr_sqrt.rep.T).T  # R L^-T
    F_S, sigma = p.F[list(idx), :], p.sigma[list(idx), None]

    def kl_block(b):
        m = p.m_pr[:, None] + draw @ Z[:, b:b + _MC_BLOCK]
        Y = F_S @ m + sigma * E[:, b:b + _MC_BLOCK]
        return kl_gaussian(p, posterior(p, idx, Y.T))

    kls = np.concatenate([kl_block(b) for b in range(0, n_samples, _MC_BLOCK)])
    mean = float(np.mean(kls))
    stderr = float(np.std(kls, ddof=1) / math.sqrt(n_samples))
    return McEigEstimate(n_samples, mean, stderr, seed)


@dataclass(frozen=True)
class MonotoneReport:
    trials: int
    violations: int
    min_gain: float
    max_formula_err: float

    @property
    def ok(self) -> bool:
        return self.violations == 0


@dataclass(frozen=True)
class SubmodularReport:
    mode: str
    checks: int
    violations: int
    max_breach: float
    max_formula_err: float | None

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _reference_phi(p: InverseProblem, designs) -> np.ndarray:
    """phi of every design in designs, from scratch: the checks' reference values.

    designs are sequences of active sensor indices, drawn by the checks
    themselves.  With W_S a design's columns of p.whitened, as SchurKernel
    reads them, Sylvester's identity det(I_n + W_S W_S') = det(I_s + W_S' W_S)
    lets each value come from the Cholesky factor of the smaller of the
    two Gram matrices, and the designs of one size go through one batched
    Cholesky.  Each design is sorted first, so equal designs get equal
    values; the empty design gets exactly 0.
    """
    out = np.zeros(len(designs))
    w = p.whitened.T  # row j: sensor p.active[j]
    by_size = {}
    for pos, d in enumerate(designs):
        by_size.setdefault(len(d), []).append(pos)
    for size, pos in by_size.items():
        if size:
            S = np.sort(np.array([designs[i] for i in pos]), axis=1)
            v = w[np.searchsorted(p.active, S)]  # (designs, size, n)
            gram = v @ v.transpose(0, 2, 1) if size <= p.n else v.transpose(0, 2, 1) @ v
            np.einsum("bii->bi", gram)[...] += 1.0
            c = np.linalg.cholesky(gram)
            out[pos] = 2.0 * np.sum(np.log(np.diagonal(c, axis1=1, axis2=2)), axis=1)
    return out


def _draw_outside(rng: np.random.Generator, active: np.ndarray, S) -> int:
    """One active candidate outside the design S, drawn uniformly by rng.

    S is a set of active candidates, so deleting their positions leaves
    active's other entries in order, in O(m + |S| log m).  np.setdiff1d
    gives the same array but imports numpy.ma, about 1.7 MB of peak memory.
    """
    return int(rng.choice(np.delete(active, np.searchsorted(active, S))))


def _extreme(value: float, count: int) -> float:
    """An extreme taken over count trials or pairs; over none it reads 0.0."""
    return value if count else 0.0


def check_monotone(p: InverseProblem, trials: int = 200, seed: int = 0) -> MonotoneReport:
    """Sampled strict-monotonicity check.

    Each trial draws a random design S and a candidate v outside it, then
    requires the from-scratch difference phi(S + v) - phi(S) to be
    strictly positive (above a tiny floor) and to match log(1 + a_vv)
    within an absolute tolerance.  Inactive candidates are never sampled.
    All designs are drawn first, in the order of the trials, and both
    from-scratch values of every trial come from one _reference_phi
    call.  The formula side rewinds one SchurKernel per trial, adds S in
    index order as design_state does, and reads v's residual.  min_gain
    is 0.0 when no trial ran.
    """
    trials = count_at_least(trials, 0, "trials")
    rng = np.random.default_rng(count_at_least(seed, 0, "seed"))
    active = np.asarray(p.active)
    if active.size == 0:
        raise ValueError("problem has no active candidates")
    draws = []
    for _ in range(trials):
        size = int(rng.integers(0, active.size))
        S = tuple(int(i) for i in np.sort(rng.choice(active, size, replace=False)))
        draws.append((S, _draw_outside(rng, active, S)))
    ref = _reference_phi(p, [d for S, v in draws for d in (S, S + (v,))]).reshape(-1, 2)
    kern = objective.SchurKernel(p, max((len(S) for S, v in draws), default=0))
    violations = 0
    min_gain = math.inf
    max_err = 0.0
    for (S, v), (phi_S, phi_Sv) in zip(draws, ref.tolist()):
        kern.t = 0
        for j in np.searchsorted(active, S).tolist():
            kern.add(j)
        dense_gain = phi_Sv - phi_S
        formula_gain = objective.gain(float(kern.r[int(np.searchsorted(active, v))]))
        err = abs(dense_gain - formula_gain)
        min_gain = min(min_gain, dense_gain)
        max_err = max(max_err, err)
        if dense_gain < GAIN_FLOOR or err > FORMULA_TOL:
            violations += 1
    return MonotoneReport(trials, violations, _extreme(min_gain, trials), max_err)


def check_submodular(
    p: InverseProblem, mode: str = "auto", trials: int = 200, seed: int = 0
) -> SubmodularReport:
    """Submodularity check, exhaustive where feasible.

    Exhaustive mode enumerates every design A and ordered pair of distinct
    outside candidates (v, w) and requires the conditioned gain of v given
    w to stay below the plain gain of v (one-element increments suffice
    for submodularity).  Both closed forms are also compared against
    from-scratch objective differences.  Randomized mode samples nested
    designs A inside B and a candidate v outside B and checks the
    diminishing-returns inequality of the definition directly.  In both
    modes max_breach is 0.0 when no pair was checked, and the from-scratch
    values come from one _reference_phi call per check.
    """
    trials = count_at_least(trials, 0, "trials")
    if mode == "auto":
        mode = "exhaustive" if len(p.active) <= EXHAUSTIVE_LIMIT else "random"
    if mode == "exhaustive":
        report = _check_submodular_exhaustive(p)
    elif mode == "random":
        report = _check_submodular_random(p, trials, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return replace(report, max_breach=_extreme(report.max_breach, report.checks))


def _check_submodular_exhaustive(p: InverseProblem) -> SubmodularReport:
    """Every design A and ordered pair (v, w) outside it, a block at a time.

    phi of every subset, from _reference_phi, is held in a table indexed
    by the bit mask of its positions in p.active.  The designs are visited depth first in
    lexicographic order on one SchurKernel, one add per design, so a
    design's residuals, the plain gains log1p(a_vv), are its r.  One
    Schur block over the remaining positions gives every a_vw, and with
    it the conditioned gain of every pair at once.
    """
    m = len(p.active)
    if m > 16:
        raise ValueError("exhaustive mode is limited to 16 active candidates")
    phi = _reference_phi(p, [[i for b, i in enumerate(p.active) if mask >> b & 1]
                             for mask in range(1 << m)])
    bits = 1 << np.arange(m)
    pairs = [np.nonzero(~np.eye(s, dtype=bool)) for s in range(m + 1)]  # [v, w], v != w
    kern = objective.SchurKernel(p, m)
    checks = violations = 0
    max_breach = -math.inf
    max_err = 0.0

    def visit(t: int, mask: int, start: int) -> None:
        nonlocal checks, violations, max_breach, max_err
        rest = np.flatnonzero((bits & mask) == 0)
        a = kern.r[rest]
        plain = objective.gain(a)
        up = phi[mask | bits[rest]]  # phi(A + v)
        err = np.abs(plain - (up - phi[mask]))
        max_err = max(max_err, float(err.max(initial=0.0)))
        violations += int(np.count_nonzero(err > FORMULA_TOL))
        if rest.size > 1:
            v, w = pairs[rest.size]
            cond = objective.conditioned_gain(a[v], kern.block(rest)[v, w], a[w])
            breach = cond - plain[v]
            err = np.abs(cond - (phi[mask | bits[rest[v]] | bits[rest[w]]] - up[w]))
            checks += breach.size
            max_breach = max(max_breach, float(breach.max()))
            max_err = max(max_err, float(err.max()))
            violations += int(np.count_nonzero((breach > SUBMODULAR_TOL) | (err > FORMULA_TOL)))
        if t + 1 < m:
            for j in range(start, m):
                kern.t = t
                kern.add(j)
                visit(t + 1, mask | 1 << j, j + 1)

    visit(0, 0, 0)
    return SubmodularReport("exhaustive", checks, violations, max_breach, max_err)


def _check_submodular_random(p: InverseProblem, trials: int, seed: int) -> SubmodularReport:
    """trials draws of A inside B and v outside B, all drawn before any value."""
    rng = np.random.default_rng(count_at_least(seed, 0, "seed"))
    active = np.asarray(p.active)
    if active.size < 2:
        raise ValueError("need at least 2 active candidates")
    designs = []
    for _ in range(trials):
        b_size = int(rng.integers(1, active.size))
        B = np.sort(rng.choice(active, b_size, replace=False))
        a_size = int(rng.integers(0, b_size + 1))
        A = tuple(int(i) for i in np.sort(rng.choice(B, a_size, replace=False)))
        B = tuple(int(i) for i in B)
        v = _draw_outside(rng, active, B)
        designs += [A + (v,), A, B + (v,), B]
    phi = _reference_phi(p, designs).reshape(-1, 4)
    breach = (phi[:, 2] - phi[:, 3]) - (phi[:, 0] - phi[:, 1])  # gain at B - gain at A
    violations = int(np.count_nonzero(breach > SUBMODULAR_TOL))
    max_breach = float(breach.max(initial=-math.inf))
    return SubmodularReport("random", trials, violations, max_breach, None)


@dataclass(frozen=True)
class VerificationSummary:
    """Bundle produced by the verify command: property suites plus the MC check."""

    monotone: MonotoneReport
    submodular: SubmodularReport
    mc: McEigEstimate
    mc_design: tuple[int, ...]
    mc_target: float
    mc_ok: bool
    seed: int

    @property
    def ok(self) -> bool:
        return self.monotone.ok and self.submodular.ok and self.mc_ok


def verification_run(
    p: InverseProblem, trials: int = 200, samples: int = 2000, seed: int = 0
) -> VerificationSummary:
    """Run all checks on one problem.

    The sub-checks draw from independent streams derived from the base
    seed (seed, seed + 1, seed + 2 for monotonicity, submodularity, and
    the MC estimate).  The MC design is the full active set, and the
    estimate must land within 3 standard errors of half the objective.
    Both counts and the seed are checked before any check runs.
    """
    count_at_least(trials, 0, "trials")
    count_at_least(samples, 2, "samples")
    seed = count_at_least(seed, 0, "seed")
    mono = check_monotone(p, trials=trials, seed=seed)
    sub = check_submodular(p, mode="auto", trials=trials, seed=seed + 1)
    design = p.active
    est = mc_eig(p, design, samples, seed + 2)
    target = 0.5 * objective.phi_eig(p, design)
    tol = 3.0 * est.std_error if est.std_error > 0 else 1e-12
    mc_ok = abs(est.mean_kl - target) <= tol
    return VerificationSummary(mono, sub, est, tuple(design), target, mc_ok, seed)
