"""Independent numerical checks of the objective's claimed structure.

kl_gaussian and mc_eig tie the algebraic objective back to its meaning:
the expected KL divergence from posterior to prior must match half of
log det(I + Ht(S)).  check_monotone and check_submodular test the two
structural properties behind the greedy guarantee, comparing closed-form
gains against from-scratch objective differences, every one of them from
_gram_factor, on designs of positions in p.active, as SchurKernel's; only
mc_eig takes sensor indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import objective
from .model import InverseProblem, Posterior, count_at_least, validate_design
from .model import _posterior_cov, _posterior_mean

EXHAUSTIVE_LIMIT = 10
# mc_eig draws, maps to data and scores this many samples at a time, so its
# memory is bounded whatever the sample count (see mc_eig); the estimate does
# not depend on it, bit for bit
_MC_BLOCK = 256


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
    kl = _kl_rows(p, post.mean, *_kl_cov_terms(p, post.cov.rep))
    return float(kl) if kl.ndim == 0 else kl


def _kl_cov_terms(p: InverseProblem, C) -> tuple[float, float]:
    """tr(Gpr^-1 Gpost) and log det Gpost, the terms of kl_gaussian that no data enter."""
    tr = float(np.einsum("ij,ji->", p.gamma_pr_inv.rep, C))
    sign, logdet_post = np.linalg.slogdet(C)
    if sign <= 0:
        raise ValueError("posterior covariance has nonpositive determinant")
    return tr, float(logdet_post)


def _kl_rows(p: InverseProblem, mean, tr: float, logdet_post: float):
    """kl_gaussian of each posterior mean row, given its covariance's _kl_cov_terms."""
    d = mean - p.m_pr
    quad = np.sum((d @ p.gamma_pr_inv.rep.T) * (d @ p.space.M), axis=-1)
    return 0.5 * (tr - p.n + quad + p.gamma_pr_logdet - logdet_post)


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
    kl_gaussian of the resulting posterior.  The draws are one C-order
    (n + |S|) x n_samples standard normal array, z's rows before the
    noise rows, which pins the stream for a given seed.

    Once per call, before any sample, the n x n map R L^-T is solved (the
    one linear solve of mc_eig), the design's rows of F and columns of
    p.sensor_vecs are gathered, and the posterior covariance, its trace
    and its log determinant are formed by the helpers of posterior and
    kl_gaussian, since none depends on y.  The samples then go through the
    posterior mean and the divergence as rows of one data matrix, a block
    of _MC_BLOCK columns at a time, as _normal_blocks draws them, so the
    memory held is two blocks of draws, one block's arrays and one double
    per sample, whatever n_samples is.

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
    L = p.space.whitening_factor
    draw = np.linalg.solve(L, p.gamma_pr_sqrt.rep.T).T  # R L^-T
    cols = list(idx)
    # F serves in place when S holds every sensor.  The columns of sensor_vecs
    # are gathered even then: the gather's layout fixes the products' bits
    F_S = p.F if len(cols) == p.n_s else p.F[cols, :]
    vecs, sigma = p.sensor_vecs[:, cols], p.sigma[cols]
    cov = _posterior_cov(p, vecs)
    terms = _kl_cov_terms(p, cov)
    kls = np.empty(n_samples)
    blocks = _normal_blocks(rng, p.n + len(idx), n_samples)
    for b, block in zip(range(0, n_samples, _MC_BLOCK), blocks):
        m = p.m_pr[:, None] + draw @ block[:p.n]
        Y = F_S @ m + sigma[:, None] * block[p.n:]
        kls[b:b + _MC_BLOCK] = _kl_rows(p, _posterior_mean(p, vecs, sigma, Y.T, cov), *terms)
    mean = float(np.mean(kls))
    stderr = float(np.std(kls, ddof=1) / math.sqrt(n_samples))
    return McEigEstimate(n_samples, mean, stderr, seed)


def _normal_blocks(rng: np.random.Generator, rows: int, n: int):
    """rng.standard_normal((rows, n)), yielded as its column blocks of _MC_BLOCK.

    Each value has the bits it has in the whole array, which is never
    held.  One pass over the stream copies the generator where each row
    starts and draws the row only to pass it, into a scratch array of one
    block's size.  Each copy is then the row's own stream, from which every
    block draws the row's part.  So every value is drawn twice, and the
    draws held are one block plus the scratch.  A copy's bit generator is
    seeded from rng's seed sequence, cheaper than a seed from the operating
    system, and then takes rng's state.
    """
    skip = np.empty(rows * min(_MC_BLOCK, n))
    streams = []
    for _ in range(rows):
        bits = type(rng.bit_generator)(rng.bit_generator.seed_seq)
        bits.state = rng.bit_generator.state
        streams.append(np.random.Generator(bits))
        for b in range(0, n, skip.size):
            rng.standard_normal(out=skip[:n - b])
    del skip
    for b in range(0, n, _MC_BLOCK):
        block = np.empty((rows, min(_MC_BLOCK, n - b)))
        for row, stream in zip(block, streams):
            stream.standard_normal(out=row)
        yield block


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

    designs are sequences of positions in p.active, drawn by the checks
    themselves.  The designs of one size go through one batched
    _gram_factor.  Each design is sorted first, so equal designs get equal
    values; the empty design gets exactly 0.  p.whitened is read only to
    score a nonempty design, so a call without one leaves it unformed.
    """
    out = np.zeros(len(designs))
    by_size = {}
    for pos, d in enumerate(designs):
        by_size.setdefault(len(d), []).append(pos)
    for size, pos in by_size.items():
        if size:
            S = np.sort(np.array([designs[i] for i in pos]), axis=1)
            w = p.whitened.T  # row j: position j, sensor p.active[j]
            out[pos] = _logdet(_gram_factor(w[S], p.n))
    return out


def _gram_factor(ws: np.ndarray, n: int) -> np.ndarray:
    """Cholesky factor of I plus the smaller Gram matrix of ws; the one place that factors.

    ws is (..., s, n): W_S', a design's s rows of p.whitened.T, or a stack
    of designs of one size.  Sylvester's det(I_n + W_S W_S') = det(I_s + W_S' W_S)
    lets phi(S) come from either side: I_s + W_S' W_S if s <= n, else I_n + W_S W_S'.
    """
    wt = ws.swapaxes(-1, -2)
    gram = ws @ wt if ws.shape[-2] <= n else wt @ ws
    np.einsum("...ii->...i", gram)[...] += 1.0
    return np.linalg.cholesky(gram)


def _logdet(c: np.ndarray):
    """phi of a design from its _gram_factor c: twice the sum of the logs of its diagonal."""
    return 2.0 * np.log(c.diagonal(0, -2, -1)).sum(-1)


def _draw_outside(rng: np.random.Generator, m: int, S) -> int:
    """One of the positions 0 .. m-1 outside the design S, drawn uniformly by rng.

    Deleting S keeps the others in order, in O(m); np.setdiff1d gives the
    same array but imports numpy.ma, about 1.7 MB of peak memory.
    """
    return int(rng.choice(np.delete(np.arange(m), S)))


def check_monotone(p: InverseProblem, trials: int = 200, seed: int = 0) -> MonotoneReport:
    """Sampled strict-monotonicity check.

    Each trial draws a random design S and a candidate v outside it, as
    positions in p.active, so inactive candidates are never sampled, then
    requires phi(S + v) - phi(S), from scratch, to exceed minus, and to
    match log(1 + a_vv) within, objective.rounding_bound of S + v.  All
    designs are drawn first, in the order of the trials, and phi(S + v) of
    every trial comes from one _reference_phi call.  Each trial then
    factors S once, with _gram_factor, for phi(S) and for a_vv by
    _residual's Woodbury form, so it holds one design's rows and factor,
    never a kernel sized by the largest design.  It tests that form, not
    greedy's row-by-row SchurKernel arithmetic, which the exhaustive
    submodularity check reads.  min_gain is 0.0 when no trial ran, and
    p.whitened is then never formed.
    """
    trials = count_at_least(trials, 0, "trials")
    rng = np.random.default_rng(count_at_least(seed, 0, "seed"))
    m = len(p.active)
    if m == 0:
        raise ValueError("problem has no active candidates")
    draws = []
    for _ in range(trials):
        size = int(rng.integers(0, m))
        S = tuple(int(i) for i in np.sort(rng.choice(m, size, replace=False)))
        draws.append((S, _draw_outside(rng, m, S)))
    ref = _reference_phi(p, [S + (v,) for S, v in draws])
    gains, errs = np.empty(trials), np.empty(trials)
    for t, ((S, v), phi_Sv) in enumerate(zip(draws, ref.tolist())):
        w = p.whitened.T
        ws = w[list(S)]
        c = _gram_factor(ws, p.n)
        gains[t] = phi_Sv - float(_logdet(c))
        errs[t] = abs(gains[t] - math.log1p(_residual(c, ws, w[v])))
    big = float(objective.SchurKernel(p, 0).diag.max()) if trials else 0.0
    tol = objective.rounding_bound(p.n, np.array([len(S) + 1 for S, _ in draws]), big)
    violations = int(np.count_nonzero((gains <= -tol) | (errs > tol)))
    min_gain = float(gains.min()) if trials else 0.0
    return MonotoneReport(trials, violations, min_gain, float(errs.max(initial=0.0)))


def _residual(c: np.ndarray, ws: np.ndarray, x: np.ndarray) -> float:
    """v's Schur residual a_vv after S, from S's rows ws and c = _gram_factor(ws, n).

    x is v's row w_v of p.whitened.T.  Woodbury gives, with one solve,

        a_vv = K_vv - |c^-1 W_S' w_v|^2  if c is s x s,  |c^-1 w_v|^2  otherwise;

    the empty design reads K_vv.
    """
    small = len(c) == len(ws)
    y = np.linalg.solve(c, ws @ x if small else x)
    return float(x @ x - y @ y) if small else float(y @ y)


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
    values come from one _reference_phi call per check.  trials and seed
    are checked in every mode, before the mode is chosen.
    """
    trials = count_at_least(trials, 0, "trials")
    seed = count_at_least(seed, 0, "seed")
    if mode == "auto":
        mode = "exhaustive" if len(p.active) <= EXHAUSTIVE_LIMIT else "random"
    if mode == "exhaustive":
        report = _check_submodular_exhaustive(p)
    elif mode == "random":
        report = _check_submodular_random(p, trials, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return replace(report, max_breach=report.max_breach if report.checks else 0.0)


def _check_submodular_exhaustive(p: InverseProblem) -> SubmodularReport:
    """Every design A and ordered pair (v, w) outside it, a block at a time.

    phi of every subset, from _reference_phi, is held in a table indexed
    by the bit mask of its positions.  The designs are visited depth first
    in lexicographic order on one SchurKernel, one add per design, so a
    design's residuals, the plain gains log1p(a_vv), are its r.  One
    SchurKernel.pair_gains call over the remaining positions gives the
    conditioned gain of every pair at once.  A + v is held to the
    objective.rounding_bound of its size, a pair to the conditioned one."""
    m = len(p.active)
    if m > 16:
        raise ValueError("exhaustive mode is limited to 16 active candidates")
    phi = _reference_phi(p, [[b for b in range(m) if mask >> b & 1] for mask in range(1 << m)])
    bits = 1 << np.arange(m)
    pairs = [np.nonzero(~np.eye(s, dtype=bool)) for s in range(m + 1)]  # [v, w], v != w
    kern = objective.SchurKernel(p, m)
    big = float(kern.diag.max(initial=0.0))
    checks = violations = 0
    max_breach = -math.inf
    max_err = 0.0

    def visit(t: int, mask: int, start: int) -> None:
        nonlocal checks, violations, max_breach, max_err
        rest = np.flatnonzero((bits & mask) == 0)
        plain = np.log1p(kern.r[rest])
        up = phi[mask | bits[rest]]  # phi(A + v)
        err = np.abs(plain - (up - phi[mask]))
        max_err = max(max_err, float(err.max(initial=0.0)))
        violations += int(np.count_nonzero(err > objective.rounding_bound(p.n, t + 1, big)))
        if rest.size > 1:
            v, w = pairs[rest.size]
            cond = kern.pair_gains(rest, rest)[w, v]  # v after w
            breach = cond - plain[v]
            err = np.abs(cond - (phi[mask | bits[rest[v]] | bits[rest[w]]] - up[w]))
            checks += breach.size
            max_breach = max(max_breach, float(breach.max()))
            max_err = max(max_err, float(err.max()))
            tol = objective.rounding_bound(p.n, t + 2, big, conditioned=True)
            violations += int(np.count_nonzero((breach > tol) | (err > tol)))
        if t + 1 < m:
            for j in range(start, m):
                kern.t = t
                kern.add(j)
                visit(t + 1, mask | 1 << j, j + 1)

    visit(0, 0, 0)
    return SubmodularReport("exhaustive", checks, violations, max_breach, max_err)


def _check_submodular_random(p: InverseProblem, trials: int, seed: int) -> SubmodularReport:
    """trials draws of A inside B and v outside B, all drawn before any value;
    a breach sums four phi, so twice the rounding_bound of B + v bounds it."""
    rng = np.random.default_rng(seed)
    m = len(p.active)
    if m < 2:
        raise ValueError("need at least 2 active candidates")
    designs = []
    for _ in range(trials):
        b_size = int(rng.integers(1, m))
        B = np.sort(rng.choice(m, b_size, replace=False))
        a_size = int(rng.integers(0, b_size + 1))
        A = tuple(int(i) for i in np.sort(rng.choice(B, a_size, replace=False)))
        B = tuple(int(i) for i in B)
        v = _draw_outside(rng, m, B)
        designs += [A + (v,), A, B + (v,), B]
    phi = _reference_phi(p, designs).reshape(-1, 4)
    breach = (phi[:, 2] - phi[:, 3]) - (phi[:, 0] - phi[:, 1])  # gain at B - gain at A
    big = float(objective.SchurKernel(p, 0).diag.max()) if trials else 0.0
    tol = 2.0 * objective.rounding_bound(p.n, np.array([len(d) for d in designs[2::4]]), big)
    violations = int(np.count_nonzero(breach > tol))
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


def mc_seed(seed: int) -> int:
    """The seed of verification_run's MC estimate, from its base seed."""
    return seed + 2


def verification_run(
    p: InverseProblem, trials: int = 200, samples: int = 2000, seed: int = 0
) -> VerificationSummary:
    """Run all checks on one problem.

    The sub-checks draw from independent streams derived from the base
    seed (seed, seed + 1 and mc_seed(seed) for monotonicity, submodularity
    and the MC estimate), so their order moves no value.  The MC estimate and
    its target run first, and the property checks then reuse the heap they
    free, so a run whose largest pass is the MC estimate peaks there.  The
    MC design is the full active set, and the
    estimate must land within 3 standard errors of half the objective.
    Both counts and the seed are checked before any check runs.
    """
    count_at_least(trials, 0, "trials")
    count_at_least(samples, 2, "samples")
    seed = count_at_least(seed, 0, "seed")
    design = p.active
    est = mc_eig(p, design, samples, mc_seed(seed))
    target = 0.5 * objective.phi_eig(p, design)
    mono = check_monotone(p, trials=trials, seed=seed)
    sub = check_submodular(p, mode="auto", trials=trials, seed=seed + 1)
    mc_ok = abs(est.mean_kl - target) <= 3.0 * est.std_error
    return VerificationSummary(mono, sub, est, tuple(design), target, mc_ok, seed)
