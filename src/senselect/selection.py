"""Subset solvers for cardinality-constrained information-gain maximization.

greedy picks the largest marginal gain k times; lazy_greedy is the same
run under its own method name.  Minoux's stale upper bounds would save
nothing here: every gain falls out of the factor row that a selection
appends anyway, one O(m) residual update per step.  exhaustive finds the
optimum over every size-k subset, under a configurable cap on their
number, by depth-first branch and bound on a stack of node frames:
entering a prefix costs one factor row, shared by all of its extensions,
one Schur block over its children gives their gains, and submodularity
turns those into a bound on what any extension can add.  Each child is
tested against the tie band once, when its turn comes, largest bound
first, so the first leaves the search scores are its incumbent and no
greedy pass is needed.  Both run on objective.SchurKernel.  Designs whose
kernel value lies within TIE_RTOL of the best, the steps of greedy and
the subsets of exhaustive alike, are re-scored by phi_eig, and exact ties
go to the lexicographically smallest design.  certify_bound attaches the
(1 - 1/e) optimality certificate that monotonicity plus submodularity
guarantee for the greedy value.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import objective
from .model import InverseProblem, count_at_least
from .objective import Design

EXHAUSTIVE_CAP = 2_000_000
GAIN_MONOTONE_TOL = 1e-9
# Greedy candidates whose Schur residual, and hence gain, lies within this
# relative distance of the best, and exhaustive subsets whose kernel phi
# does, are re-scored by phi_eig.  Mirror-symmetric designs tie in exact
# arithmetic; without the re-score rounding noise of the kernel would
# decide which one comes first.
TIE_RTOL = 1e-10
CERTIFICATE_SLACK = 1e-12
GUARANTEE_FLOOR = 1.0 - 1.0 / math.e


class CapExceededError(RuntimeError):
    """Exhaustive enumeration would exceed the subset cap."""


class BoundViolationError(RuntimeError):
    """Greedy value fell below the (1 - 1/e) share of the optimum.

    With a correct implementation this cannot happen; raising loudly makes
    any numerical or logic defect impossible to miss.
    """


@dataclass(frozen=True)
class Certificate:
    opt_phi: float
    ratio: float
    floor: float = GUARANTEE_FLOOR


@dataclass(eq=False)
class SelectionReport:
    """Outcome of one solver run.

    per_step records (candidate index, gain, phi after the step) in
    selection order; phi_final is the densely recomputed objective of the
    chosen design and eig_final = phi_final / 2 is the expected
    information gain in nats.  wall_time is runtime metadata and is not
    part of the serialized report.  Neither is gain_evals, the number of
    candidate gains greedy computed, the same for lazy greedy (None for
    the other methods).
    """

    method: str
    chosen: Design
    per_step: tuple[tuple[int, float, float], ...]
    phi_final: float
    eig_final: float
    k: int
    problem_hash: str
    seed: int | None = None
    bound_certificate: Certificate | None = None
    wall_time: float | None = None
    gain_evals: int | None = None


def _check_budget(p: InverseProblem, k: int) -> int:
    k = int(k)
    if k < 0 or k > len(p.active):
        raise ValueError(f"budget {k} outside [0, {len(p.active)}] active candidates")
    return k


def _break_tie(p: InverseProblem, designs: list) -> int:
    """Index of the design that phi_eig scores highest.

    designs come in lexicographic order, so exact ties of phi_eig go to
    the lexicographically smallest design.
    """
    if len(designs) == 1:
        return 0
    vals = [objective.phi_eig(p, d) for d in designs]
    return vals.index(max(vals))


def greedy(p: InverseProblem, k: int, threads: int = 1) -> SelectionReport:
    """Plain greedy: score every remaining candidate at every step.

    Candidates whose Schur residual is within a relative TIE_RTOL of the
    best are re-scored by phi_eig; see _break_tie.  threads is accepted
    for compatibility and ignored.
    """
    t0 = time.perf_counter()
    k = _check_budget(p, k)
    kern = objective.SchurKernel(p, k)
    chosen, steps, evals, prev_gain, phi = [], [], 0, math.inf, 0.0
    for t in range(k):
        r = kern.r
        evals += r.size - t
        near = np.flatnonzero(r >= (1.0 - TIE_RTOL) * r.max()).tolist()
        j = near[_break_tie(p, [chosen + [kern.active[v]] for v in near])]
        gain = math.log1p(r[j])
        if gain <= 0.0:
            raise RuntimeError(f"greedy gain {gain!r} not strictly positive")
        if gain > prev_gain + GAIN_MONOTONE_TOL:
            raise RuntimeError(f"greedy gains increased: {prev_gain!r} -> {gain!r}")
        prev_gain, phi = gain, phi + gain
        chosen.append(kern.active[j])
        steps.append((chosen[-1], gain, phi))
        kern.add(j)
        kern.r[j] = -math.inf  # selected: never near the maximum again
    return _finish("greedy", p, Design(chosen), steps, objective.phi_eig(p, chosen), t0,
                   gain_evals=evals)


def lazy_greedy(p: InverseProblem, k: int, threads: int = 1) -> SelectionReport:
    """greedy's run, reported under the method name lazy_greedy.

    On the Schur kernel a heap of stale bounds saves no work (see the
    module docstring), so the selections, gains and counts are greedy's.
    threads is accepted for compatibility and ignored.
    """
    return replace(greedy(p, k, threads), method="lazy_greedy")


def exhaustive(p: InverseProblem, k: int, cap: int = EXHAUSTIVE_CAP) -> SelectionReport:
    """Exact optimum over all size-k subsets of the active candidates.

    Strict monotonicity means nothing smaller than size k can win, so only
    size-k subsets are searched, by branch and bound (see _near_optimal).
    The subsets whose kernel phi lies within a relative TIE_RTOL of the
    best are re-scored by phi_eig in lexicographic order, keeping strict
    improvements, so the reported optimum is the lexicographically
    smallest maximizer of phi_eig.  cap bounds the number C(|active|, k)
    of size-k subsets, not the nodes visited.
    """
    t0 = time.perf_counter()
    k = _check_budget(p, k)
    total = math.comb(len(p.active), k)
    if total > cap:
        raise CapExceededError(
            f"{total} subsets of size {k} exceed the cap of {cap}"
        )
    band = _near_optimal(objective.SchurKernel(p, k), k)
    designs = [[p.active[j] for j in s] for s in band]
    return _fixed_design("exhaustive", p, designs[_break_tie(p, designs)], t0)


def _near_optimal(kern: objective.SchurKernel, k: int) -> list[tuple[int, ...]]:
    """Size-k position sets whose kernel phi lies within TIE_RTOL of the best.

    Branch and bound over the prefixes, depth first on an explicit stack,
    so no budget is limited by recursion depth; kern starts fresh (t = 0).
    The stack holds one frame (prefix, phi, children) per node entered, with
    the (bound, position, phi) of the children not yet entered in ascending
    order: bound is the most that any size-k extension through the child
    can add to the node's phi.  The loop enters the top frame's last child,
    the one with the largest bound, or pops the frame once that bound lies
    below the tie floor (1 - TIE_RTOL) * best, since no sibling left has a
    larger one.  best starts at -inf; the first leaves scored, at the end
    of the first dive, set it.  Comparing with the floor, not with best,
    keeps every member of the band, and the comparison gives way by
    _rounding_margin, which bounds how far two evaluations of one design's
    kernel phi can differ.

    Entering a child appends its factor row through the SchurKernel.add
    that greedy calls, so nodes entered = add calls + 1.  One child step
    follows, the same at the root and at every depth: row c of the Schur
    block K[C, R] - E[:, C]' E[:, R] over the children C and the positions
    R after them, scaled by 1 / sqrt(1 + r_c), is child c's factor row, so
    g = log1p(r - e_c * e_c) are c's gains.  With q elements still to
    choose, q == 2 scores every leaf as phi + log1p(r_c) + g and leaves no
    child; otherwise c's bound is log1p(r_c) plus the sum of its q - 1
    largest gains, which submodularity makes an upper bound.  The band drops
    the sets left behind whenever best rises; it is returned sorted.
    """
    if k == 0:
        return [()]
    if k == 1:
        vals = np.log1p(kern.diag)
        return [(j,) for j in np.flatnonzero(vals >= (1.0 - TIE_RTOL) * vals.max()).tolist()]
    m = len(kern.active)
    margin = _rounding_margin(kern, k)
    best, floor, band = -math.inf, -math.inf, []

    def frame(prefix: tuple[int, ...], phi: float) -> tuple:
        nonlocal best, floor, band
        r, q = kern.r, k - len(prefix)
        kids = np.arange(prefix[-1] + 1 if prefix else 0, m - q + 1)
        cols = np.arange(kids[0] + 1, m)
        e = kern.block(kids, cols) / np.sqrt(1.0 + r[kids])[:, None]
        g = np.log1p(r[cols] - e * e)
        g[cols <= kids[:, None]] = -math.inf  # only the positions after each child
        up = [phi + math.log1p(x) for x in r[kids].tolist()]
        if q > 2:
            top = np.partition(g, cols.size - q + 1, axis=1)[:, cols.size - q + 1:].sum(axis=1)
            bounds = np.log1p(r[kids]) + top
            return prefix, phi, sorted(zip(bounds.tolist(), kids.tolist(), up))
        vals = np.array(up)[:, None] + g
        top = float(vals.max())
        if top > best:
            best, floor = top, (1.0 - TIE_RTOL) * top
            band = [(v, s) for v, s in band if v >= floor]
        for a, b in zip(*np.nonzero(vals >= floor)):
            band.append((float(vals[a, b]), prefix + (int(kids[a]), int(cols[b]))))
        return prefix, phi, []

    stack = [frame((), 0.0)]
    while stack:
        prefix, phi, children = stack[-1]
        if not children or children[-1][0] < floor - margin - phi:
            stack.pop()
            continue
        _, c, phi = children.pop()
        kern.t = len(prefix)
        kern.add(c)
        stack.append(frame(prefix + (c,), phi))
    return sorted(s for _, s in band)


def _rounding_margin(kern: objective.SchurKernel, k: int) -> float:
    """How far two evaluations of one size-k design's kernel phi can differ.

    Each of the k log1p terms takes a residual that a Cholesky step of
    dimension at most n + k rounds by at most (n + k) eps (1 + max K_vv)
    to first order, and log1p has slope at most 1; the k-term sum adds
    k eps phi, which that bound already covers.  Two evaluations, in two
    orders or along two paths, differ by at most twice one error.
    """
    eps = np.finfo(float).eps
    return 2.0 * k * (kern.n + k) * eps * (1.0 + float(kern.diag.max(initial=0.0)))


def random_baseline(p: InverseProblem, k: int, seed: int) -> SelectionReport:
    """Uniformly random size-k design, deterministic for a given seed >= 0."""
    t0 = time.perf_counter()
    k = _check_budget(p, k)
    seed = count_at_least(seed, 0, "seed")
    rng = np.random.default_rng(seed)
    pick = rng.choice(np.asarray(p.active), size=k, replace=False)
    return _fixed_design("random", p, pick, t0, seed=seed)


def certify_bound(
    greedy_report: SelectionReport, exhaustive_report: SelectionReport
) -> SelectionReport:
    """Attach the greedy optimality certificate from an exhaustive run.

    Both reports must describe the same problem (matching content hash)
    and the same budget.  The ratio phi_greedy / phi_opt must clear
    1 - 1/e up to a tiny slack; anything below would falsify the
    submodular guarantee and raises.
    """
    if greedy_report.problem_hash != exhaustive_report.problem_hash:
        raise ValueError("reports describe different problems (hash mismatch)")
    if greedy_report.k != exhaustive_report.k:
        raise ValueError(
            f"budget mismatch: {greedy_report.k} vs {exhaustive_report.k}"
        )
    opt = exhaustive_report.phi_final
    ratio = certificate_ratio(greedy_report.phi_final, opt)
    if ratio < GUARANTEE_FLOOR - CERTIFICATE_SLACK:
        raise BoundViolationError(
            f"greedy ratio {ratio!r} fell below 1 - 1/e = {GUARANTEE_FLOOR!r}"
        )
    cert = Certificate(opt_phi=opt, ratio=ratio)
    return replace(greedy_report, bound_certificate=cert)


def certificate_ratio(phi: float, opt_phi: float) -> float:
    """phi / opt_phi, and exactly 1 when greedy's phi is the optimum itself."""
    return 1.0 if phi == opt_phi else phi / opt_phi


def _fixed_design(method, p, chosen, t0, seed=None) -> SelectionReport:
    """Report of a fixed design, traced in ascending index order by phi_eig;
    the last prefix, the design itself, gives phi_final (0.0 if empty)."""
    idx = tuple(sorted(int(i) for i in chosen))
    phi = [0.0] + [objective.phi_eig(p, idx[: t + 1]) for t in range(len(idx))]
    steps = [(i, phi[t + 1] - phi[t], phi[t + 1]) for t, i in enumerate(idx)]
    return _finish(method, p, Design(idx), steps, phi[-1], t0, seed=seed)


def _finish(method, p, design, steps, phi_final, t0, seed=None,
            gain_evals=None) -> SelectionReport:
    return SelectionReport(
        method=method,
        chosen=design,
        per_step=tuple(steps),
        phi_final=phi_final,
        eig_final=0.5 * phi_final,
        k=len(design),
        problem_hash=p.content_hash(),
        seed=seed,
        wall_time=time.perf_counter() - t0,
        gain_evals=gain_evals,
    )
