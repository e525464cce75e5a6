"""Subset solvers for cardinality-constrained information-gain maximization.

greedy picks the largest marginal gain k times; lazy_greedy is the same
run under its own method name.  Minoux's stale upper bounds would save
nothing here: every gain falls out of the factor row that a selection
appends anyway, one O(m) residual update per step.  exhaustive finds the
optimum over every size-k subset, under a configurable cap, by a
depth-first search in lexicographic order: a node holds the Schur
residuals of its prefix, so each prefix costs one factor row, shared by
all of its extensions.  Both run on objective.SchurKernel.  Designs
whose kernel value lies within TIE_RTOL of the best, the steps of greedy
and the subsets of exhaustive alike, are re-scored by phi_eig, and exact
ties go to the lexicographically smallest design.  certify_bound
attaches the (1 - 1/e) optimality certificate that monotonicity plus
submodularity guarantee for the greedy value.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import objective
from .model import InverseProblem
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
    r = kern.diag.copy()
    chosen, steps, evals, prev_gain, phi = [], [], 0, math.inf, 0.0
    for t in range(k):
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
        e = kern.add(j, float(r[j]))
        r -= e * e
        r[j] = -math.inf  # selected: never near the maximum again
    return _finish("greedy", p, Design(chosen), steps, k, t0, gain_evals=evals)


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
    size-k subsets are searched, depth first in lexicographic order (see
    _near_optimal).  The subsets whose kernel phi lies within a relative
    TIE_RTOL of the best are re-scored by phi_eig in that order, keeping
    strict improvements, so the reported optimum is the lexicographically
    smallest maximizer of phi_eig.
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
    best = designs[_break_tie(p, designs)]
    steps = _ascending_trace(p, best)
    return _finish("exhaustive", p, Design(best), steps, k, t0)


def _near_optimal(kern: objective.SchurKernel, k: int) -> list[tuple[int, ...]]:
    """Size-k position sets whose kernel phi lies within TIE_RTOL of the best.

    Depth-first over the prefixes in lexicographic order.  Depth t holds
    the Schur residuals res[t] and the phi of a t-element prefix;
    descending to position j appends j's factor row e through the
    SchurKernel.add that greedy calls, and the child has residuals
    res[t] - e * e and phi + log1p(res[t][j]).  At depth k - 1 every leaf
    extension is scored at once.  The band keeps its sets in lexicographic
    order and drops those left behind whenever the best rises.
    """
    if k == 0:
        return [()]
    m = len(kern.active)
    res = np.empty((k, m))
    res[0] = kern.diag
    phi, path, nxt = [0.0] * k, [0] * k, [0] * k
    best, floor, band = -math.inf, -math.inf, []
    t = 0
    while t >= 0:
        r, j = res[t], nxt[t]
        if t == k - 1:
            vals = phi[t] + np.log1p(r[j:])
            top = float(vals.max())
            if top > best:
                best, floor = top, (1.0 - TIE_RTOL) * top
                band = [(v, s) for v, s in band if v >= floor]
            prefix = tuple(path[:t])
            band += [(float(vals[i]), prefix + (j + i,))
                     for i in np.flatnonzero(vals >= floor).tolist()]
            t -= 1
        elif j > m - k + t:  # too few positions left after j
            t -= 1
        else:
            nxt[t], path[t] = j + 1, j
            kern.t = t
            e = kern.add(j, float(r[j]))
            np.subtract(r, e * e, out=res[t + 1])
            phi[t + 1] = phi[t] + math.log1p(r[j])
            nxt[t + 1] = j + 1
            t += 1
    return [s for _, s in band]


def random_baseline(p: InverseProblem, k: int, seed: int) -> SelectionReport:
    """Uniformly random size-k design, deterministic for a given seed."""
    t0 = time.perf_counter()
    k = _check_budget(p, k)
    rng = np.random.default_rng(seed)
    pick = np.sort(rng.choice(np.asarray(p.active), size=k, replace=False))
    steps = _ascending_trace(p, pick)
    return _finish("random", p, Design(pick), steps, k, t0, seed=int(seed))


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


def _ascending_trace(p: InverseProblem, chosen):
    """Per-step trace of a fixed design, added in ascending index order."""
    idx = tuple(sorted(int(i) for i in chosen))
    phi = [0.0] + [objective.phi_eig(p, idx[: t + 1]) for t in range(len(idx))]
    return [(i, phi[t + 1] - phi[t], phi[t + 1]) for t, i in enumerate(idx)]


def _finish(method, p, design, steps, k, t0, seed=None, gain_evals=None) -> SelectionReport:
    phi_final = objective.phi_eig(p, design)
    return SelectionReport(
        method=method,
        chosen=design,
        per_step=tuple(steps),
        phi_final=phi_final,
        eig_final=0.5 * phi_final,
        k=k,
        problem_hash=p.content_hash(),
        seed=seed,
        wall_time=time.perf_counter() - t0,
        gain_evals=gain_evals,
    )
