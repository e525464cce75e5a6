"""Traced run: the same sessions replayed in-process, plus kernel probes.

Every command becomes a `cli.<subcommand>` span whose children wrap the
calls into each module's public functions, made the way the CLI makes
them.  `verify` is replayed as its three public parts (check_monotone,
check_submodular, mc_eig with seeds seed, seed + 1, seed + 2), which is
the work verification_run does.  Probes then call single kernels a fixed
number of times at the sizes of the workload's main part and report the
time per call.  Span metrics of another part carry its name as a prefix,
as in `chain.selection.exhaustive_s`.

Counts marked "computed" below follow from the sizes alone; they are not
observed in the program.  Lazy greedy's real number of gain evaluations
cannot be seen from outside the program, so it is not reported.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np
from senselect import fileio, model, objective, problems, selection, verify, wspace

from checks import check_outputs, load_oracles, parse_selection, read_outputs
from measure import Tracer, self_times


def replay_session(tr: Tracer, workload, sdir: str) -> None:
    for cmd in workload.commands:
        path = os.path.join(sdir, cmd.problem)
        tr.part = cmd.part
        with tr.span(f"cli.{cmd.sub}"):
            if cmd.sub == "gen":
                spec = problems.ProblemSpec(kind=cmd.kind, n=cmd.n, n_s=cmd.n_s, seed=cmd.seed)
                with tr.span("problems.generate"):
                    p = problems.generate(spec)
                with tr.span("fileio.write_problem"):
                    fileio.write_problem(p, path)
                continue
            with tr.span("fileio.read_problem"):
                p = fileio.read_problem(path)
            out = os.path.join(sdir, cmd.out) if cmd.out else None
            if cmd.sub == "greedy":
                if cmd.lazy:
                    name, run = "selection.lazy_greedy", selection.lazy_greedy
                elif cmd.threads is not None:
                    name, run = "selection.greedy_threads", selection.greedy
                else:
                    name, run = "selection.greedy", selection.greedy
                with tr.span(name):
                    report = run(p, cmd.k, threads=cmd.threads or 1)
                if cmd.certify:
                    with tr.span("selection.exhaustive"):
                        opt = selection.exhaustive(p, cmd.k)
                    with tr.span("selection.certify_bound"):
                        report = selection.certify_bound(report, opt)
                with tr.span("fileio.write_report"):
                    fileio.write_report(report, out)
            elif cmd.sub == "eval":
                subset = tuple(int(t) - 1 for t in cmd.subset.split(","))
                with tr.span("objective.phi_eig"):
                    objective.phi_eig(p, subset)
            elif cmd.sub == "verify":
                with tr.span("verify.check_monotone"):
                    mono = verify.check_monotone(p, trials=cmd.trials, seed=cmd.seed)
                with tr.span("verify.check_submodular"):
                    sub = verify.check_submodular(p, mode="auto", trials=cmd.trials,
                                                  seed=cmd.seed + 1)
                design = p.active
                with tr.span("verify.mc_eig"):
                    est = verify.mc_eig(p, design, cmd.samples, cmd.seed + 2)
                with tr.span("objective.phi_eig"):
                    target = 0.5 * objective.phi_eig(p, design)
                tol = 3.0 * est.std_error if est.std_error > 0 else 1e-12
                summary = verify.VerificationSummary(
                    mono, sub, est, tuple(design), target,
                    abs(est.mean_kl - target) <= tol, cmd.seed)
                with tr.span("fileio.write_report"):
                    fileio.write_report(summary, out, problem_hash=p.content_hash())


def _per_call(fn, reps: int, batch: int = 1, scale: float = 1.0) -> list[float]:
    """Seconds per call (times scale) of `reps` timed batches of `batch` calls."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        times.append(scale * (time.perf_counter() - t0) / batch)
    return times


def _array_bytes(obj, seen=None, depth=0) -> int:
    """Sum of nbytes of the numpy arrays reachable from obj's attributes."""
    seen = set() if seen is None else seen
    if id(obj) in seen or depth > 4:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(x, seen, depth + 1) for x in obj)
    if hasattr(obj, "__dict__") and type(obj).__module__.startswith("senselect"):
        return sum(_array_bytes(x, seen, depth + 1) for x in vars(obj).values())
    return 0


def probes(path, p, order, k: int) -> dict:
    """Fixed-size kernel probes, as lists of per-call samples.

    `order` is greedy's selection order; state-dependent probes start from
    the design after k // 2 greedy steps.
    """
    n = p.n
    m = {}

    def build():
        # what read_problem does after parsing the text
        model.build_problem(wspace.WeightedSpace(p.space.M), p.F, p.sigma, p.m_pr,
                            p.gamma_pr.rep)
    # interleaved, so that both sides of read - build see the same machine
    reads, builds = [], []
    for _ in range(3):
        reads += _per_call(lambda: fileio.read_problem(path), 1)
        builds += _per_call(build, 1)
    m["model.build_problem_s"] = builds
    m["fileio.parse_s"] = [r - b for r, b in zip(reads, builds)]
    active = list(p.active)
    y = np.zeros(len(active))
    m["model.posterior_ms"] = _per_call(lambda: model.posterior(p, active, y), 10, scale=1e3)

    half = order[: k // 2]
    state = objective.design_state(p, half)
    rest = [v for v in active if v not in half]
    cycle = [rest[i % len(rest)] for i in range(200)]

    def gains():
        for v in cycle:
            objective.marginal_gain(state, v)
    m["objective.gain_us"] = _per_call(gains, 5, scale=1e6 / len(cycle))
    m["objective.gain_flops"] = [2.0 * n * n]
    m["objective.gain_bytes"] = [8.0 * n * n]
    m["objective.extend_ms"] = _per_call(lambda: objective.extend(state, rest[0]), 20,
                                         scale=1e3)
    u = p.F[active[0]]
    m["wspace.rank1_inverse_update_ms"] = _per_call(
        lambda: wspace.rank1_inverse_update(state.info_inv, u, u), 20, scale=1e3)
    m["objective.phi_eig_us"] = _per_call(lambda: objective.phi_eig(p, order), 5, 20,
                                          scale=1e6)
    m["objective.design_state_ms"] = _per_call(lambda: objective.design_state(p, half), 10,
                                               scale=1e3)

    period = getattr(objective, "REFACTOR_PERIOD", None)
    if period is not None and len(order) >= period:
        s = objective.design_state(p)
        for v in order[: period - 1]:
            s = objective.extend(s, v)
        m["objective.refactor_ms"] = _per_call(
            lambda: objective.extend(s, order[period - 1]), 5, scale=1e3)
    return m


def cli_timings(env, reps: int = 5) -> dict:
    """Wall time of `--help` and of importing senselect.cli, in fresh interpreters."""
    help_times, import_times = [], []
    code = ("import time; t = time.perf_counter(); import senselect.cli; "
            "print(time.perf_counter() - t)")
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "senselect", "--help"], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        help_times.append(time.perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        import_times.append(float(out))
    return {"cli.startup_s": help_times, "cli.import_s": import_times}


def run(workload, workdir, env, seconds: float, deadline: float) -> dict:
    tr = Tracer()
    attempted = failed = 0
    failures = []
    reference = oracles = None
    session_totals = []
    t_start = time.perf_counter()
    session = 0
    sdir = None
    while True:
        tr.session = session
        sdir = os.path.join(workdir, f"s{session}")
        os.makedirs(sdir)
        first = len(tr.spans)
        replay_session(tr, workload, sdir)
        session_totals.append(sum(s.duration for s in tr.spans[first:] if s.parent is None))

        files = read_outputs(workload, sdir)
        tr.part = ""
        with tr.span("bench.check"):
            for cmd in workload.commands:
                if cmd.out:
                    tr.part = cmd.part
                    with tr.span("fileio.read_report"):
                        fileio.read_report(os.path.join(sdir, cmd.out))
        bad = {cmd.label: [] for cmd in workload.commands}
        if oracles is None:
            oracles = load_oracles(workload, sdir, bad)
        for label, msgs in check_outputs(workload, files, oracles, reference).items():
            bad[label] += msgs
        attempted += len(workload.commands)
        failed += sum(1 for msgs in bad.values() if msgs)
        failures += [f"session {session} {label}: {m}" for label, msgs in bad.items()
                     for m in msgs]
        if reference is None:
            reference = files
        session += 1
        now = time.perf_counter()
        typical = statistics.median(session_totals)
        if now - t_start + typical > seconds or now + typical > deadline:
            break
        shutil.rmtree(sdir)

    # single-layer numbers from the last session's files; every metric is a
    # list of samples (span durations, probe calls, or one derived value)
    greedy_cmd = workload.main("greedy")
    problem_path = os.path.join(sdir, greedy_cmd.problem)
    m = {"fileio.problem_bytes": [float(os.path.getsize(problem_path))]}
    tracemalloc.start()
    p = fileio.read_problem(problem_path)
    m["fileio.read_problem_peak_mb"] = [tracemalloc.get_traced_memory()[1] / 2**20]
    tracemalloc.stop()
    m["model.cached_mb"] = [_array_bytes(p) / 2**20]

    with open(os.path.join(sdir, greedy_cmd.out), encoding="ascii") as fh:
        order = [i for i, _, _ in parse_selection(fh.read())["steps"]]
    k = greedy_cmd.k
    m.update(probes(problem_path, p, order, k))
    m.update(cli_timings(env))

    for s in tr.spans:
        if s.name.split(".", 1)[0] in ("problems", "fileio", "selection", "verify"):
            prefix = f"{s.part}." if s.part else ""
            m.setdefault(f"{prefix}{s.name}_s", []).append(s.duration)
    med = {name: statistics.median(vals) for name, vals in m.items()}

    computed = {"objective.gain_flops", "objective.gain_bytes",
                "selection.greedy_gain_evals"}
    m["selection.greedy_gain_evals"] = [float(sum(len(p.active) - t for t in range(k)))]
    for cmd in workload.commands:
        prefix = f"{cmd.part}." if cmd.part else ""
        if cmd.sub == "greedy" and cmd.certify:
            n_active = len(fileio.read_problem(os.path.join(sdir, cmd.problem)).active)
            subsets = float(math.comb(n_active, cmd.k))
            m[f"{prefix}selection.exhaustive_subsets"] = [subsets]
            m[f"{prefix}selection.exhaustive_subsets_per_s"] = [
                subsets / med[f"{prefix}selection.exhaustive_s"]]
            computed.add(f"{prefix}selection.exhaustive_subsets")
        elif cmd.sub == "verify":
            m[f"{prefix}verify.mc_us_per_sample"] = [
                1e6 * med[f"{prefix}verify.mc_eig_s"] / cmd.samples]
            with open(os.path.join(sdir, cmd.out), encoding="ascii") as fh:
                fields = dict(line.split(None, 1) for line in fh if line.strip())
            m[f"{prefix}verify.submodular_checks"] = [float(fields["submodular_checks"])]
    m["traced.session_s"] = session_totals

    # self time per layer, summed within each session, over the replayed
    # commands only (the output checks are excluded)
    selfs = self_times(tr.spans)
    per_session: dict[str, list[float]] = {}
    for s in tr.spans:
        root = s
        while root.parent is not None:
            root = tr.spans[root.parent]
        if root.name.startswith("cli."):
            layer = per_session.setdefault(s.name.split(".", 1)[0], [0.0] * session)
            layer[s.session] += selfs[s.id]
    return {"metrics": m, "computed": computed, "layer_self_s": per_session,
            "attempted": attempted, "failed": failed, "failures": failures,
            "sessions": session, "spans": tr.spans}
