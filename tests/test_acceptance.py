"""Acceptance criteria, one test per criterion.

Each test enforces its stated tolerance and its runtime budget, so
`pytest -v tests/test_acceptance.py` prints one pass/fail line per
criterion.  Instance families are regenerated from fixed base seeds;
criterion 9 revisits exactly the instances of criteria 2 through 4.
Run with -s to see the informational summary lines.
"""

import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import senselect as ss

from conftest import identity_problem, random_problem, scalar_problem


def _mixed(rng, idx, max_n, max_ns, min_ns=2):
    """One deterministic instance, alternating the two generator families."""
    seed = int(rng.integers(0, 2**31))
    if idx % 2 == 0:
        n = int(rng.integers(2, max_n + 1))
        n_s = int(rng.integers(min_ns, max_ns + 1))
        return ss.generate(ss.ProblemSpec("random", n=n, n_s=n_s, seed=seed))
    n = int(rng.integers(max(4, min_ns + 2), max_n + 1))
    n_s = int(rng.integers(min_ns, min(max_ns, n - 2) + 1))
    spec = ss.ProblemSpec(
        "chain",
        n=n,
        n_s=n_s,
        seed=seed,
        diffusivity=float(np.exp(rng.uniform(np.log(0.3), np.log(3.0)))),
        prior_weight=float(np.exp(rng.uniform(np.log(0.02), np.log(0.5)))),
    )
    return ss.generate(spec)


def family_monotone():
    """500 instances with n <= 8, n_s <= 10 for criteria 2 and 9."""
    for i in range(500):
        yield _mixed(np.random.default_rng(20000 + i), i, max_n=8, max_ns=10)


def family_submodular():
    """50 instances with n_s <= 7 for criteria 3 and 9."""
    for i in range(50):
        yield _mixed(np.random.default_rng(30000 + i), i, max_n=8, max_ns=7)


def family_guarantee():
    """100 instances with n_s <= 12 and a budget k <= 5 for criteria 4 and 9."""
    for i in range(100):
        rng = np.random.default_rng(40000 + i)
        p = _mixed(rng, i, max_n=8, max_ns=12, min_ns=3)
        k = int(rng.integers(1, min(5, p.n_s) + 1))
        yield p, k


def test_criterion_01_empty_design_value_is_zero():
    problems = [
        identity_problem(3),
        scalar_problem(),
        random_problem(np.random.default_rng(1), 5, 4),
        ss.generate(ss.ProblemSpec("chain", n=9, n_s=4, seed=0)),
    ]
    for p in problems:
        assert ss.phi_eig(p, ()) == 0.0  # exact, no tolerance


def test_criterion_02_strict_monotonicity_500_instances():
    t0 = time.perf_counter()
    min_gain = math.inf
    max_err = 0.0
    for i, p in enumerate(family_monotone()):
        rep = ss.check_monotone(p, trials=4, seed=20000 + i)
        assert rep.violations == 0, f"instance {i}: {rep}"
        min_gain = min(min_gain, rep.min_gain)
        max_err = max(max_err, rep.max_formula_err)
    assert min_gain > 0.0
    assert max_err <= 1e-9
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: min gain {min_gain:.3e}, max formula err {max_err:.3e}, "
          f"{elapsed:.2f}s")
    assert elapsed < 10.0


def test_criterion_03_submodularity_exhaustive_50_instances():
    t0 = time.perf_counter()
    max_breach = -math.inf
    max_err = 0.0
    checks = 0
    for i, p in enumerate(family_submodular()):
        rep = ss.check_submodular(p, mode="exhaustive")
        assert rep.violations == 0, f"instance {i}: {rep}"
        assert rep.max_breach <= 1e-9
        assert rep.max_formula_err <= 1e-9
        max_breach = max(max_breach, rep.max_breach)
        max_err = max(max_err, rep.max_formula_err)
        checks += rep.checks
    elapsed = time.perf_counter() - t0
    print(f"criterion 3: {checks} checks, max breach {max_breach:.3e}, "
          f"max formula err {max_err:.3e}, {elapsed:.2f}s")
    assert elapsed < 60.0


def test_criterion_04_greedy_guarantee_100_instances():
    t0 = time.perf_counter()
    floor = 1.0 - 1.0 / math.e
    min_ratio = math.inf
    for i, (p, k) in enumerate(family_guarantee()):
        certified = ss.certify_bound(ss.greedy(p, k), ss.exhaustive(p, k))
        ratio = certified.bound_certificate.ratio
        assert ratio >= floor - 1e-12, f"instance {i}: ratio {ratio}"
        assert ratio <= 1.0 + 1e-12
        min_ratio = min(min_ratio, ratio)
    elapsed = time.perf_counter() - t0
    # the empirical min is informational; the gate is the proved floor
    print(f"criterion 4: empirical min ratio {min_ratio:.6f} "
          f"(floor {floor:.6f}), {elapsed:.2f}s")
    assert min_ratio >= floor - 1e-12
    assert elapsed < 300.0


def test_criterion_05_incremental_update_fidelity():
    t0 = time.perf_counter()
    for trial in range(20):
        rng = np.random.default_rng(50000 + trial)
        p = random_problem(rng, 15, 25)
        state = ss.design_state(p)
        for v in rng.permutation(25)[:20]:
            state = ss.extend(state, int(v))
        dense = ss.phi_eig(p, state.design)
        assert abs(state.phi - dense) <= 1e-8 * max(1.0, abs(dense))
        cols = list(state.design)
        a = np.eye(15) + p.precond_vecs[:, cols] @ (p.space.M @ p.precond_vecs[:, cols]).T
        resid = float(np.abs(state.info_inv.rep @ a - np.eye(15)).max())
        assert resid <= 1e-8
    elapsed = time.perf_counter() - t0
    print(f"criterion 5: 20 runs of 20 extends, {elapsed:.2f}s")
    assert elapsed < 5.0


def test_criterion_06_monte_carlo_matches_analytic_eig():
    t0 = time.perf_counter()
    p = scalar_problem()
    est = ss.mc_eig(p, (0,), n_samples=100000, seed=60001)
    target = 0.5 * math.log(2.0)
    assert target == pytest.approx(0.34657, abs=5e-6)
    assert abs(est.mean_kl - target) <= 3.0 * est.std_error

    q = random_problem(np.random.default_rng(60002), 4, 5)
    s = (0, 2, 3)
    est2 = ss.mc_eig(q, s, n_samples=100000, seed=60003)
    target2 = 0.5 * ss.phi_eig(q, s)
    assert abs(est2.mean_kl - target2) <= 3.0 * est2.std_error
    elapsed = time.perf_counter() - t0
    print(f"criterion 6: scalar {est.mean_kl:.5f}+-{est.std_error:.5f} vs {target:.5f}; "
          f"n=4 {est2.mean_kl:.5f}+-{est2.std_error:.5f} vs {target2:.5f}; "
          f"{elapsed:.2f}s")
    assert elapsed < 30.0


def test_criterion_07_rank_one_identities_200_spaces():
    t0 = time.perf_counter()
    rng = np.random.default_rng(70000)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        m_factor = rng.standard_normal((n, n))
        m = m_factor @ m_factor.T + n * np.eye(n)
        space = ss.WeightedSpace(m)
        base = rng.standard_normal((n, n))
        a_rep = np.linalg.solve(m, base @ base.T + n * np.eye(n))
        a = ss.Operator(space, a_rep)
        a_inv = ss.Operator(space, np.linalg.inv(a_rep))
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)

        updated = a_rep + np.outer(u, v) @ m
        factor = ss.rank1_det_factor(a, u, v)
        dense_ratio = np.linalg.det(updated) / np.linalg.det(a_rep)
        assert abs(factor - dense_ratio) <= 1e-9 * max(1.0, abs(dense_ratio))

        if abs(factor) > 1e-6:  # keep the inverse well defined
            got = ss.rank1_inverse_update(a_inv, u, v)
            want = np.linalg.inv(updated)
            scale = max(1.0, float(np.abs(want).max()))
            assert float(np.abs(got.rep - want).max()) <= 1e-9 * scale
    elapsed = time.perf_counter() - t0
    print(f"criterion 7: 200 spaces, {elapsed:.2f}s")
    assert elapsed < 5.0


def _run_python(args, cwd, **env):
    # the child runs in cwd, so point it at the package under test by an
    # absolute path; a relative PYTHONPATH would not resolve there
    src = str(Path(ss.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run_cli(args, cwd, **env):
    return _run_python(["-m", "senselect", *args], cwd, **env)


def _readme_session():
    """(argv, stdout lines) of every `$ senselect` command shown in README.md."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    return [
        (line.split()[2:], list(itertools.takewhile(lambda s: s and s != "```", lines[i + 1:])))
        for i, line in enumerate(lines)
        if line.startswith("$ senselect ")
    ]


def test_criterion_08_byte_identical_reports_across_runs(tmp_path):
    problem = tmp_path / "chain.txt"
    gen = ["gen", "--kind", "chain", "--n", "14", "--n-s", "7", "--seed", "5",
           "--out", str(problem)]
    _run_cli(gen, tmp_path)
    first_problem = problem.read_bytes()
    _run_cli(gen, tmp_path)
    assert problem.read_bytes() == first_problem

    out = tmp_path / "greedy.txt"
    run = ["greedy", str(problem), "3", "--certify", "--out", str(out)]
    stdout_a = _run_cli(run, tmp_path)
    report_a = out.read_bytes()
    stdout_b = _run_cli(run, tmp_path)
    assert out.read_bytes() == report_a
    assert stdout_a == stdout_b

    vout = tmp_path / "verify.txt"
    vrun = ["verify", str(problem), "--trials", "25", "--samples", "200",
            "--seed", "9", "--out", str(vout)]
    _run_cli(vrun, tmp_path)
    verify_a = vout.read_bytes()
    _run_cli(vrun, tmp_path)
    assert vout.read_bytes() == verify_a


def test_criterion_09_greedy_lazy_identical_on_all_campaign_instances():
    t0 = time.perf_counter()
    count = 0

    def compare(p, k):
        nonlocal count
        g = ss.greedy(p, k)
        l = ss.lazy_greedy(p, k)
        assert g.chosen == l.chosen
        assert g.per_step == l.per_step  # bitwise: same gains, same order
        assert g.phi_final == l.phi_final
        count += 1

    for p in family_monotone():
        compare(p, min(3, len(p.active)))
    for p in family_submodular():
        compare(p, min(3, len(p.active)))
    for p, k in family_guarantee():
        compare(p, k)
    elapsed = time.perf_counter() - t0
    print(f"criterion 9: {count} instances compared, {elapsed:.2f}s")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_readme_session_stdout_under_blas_threads(tmp_path, threads):
    """README's gen, greedy --certify and eval print README's lines.

    The greedy step order of the README chain is decided by rounding (its
    mirror-image sensors differ by a few ulps of phi), so it is pinned
    under 1 and 2 BLAS threads.
    """
    session = [(a, out) for a, out in _readme_session() if a[0] in ("gen", "greedy", "eval")]
    assert [a[0] for a, _ in session] == ["gen", "greedy", "eval"]
    for argv, want in session:
        assert _run_cli(argv, tmp_path, OPENBLAS_NUM_THREADS=threads).splitlines() == want


def test_cli_never_imports_scipy(tmp_path):
    """The CLI imports numpy only, and a full session loads nothing more."""
    code = """
import sys
import senselect.cli
assert "scipy" not in sys.modules, "import senselect.cli loaded scipy"
for argv in (
    ["gen", "--kind", "chain", "--n", "20", "--n-s", "10", "--seed", "7", "--out", "c.prob"],
    ["greedy", "c.prob", "3", "--certify", "--out", "g.report"],
    ["verify", "c.prob", "--trials", "5", "--samples", "200", "--seed", "3", "--out", "v.report"],
):
    assert senselect.cli.main(argv) == 0, argv
assert "scipy" not in sys.modules, "a CLI session loaded scipy"
"""
    _run_python(["-c", code], tmp_path)
