"""Tests of the benchmark's own arithmetic and output checks.

    python3 -m pytest bench

They are not part of the package's test suite (pyproject's testpaths).
"""

import math
import os
import sys
from dataclasses import replace

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import senselect as ss  # noqa: E402
from checks import Oracle, check_outputs, check_selection  # noqa: E402
from measure import Span, self_times, summarize, tail_percentile  # noqa: E402
from workloads import README_STDOUT, build  # noqa: E402


def test_self_time_on_hand_built_tree():
    spans = [
        Span(0, "cli.greedy", 0.0, 10.0, None, 0),
        Span(1, "fileio.read_problem", 1.0, 4.0, 0, 0),
        Span(2, "model.build_problem", 2.0, 3.0, 1, 0),
        Span(3, "selection.greedy", 3.0, 6.0, 0, 0),   # overlaps span 1
        Span(4, "fileio.write_report", 8.0, 12.0, 0, 0),  # overruns its parent
        Span(5, "cli.eval", 20.0, 21.5, None, 1),
    ]
    got = self_times(spans)
    # the root's children cover [1, 6] and [8, 10] of its [0, 10]
    assert got == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 4.0, 5: 1.5})


def test_percentile_rule_falls_back_to_the_median():
    assert tail_percentile(5) == 50.0
    assert tail_percentile(99) == 50.0   # p90 would have 9.9 samples beyond it
    assert tail_percentile(100) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9
    s = summarize([5.0, 1.0, 4.0, 2.0, 3.0])
    assert (s["median"], s["p"], s["p_value"], s["n"]) == (3.0, 50.0, 3.0, 5)
    s = summarize(range(1, 101))
    assert (s["p"], s["p_value"]) == (90.0, 90)


@pytest.fixture(scope="module")
def readme_session(tmp_path_factory):
    """Files of the README session's gen and greedy --certify, written by senselect."""
    d = tmp_path_factory.mktemp("readme")
    p = ss.generate(ss.ProblemSpec(kind="chain", n=20, n_s=10, seed=7))
    ss.write_problem(p, d / "chain.prob")
    report = ss.certify_bound(ss.greedy(p, 3), ss.exhaustive(p, 3))
    ss.write_report(report, d / "run.report")
    files = {name: (d / name).read_bytes() for name in ("chain.prob", "run.report")}
    return files, Oracle(d / "chain.prob")


def _session_check(files, oracle, reference):
    wl = build("certify-verify", seed=0, nproc=1)
    # only the README commands whose files the fixture wrote
    wl = replace(wl, commands=wl.commands[:2])
    return {label: msgs for label, msgs in
            check_outputs(wl, files, {"chain.prob": oracle}, reference).items() if msgs}


def _replace_line(text, key, new):
    return "\n".join(new if line.startswith(key + " ") else line
                     for line in text.split("\n"))


def test_unmodified_report_passes(readme_session):
    files, oracle = readme_session
    text = files["run.report"].decode()
    assert check_selection(text, 3, oracle, certify=True) == []
    assert _session_check(files, oracle, reference=dict(files)) == {}


def test_flipped_digit_in_phi_final_fails(readme_session):
    files, oracle = readme_session
    text = files["run.report"].decode()
    value = next(line for line in text.split("\n") if line.startswith("phi_final "))[10:]
    digits = [i for i, c in enumerate(value) if c.isdigit()]
    for pos in digits:
        flipped = value[:pos] + str((int(value[pos]) + 1) % 10) + value[pos + 1:]
        bad_text = _replace_line(text, "phi_final", f"phi_final {flipped}")
        bad_files = dict(files, **{"run.report": bad_text.encode()})
        assert _session_check(bad_files, oracle, reference=files), pos
        if pos < 6:
            # a visible change must fail on its own, without a reference
            assert check_selection(bad_text, 3, oracle, certify=True), pos


def test_swapped_step_lines_fail(readme_session):
    files, oracle = readme_session
    lines = files["run.report"].decode().split("\n")
    first = lines.index(next(line for line in lines if line.startswith("steps "))) + 1
    lines[first], lines[first + 1] = lines[first + 1], lines[first]
    bad_text = "\n".join(lines)
    assert check_selection(bad_text, 3, oracle, certify=True)
    bad_files = dict(files, **{"run.report": bad_text.encode()})
    assert _session_check(bad_files, oracle, reference=None)


def test_oracle_matches_the_objective(readme_session):
    _, oracle = readme_session
    p = ss.generate(ss.ProblemSpec(kind="chain", n=20, n_s=10, seed=7))
    for subset in [(0,), (0, 1, 9), (2, 4, 6, 8)]:
        assert oracle(subset) == pytest.approx(ss.phi_eig(p, subset), rel=1e-12)
    assert math.isclose(oracle((0, 1, 9)), 6.84195132118, rel_tol=1e-11)


def test_lazy_report_must_match_plain_beyond_method(tmp_path):
    p = ss.generate(ss.ProblemSpec(kind="random", n=12, n_s=15, seed=3))
    ss.write_problem(p, tmp_path / "P")
    for name, run in (("R.greedy", ss.greedy), ("R.lazy", ss.lazy_greedy),
                      ("R.threads", ss.greedy)):
        ss.write_report(run(p, 4), tmp_path / name)
    files = {n: (tmp_path / n).read_bytes() for n in ("P", "R.greedy", "R.lazy", "R.threads")}
    wl = build("greedy-dense", seed=0, nproc=2)
    wl = replace(wl, commands=tuple(replace(c, k=4) if c.k else c for c in wl.commands))
    oracles = {"P": Oracle(tmp_path / "P")}
    assert not any(check_outputs(wl, files, oracles).values())
    lazy = files["R.lazy"].decode().split("\n")
    last = len(lazy) - 2   # the final step line
    idx, gain, phi = lazy[last].split()
    lazy[last] = f"{idx} {gain[:-1]}{(int(gain[-1]) + 1) % 10} {phi}"
    bad = check_outputs(wl, dict(files, **{"R.lazy": "\n".join(lazy).encode()}), oracles)
    assert bad["lazy"] and not bad["greedy"]


def test_readme_stdout_must_match(readme_session):
    files, oracle = readme_session
    wl = build("certify-verify", seed=0, nproc=1)
    wl = replace(wl, commands=wl.commands[:2])
    stdout = {label: "\n".join(lines) + "\n" for label, lines in README_STDOUT.items()
              if label in ("readme_gen", "readme_certify")}
    assert not any(check_outputs(wl, files, {"chain.prob": oracle}, None, stdout).values())
    stdout["readme_certify"] = stdout["readme_certify"].replace("chosen 1 2 10", "chosen 1 2 9")
    bad = check_outputs(wl, files, {"chain.prob": oracle}, None, stdout)
    assert bad["readme_certify"] == ["stdout differs from README"] and not bad["readme_gen"]
