"""Command line behavior: output text, files, and exit codes."""

import numpy as np
import pytest

import senselect as ss
from senselect import fileio, model
from senselect.cli import main

from conftest import three_sensor_problem

IDENTITY_2 = """\
schema_version 1
n 2
n_s 2
M identity
Gamma_pr identity
F dense
1 0
0 1
sigma
1 1
m_pr
0 0
"""

SCALAR = """\
schema_version 1
n 1
n_s 1
M identity
Gamma_pr identity
F dense
1
sigma
1
m_pr
0
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def identity_file(tmp_path):
    return write(tmp_path, "identity.txt", IDENTITY_2)


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.txt"
    fileio.write_problem(three_sensor_problem(), path)
    return str(path)


def test_eval_single_sensor_prints_log_two(identity_file, capsys):
    assert main(["eval", identity_file, "1"]) == 0
    out = capsys.readouterr().out
    assert "phi_eig 0.693147180560" in out
    assert "eig_nats 0.346573590280" in out


def test_eval_empty_subset_is_zero(identity_file, capsys):
    assert main(["eval", identity_file, ""]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    key, val = first.split()
    assert key == "phi_eig"
    assert float(val) == 0.0


def test_eval_pair_value(pair_file, capsys):
    assert main(["eval", pair_file, "1,3"]) == 0
    assert "phi_eig 2.39789527280" in capsys.readouterr().out


def test_eval_malformed_matrix_row_exits_2(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", IDENTITY_2.replace("1 0\n0 1", "1 zz\n0 1"))
    assert main(["eval", path, "1"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "line 7" in err


DENSE_2 = """\
schema_version 1
n 2
n_s 2
M dense
1 0
0 1
Gamma_pr dense
1 0
0 1
F dense
1 0
0 1
sigma
1 1
m_pr
0 0
"""


@pytest.mark.parametrize(
    "line, value",
    [(5, "inf"), (9, "nan"), (12, "NaN"), (14, "-inf"), (16, "nan")],
    ids=["M", "Gamma_pr", "F", "sigma", "m_pr"],
)
def test_eval_non_finite_problem_value_exits_2(tmp_path, capsys, line, value):
    rows = DENSE_2.splitlines()
    rows[line - 1] = rows[line - 1].split()[0] + " " + value
    path = write(tmp_path, "bad.txt", "\n".join(rows) + "\n")
    assert main(["eval", path, "1"]) == 2
    err = capsys.readouterr().err
    assert f"error: line {line}:" in err
    assert "value 2: not finite" in err


@pytest.mark.parametrize("line, key", [(2, "n"), (3, "n_s")])
def test_eval_size_the_file_cannot_hold_exits_2(tmp_path, capsys, line, key):
    """A size numpy refuses outright, so no version of the parser allocates it."""
    text = DENSE_2.replace(f"\n{key} 2\n", f"\n{key} 99999999999999999999\n")
    path = write(tmp_path, "bad.txt", text)
    assert main(["eval", path, "1"]) == 2
    assert f"error: line {line}: {key} = 99999999999999999999 exceeds" in capsys.readouterr().err


def test_eval_missing_file_exits_2(tmp_path, capsys):
    assert main(["eval", str(tmp_path / "nope.txt"), "1"]) == 2


def test_eval_non_ascii_byte_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(IDENTITY_2.encode("ascii").replace(b"n 2\n", b"n 2\xe9\n", 1))
    assert main(["eval", str(path), "1"]) == 2
    assert "error: line 2: byte 0xe9 is not ASCII" in capsys.readouterr().err


def test_eval_directory_exits_2(tmp_path, capsys):
    assert main(["eval", str(tmp_path), "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_bad_subset_token_exits_2(identity_file, capsys):
    assert main(["eval", identity_file, "1,x"]) == 2


def test_eval_out_of_range_subset_exits_3(identity_file, capsys):
    assert main(["eval", identity_file, "3"]) == 3
    assert "error:" in capsys.readouterr().err


def test_eval_duplicate_subset_exits_3(identity_file, capsys):
    assert main(["eval", identity_file, "1,1"]) == 3


@pytest.mark.parametrize("subset, message", [
    ("0", "subset: sensor 0 out of range [1, 3]"),
    ("99", "subset: sensor 99 out of range [1, 3]"),
    ("1,1", "subset: sensor 1 appears twice"),
], ids=["zero", "too-large", "repeated"])
def test_eval_subset_faults_name_one_based_indices(pair_file, capsys, subset, message):
    assert main(["eval", pair_file, subset]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_eval_inactive_sensor_is_named_one_based(tmp_path, capsys):
    path = write(tmp_path, "inactive.txt", IDENTITY_2.replace("0 1\nsigma", "0 0\nsigma"))
    assert main(["eval", path, "2"]) == 3
    assert capsys.readouterr().err == "error: subset: sensor 2 is inactive (zero forward-map row)\n"


def test_greedy_certify_session(pair_file, capsys):
    assert main(["greedy", pair_file, "2", "--certify"]) == 0
    out = capsys.readouterr().out
    assert "chosen 1 3" in out
    assert "phi_final 2.39789527280" in out
    assert "ratio=1.00000000000" in out
    assert "floor=0.632120558829" in out


def test_greedy_k0_empty(pair_file, capsys):
    assert main(["greedy", pair_file, "0"]) == 0
    out = capsys.readouterr().out
    assert "chosen (empty)" in out


def test_greedy_k_too_large_exits_3(pair_file, capsys):
    assert main(["greedy", pair_file, "4"]) == 3


def test_greedy_gain_guard_exits_5(identity_file, monkeypatch, capsys):
    # equal gains log 2 now count as rising; the guard raises RuntimeError
    monkeypatch.setattr(ss.selection, "GAIN_MONOTONE_TOL", -1.0)
    assert main(["greedy", identity_file, "2"]) == 5
    assert "error: greedy gains increased" in capsys.readouterr().err


def test_greedy_lazy_report_differs_only_in_method(pair_file, tmp_path, capsys):
    a = tmp_path / "plain.txt"
    b = tmp_path / "lazy.txt"
    assert main(["greedy", pair_file, "2", "--out", str(a)]) == 0
    assert main(["greedy", pair_file, "2", "--lazy", "--out", str(b)]) == 0
    plain = a.read_text()
    lazy = b.read_text()
    assert plain != lazy
    assert lazy.replace("method lazy_greedy", "method greedy") == plain


def test_greedy_report_parses_and_hash_matches(pair_file, tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["greedy", pair_file, "2", "--certify", "--out", str(out)]) == 0
    rep = fileio.read_report(out)
    assert rep.payload.chosen.indices == (0, 2)
    assert rep.problem_hash == fileio.read_problem(pair_file).content_hash()
    assert rep.payload.bound_certificate.ratio == 1.0


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "chain", "--n", "20", "--n-s", "10", "--seed", "7", "--out", "{r}"],
    ["eval", "{p}", "1,3"],
    ["greedy", "{p}", "2", "--out", "{r}"],
    ["greedy", "{p}", "2", "--certify", "--out", "{r}"],
    ["exhaustive", "{p}", "2", "--out", "{r}"],
    ["verify", "{p}", "--trials", "5", "--samples", "50", "--out", "{r}"],
], ids=["gen", "eval", "greedy", "greedy-certify", "exhaustive", "verify"])
@pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
def test_each_command_digests_its_problem_once(tmp_path, capsys, monkeypatch, argv, cached):
    """read_problem computes the content hash, checks or stores the cache
    entry with it, and every report reuses it."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    path = tmp_path / "p.txt"
    if cached:
        fileio.write_problem(three_sensor_problem(), path)
    else:
        path.write_text(fileio.problem_text(three_sensor_problem()))
    calls = []
    digest = model.content_digest

    def counted(*arrays):
        calls.append(arrays)
        return digest(*arrays)
    monkeypatch.setattr(model, "content_digest", counted)
    monkeypatch.setattr(fileio, "content_digest", counted)
    assert main([a.format(p=path, r=tmp_path / "out.txt") for a in argv]) == 0
    assert len(calls) == 1


def test_greedy_threads_flag(pair_file, capsys):
    assert main(["greedy", pair_file, "2", "--threads", "3"]) == 0
    assert "chosen 1 3" in capsys.readouterr().out


def test_greedy_out_directory_exits_2(pair_file, tmp_path, capsys):
    assert main(["greedy", pair_file, "1", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_exhaustive_session(pair_file, capsys):
    assert main(["exhaustive", pair_file, "2"]) == 0
    out = capsys.readouterr().out
    assert "chosen 1 3" in out
    assert "phi_final 2.39789527280" in out


def test_exhaustive_cap_exits_4(pair_file, capsys):
    assert main(["exhaustive", pair_file, "2", "--cap", "2"]) == 4
    assert "error:" in capsys.readouterr().err


def test_greedy_certify_cap_exits_4(pair_file, capsys):
    assert main(["greedy", pair_file, "2", "--certify", "--cap", "1"]) == 4


@pytest.mark.parametrize("argv", [["greedy", "2", "--certify"], ["exhaustive", "2"]],
                         ids=["greedy", "exhaustive"])
def test_negative_cap_exits_2(pair_file, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], pair_file, *argv[1:], "--cap", "-1"])
    assert exc.value.code == 2
    assert "argument --cap: must be at least 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["greedy", "exhaustive"])
def test_negative_budget_exits_2(pair_file, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, pair_file, "-1"])
    assert exc.value.code == 2
    assert "argument k: must be at least 0, got -1" in capsys.readouterr().err


def test_verify_scalar_session(tmp_path, capsys):
    path = write(tmp_path, "scalar.txt", SCALAR)
    code = main(["verify", path, "--trials", "20", "--samples", "400", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "monotone trials=20 violations=0" in out
    assert "within_3se=yes" in out
    assert "all checks passed" in out


def test_verify_writes_round_trippable_report(tmp_path, capsys):
    path = write(tmp_path, "scalar.txt", SCALAR)
    out = tmp_path / "verify.txt"
    code = main(
        ["verify", path, "--trials", "10", "--samples", "100", "--seed", "1",
         "--out", str(out)]
    )
    assert code == 0
    rep = fileio.read_report(out)
    assert rep.kind == "verification"
    assert rep.payload.ok


@pytest.mark.parametrize("flag, value", [("--trials", "-3"), ("--samples", "0"),
                                         ("--samples", "1"), ("--seed", "-1")])
def test_verify_bad_count_exits_2(tmp_path, capsys, flag, value):
    path = write(tmp_path, "scalar.txt", SCALAR)
    with pytest.raises(SystemExit) as exc:
        main(["verify", path, flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least" in capsys.readouterr().err


def test_gen_then_greedy_pipeline(tmp_path, capsys):
    problem = tmp_path / "chain.txt"
    code = main(
        ["gen", "--kind", "chain", "--n", "20", "--n-s", "10", "--seed", "7",
         "--out", str(problem)]
    )
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    assert main(["greedy", str(problem), "3"]) == 0
    out = capsys.readouterr().out
    assert "chosen 1 2 10" in out
    assert "phi_final 6.84195132118" in out


def test_gen_random_deterministic_bytes(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    args = ["gen", "--kind", "random", "--n", "5", "--n-s", "6", "--seed", "11"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_chain_sensor_nodes_flag(tmp_path, capsys):
    problem = tmp_path / "twin.txt"
    code = main(
        ["gen", "--kind", "chain", "--n", "10", "--n-s", "3", "--seed", "0",
         "--sensor-nodes", "4,4,7", "--out", str(problem)]
    )
    assert code == 0
    p = fileio.read_problem(problem)
    assert np.array_equal(p.F[0], p.F[1])


def test_gen_bad_sensor_node_token_exits_2(tmp_path, capsys):
    problem = tmp_path / "x.prob"
    code = main(
        ["gen", "--kind", "chain", "--n", "10", "--n-s", "3", "--sensor-nodes", "4,x",
         "--out", str(problem)]
    )
    assert code == 2
    assert "error: --sensor-nodes: not an integer: 'x'" in capsys.readouterr().err
    assert not problem.exists()


def test_gen_invalid_chain_exits_3(tmp_path, capsys):
    code = main(
        ["gen", "--kind", "chain", "--n", "5", "--n-s", "9", "--out",
         str(tmp_path / "x.txt")]
    )
    assert code == 3


@pytest.mark.parametrize("extra", [[], ["--sensor-nodes", ""]], ids=["spread", "pinned"])
def test_gen_chain_without_sensors_exits_3(tmp_path, capsys, extra):
    """The reader refuses a problem with no sensor, so gen must not write one."""
    out = tmp_path / "x.prob"
    code = main(["gen", "--kind", "chain", "--n", "5", "--n-s", "0", *extra, "--out", str(out)])
    assert code == 3
    assert "error: chain problems need n_s >= 1 sensors, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_gen_negative_seed(tmp_path, capsys):
    """A random problem refuses it by name; a chain ignores its seed."""
    out = tmp_path / "x.prob"
    args = ["--n", "5", "--n-s", "2", "--seed", "-1", "--out", str(out)]
    assert main(["gen", "--kind", "random", *args]) == 3
    assert "error: seed must be at least 0, got -1" in capsys.readouterr().err
    assert not out.exists()
    assert main(["gen", "--kind", "chain", *args]) == 0
    assert fileio.read_problem(out).n_s == 2


def test_gen_out_directory_exits_2(tmp_path, capsys):
    code = main(["gen", "--kind", "chain", "--n", "5", "--n-s", "2", "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind, param, value", [
    ("random", "conditioning", "nan"),
    ("random", "conditioning", "inf"),
    ("chain", "diffusivity", "nan"),
    ("chain", "prior_weight", "inf"),
    ("chain", "element_size", "nan"),
])
def test_gen_non_finite_parameter_exits_3(tmp_path, capsys, kind, param, value):
    out = tmp_path / "x.txt"
    flag = "--" + param.replace("_", "-")
    code = main(["gen", "--kind", kind, "--n", "5", "--n-s", "2", f"{flag}={value}",
                 "--out", str(out)])
    assert code == 3
    assert f"error: {param} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
