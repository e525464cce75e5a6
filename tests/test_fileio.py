"""Problem and report file round trips, shorthand forms, and parse errors."""

import hashlib
import io
import os
import re
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import senselect as ss
from senselect import fileio, model, numtext

from conftest import (identity_problem, piped, random_problem, report_fields,
                      three_sensor_problem)

GOOD = """\
schema_version 1
n 2
n_s 3
M identity
Gamma_pr identity
F dense
2 0
0 1
1 1
sigma
1 1 1
m_pr
0 0
"""


def test_parse_round_trip_identity_example():
    p = fileio.parse_problem_text(GOOD)
    assert p.n == 2 and p.n_s == 3
    assert np.array_equal(p.F, np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    assert fileio.problem_text(p) == fileio.problem_text(three_sensor_problem())


def test_problem_text_uses_identity_shorthand():
    text = fileio.problem_text(identity_problem(3))
    assert "M identity" in text
    assert "Gamma_pr identity" in text
    assert "F dense" in text


def test_only_a_bitwise_identity_is_written_identity():
    """A block equal to I that holds a -0.0 is written dense, and reads back
    with its -0.0: the file keeps every bit of the problem."""
    p = _signed_zero_problem()
    text = fileio.problem_text(p)
    assert "M dense\n1 -0 0\n-0 1 0\n0 0 1\n" in text
    assert "Gamma_pr identity\n" in text
    q = fileio.parse_problem_text(text)
    assert q.space.M.tobytes() == p.space.M.tobytes()
    assert q.content_hash() == p.content_hash()


def test_problem_text_dense_weight():
    rng = np.random.default_rng(91)
    p = random_problem(rng, 3, 2)
    text = fileio.problem_text(p)
    assert "M dense" in text
    assert "Gamma_pr dense" in text


def test_problem_file_round_trip_is_byte_stable(tmp_path):
    rng = np.random.default_rng(92)
    p = random_problem(rng, 4, 6)
    path = tmp_path / "problem.txt"
    fileio.write_problem(p, path)
    q = fileio.read_problem(path)
    assert np.array_equal(p.space.M, q.space.M)
    assert np.array_equal(p.F, q.F)
    assert np.array_equal(p.sigma, q.sigma)
    assert np.array_equal(p.m_pr, q.m_pr)
    assert np.array_equal(p.gamma_pr.rep, q.gamma_pr.rep)
    assert q.content_hash() == p.content_hash()
    path2 = tmp_path / "again.txt"
    fileio.write_problem(q, path2)
    assert path.read_bytes() == path2.read_bytes()


def per_value_problem_text(p) -> str:
    """The reference writer: one format() call per value."""
    def row(values):
        return " ".join(format(float(x), ".17g") for x in values) + "\n"
    out = [f"schema_version 1\nn {p.n}\nn_s {p.n_s}\n"]
    for key, A in (("M", p.space.M), ("Gamma_pr", p.gamma_pr.rep)):
        if A.tobytes() == np.eye(p.n).tobytes():  # bitwise I
            out.append(f"{key} identity\n")
        else:
            out += [f"{key} dense\n", *map(row, A)]
    out += ["F dense\n", *map(row, p.F), "sigma\n", row(p.sigma), "m_pr\n", row(p.m_pr)]
    return "".join(out)


def assert_writes_as_reference(p):
    """The text equals the reference writer's, and parses back bit for bit."""
    text = fileio.problem_text(p)
    assert text == per_value_problem_text(p)
    q = fileio.parse_problem_text(text)
    for a, b in ((p.space.M, q.space.M), (p.gamma_pr.rep, q.gamma_pr.rep), (p.F, q.F),
                 (p.sigma, q.sigma), (p.m_pr, q.m_pr)):
        assert a.tobytes() == b.tobytes()


BIGGEST = np.finfo(float).max
ADVERSARIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-5, 1e-4, -1e-4, 1e16, 1e17,
               BIGGEST, -BIGGEST, np.nextafter(1.0, 2.0), -np.nextafter(1.0, 2.0)]


@pytest.mark.parametrize("weighted", [False, True], ids=["identity", "dense"])
def test_writer_matches_per_value_format_on_adversarial_doubles(weighted):
    base = random_problem(np.random.default_rng(95), 7, 2, weighted=weighted)
    F = np.array(ADVERSARIAL).reshape(2, 7)
    sigma = np.array([5e-324, BIGGEST])
    m_pr = np.array([-0.0, 1e-310, 1e-5, 1e16, 1e17, -BIGGEST, np.nextafter(1.0, 2.0)])
    assert_writes_as_reference(
        ss.build_problem(base.space, F, sigma, m_pr, base.gamma_pr.rep))


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _written_problems(draw):
    """Any finite F and m_pr, positive sigma, and an identity or dense M and prior."""
    n, n_s = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = random_problem(rng, n, n_s, weighted=draw(st.booleans()))
    F = np.array(draw(st.lists(finite, min_size=n * n_s, max_size=n * n_s))).reshape(n_s, n)
    sigma = draw(st.lists(finite.filter(lambda x: x > 0), min_size=n_s, max_size=n_s))
    m_pr = draw(st.lists(finite, min_size=n, max_size=n))
    return ss.build_problem(base.space, F, sigma, m_pr, base.gamma_pr.rep)


@settings(database=None, derandomize=True, max_examples=60, deadline=None)
@given(_written_problems())
def test_writer_matches_per_value_format_on_drawn_problems(p):
    assert_writes_as_reference(p)


# numtext's row encoder against one '%.17g' operation per value.

def assert_rows_as_reference(A):
    want = "".join(" ".join("%.17g" % x for x in row) + "\n" for row in A.tolist())
    assert b"".join(numtext.rows(A)).decode("ascii") == want


def _bit_patterns(rng, size):
    v = rng.integers(0, 2**64, size, dtype=np.uint64, endpoint=False).view(float)
    return v[np.isfinite(v)]


def _log_uniform(rng, size):
    return 10.0 ** rng.uniform(-6, 18, size) * rng.choice([-1.0, 1.0], size)


def _halfway(rng, size):
    """18-digit decimals ending in 5: halfway between two 17-digit ones."""
    digits = rng.integers(10**16, 10**17, size).tolist()
    exps = rng.integers(-22, 4, size).tolist()
    return np.array([float(f"{d}5e{e}") for d, e in zip(digits, exps)])


def _powers_of_ten(rng, size):
    p = 10.0 ** np.arange(-6, 20)
    v = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    return np.concatenate([v, -v])


def _boundaries(rng, size):
    """Fixed notation's ends, X = -5/-4 and 16/17, and the values %g writes
    in exponent form or that take the fallback: zeros, subnormals, the extremes."""
    tiny, big = np.finfo(float).tiny, np.finfo(float).max
    v = np.array([1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), 9.99999999999999e-5,
                  1e16, np.nextafter(1e16, 0.0), 1e16 + 2, 1e17, np.nextafter(1e17, 0.0),
                  99999999999999999.0, 9999999999999998.0, 0.1, 0.5, 1.0, 0.0, -0.0, 5e-324,
                  tiny, np.nextafter(tiny, 0.0), big, 1e308, 123.0, 1e-5, 1.5e-5])
    return np.concatenate([v, -v])


def _exact_ties(rng, size):
    """Values x for which x 10^(16 - X) lies exactly halfway between two
    integers, X the decimal exponent: q / 2^(m + 1) for an odd q, m = 16 - X.
    '%.17g' breaks the tie to even."""
    m = rng.integers(2, 21, size)
    low = 2.0 ** (m + 1) * 10.0 ** (16 - m)
    q = np.minimum(low * 10.0 ** rng.uniform(0, 1, size), 2.0**53 - 1) // 2 * 2 + 1
    v = np.ldexp(q, -(m + 1))
    return v * rng.choice([-1.0, 1.0], size)


@pytest.mark.parametrize("draw", [_bit_patterns, _log_uniform, _halfway, _powers_of_ten,
                                  _boundaries, _exact_ties])
def test_rows_match_per_value_format(draw):
    v = draw(np.random.default_rng(98), 20_000)
    assert_rows_as_reference(v[: v.size - v.size % 4].reshape(-1, 4))
    assert_rows_as_reference(v[None, :])


def test_rows_match_per_value_format_across_chunks(monkeypatch):
    """A block of several chunks, and one row longer than a chunk, at the
    default chunk size and at one that splits rows and values unevenly."""
    v = _log_uniform(np.random.default_rng(99), 3 * numtext._CHUNK + 11)
    assert_rows_as_reference(v[: 7 * (v.size // 7)].reshape(-1, 7))
    assert_rows_as_reference(v[None, :])
    monkeypatch.setattr(numtext, "_CHUNK", 5)
    assert_rows_as_reference(v[:39].reshape(13, 3))
    assert_rows_as_reference(v[None, :12])


def test_rows_without_the_fast_path_write_the_same_bytes(monkeypatch):
    """The fallback alone, given every value, fast ones included, writes the
    same bytes."""
    v = np.concatenate([_boundaries(None, 0), _log_uniform(np.random.default_rng(100), 500)])
    significand = numtext._significand
    monkeypatch.setattr(numtext, "_significand",
                        lambda v: (*significand(v)[:2], np.zeros(v.size, bool)))
    assert_rows_as_reference(v.reshape(-1, 4))


def test_rows_working_set_per_chunk():
    """One chunk of 4,096 values, log-uniform over the fast path's decades
    and beyond, takes at most 1.4 MB of temporaries, the most that the
    encoder of long double products and 40-byte "d." cells held."""
    v = _log_uniform(np.random.default_rng(101), numtext._CHUNK)[None, :]
    b"".join(numtext.rows(v))  # builds numtext's tables before the trace
    tracemalloc.start()
    try:
        b"".join(numtext.rows(v))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.4e6


def test_comments_and_blank_lines_ignored():
    text = "# a problem\n\n" + GOOD.replace("sigma", "sigma  # noise levels")
    p = fileio.parse_problem_text(text)
    assert p.n_s == 3


def test_parse_error_reports_line_and_column():
    bad = GOOD.replace("0 1\n1 1", "0 x\n1 1")
    with pytest.raises(fileio.ProblemFormatError) as exc:
        fileio.parse_problem_text(bad)
    assert exc.value.line == 8
    assert "value 2" in str(exc.value)
    assert "line 8" in str(exc.value)


def test_parse_error_wrong_value_count():
    bad = GOOD.replace("1 1 1", "1 1")
    with pytest.raises(fileio.ProblemFormatError) as exc:
        fileio.parse_problem_text(bad)
    assert "expected 3" in str(exc.value)


def test_parse_error_truncated_file():
    with pytest.raises(fileio.ProblemFormatError) as exc:
        fileio.parse_problem_text(GOOD[: GOOD.index("sigma")])
    assert "unexpected end of file" in str(exc.value)


def test_parse_error_wrong_section_order():
    bad = GOOD.replace("n 2\nn_s 3", "n_s 3\nn 2")
    with pytest.raises(fileio.ProblemFormatError) as exc:
        fileio.parse_problem_text(bad)
    assert "expected 'n'" in str(exc.value)


def test_parse_error_unsupported_schema():
    with pytest.raises(fileio.ProblemFormatError):
        fileio.parse_problem_text(GOOD.replace("schema_version 1", "schema_version 9"))


def test_parse_error_trailing_content():
    with pytest.raises(fileio.ProblemFormatError) as exc:
        fileio.parse_problem_text(GOOD + "extra 1\n")
    assert "trailing" in str(exc.value)


def test_parse_error_forward_map_never_identity():
    bad = GOOD.replace("F dense\n2 0\n0 1\n1 1", "F identity")
    bad = bad.replace("n_s 3", "n_s 2").replace("sigma\n1 1 1", "sigma\n1 1")
    with pytest.raises(fileio.ProblemFormatError):
        fileio.parse_problem_text(bad)


@pytest.mark.parametrize("line, bad, message", [
    ("sigma", "sigma 9 9 junk", "'sigma' takes no value"),
    ("m_pr", "m_pr whatever", "'m_pr' takes no value"),
    ("M identity", "M dense extra", "'M' must be one of ('identity', 'dense')"),
], ids=["sigma", "m_pr", "M"])
@pytest.mark.parametrize("from_file", [False, True], ids=["text", "file"])
def test_a_key_line_carries_only_its_words(tmp_path, line, bad, message, from_file):
    rows = GOOD.splitlines()
    lineno = rows.index(line) + 1
    rows[lineno - 1] = bad
    text = "\n".join(rows) + "\n"
    path = tmp_path / "bad.prob"
    path.write_text(text)
    with pytest.raises(fileio.ProblemFormatError) as exc:
        fileio.read_problem(path) if from_file else fileio.parse_problem_text(text)
    assert str(exc.value) == f"line {lineno}: {message}"


def test_parse_error_nonpositive_dimension():
    with pytest.raises(fileio.ProblemFormatError):
        fileio.parse_problem_text("schema_version 1\nn 0\nn_s 1\n")


def test_invariant_violations_are_not_format_errors():
    bad = GOOD.replace("sigma\n1 1 1", "sigma\n1 -1 1")
    with pytest.raises(ValueError) as exc:
        fileio.parse_problem_text(bad)
    assert not isinstance(exc.value, fileio.ProblemFormatError)


def test_hash_changes_with_any_field():
    p = fileio.parse_problem_text(GOOD)
    q = fileio.parse_problem_text(GOOD.replace("2 0", "2.0000000000000004 0"))
    assert p.content_hash() != q.content_hash()
    r = fileio.parse_problem_text(GOOD)
    assert p.content_hash() == r.content_hash()


def test_one_version_in_pyproject_package_and_reports(tmp_path):
    """pyproject.toml's version is the package's, and reports carry it.

    A regex reads the file: tomllib needs Python 3.11, and the project
    supports 3.10."""
    toml = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.findall(r'(?m)^version = "([^"]+)"$', toml) == [ss.__version__]
    path = tmp_path / "report.txt"
    ss.write_report(ss.greedy(three_sensor_problem(), 2), path)
    assert ss.read_report(path).tool_version == ss.__version__


def test_selection_report_round_trip(tmp_path):
    p = three_sensor_problem()
    rep = ss.certify_bound(ss.greedy(p, 2), ss.exhaustive(p, 2))
    path = tmp_path / "report.txt"
    ss.write_report(rep, path)
    back = ss.read_report(path)
    assert back.kind == "selection"
    assert back.tool_version == fileio.TOOL_VERSION
    assert back.problem_hash == p.content_hash()
    assert back.timestamp == "unset"
    got = back.payload
    assert got.wall_time is None
    assert report_fields(got)[:-1] == report_fields(rep)[:-1]
    assert got.bound_certificate == rep.bound_certificate
    path2 = tmp_path / "report2.txt"
    ss.write_report(got, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_selection_report_indices_are_one_based():
    p = three_sensor_problem()
    text = fileio.report_text(ss.greedy(p, 2))
    assert "chosen 1 3" in text
    lines = text.splitlines()
    steps = lines[lines.index("steps 2") + 1 :]
    assert steps[0].startswith("1 ")
    assert steps[1].startswith("3 ")


def test_empty_selection_report_round_trip():
    p = three_sensor_problem()
    rep = ss.greedy(p, 0)
    back = fileio.parse_report_text(fileio.report_text(rep))
    assert back.payload.chosen.indices == ()
    assert back.payload.per_step == ()
    assert back.payload.phi_final == 0.0


def test_random_baseline_report_keeps_seed():
    rng = np.random.default_rng(93)
    p = random_problem(rng, 3, 5)
    rep = ss.random_baseline(p, 2, seed=77)
    back = fileio.parse_report_text(fileio.report_text(rep))
    assert back.payload.seed == 77
    assert back.payload.method == "random"


def test_verification_report_round_trip(tmp_path):
    p = ss.generate(ss.ProblemSpec("chain", n=10, n_s=5, seed=2))
    summary = ss.verification_run(p, trials=30, samples=200, seed=4)
    path = tmp_path / "verify.txt"
    ss.write_report(summary, path, problem_hash=p.content_hash())
    back = ss.read_report(path)
    assert back.kind == "verification"
    assert back.payload == summary
    path2 = tmp_path / "verify2.txt"
    ss.write_report(back.payload, path2, problem_hash=back.problem_hash)
    assert path.read_bytes() == path2.read_bytes()


def test_verification_report_requires_hash():
    p = ss.generate(ss.ProblemSpec("chain", n=8, n_s=3, seed=0))
    summary = ss.verification_run(p, trials=10, samples=50, seed=0)
    with pytest.raises(ValueError):
        fileio.report_text(summary)


def test_timestamp_from_source_date_epoch(monkeypatch):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    assert fileio.default_timestamp() == "unset"
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    assert fileio.default_timestamp() == "1970-01-01T00:00:00+00:00"
    p = three_sensor_problem()
    text = fileio.report_text(ss.greedy(p, 1))
    assert "timestamp 1970-01-01T00:00:00+00:00" in text


def test_report_parse_rejects_unknown_kind():
    p = three_sensor_problem()
    text = fileio.report_text(ss.greedy(p, 1)).replace("report selection", "report foo")
    with pytest.raises(fileio.ProblemFormatError):
        fileio.parse_report_text(text)


def test_report_parse_rejects_malformed_step():
    p = three_sensor_problem()
    text = fileio.report_text(ss.greedy(p, 2))
    broken = text.replace("steps 2", "steps 3")
    with pytest.raises(fileio.ProblemFormatError):
        fileio.parse_report_text(broken)


def test_report_parse_rejects_step_index_zero():
    rows = fileio.report_text(ss.greedy(three_sensor_problem(), 2)).splitlines()
    lineno = rows.index("steps 2") + 2
    rows[lineno - 1] = "0 " + rows[lineno - 1].split(None, 1)[1]
    with pytest.raises(fileio.ProblemFormatError) as exc:
        fileio.parse_report_text("\n".join(rows) + "\n")
    assert exc.value.line == lineno


def _selection_text():
    return fileio.report_text(ss.greedy(three_sensor_problem(), 2))


def _certified_text():
    p = three_sensor_problem()
    return fileio.report_text(ss.certify_bound(ss.greedy(p, 2), ss.exhaustive(p, 2)))


def _verification_text():
    p = ss.generate(ss.ProblemSpec("chain", n=8, n_s=3, seed=0))
    summary = ss.verification_run(p, trials=10, samples=50, seed=0)
    return fileio.report_text(summary, problem_hash=p.content_hash())


@pytest.mark.parametrize(
    "make, bad",
    [
        (_selection_text, "seed x"),
        (_selection_text, "chosen 1 x"),
        (_verification_text, "submodular_max_formula_err x"),
        (_verification_text, "mc_design 1 y"),
        (_verification_text, "mc_ok maybe"),
        (_verification_text, "ok maybe"),
        (_selection_text, "chosen 0 3 4"),
        (_selection_text, "chosen 3 3"),
        (_verification_text, "mc_design 0 0 11"),
        (_verification_text, "mc_design 2 2"),
        (_selection_text, "k -1"),
        (_selection_text, "chosen 1"),
        (_selection_text, "chosen 1 2 3"),
        (_selection_text, "steps 1"),
        (_selection_text, "steps 3"),
        (_verification_text, "ok no"),
        (_selection_text, "eig_final 1"),
        (_certified_text, "certificate 4 1 0.63212055882855767"),
        (_certified_text, "certificate 0 1 0.63212055882855767"),
        (_certified_text, "certificate inf 0 0.5"),
        (_verification_text, "monotone_trials -3"),
        (_verification_text, "submodular_checks -1"),
        (_verification_text, "mc_samples -2"),
        # the floors that verification_run, mc_eig and the CLI hold
        (_selection_text, "seed -1"),
        (_verification_text, "seed -4"),
        (_verification_text, "mc_samples 1"),
        (_verification_text, "monotone_violations -1"),
        (_verification_text, "submodular_violations -1"),
    ],
)
def test_report_parse_rejects_malformed_field(make, bad):
    rows = make().splitlines()
    key = bad.split()[0]
    lineno = next(i for i, row in enumerate(rows, start=1) if row.split()[0] == key)
    rows[lineno - 1] = bad
    with pytest.raises(fileio.ProblemFormatError) as exc:
        fileio.parse_report_text("\n".join(rows) + "\n")
    assert exc.value.line == lineno


@pytest.mark.parametrize("index", ["2", "1"], ids=["not-chosen", "repeated"])
def test_report_parse_rejects_step_outside_chosen(index):
    """The step lines must add the chosen sensors (1 3), each once."""
    rows = _selection_text().splitlines()
    lineno = rows.index("steps 2") + 3
    rows[lineno - 1] = index + " " + rows[lineno - 1].split(None, 1)[1]
    with pytest.raises(fileio.ProblemFormatError) as exc:
        fileio.parse_report_text("\n".join(rows) + "\n")
    assert exc.value.line == lineno


@pytest.mark.parametrize("read, text", [(fileio.read_problem, GOOD),
                                         (fileio.read_report, _selection_text())],
                         ids=["problem", "report"])
def test_non_ascii_byte_is_a_format_error_at_its_line(tmp_path, read, text):
    rows = text.encode("ascii").split(b"\n")
    rows[1] += b"\xe9"
    path = tmp_path / "file.txt"
    path.write_bytes(b"\n".join(rows))
    with pytest.raises(fileio.ProblemFormatError) as exc:
        read(path)
    assert exc.value.line == 2 and "byte 0xe9 is not ASCII" in str(exc.value)


TEXT_AND_FILE_READERS = pytest.mark.parametrize(
    "parse, read, text", [(fileio.parse_problem_text, fileio.read_problem, GOOD),
                          (fileio.parse_report_text, fileio.read_report, _selection_text())],
    ids=["problem", "report"])


@TEXT_AND_FILE_READERS
def test_text_parsers_refuse_a_non_ascii_character_as_the_file_readers_do(
        tmp_path, parse, read, text):
    """U+0663, an Arabic-Indic three, which float() reads as 3.0: the text
    parsers name its first UTF-8 byte at its line, as the file readers do."""
    rows = text.split("\n")
    rows[6] = "\u0663 " + rows[6]
    bad = "\n".join(rows)
    path = tmp_path / "file.txt"
    path.write_bytes(bad.encode("utf-8"))
    with pytest.raises(fileio.ProblemFormatError) as from_file:
        read(path)
    with pytest.raises(fileio.ProblemFormatError) as from_text:
        parse(bad)
    assert str(from_text.value) == str(from_file.value) == "line 7: byte 0xd9 is not ASCII"
    assert from_text.value.line == 7


@TEXT_AND_FILE_READERS
def test_text_parsers_name_a_non_ascii_character_before_an_earlier_fault(
        tmp_path, parse, read, text):
    """A fault on line 2, then an e-acute on the last line: both parsers
    name the character, as the file readers do."""
    rows = text.split("\n")
    rows[1] = "x"
    rows[-2] += "\u00e9"
    bad = "\n".join(rows)
    path = tmp_path / "file.txt"
    path.write_bytes(bad.encode("utf-8"))
    for call, arg in ((parse, bad), (read, path)):
        with pytest.raises(fileio.ProblemFormatError) as exc:
            call(arg)
        assert str(exc.value) == f"line {len(rows) - 1}: byte 0xc3 is not ASCII"


def test_parse_allocates_nothing_from_header_sizes():
    """A 40 KB file declaring n = 20,000 with identity blocks and a short
    m_pr: the error names m_pr's line before any n x n block exists.

    The bound is what the parser holds at once: the file's lines, the
    tokens of one line, and per token one float64 for its checked row plus
    one for the block stacked from those rows."""
    n = 20_000
    text = "\n".join(["schema_version 1", f"n {n}", "n_s 1", "M identity", "Gamma_pr identity",
                      "F dense", " ".join(["1"] * n), "sigma", "1", "m_pr", "0"]) + "\n"
    lines = text.splitlines()
    widest = max((line.split() for line in lines), key=len)
    bound = (sys.getsizeof(lines) + sum(map(sys.getsizeof, lines))
             + sys.getsizeof(widest) + sum(map(sys.getsizeof, widest))
             + 2 * 8 * len(text.split()))
    tracemalloc.start()
    try:
        with pytest.raises(fileio.ProblemFormatError) as exc:
            fileio.parse_problem_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.line == 11 and "m_pr has 1 values" in str(exc.value)
    assert peak < bound


# The cache of parsed problem blocks behind read_problem.

@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A fresh, empty cache; returns the directory its entries go to."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "senselect"


@pytest.fixture
def parses(monkeypatch):
    """The number of texts parsed since the test began, as a one-item list."""
    count = [0]
    parse = fileio._parse_blocks

    def counted(text):
        count[0] += 1
        return parse(text)
    monkeypatch.setattr(fileio, "_parse_blocks", counted)
    return count


def key_of(data: bytes) -> str:
    """The cache key of a file's bytes: the SHA-256 of the reader version, then the bytes."""
    return hashlib.sha256(fileio._CACHE_VERSION + data).hexdigest()


def entry_of(cache, path):
    return cache / (key_of(path.read_bytes()) + ".npz")


def test_cache_miss_stores_then_hits(cache, parses, tmp_path):
    path = tmp_path / "p.prob"
    path.write_text(fileio.problem_text(three_sensor_problem()))
    first = fileio.read_problem(path)
    assert parses[0] == 1
    assert entry_of(cache, path).is_file()
    assert (cache.stat().st_mode & 0o777) == 0o700
    second = fileio.read_problem(path)
    assert parses[0] == 1
    assert second.content_hash() == first.content_hash()


@pytest.mark.parametrize("text, identities", [
    (None, 0), (GOOD, 2), (GOOD.replace("Gamma_pr identity", "Gamma_pr dense\n2 0\n0 2"), 1)],
    ids=["dense", "both", "M"])
def test_an_identity_is_made_only_for_an_identity_block(cache, tmp_path, monkeypatch, text,
                                                        identities):
    """Neither the writer's test for I nor a hit makes an n x n temporary:
    np.eye runs once per block that a parse reads as 'identity', and never
    for a write or a hit, which loads the blocks the cache stored."""
    path = tmp_path / "p.prob"
    calls = []
    eye = np.eye
    monkeypatch.setattr(np, "eye", lambda *a, **kw: calls.append(a) or eye(*a, **kw))
    if text is None:
        fileio.write_problem(random_problem(np.random.default_rng(94), 5, 4), path)
    else:
        path.write_text(text)
        fileio.write_problem(fileio.read_problem(path), tmp_path / "again.prob")
        assert len(calls) == identities  # the miss's build; the write makes none
    fileio.read_problem(path)
    assert len(calls) == identities


def test_write_problem_seeds_the_cache(cache, parses, tmp_path):
    path = tmp_path / "p.prob"
    fileio.write_problem(three_sensor_problem(), path)
    assert [e.name for e in cache.iterdir()] == [entry_of(cache, path).name]
    fileio.read_problem(path)
    assert parses[0] == 0


def test_changed_bytes_miss(cache, parses, tmp_path):
    path = tmp_path / "p.prob"
    fileio.write_problem(three_sensor_problem(), path)
    path.write_text(path.read_text() + "# a comment changes the bytes, not the problem\n")
    q = fileio.read_problem(path)
    assert parses[0] == 1
    assert q.content_hash() == three_sensor_problem().content_hash()
    assert len(list(cache.iterdir())) == 2


def _truncate(entry):
    entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])


def _tamper(entry):
    """F changed in one value, the stored content hash kept."""
    with np.load(entry, allow_pickle=False) as z:
        arrays = {name: z[name] for name in z.files}
    arrays["F"][0, 0] += 1.0
    with open(entry, "wb") as fh:
        np.savez(fh, **arrays)


def _unbuildable(entry, rehash=False):
    """A negative sigma, which the build refuses, under the stored content
    hash or under the digest of the damaged arrays."""
    with np.load(entry, allow_pickle=False) as z:
        arrays = {name: z[name] for name in z.files}
    arrays["sigma"][0] = -1.0
    if rehash:
        eye = np.eye(arrays["m_pr"].size)
        arrays["content_hash"] = model.content_digest(
            arrays.get("M", eye), arrays.get("Gamma_pr", eye), arrays["F"], arrays["sigma"],
            arrays["m_pr"])
    with open(entry, "wb") as fh:
        np.savez(fh, **arrays)


@pytest.mark.parametrize("damage", [_truncate, _tamper, lambda e: e.write_bytes(b""),
                                    _unbuildable, partial(_unbuildable, rehash=True)],
                         ids=["truncated", "tampered", "empty", "unbuildable",
                              "unbuildable-rehashed"])
def test_damaged_entry_is_a_miss_and_is_rewritten(cache, parses, tmp_path, damage):
    path = tmp_path / "p.prob"
    p = three_sensor_problem()
    fileio.write_problem(p, path)
    damage(entry_of(cache, path))
    assert fileio.read_problem(path).content_hash() == p.content_hash()
    assert parses[0] == 1
    assert fileio.read_problem(path).content_hash() == p.content_hash()
    assert parses[0] == 1


def test_unwritable_cache_still_reads_and_writes(tmp_path, monkeypatch, parses):
    # a regular file where the cache directory's parent should be: no
    # directory can be made there, whoever runs the test
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    path = tmp_path / "p.prob"
    p = three_sensor_problem()
    fileio.write_problem(p, path)
    assert fileio.read_problem(path).content_hash() == p.content_hash()
    assert fileio.read_problem(path).content_hash() == p.content_hash()
    assert parses[0] == 2
    assert blocker.read_text() == ""


def test_cache_keeps_the_most_recently_used_entries(cache, tmp_path):
    paths = []
    for i in range(fileio._CACHE_ENTRIES):
        paths.append(tmp_path / f"p{i}.prob")
        fileio.write_problem(identity_problem(i + 1), paths[-1])
        os.utime(entry_of(cache, paths[-1]), (1e9 + i, 1e9 + i))
    fileio.read_problem(paths[0])  # a hit makes the oldest entry the newest
    newest = tmp_path / "new.prob"
    fileio.write_problem(identity_problem(fileio._CACHE_ENTRIES + 1), newest)
    kept = {e.name for e in cache.iterdir()}
    assert kept == {entry_of(cache, q).name for q in [newest, paths[0], *paths[2:]]}


def test_malformed_file_is_never_stored(cache, tmp_path):
    path = tmp_path / "bad.prob"
    path.write_text(GOOD.replace("0 1\n", "0 x\n"))
    for _ in range(2):
        with pytest.raises(fileio.ProblemFormatError) as exc:
            fileio.read_problem(path)
        assert exc.value.line == 8 and "not a number: 'x'" in str(exc.value)
        assert not cache.exists() or not any(cache.iterdir())


@pytest.mark.parametrize("read, cached", [(fileio.read_problem, False),
                                          (fileio.read_problem, True),
                                          (fileio.read_report, False)],
                         ids=["problem-miss", "problem-hit", "report"])
def test_a_pipe_is_refused_before_it_is_read(cache, tmp_path, read, cached):
    """One error, naming the path, whether or not the cache holds the problem."""
    path = tmp_path / "file.txt"
    if read is fileio.read_report:
        path.write_text(_selection_text())
    elif cached:
        fileio.write_problem(three_sensor_problem(), path)
    else:
        path.write_text(GOOD)
    assert entry_of(cache, path).is_file() == cached
    with piped(path.read_bytes()) as pipe:
        with pytest.raises(OSError) as exc:
            read(pipe)
    assert str(exc.value) == f"not a regular file: '{pipe}'"


def _signed_zero_problem():
    """-0.0 in F and m_pr, and off the diagonal of an M that writes as identity."""
    M = np.eye(3)
    M[0, 1] = M[1, 0] = -0.0
    F = np.array([[1.0, -0.0, 2.0], [-0.0, 1.0, 0.0]])
    return ss.build_problem(ss.WeightedSpace(M), F, np.ones(2), np.array([-0.0, 0.0, 1.0]),
                            np.eye(3))


def _adversarial_problem():
    base = random_problem(np.random.default_rng(95), 7, 2)
    return ss.build_problem(base.space, np.array(ADVERSARIAL).reshape(2, 7),
                            np.array([5e-324, BIGGEST]),
                            np.array([-0.0, 1e-310, 1e-5, 1e16, 1e17, -BIGGEST, 1.0]),
                            base.gamma_pr.rep)


@pytest.mark.parametrize("make", [
    lambda: random_problem(np.random.default_rng(96), 6, 9),
    lambda: random_problem(np.random.default_rng(97), 5, 4, weighted=False),
    lambda: ss.generate(ss.ProblemSpec(kind="chain", n=20, n_s=10, seed=7)),
    lambda: identity_problem(4),
    _signed_zero_problem,
    _adversarial_problem,
], ids=["random", "random-unweighted", "chain", "identity", "signed-zero", "adversarial"])
@pytest.mark.parametrize("seed_by", ["write", "read"])
def test_hit_is_bitwise_the_parse(cache, parses, tmp_path, make, seed_by):
    """A hit builds from the very arrays the parse gives, whether write_problem
    or a first read_problem, a miss, stored them; each reads back as the
    problem written, with its content hash."""
    path = tmp_path / "p.prob"
    written = make()
    if seed_by == "write":
        fileio.write_problem(written, path)
    else:
        path.write_text(fileio.problem_text(written))
        assert fileio.read_problem(path).content_hash() == written.content_hash()
    stored = parses[0]
    hit = fileio.read_problem(path)
    assert parses[0] == stored
    parsed = fileio.parse_problem_text(path.read_text())
    for a, b in ((hit.space.M, parsed.space.M), (hit.gamma_pr.rep, parsed.gamma_pr.rep),
                 (hit.F, parsed.F), (hit.sigma, parsed.sigma), (hit.m_pr, parsed.m_pr)):
        # strides too: BLAS may round differently on a transposed layout
        assert a.shape == b.shape and a.strides == b.strides and a.tobytes() == b.tobytes()
    assert hit.content_hash() == parsed.content_hash() == written.content_hash()
    # the entry holds the problem_hash of the file's reports
    with np.load(entry_of(cache, path), allow_pickle=False) as entry:
        assert str(entry["content_hash"]) == fileio.read_problem(path).content_hash()


# Reading a file one line at a time, and what each read holds.

DENSE_HEAD = ["schema_version 1", "n 2", "n_s 2"]
DENSE_TAIL = """\
M dense
2 1
1 2
Gamma_pr identity
F dense
1 0
0 1
sigma
1 1
m_pr
0 0
"""


def test_non_ascii_byte_is_numbered_by_the_parsers_line_breaks(tmp_path):
    """A lone "\\r" breaks a line for the parser, and so for the ASCII check:
    the byte in 'M dense' is on line 4, not on the second "\\n" line."""
    with_cr = "\r".join(DENSE_HEAD) + "\n" + DENSE_TAIL
    path = tmp_path / "cr.prob"
    path.write_bytes(with_cr.encode("ascii"))
    assert fileio.read_problem(path).n_s == 2
    path.write_bytes(with_cr.replace("M dense", "M dense\xe9").encode("latin-1"))
    with pytest.raises(fileio.ProblemFormatError) as exc:
        fileio.read_problem(path)
    assert exc.value.line == 4 and "byte 0xe9 is not ASCII" in str(exc.value)


def test_a_non_ascii_byte_is_named_before_an_earlier_fault(tmp_path):
    """A file is refused for a non-ASCII byte wherever it lies, as when the
    whole file was decoded before the parse."""
    rows = ("\n".join(DENSE_HEAD) + "\n" + DENSE_TAIL).encode("ascii").split(b"\n")
    rows[5] = b"1 x"  # a bad value in M, on line 6
    rows[-2] += b"\xe9"  # and a non-ASCII byte in m_pr's values, on line 14
    path = tmp_path / "two-faults.prob"
    path.write_bytes(b"\n".join(rows))
    with pytest.raises(fileio.ProblemFormatError) as exc:
        fileio.read_problem(path)
    assert exc.value.line == 14 and "byte 0xe9 is not ASCII" in str(exc.value)


def _read_lines(data: bytes) -> list:
    """The lines fileio._file_lines reads from data, checking that it digests all of data."""
    digest = hashlib.sha256()
    lines = list(fileio._file_lines(io.BytesIO(data), len(data), digest))
    assert digest.digest() == hashlib.sha256(data).digest()
    return lines


def test_file_lines_break_where_splitlines_breaks_over_newline_lines():
    """Every ASCII line break of str.splitlines, within the "\\n" lines the
    file is read as, and a non-ASCII byte numbered as its line in the whole text."""
    rng = np.random.default_rng(41)
    alphabet = list("ab #\n\r\x0b\x0c\x1c\x1d\x1e\x1f\t")
    for _ in range(3000):
        text = "".join(rng.choice(alphabet, int(rng.integers(0, 30))))
        data = text.encode("ascii")
        assert _read_lines(data) == text.splitlines()
        at = int(rng.integers(0, len(data) + 1))
        with pytest.raises(fileio.ProblemFormatError) as exc:
            _read_lines(data[:at] + b"\xe9" + data[at:])
        assert exc.value.line == len((text[:at] + "?").splitlines())


def test_a_miss_stores_its_entry_under_the_bytes_it_parsed(cache, parses, tmp_path, monkeypatch):
    """The file changes between the hash and the parse: the entry goes under
    the key of the bytes parsed, which a later read of them hits."""
    path = tmp_path / "p.prob"
    first, second = three_sensor_problem(), identity_problem(2)
    path.write_text(fileio.problem_text(first))
    old_key = key_of(path.read_bytes())
    get = fileio._cache_get

    def rewrite_then_miss(key):
        assert key == old_key
        path.write_text(fileio.problem_text(second))
        return None
    monkeypatch.setattr(fileio, "_cache_get", rewrite_then_miss)
    p = fileio.read_problem(path)
    assert p.content_hash() == second.content_hash()
    assert [e.name for e in cache.iterdir()] == [entry_of(cache, path).name]
    monkeypatch.setattr(fileio, "_cache_get", get)
    assert fileio.read_problem(path).content_hash() == second.content_hash()
    assert parses[0] == 1


@pytest.fixture(scope="module")
def wide():
    """A problem 20 x 20,000 and its text, about 8 MB; its widest line, sigma's,
    holds 20,000 values."""
    p = random_problem(np.random.default_rng(42), 20, 20_000)
    return p, fileio.problem_text(p)


def _traced_peak(call, tmp_path):
    """call's result and its tracemalloc peak, after a miss and a hit on a
    small file have made the readers' first-use imports and caches."""
    small = tmp_path / "small.prob"
    small.write_text(GOOD)
    fileio.read_problem(small)
    fileio.read_problem(small)
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_hit_holds_less_than_the_file(cache, tmp_path, wide):
    p, text = wide
    path = tmp_path / "wide.prob"
    fileio.write_problem(p, path)
    hit, peak = _traced_peak(lambda: fileio.read_problem(path), tmp_path)
    assert hit.content_hash() == p.content_hash()
    assert peak < path.stat().st_size


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r", "\f"], ids=["lf", "crlf", "cr", "ff"])
def test_a_miss_holds_its_blocks_and_a_few_lines(cache, parses, tmp_path, wide, newline):
    """A miss reads back the problem a hit reads.  Where its lines end in
    "\\n", it peaks below the blocks it parses plus two of the widest line,
    each as its text, its tokens and its row of floats."""
    p, text = wide
    path = tmp_path / "wide.prob"
    path.write_bytes(text.replace("\n", newline).encode("ascii"))
    miss, peak = _traced_peak(lambda: fileio.read_problem(path), tmp_path)
    assert parses[0] == 2  # the small file's, then this one's
    hit = fileio.read_problem(path)
    assert parses[0] == 2
    assert miss.content_hash() == hit.content_hash() == p.content_hash()
    for a, b in ((miss.space.M, hit.space.M), (miss.gamma_pr.rep, hit.gamma_pr.rep),
                 (miss.F, hit.F), (miss.sigma, hit.sigma), (miss.m_pr, hit.m_pr)):
        assert np.array_equal(a, b)
    line = text.splitlines()[-3]  # sigma's values
    tokens = line.split()
    widest = (sys.getsizeof(line) + sys.getsizeof(tokens) + sum(map(sys.getsizeof, tokens))
              + 8 * len(tokens))
    blocks = sum(A.nbytes for A in (p.space.M, p.gamma_pr.rep, p.F, p.sigma, p.m_pr))
    if "\n" in newline:  # a file with no "\n" is read as one line, and held whole
        assert peak < blocks + 2 * widest


@pytest.mark.parametrize("key, line", [("n", 2), ("n_s", 3)])
def test_a_header_size_is_bounded_by_the_characters_of_the_file(key, line):
    text = GOOD.replace(f"\n{key} ", f"\n{key} 9999", 1)
    size = int(re.search(rf"\n{key} (\d+)", text).group(1))
    with pytest.raises(fileio.ProblemFormatError) as exc:
        fileio.parse_problem_text(text)
    assert str(exc.value) == (f"line {line}: {key} = {size} exceeds the {len(text)} "
                              "characters of the file")
