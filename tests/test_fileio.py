"""Problem and report file round trips, shorthand forms, and parse errors."""

import os
import sys
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import senselect as ss
from senselect import fileio, model, numtext

from conftest import identity_problem, random_problem, report_fields, three_sensor_problem

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
        if np.array_equal(A, np.eye(p.n)):
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


@pytest.mark.parametrize("draw", [_bit_patterns, _log_uniform, _halfway, _powers_of_ten,
                                  _boundaries])
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
    """A band wider than 1/2, as where long double is a double, sends every
    value to the fallback."""
    v = np.concatenate([_boundaries(None, 0), _log_uniform(np.random.default_rng(100), 500)])
    monkeypatch.setattr(numtext, "_BAND", 1.0)
    assert_rows_as_reference(v.reshape(-1, 4))


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


def entry_of(cache, path):
    return cache / (fileio._cache_key(path.read_bytes()) + ".npz")


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
    or a first read_problem stored them."""
    path = tmp_path / "p.prob"
    if seed_by == "write":
        fileio.write_problem(make(), path)
    else:
        path.write_text(fileio.problem_text(make()))
        fileio.read_problem(path)
    stored = parses[0]
    hit = fileio.read_problem(path)
    assert parses[0] == stored
    parsed = fileio.parse_problem_text(path.read_text())
    for a, b in ((hit.space.M, parsed.space.M), (hit.gamma_pr.rep, parsed.gamma_pr.rep),
                 (hit.F, parsed.F), (hit.sigma, parsed.sigma), (hit.m_pr, parsed.m_pr)):
        # strides too: BLAS may round differently on a transposed layout
        assert a.shape == b.shape and a.strides == b.strides and a.tobytes() == b.tobytes()
    assert hit.content_hash() == parsed.content_hash()
    # the entry holds the problem_hash of the file's reports
    with np.load(entry_of(cache, path), allow_pickle=False) as entry:
        assert str(entry["content_hash"]) == fileio.read_problem(path).content_hash()
