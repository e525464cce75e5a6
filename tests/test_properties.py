"""Hypothesis properties of the shared gain kernel and of the file formats.

Examples are derandomized and no example database is kept, so runs are
repeatable; conftest moves Hypothesis' on-disk cache out of the checkout.
"""

import math
import random

import numpy as np
from hypothesis import given, settings, strategies as st

import senselect as ss
from senselect import fileio, objective, verify
from senselect.selection import certificate_ratio

from conftest import random_problem
from test_selection import assert_band_matches_reference

PROPERTY = settings(database=None, derandomize=True, max_examples=60, deadline=None)


@st.composite
def problems(draw):
    """n <= 6, n_s <= 8, non-identity M; zeroed forward-map rows are inactive."""
    n = draw(st.integers(1, 6))
    n_s = draw(st.integers(1, 8))
    q = random_problem(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, n_s)
    dead = draw(st.lists(st.booleans(), min_size=n_s, max_size=n_s).filter(
        lambda d: not all(d)))
    f = q.F.copy()
    f[np.asarray(dead)] = 0.0
    return ss.build_problem(q.space, f, q.sigma, q.m_pr, q.gamma_pr.rep)


@PROPERTY
@given(problems(), st.data())
def test_extend_chain_gain_equals_phi_difference(p, data):
    """Tolerance as in the saturated greedy test: each phi_eig is a Cholesky
    factorization of dimension at most n + k with entries bounded by
    1 + max K_vv."""
    order = data.draw(st.permutations(p.active))
    w = p.space.whitening_factor.T @ p.precond_vecs
    tol = 2.0 * (p.n + len(order)) * np.finfo(float).eps * (
        1.0 + float(np.max(np.sum(w * w, axis=0))))
    state = ss.design_state(p)
    for v in order:
        base = list(state.design)
        want = ss.phi_eig(p, base + [v]) - ss.phi_eig(p, base)
        assert abs(ss.marginal_gain(state, v) - want) <= tol
        state = ss.extend(state, v)


@PROPERTY
@given(problems(), st.data())
def test_greedy_and_lazy_greedy_per_step_bitwise_equal(p, data):
    k = data.draw(st.integers(0, len(p.active)))
    assert ss.lazy_greedy(p, k).per_step == ss.greedy(p, k).per_step


@st.composite
def chains(draw):
    """Chains of n <= 40 nodes with up to 12 sensors, duplicated nodes allowed."""
    n = draw(st.integers(4, 40))
    nodes = draw(st.lists(st.integers(1, n - 2), min_size=1, max_size=12))
    return ss.generate(ss.ProblemSpec("chain", n=n, n_s=len(nodes), seed=0,
                                      sensor_nodes=tuple(nodes)))


@PROPERTY
@given(st.one_of(problems(), chains()), st.data())
def test_branch_and_bound_keeps_the_tie_band(p, data):
    """The pruned search returns the band of the search without bounds."""
    assert_band_matches_reference(p, data.draw(st.integers(0, len(p.active))))


def _rows_subtracted_one_at_a_time(kern):
    """Every residual as SchurKernel.entry computed it before the kernel kept
    a residual stack: diag minus the factor rows, one step at a time."""
    out = []
    for j in range(kern.diag.size):
        r = float(kern.diag[j])
        for e in kern.rows[:kern.t, j].tolist():
            r = r - e * e
        out.append(r)
    return np.array(out)


@PROPERTY
@given(st.one_of(problems(), chains()), st.data())
def test_residual_stack_is_the_rows_subtracted_one_at_a_time(p, data):
    """Bit for bit, for members pushed in any order; rewinding to 0 and
    pushing again gives the same floats; the kernel reads p.whitened, the
    whitened active sensor vectors, without a copy."""
    order = data.draw(st.permutations(range(len(p.active))))
    members = order[:data.draw(st.integers(0, len(order)))]
    kern = objective.SchurKernel(p, len(members))
    assert np.shares_memory(kern._w, p.whitened)
    assert np.array_equal(p.whitened, p.space.whitening_factor.T @ p.precond_vecs[:, p.active])
    for j in members:
        kern.add(j)
    first = kern.r.copy()
    assert first.tobytes() == _rows_subtracted_one_at_a_time(kern).tobytes()
    kern.t = 0
    for j in members:
        kern.add(j)
    assert kern.r.tobytes() == first.tobytes()


@PROPERTY
@given(problems(), st.data())
def test_reference_phi_maps_sensors_to_whitened_columns(p, data):
    """On problems with inactive rows; the tolerance is the one of
    test_reference_phi_matches_phi_eig_on_both_gram_sides."""
    designs = data.draw(st.lists(st.lists(st.sampled_from(p.active), unique=True),
                                 min_size=1, max_size=6))
    big = 1.0 + float(np.max(np.sum(p.whitened ** 2, axis=0)))
    for d, value in zip(designs, verify._reference_phi(p, designs).tolist()):
        tol = 2.0 * (p.n + len(d)) * np.finfo(float).eps * big
        assert abs(value - ss.phi_eig(p, d)) <= tol


@PROPERTY
@given(st.integers(1, 6), st.integers(1, 8), st.booleans(), st.integers(0, 2**32 - 1))
def test_problem_text_round_trip(n, n_s, weighted, seed):
    """Unweighted problems exercise the identity shorthand for M.  The hash
    check makes the text carry every double exactly, not just consistently."""
    p = random_problem(np.random.default_rng(seed), n, n_s, weighted=weighted)
    text = fileio.problem_text(p)
    q = fileio.parse_problem_text(text)
    assert fileio.problem_text(q) == text
    assert q.content_hash() == p.content_hash()


numbers = st.floats(allow_nan=False)
counts = st.integers(0, 10**6)
samples = st.integers(2, 10**6)  # a standard error needs two
sensors = st.lists(st.integers(0, 10**4), max_size=8, unique=True).map(tuple)
hashes = st.text("0123456789abcdef", min_size=1, max_size=64)

def _certificates(phi):
    """No certificate, or one that certify_bound could attach to phi_final = phi."""
    opts = numbers.filter(lambda opt: opt != 0.0 or phi == 0.0)
    certs = opts.map(lambda opt: ss.Certificate(opt, certificate_ratio(phi, opt)))
    return st.none() | certs.filter(lambda c: not math.isnan(c.ratio))


@st.composite
def _selection_report(draw):
    """A consistent report, as the parser requires: k = len(chosen) =
    len(per_step), the steps add the chosen sensors in some order,
    eig_final = phi_final / 2, and a certificate holds certify_bound's
    ratio and floor."""
    order, phi = draw(sensors), draw(numbers)
    return ss.SelectionReport(
        method=draw(st.sampled_from(("greedy", "lazy_greedy", "exhaustive", "random"))),
        chosen=ss.Design(order),
        per_step=tuple((i, draw(numbers), draw(numbers)) for i in order),
        phi_final=phi,
        eig_final=0.5 * phi,
        k=len(order),
        problem_hash=draw(hashes),
        seed=draw(st.none() | counts),
        bound_certificate=draw(_certificates(phi)),
    )


selection_reports = _selection_report()

verification_summaries = st.builds(
    ss.VerificationSummary,
    monotone=st.builds(ss.MonotoneReport, counts, counts, numbers, numbers),
    submodular=st.builds(ss.SubmodularReport, st.sampled_from(("exhaustive", "random")),
                         counts, counts, numbers, st.none() | numbers),
    mc=st.builds(ss.McEigEstimate, samples, numbers, numbers, counts),
    mc_design=sensors,
    mc_target=numbers,
    mc_ok=st.booleans(),
    seed=counts,
)


@PROPERTY
@given(selection_reports | verification_summaries, hashes)
def test_report_text_round_trip(payload, problem_hash):
    text = fileio.report_text(payload, problem_hash, timestamp="unset")
    parsed = fileio.parse_report_text(text)
    again = fileio.report_text(parsed.payload, parsed.problem_hash,
                               tool_version=parsed.tool_version, timestamp=parsed.timestamp)
    assert again == text


# The model's documented invariant errors (CLI exit 3); every other defect
# of a problem file must surface as a ProblemFormatError (exit 2).
INVARIANTS = ("weight matrix is", "prior covariance is not", "prior square root inconsistent",
              "noise levels must be strictly positive")
TOKENS = ("0", "-1", "1e308", "nan", "x", "", "#", "1000", "99999999999999999999")


@st.composite
def mutated(draw, text):
    """text with one of its lines or tokens deleted, duplicated or replaced.

    The edit is drawn uniformly from a seed: Hypothesis' own choices
    favour the first lines, which hold the header.  Most tokens are
    numbers, so most token edits reach the model.
    """
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    lines = [line.split() for line in text.splitlines()]
    if rnd.random() < 0.5:
        units, at = lines, rnd.randrange(len(lines))
        other = rnd.choice(lines + [[tok] for tok in TOKENS])
    else:
        i, at = rnd.choice([(i, j) for i, line in enumerate(lines) for j in range(len(line))])
        units, other = lines[i], rnd.choice(TOKENS)
    op = rnd.choice(("delete", "duplicate", "replace"))
    if op == "delete":
        del units[at]
    elif op == "duplicate":
        units.insert(at, units[at])
    else:
        units[at] = other
    return "\n".join(" ".join(line) for line in lines) + "\n"


@st.composite
def problem_texts(draw):
    n, n_s = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return fileio.problem_text(random_problem(rng, n, n_s, weighted=draw(st.booleans())))


@PROPERTY
@given(problem_texts().flatmap(mutated))
def test_mutated_problem_file_raises_only_documented_errors(text):
    try:
        fileio.parse_problem_text(text)
    except fileio.ProblemFormatError:
        pass
    except ValueError as exc:
        assert str(exc).startswith(INVARIANTS), exc


@PROPERTY
@given(st.tuples(selection_reports | verification_summaries, hashes)
       .map(lambda ph: fileio.report_text(*ph, timestamp="unset")).flatmap(mutated))
def test_mutated_report_raises_only_format_errors(text):
    try:
        fileio.parse_report_text(text)
    except fileio.ProblemFormatError:
        pass
