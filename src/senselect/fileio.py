"""Plain-text problem and report files.

Problem files are whitespace-separated key/value lines with dense
row-major array blocks, one matrix row per line; '#' starts a comment and
blank lines are ignored.  Sections appear in a fixed order:

    schema_version 1
    n <int>
    n_s <int>
    M identity            (or: M dense, followed by n rows of n numbers)
    Gamma_pr identity     (or: Gamma_pr dense, followed by n rows)
    F dense               (followed by n_s rows of n numbers)
    sigma                 (followed by one row of n_s numbers)
    m_pr                  (followed by one row of n numbers)

Numbers are written with 17 significant digits, which round-trips every
double exactly; numtext writes the blocks, with the bytes of one '%.17g'
per value.  Sensor indices are 1-based in files (and in the CLI); the
library is 0-based internally.

A file is read in one pass.  Nothing is allocated from n or n_s before the
rows holding that many values are checked: a dense block is stacked from
checked rows, and an identity block is made once the last line is checked.

Parsing 17-digit text is the slow part of reading a problem, so parsed
blocks are cached under the SHA-256 of the file's bytes: write_problem
stores the blocks of the file it writes, read_problem those of each file it
parses.  A hit builds the problem as a parse does, and is used if it has the
stored content hash, so a file reads as one problem, with one error, either way.

Report files carry the same header lines (schema_version, report kind,
tool_version, problem_hash, timestamp) followed by the payload.  The
timestamp is "unset" unless SOURCE_DATE_EPOCH is present in the
environment, so identical runs write byte-identical files; wall-clock
runtime is never serialized.

The report payload classes come from selection and verify, datetime
formats the timestamp, and numtext writes problem blocks; all four are
imported on first use, so reading and writing problem files loads neither
solver nor checks, and a command that writes no problem file loads no
encoder.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import TYPE_CHECKING

import numpy as np

from .model import Design, InverseProblem, build_problem, content_digest, count_at_least
from .wspace import WeightedSpace

if TYPE_CHECKING:
    from .selection import SelectionReport
    from .verify import VerificationSummary

SCHEMA_VERSION = "1"
TOOL_VERSION = "0.1.0"


class ProblemFormatError(ValueError):
    """Malformed problem or report file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


# 17 significant digits round-trip every double
_NUMBER = "%.17g"


def _fmt(x: float) -> str:
    return _NUMBER % x


class _Lines:
    """Cursor over the meaningful lines of a file, each split when read."""

    def __init__(self, text: str):
        self.rows = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].strip()
            if body:
                self.rows.append((lineno, body))
        self.pos = 0

    def left(self) -> int:
        return len(self.rows) - self.pos

    def next(self, context: str) -> tuple[int, list[str]]:
        if not self.left():
            raise ProblemFormatError(f"unexpected end of file, expected {context}")
        lineno, body = self.rows[self.pos]
        self.pos += 1
        return lineno, body.split()

    def end(self) -> None:
        if self.left():
            raise ProblemFormatError("unexpected trailing content", self.rows[self.pos][0])


def _floats(lineno, tokens, count, label) -> np.ndarray:
    if len(tokens) != count:
        raise ProblemFormatError(f"{label} has {len(tokens)} values, expected {count}", lineno)
    try:
        return np.fromiter(map(float, tokens), float, count)
    except ValueError:  # parse again, naming the first bad value
        return np.array([_float(tok, f"{label}, value {col}", lineno)
                         for col, tok in enumerate(tokens, start=1)])


def _finite_floats(lineno, tokens, count, label) -> np.ndarray:
    """_floats for problem data, which must be finite."""
    out = _floats(lineno, tokens, count, label)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        col = int(bad[0]) + 1
        raise ProblemFormatError(f"{label}, value {col}: not finite: {tokens[col - 1]!r}", lineno)
    return out


def _float(tok: str, what: str, lineno: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ProblemFormatError(f"{what}: not a number: {tok!r}", lineno) from None


def _int(tok: str, what: str, lineno: int | None = None) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ProblemFormatError(f"{what}: not an integer: {tok!r}", lineno) from None


def _indices(toks, what: str, lineno: int) -> tuple[int, ...]:
    """Distinct 1-based sensor indices from a report line, made 0-based."""
    idx = tuple(_int(t, what, lineno) - 1 for t in toks)
    if min(idx, default=0) < 0 or len(set(idx)) != len(idx):
        raise ProblemFormatError(f"{what}: indices must be distinct and at least 1", lineno)
    return idx


def _expect_key(lines: _Lines, key: str) -> tuple[int, list[str]]:
    lineno, tokens = lines.next(f"'{key}'")
    if tokens[0] != key:
        raise ProblemFormatError(f"expected '{key}', found {tokens[0]!r}", lineno)
    return lineno, tokens[1:]


def _one(toks, key: str, lineno: int) -> str:
    if len(toks) != 1:
        raise ProblemFormatError(f"'{key}' takes one value", lineno)
    return toks[0]


def _expect_schema(lines: _Lines) -> None:
    lineno, rest = _expect_key(lines, "schema_version")
    if rest != [SCHEMA_VERSION]:
        raise ProblemFormatError(f"unsupported schema_version {' '.join(rest)!r}", lineno)


def _expect_size(lines: _Lines, key: str, most: int, of: str) -> int:
    """A positive integer field.  Blocks are stacked from checked rows, so
    the O(1) bound most only names the header line for a size too large."""
    lineno, rest = _expect_key(lines, key)
    size = _at_least(1, _one(rest, key, lineno), f"'{key}'", lineno)
    if size > most:
        raise ProblemFormatError(f"{key} = {size} exceeds the {most} {of}", lineno)
    return size


def _read_block(lines: _Lines, key: str, rows: int, cols: int, forms=("identity", "dense")):
    """A dense block stacked from its checked rows, or None for 'identity'."""
    lineno, rest = _expect_key(lines, key)
    if len(rest) != 1 or rest[0] not in forms:
        raise ProblemFormatError(f"'{key}' must be one of {forms}", lineno)
    if rest[0] == "identity":
        return None
    return np.array([_finite_floats(*lines.next(f"row {r} of {key}"), cols, f"{key} row {r}")
                     for r in range(1, rows + 1)])


def _read_vector(lines: _Lines, key: str, count: int) -> np.ndarray:
    _expect_key(lines, key)
    return _finite_floats(*lines.next(f"values of {key}"), count, key)


def _parse_blocks(text: str) -> tuple:
    """(M, Gamma_pr, F, sigma, m_pr) of a problem text, None for an identity block."""
    lines = _Lines(text)
    _expect_schema(lines)
    n = _expect_size(lines, "n", len(text), "characters of the file")
    n_s = _expect_size(lines, "n_s", lines.left() - 1, "lines below")
    M = _read_block(lines, "M", n, n)
    gamma = _read_block(lines, "Gamma_pr", n, n)
    F = _read_block(lines, "F", n_s, n, forms=("dense",))
    sigma = _read_vector(lines, "sigma", n_s)
    m_pr = _read_vector(lines, "m_pr", n)
    lines.end()
    return M, gamma, F, sigma, m_pr


def _dense(blocks) -> tuple:
    """blocks with each identity block made."""
    eye = np.eye(blocks[-1].size)
    return tuple(eye if A is None else A for A in blocks)


def _build(blocks) -> InverseProblem:
    M, gamma, F, sigma, m_pr = _dense(blocks)
    return build_problem(WeightedSpace(M), F, sigma, m_pr, gamma)


def parse_problem_text(text: str) -> InverseProblem:
    return _build(_parse_blocks(text))


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _ascii(data: bytes) -> str:
    """data as ASCII text; a non-ASCII byte is a format error at its line."""
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(f"byte 0x{data[exc.start]:02x} is not ASCII",
                                 data.count(b"\n", 0, exc.start) + 1) from None


# The cache of parsed blocks.  An entry is keyed by the bytes of the file it
# was parsed from, so bump _CACHE_VERSION whenever the parse rules or the
# entries change.  An uncompressed .npz holds each block under its section
# name, an identity block by its absence, and the content_hash of the problem
# the file reads back as, its reports' problem_hash, as "content_hash".  The
# cache keeps the _CACHE_ENTRIES most recently used entries, and is skipped
# silently where it cannot be written.
_CACHE_VERSION = b"senselect problem cache 2\n"
_CACHE_ENTRIES = 8
_BLOCK_NAMES = ("M", "Gamma_pr", "F", "sigma", "m_pr")


def _cache_path(key: str) -> str | None:
    """The entry of key in $XDG_CACHE_HOME/senselect, with ~/.cache for an
    unset or relative XDG_CACHE_HOME; None when no home is known."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "senselect", key + ".npz") if os.path.isabs(base) else None


def _cache_key(data: bytes) -> str:
    h = hashlib.sha256(_CACHE_VERSION)
    h.update(data)
    return h.hexdigest()


def _cache_get(key: str) -> InverseProblem | None:
    """The problem built from the blocks under key if it has the stored content
    hash, else None; any fault is a miss.  A hit refreshes the entry's mtime."""
    path = _cache_path(key)
    if path is None:
        return None
    try:
        # np.load leaks a file it opened itself when the zip is unreadable
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as entry:
            blocks = (entry.get("M"), entry.get("Gamma_pr"), entry["F"], entry["sigma"],
                      entry["m_pr"])
            stored = str(entry["content_hash"])
        p = _build(blocks)
        if p.content_hash() != stored:
            return None
    except Exception:  # the cache only saves parses: any fault in an entry is a miss
        return None
    with suppress(OSError):
        os.utime(path)
    return p


def _cache_put(key: str, blocks, content_hash: str) -> None:
    """Store blocks and their problem's content_hash under key, then evict the
    least recently used entries beyond _CACHE_ENTRIES.  An unwritable cache is skipped."""
    path = _cache_path(key)
    if path is None:
        return
    arrays = {name: np.ascontiguousarray(A) for name, A in zip(_BLOCK_NAMES, blocks)
              if A is not None}
    where = os.path.dirname(path)
    tmp = None
    try:
        os.makedirs(where, mode=0o700, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=where)
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, content_hash=content_hash, **arrays)
        os.replace(tmp, path)
        tmp = None
        with os.scandir(where) as it:
            entries = sorted((e.stat().st_mtime_ns, e.path) for e in it if e.name.endswith(".npz"))
        for _, old in entries[:-_CACHE_ENTRIES]:
            os.remove(old)
    except OSError:
        if tmp is not None:
            with suppress(OSError):
                os.remove(tmp)


def read_problem(path) -> InverseProblem:
    """The problem in a file, its blocks taken from the cache when these bytes
    were parsed or written before; its content hash is made here, once.  A file
    is stored once it has parsed and built, so a faulty one is refused every time."""
    data = _read_bytes(path)
    key = _cache_key(data)
    p = _cache_get(key)
    if p is not None:
        return p
    text = _ascii(data)
    del data  # the parse holds the text alone
    blocks = _parse_blocks(text)
    p = _build(blocks)
    _cache_put(key, blocks, p.content_hash())
    return p


def _written_blocks(p: InverseProblem) -> tuple:
    """The blocks of p as its file reads back: a block equal to I (by
    np.array_equal, so -0.0 counts as 0.0) takes the identity shorthand."""
    def shorthand(A):
        return None if np.array_equal(A, np.eye(A.shape[0])) else A
    return shorthand(p.space.M), shorthand(p.gamma_pr.rep), p.F, p.sigma, p.m_pr


def _problem_lines(blocks):
    """Canonical serialization of a problem's _written_blocks, in ASCII chunks."""
    from .numtext import rows

    M, gamma, F, sigma, m_pr = blocks
    yield f"schema_version {SCHEMA_VERSION}\nn {m_pr.size}\nn_s {sigma.size}\n".encode()
    for key, A in (("M", M), ("Gamma_pr", gamma)):
        if A is None:
            yield f"{key} identity\n".encode()
        else:
            yield f"{key} dense\n".encode()
            yield from rows(A)
    yield b"F dense\n"
    yield from rows(F)
    for key, v in (("sigma", sigma), ("m_pr", m_pr)):
        yield f"{key}\n".encode()
        yield from rows(v[None, :])


def problem_text(p: InverseProblem) -> str:
    return b"".join(_problem_lines(_written_blocks(p))).decode("ascii")


def write_problem(p: InverseProblem, path) -> None:
    """Write p's file and cache its blocks, with their hash as read back, under its bytes."""
    blocks = _written_blocks(p)
    key = hashlib.sha256(_CACHE_VERSION)  # _cache_key of the bytes, as they are written
    with open(path, "wb") as fh:
        for data in _problem_lines(blocks):
            key.update(data)
            fh.write(data)
    _cache_put(key.hexdigest(), blocks, content_digest(*_dense(blocks)))


def default_timestamp() -> str:
    """ISO timestamp from SOURCE_DATE_EPOCH, or "unset" for reproducibility."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return "unset"
    from datetime import datetime, timezone

    return datetime.fromtimestamp(int(epoch), timezone.utc).isoformat()


@dataclass(frozen=True)
class ReportFile:
    """A report payload together with its file header fields."""

    kind: str
    payload: SelectionReport | VerificationSummary
    tool_version: str
    problem_hash: str
    timestamp: str


# A codec is a pair (dump, load): dump(value) gives the tokens of the key
# line, then those of any further lines the field owns; load(tokens, key,
# lineno, lines, seen) reads them back, seen holding the fields above it.
def _scalar(parse, show=str):
    """Codec of a one-token field; parse(tok, what, lineno) reads the token."""
    def load(toks, key, lineno, lines, seen):
        return parse(_one(toks, key, lineno), f"'{key}'", lineno)
    return lambda value: [[show(value)]], load


def _unset_or(dump, load):
    """Codec of a field whose value may be None, written 'unset'."""
    return (lambda value: [["unset"]] if value is None else dump(value),
            lambda toks, *rest: None if toks == ["unset"] else load(toks, *rest))


def _at_least(lo: int, tok, what, lineno) -> int:
    value = _int(tok, what, lineno)
    try:
        return count_at_least(value, lo, what)
    except ValueError as exc:
        raise ProblemFormatError(str(exc), lineno) from None


def _choice(words, tok, what, lineno) -> str:
    if tok not in words:
        raise ProblemFormatError(f"{what} must be one of {words}, got {tok!r}", lineno)
    return tok


def _load_chosen(toks, key, lineno, lines, seen) -> Design:
    chosen = _indices(toks, f"'{key}'", lineno)
    if len(chosen) != seen["k"]:
        raise ProblemFormatError(
            f"'{key}' has {len(chosen)} indices, expected k = {seen['k']}", lineno)
    return Design(chosen)


def _load_steps(toks, key, lineno, lines, seen):
    """The step lines: each sensor of 'chosen' once, in selection order."""
    count = _int(_one(toks, key, lineno), f"'{key}'", lineno)
    if count != seen["k"]:
        raise ProblemFormatError(f"'{key}' = {count}, expected k = {seen['k']}", lineno)
    left = set(seen["chosen"])
    steps = []
    for s in range(1, count + 1):
        lineno, tokens = lines.next(f"step {s}")
        (idx,) = _indices(tokens[:1], f"step {s}", lineno)
        gain, phi = _floats(lineno, tokens, 3, f"step {s}").tolist()[1:]
        if idx not in left:
            raise ProblemFormatError(
                f"step {s}: sensor {idx + 1} is not in 'chosen' or repeats a step", lineno)
        left.remove(idx)
        steps.append((idx, gain, phi))
    return tuple(steps)


def _checked(codec, fault):
    """codec, refusing a value v for which fault(v, seen) names a fault.

    seen holds the fields above the line; a field that they imply must
    agree with them, or the file would not round-trip.
    """
    dump, load = codec

    def check(toks, key, lineno, lines, seen):
        value = load(toks, key, lineno, lines, seen)
        msg = fault(value, seen)
        if msg:
            raise ProblemFormatError(f"'{key}' {msg}", lineno)
        return value
    return dump, check


def _eig_fault(eig, seen) -> str | None:
    half = 0.5 * seen["phi_final"]
    return None if eig == half else f"must be phi_final / 2 = {_fmt(half)}"


def _certificate_fault(cert, seen) -> str | None:
    """A certificate holds the ratio certify_bound gives phi_final and opt_phi."""
    if cert is None:
        return None
    from .selection import GUARANTEE_FLOOR, certificate_ratio

    try:
        ratio = certificate_ratio(seen["phi_final"], cert.opt_phi)
    except ZeroDivisionError:
        return "has opt_phi 0 but phi_final is not 0"
    if (cert.ratio, cert.floor) != (ratio, GUARANTEE_FLOOR):
        return (f"ratio and floor must be {_fmt(ratio)} {_fmt(GUARANTEE_FLOOR)} "
                f"for phi_final {_fmt(seen['phi_final'])} and opt_phi {_fmt(cert.opt_phi)}")
    return None


def _ok_fault(ok, seen) -> str | None:
    want = _verification_summary(seen).ok
    if ok == want:
        return None
    return "must be yes: every check passed" if want else "must be no: a check failed"


_WORD = _scalar(lambda tok, what, lineno: tok)
_COUNT = _scalar(partial(_at_least, 0))
_SAMPLES = _scalar(partial(_at_least, 2))  # a standard error needs two
_FLOAT = _scalar(_float, _fmt)
_FLAG = _scalar(lambda tok, what, lineno: _choice(("yes", "no"), tok, what, lineno) == "yes",
                lambda value: "yes" if value else "no")
_INDICES = (lambda idx: [[str(i + 1) for i in idx]],
            lambda toks, key, lineno, *_: _indices(toks, f"'{key}'", lineno))

# Each table lists a report's lines in file order: the key, its codec and
# the attribute path of the value it holds.
_SELECTION = (
    ("method", _WORD, "method"),
    ("seed", _unset_or(*_COUNT), "seed"),
    ("k", _COUNT, "k"),
    ("chosen", (_INDICES[0], _load_chosen), "chosen"),
    ("phi_final", _FLOAT, "phi_final"),
    ("eig_final", _checked(_FLOAT, _eig_fault), "eig_final"),
    ("certificate", _checked(_unset_or(
        lambda c: [[_fmt(c.opt_phi), _fmt(c.ratio), _fmt(c.floor)]],
        lambda toks, key, lineno, *_: _certificate(*_floats(lineno, toks, 3, key).tolist())),
        _certificate_fault), "bound_certificate"),
    ("steps", (
        lambda steps: [[str(len(steps))],
                       *([str(i + 1), _fmt(gain), _fmt(phi)] for i, gain, phi in steps)],
        _load_steps), "per_step"),
)

_VERIFICATION = (
    ("seed", _COUNT, "seed"),
    ("monotone_trials", _COUNT, "monotone.trials"),
    ("monotone_violations", _COUNT, "monotone.violations"),
    ("monotone_min_gain", _FLOAT, "monotone.min_gain"),
    ("monotone_max_formula_err", _FLOAT, "monotone.max_formula_err"),
    ("submodular_mode", _WORD, "submodular.mode"),
    ("submodular_checks", _COUNT, "submodular.checks"),
    ("submodular_violations", _COUNT, "submodular.violations"),
    ("submodular_max_breach", _FLOAT, "submodular.max_breach"),
    ("submodular_max_formula_err", _unset_or(*_FLOAT), "submodular.max_formula_err"),
    ("mc_samples", _SAMPLES, "mc.n_samples"),
    ("mc_design", _INDICES, "mc_design"),
    ("mc_mean", _FLOAT, "mc.mean_kl"),
    ("mc_stderr", _FLOAT, "mc.std_error"),
    ("mc_target", _FLOAT, "mc_target"),
    ("mc_ok", _FLAG, "mc_ok"),
    ("ok", _checked(_FLAG, _ok_fault), "ok"),  # implied by the others; checked, then dropped
)


def _certificate(*fields):
    from .selection import Certificate

    return Certificate(*fields)


def _verification_summary(v) -> VerificationSummary:
    from .verify import McEigEstimate, MonotoneReport, SubmodularReport, VerificationSummary

    def part(cls, name, **more):
        return cls(**{a[len(name) + 1:]: x for a, x in v.items() if a.startswith(name + ".")},
                   **more)
    return VerificationSummary(
        part(MonotoneReport, "monotone"), part(SubmodularReport, "submodular"),
        part(McEigEstimate, "mc", seed=v["seed"] + 2),
        v["mc_design"], v["mc_target"], v["mc_ok"], v["seed"])


def _selection_report(v, problem_hash) -> SelectionReport:
    from .selection import SelectionReport

    return SelectionReport(**v, problem_hash=problem_hash)


# kind -> payload class (its module and name), field table, and payload
# from (values, problem hash)
_KINDS = {
    "selection": ("selection", "SelectionReport", _SELECTION, _selection_report),
    "verification": ("verify", "VerificationSummary", _VERIFICATION,
                     lambda v, problem_hash: _verification_summary(v)),
}


def _kind_of(payload) -> str | None:
    """The report kind of payload.  A payload class whose module was never
    imported has no instances, so no module is imported to find out."""
    for kind, (module, name, _, _) in _KINDS.items():
        loaded = sys.modules.get(f"{__package__}.{module}")
        if loaded is not None and isinstance(payload, getattr(loaded, name)):
            return kind
    return None


_HEADER = (
    ("report", _scalar(partial(_choice, tuple(_KINDS))), "kind"),
    ("tool_version", _WORD, "tool_version"),
    ("problem_hash", _WORD, "problem_hash"),
    ("timestamp", _WORD, "timestamp"),
)


def _dump_fields(table, obj):
    for key, (dump, _), attr in table:
        first, *more = dump(attrgetter(attr)(obj))
        yield " ".join([key, *first])
        yield from map(" ".join, more)


def _load_fields(lines: _Lines, table) -> dict:
    seen = {}
    for key, (_, load), attr in table:
        lineno, toks = _expect_key(lines, key)
        seen[attr] = load(toks, key, lineno, lines, seen)
    return seen


def report_text(payload, problem_hash: str | None = None, tool_version: str = TOOL_VERSION,
                timestamp: str | None = None) -> str:
    kind = _kind_of(payload)
    if kind is None:
        raise TypeError(f"cannot serialize report payload of type {type(payload)!r}")
    if kind == "selection":
        problem_hash = problem_hash or payload.problem_hash
    elif problem_hash is None:
        raise ValueError("verification reports need an explicit problem hash")
    head = ReportFile(kind, payload, tool_version, problem_hash,
                      default_timestamp() if timestamp is None else timestamp)
    out = [f"schema_version {SCHEMA_VERSION}", *_dump_fields(_HEADER, head),
           *_dump_fields(_KINDS[kind][2], payload)]
    return "\n".join(out) + "\n"


def write_report(payload, path, problem_hash=None, tool_version=TOOL_VERSION,
                 timestamp=None) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(report_text(payload, problem_hash, tool_version, timestamp))


def parse_report_text(text: str) -> ReportFile:
    lines = _Lines(text)
    _expect_schema(lines)
    head = _load_fields(lines, _HEADER)
    _, _, table, build = _KINDS[head["kind"]]
    payload = build(_load_fields(lines, table), head["problem_hash"])
    lines.end()
    return ReportFile(payload=payload, **head)


def read_report(path) -> ReportFile:
    return parse_report_text(_ascii(_read_bytes(path)))
