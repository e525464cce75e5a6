"""Plain-text problem and report files.

Each file is whitespace-separated lines: a key line per field of a table, in
its order, and the lines its field owns; '#' starts a comment and blank
lines are ignored.  A problem file is 'schema_version 1', then the fields of
_PROBLEM: n, n_s, M and Gamma_pr ('identity', or 'dense' and n rows of n
numbers), F ('dense' and n_s rows of n numbers), sigma and m_pr (a bare key
line, then one row of n_s or n numbers).  Only regular files are read.

Numbers are written with 17 significant digits, which round-trips every
double exactly; numtext writes the blocks, with the bytes of one '%.17g'
per value, and only a block that is bitwise I is written 'identity', so a
problem file reads back as the very arrays written.  Sensor indices are
1-based in files (and in the CLI); the library is 0-based internally.

Every problem and report, a file's or a text's UTF-8 bytes, is read one
"\n"-terminated line at a time and parsed as it is read, so a reader holds
one "\n" line of it, and the whole text only where it has no "\n".  Each
"\n" line is checked for ASCII and split as str.splitlines splits it; a
"\r\n" never spans two "\n" lines, so lines break where str.splitlines
breaks the whole text, and a line number is the same whichever fault it
names.  A dense block is made no larger than the file's characters can fill,
from checked rows; an identity block is n x n whatever the file's length,
made once the last line is checked.

Parsing 17-digit text is the slow part of reading a problem, so problems
are cached under the SHA-256 of the file's bytes: write_problem stores the
problem it writes, read_problem each problem it parses.  read_problem hashes
the file first; a miss then reads it again to parse it.  A hit builds the
problem as a parse does, and is used if it has the stored content hash, so a
file reads as one problem, with one error, either way; a prior that only
its square root's checks refuse is stored, and refused at the root's first read.

Report files carry the same header lines (schema_version, report kind,
tool_version, problem_hash, timestamp) followed by the payload.  The
timestamp is "unset" unless SOURCE_DATE_EPOCH is present in the
environment, so identical runs write byte-identical files; wall-clock
runtime is never serialized.

The report payload classes of selection and verify, datetime and numtext
are imported on first use, so reading and writing problem files loads
neither solver nor checks, and a command that writes no problem file loads
no encoder.
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
import tempfile
import zipfile
from collections import deque
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib import format as npy

from . import __version__ as TOOL_VERSION
from .model import Design, InverseProblem, build_problem, count_at_least
from .wspace import WeightedSpace

if TYPE_CHECKING:
    from .selection import SelectionReport
    from .verify import VerificationSummary

SCHEMA_VERSION = "1"


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
    """Cursor over the meaningful lines of a text of size characters, each
    taken from lines, the text's lines in order, and split when it is read."""

    def __init__(self, lines, size: int):
        self.size = size
        self._rows = self._meaningful(lines)

    @staticmethod
    def _meaningful(lines):
        for lineno, raw in enumerate(lines, start=1):
            body = raw.split("#", 1)[0].strip()
            if body:
                yield lineno, body

    def next(self, context: str) -> tuple[int, list[str]]:
        row = next(self._rows, None)
        if row is None:
            raise ProblemFormatError(f"unexpected end of file, expected {context}")
        lineno, body = row
        return lineno, body.split()

    def end(self) -> None:
        row = next(self._rows, None)
        if row is not None:
            raise ProblemFormatError("unexpected trailing content", row[0])


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


def _load_size(toks, key, lineno, lines, seen) -> int:
    """A positive integer field.  Blocks are filled from checked rows, so the
    bound, the text's length, only names the header line for a size too large."""
    size = _at_least(1, _one(toks, key, lineno), f"'{key}'", lineno)
    if size > lines.size:
        raise ProblemFormatError(
            f"{key} = {size} exceeds the {lines.size} characters of the file", lineno)
    return size


_SIZE = (lambda size: ([str(size)], ()), _load_size)


def _is_identity(A: np.ndarray) -> bool:
    """Whether A is bitwise I: a diagonal of 1.0, no other nonzero bits (so no -0.0)."""
    return bool((A.diagonal() == 1.0).all()) and np.count_nonzero(A.view(np.int64)) == len(A)


def _block(shape, *words):
    """Codec of a block whose shape names sizes above it: a key line with one
    of words, or none, then its rows, a vector's values on one line.  Where
    words allow, a block that is bitwise I is written 'identity', and reads
    back as None; any other is written with its exact values.  No more rows
    are made than the text holds at 2 cols - 1 characters a row and a break
    between rows."""
    def dump(A):
        if "identity" in words and _is_identity(A):
            return ["identity"], ()
        from .numtext import rows

        return ["dense"] if words else [], rows(np.atleast_2d(A))

    def load(toks, key, lineno, lines, seen):
        if toks not in ([[word] for word in words] or [[]]):  # one of words, or a bare key
            raise ProblemFormatError(
                f"'{key}' must be one of {words}" if words else f"'{key}' takes no value", lineno)
        if toks == ["identity"]:
            return None
        *rows, cols = (seen[size] for size in shape)
        if not rows:
            return _finite_floats(*lines.next(f"values of {key}"), cols, key)
        block = np.empty((min(rows[0], (lines.size + 1) // (2 * cols)), cols))
        for r in range(1, rows[0] + 1):
            block[r - 1] = _finite_floats(*lines.next(f"row {r} of {key}"), cols, f"{key} row {r}")
        return block
    return dump, load


# A problem file's fields after schema_version: the key, its codec and the
# InverseProblem attribute of its value.  A problem codec's dump(value) gives
# its key line's words and the ASCII chunks below.
_PROBLEM = (
    ("n", _SIZE, "n"),
    ("n_s", _SIZE, "n_s"),
    ("M", _block(("n", "n"), "identity", "dense"), "space.M"),
    ("Gamma_pr", _block(("n", "n"), "identity", "dense"), "gamma_pr.rep"),
    ("F", _block(("n_s", "n"), "dense"), "F"),
    ("sigma", _block(("n_s",)), "sigma"),
    ("m_pr", _block(("n",)), "m_pr"),
)
_BLOCKS = _PROBLEM[2:]  # the arrays, which the cache stores under their keys


def _parse_blocks(lines: _Lines) -> dict:
    """The _PROBLEM fields of a problem's lines, by attribute; an identity block is None."""
    _expect_schema(lines)
    fields = _load_fields(lines, _PROBLEM)
    lines.end()
    return fields


def _build(blocks) -> InverseProblem:
    """The problem of the _BLOCKS of blocks, by attribute, an I made for each identity block."""
    n = blocks["m_pr"].size
    # F, sigma and m_pr are named as build_problem names them
    b = {attr: np.eye(n) if blocks[attr] is None else blocks[attr] for _, _, attr in _BLOCKS}
    return build_problem(WeightedSpace(b.pop("space.M")), gamma_pr=b.pop("gamma_pr.rep"), **b)


def parse_problem_text(text: str) -> InverseProblem:
    return _build(_parse_text(text, _parse_blocks))


def _file_lines(fh, size: int, digest=None):
    """The lines of the first size bytes of the binary file fh, broken where
    str.splitlines breaks the whole text, each given as soon as it ends.

    fh is read one "\n"-terminated line at a time, each added to digest as
    it is read and decoded as ASCII: a non-ASCII byte is a format error at
    its line.  A "\r\n" ends within one "\n" line, so splitting each one
    breaks the text where splitting the whole does.
    """
    count = 0  # lines given so far
    while size > 0 and (line := fh.readline(size)):
        size -= len(line)
        if digest is not None:
            digest.update(line)
        try:
            lines = line.decode("ascii").splitlines()
        except UnicodeDecodeError as exc:
            head = line[:exc.start].decode("ascii")
            raise ProblemFormatError(f"byte 0x{line[exc.start]:02x} is not ASCII",
                                     count + len((head + "?").splitlines())) from None
        count += len(lines)
        yield from lines


def _parse_file(fh, size: int, parse, digest=None):
    """parse of the _Lines of the first size bytes of the binary file fh.

    A format error reads the rest of those bytes before it is raised, so
    a non-ASCII byte anywhere is the fault named."""
    lines = _file_lines(fh, size, digest)
    try:
        return parse(_Lines(lines, size))
    except ProblemFormatError:
        deque(lines, maxlen=0)
        raise


def _parse_text(text: str, parse):
    """_parse_file of text's UTF-8 bytes, a lone surrogate's included."""
    data = text.encode("utf-8", "surrogatepass")
    return _parse_file(io.BytesIO(data), len(data), parse)


# The cache of problems.  An entry is keyed by the bytes of the file it was
# parsed from or written as, as the SHA-256 of _CACHE_VERSION and then those
# bytes, so bump _CACHE_VERSION whenever the parse rules or the entries
# change.  An uncompressed .npz holds each block of the problem, as the
# problem holds it, under its section name, and the problem's content_hash,
# its reports' problem_hash, as "content_hash".  The cache keeps the
# _CACHE_ENTRIES most recently used entries, and is skipped silently where it
# cannot be written.
_CACHE_VERSION = b"senselect problem cache 3\n"
_CACHE_ENTRIES = 8


def _cache_path(key: str) -> str | None:
    """The entry of key in $XDG_CACHE_HOME/senselect, with ~/.cache for an
    unset or relative XDG_CACHE_HOME; None when no home is known."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "senselect", key + ".npz") if os.path.isabs(base) else None


def _cache_get(key: str) -> InverseProblem | None:
    """The problem built from the blocks under key if it has the stored content
    hash, else None; any fault is a miss.  A hit refreshes the entry's mtime."""
    path = _cache_path(key)
    if path is None:
        return None
    try:
        # np.load leaks a file it opened itself when the zip is unreadable
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as entry:
            blocks = {attr: entry[name] for name, _, attr in _BLOCKS}
            stored = str(entry["content_hash"])
        p = _build(blocks)
        if p.content_hash() != stored:
            return None
    except Exception:  # the cache only saves parses: any fault in an entry is a miss
        return None
    with suppress(OSError):
        os.utime(path)
    return p


def _cache_put(key: str, p: InverseProblem) -> None:
    """Store p's blocks and content_hash under key, then evict the least
    recently used entries beyond _CACHE_ENTRIES.  An unwritable cache is skipped."""
    path = _cache_path(key)
    if path is None:
        return
    arrays = {name: np.ascontiguousarray(attrgetter(attr)(p)) for name, _, attr in _BLOCKS}
    where = os.path.dirname(path)
    tmp = None
    try:
        os.makedirs(where, mode=0o700, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=where)
        # the members np.savez writes, each written from its array in place,
        # where savez copies an array in pieces of up to 16 MiB
        with os.fdopen(fd, "wb") as fh, zipfile.ZipFile(fh, "w") as entry:
            for name, A in (("content_hash", np.array(p.content_hash())), *arrays.items()):
                with entry.open(name + ".npy", "w", force_zip64=True) as member:
                    npy.write_array_header_1_0(member, npy.header_data_from_array_1_0(A))
                    member.write(A.data)
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


# A problem file is read through a file buffer of _PIECE bytes, which takes a
# row of a wide block in a few reads where the default 8 KiB takes many, and
# a hit hashes it through one reused buffer of that size: below glibc's
# 128 KiB mmap threshold each comes from the heap, which later phases reuse,
# where a larger one is mapped afresh and raises a whole command's peak.
_PIECE = 1 << 16


def _file_key(fh) -> str:
    """The cache key of the bytes of the binary file fh, read into one reused buffer."""
    key = hashlib.sha256(_CACHE_VERSION)
    buf = memoryview(bytearray(_PIECE))
    while size := fh.readinto(buf):
        key.update(buf[:size])
    return key.hexdigest()


def _open_regular(path, buffering=-1):
    """The file at path, for binary reads, if it is a regular file: a read
    takes its size first, and a miss reads it twice."""
    if os.path.exists(path) and not os.path.isfile(path):
        raise OSError(f"not a regular file: {os.fsdecode(path)!r}")
    return open(path, "rb", buffering=buffering)


def read_problem(path) -> InverseProblem:
    """The problem in a file, its blocks taken from the cache when these bytes
    were parsed or written before; its content hash is made here, once.

    A hit reads the file once, to hash it.  A miss reads it again, one line
    at a time, and stores the blocks under the hash of the bytes it parsed,
    not of those first read, in case the file changed in between.  A file is
    stored once it has parsed and built, so one that fails either is refused
    every time; the prior's square root is checked later, at its first read.
    """
    with _open_regular(path, _PIECE) as fh:
        if (p := _cache_get(_file_key(fh))) is not None:
            return p
        fh.seek(0)
        key = hashlib.sha256(_CACHE_VERSION)
        blocks = _parse_file(fh, os.fstat(fh.fileno()).st_size, _parse_blocks, key)
    p = _build(blocks)
    _cache_put(key.hexdigest(), p)
    return p


def _problem_lines(p: InverseProblem):
    """Canonical serialization of p, in ASCII chunks, which read back as p."""
    yield f"schema_version {SCHEMA_VERSION}\n".encode()
    for key, (dump, _), attr in _PROBLEM:
        words, rows = dump(attrgetter(attr)(p))
        yield " ".join([key, *words]).encode() + b"\n"
        yield from rows


def problem_text(p: InverseProblem) -> str:
    return b"".join(_problem_lines(p)).decode("ascii")


def write_problem(p: InverseProblem, path) -> None:
    """Write p's file and cache p under its bytes."""
    key = hashlib.sha256(_CACHE_VERSION)  # the cache key of the bytes, as they are written
    with open(path, "wb") as fh:
        for data in _problem_lines(p):
            key.update(data)
            fh.write(data)
    _cache_put(key.hexdigest(), p)


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
    from .verify import (McEigEstimate, MonotoneReport, SubmodularReport, VerificationSummary,
                         mc_seed)

    def part(cls, name, **more):
        return cls(**{a[len(name) + 1:]: x for a, x in v.items() if a.startswith(name + ".")},
                   **more)
    return VerificationSummary(
        part(MonotoneReport, "monotone"), part(SubmodularReport, "submodular"),
        part(McEigEstimate, "mc", seed=mc_seed(v["seed"])),
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


def _parse_report(lines: _Lines) -> ReportFile:
    _expect_schema(lines)
    head = _load_fields(lines, _HEADER)
    _, _, table, build = _KINDS[head["kind"]]
    payload = build(_load_fields(lines, table), head["problem_hash"])
    lines.end()
    return ReportFile(payload=payload, **head)


def parse_report_text(text: str) -> ReportFile:
    return _parse_text(text, _parse_report)


def read_report(path) -> ReportFile:
    with _open_regular(path) as fh:
        return _parse_file(fh, os.fstat(fh.fileno()).st_size, _parse_report)
