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
double exactly.  Sensor indices are 1-based in files (and in the CLI);
the library is 0-based internally.

Report files carry the same header lines (schema_version, report kind,
tool_version, problem_hash, timestamp) followed by the payload.  The
timestamp is "unset" unless SOURCE_DATE_EPOCH is present in the
environment, so identical runs write byte-identical files; wall-clock
runtime is never serialized.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .model import InverseProblem, build_problem
from .objective import Design
from .selection import Certificate, SelectionReport
from .verify import McEigEstimate, MonotoneReport, SubmodularReport, VerificationSummary
from .wspace import WeightedSpace

SCHEMA_VERSION = "1"
TOOL_VERSION = "0.1.0"


class ProblemFormatError(ValueError):
    """Malformed problem or report file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class _Lines:
    """Cursor over the meaningful lines of a file."""

    def __init__(self, text: str):
        self.rows = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].strip()
            if body:
                self.rows.append((lineno, body.split()))
        self.pos = 0

    def done(self) -> bool:
        return self.pos >= len(self.rows)

    def peek_line(self) -> int:
        return self.rows[self.pos][0] if not self.done() else -1

    def next(self, context: str):
        if self.done():
            raise ProblemFormatError(f"unexpected end of file, expected {context}")
        row = self.rows[self.pos]
        self.pos += 1
        return row


def _parse_floats(lineno, tokens, count, label):
    if len(tokens) != count:
        raise ProblemFormatError(
            f"{label} has {len(tokens)} values, expected {count}", lineno
        )
    try:
        return [float(tok) for tok in tokens]
    except ValueError:  # parse again, naming the first bad value
        return [_float(tok, f"{label}, value {col}", lineno)
                for col, tok in enumerate(tokens, start=1)]


def _finite_floats(lineno, tokens, count, label) -> np.ndarray:
    """_parse_floats for problem data, which must be finite."""
    out = np.array(_parse_floats(lineno, tokens, count, label))
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


def _int(tok: str, what: str, lineno: int) -> int:
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


def _expect_key(lines: _Lines, key: str):
    lineno, tokens = lines.next(f"'{key}'")
    if tokens[0] != key:
        raise ProblemFormatError(f"expected '{key}', found {tokens[0]!r}", lineno)
    return lineno, tokens[1:]


def _expect_int(lines: _Lines, key: str) -> int:
    lineno, val = _expect_value(lines, key)
    return _int(val, f"'{key}'", lineno)


def _expect_count(lines: _Lines, key: str) -> tuple[int, int]:
    """Line number and value of a positive integer field."""
    lineno, val = _expect_value(lines, key)
    count = _int(val, f"'{key}'", lineno)
    if count < 1:
        raise ProblemFormatError(f"{key} must be positive, got {count}", lineno)
    return lineno, count


def _read_matrix(lines: _Lines, key: str, rows: int, cols: int, allow_identity: bool):
    lineno, rest = _expect_key(lines, key)
    forms = ("identity", "dense") if allow_identity else ("dense",)
    if len(rest) != 1 or rest[0] not in forms:
        raise ProblemFormatError(f"'{key}' must be one of {forms}", lineno)
    if rest[0] == "identity":
        return np.eye(rows)
    out = np.empty((rows, cols))
    for r in range(rows):
        rl, tokens = lines.next(f"row {r + 1} of {key}")
        out[r] = _finite_floats(rl, tokens, cols, f"{key} row {r + 1}")
    return out


def _read_vector(lines: _Lines, key: str, count: int):
    _expect_key(lines, key)
    lineno, tokens = lines.next(f"values of {key}")
    return _finite_floats(lineno, tokens, count, key)


def parse_problem_text(text: str) -> InverseProblem:
    lines = _Lines(text)
    lineno, rest = _expect_key(lines, "schema_version")
    if rest != [SCHEMA_VERSION]:
        raise ProblemFormatError(f"unsupported schema_version {' '.join(rest)!r}", lineno)
    n_line, n = _expect_count(lines, "n")
    n_s_line, n_s = _expect_count(lines, "n_s")
    # Sizes the rest of the file cannot hold are refused before anything
    # is allocated from them: F needs n_s lines, and its rows n values.
    rest = lines.rows[lines.pos:]
    width = max((len(tokens) for _, tokens in rest), default=0)
    if n > width:
        raise ProblemFormatError(
            f"n = {n} exceeds the {width} values of the longest line below", n_line)
    if n_s > len(rest):
        raise ProblemFormatError(
            f"n_s = {n_s} exceeds the {len(rest)} lines below", n_s_line)
    M = _read_matrix(lines, "M", n, n, allow_identity=True)
    gamma = _read_matrix(lines, "Gamma_pr", n, n, allow_identity=True)
    F = _read_matrix(lines, "F", n_s, n, allow_identity=False)
    sigma = _read_vector(lines, "sigma", n_s)
    m_pr = _read_vector(lines, "m_pr", n)
    if not lines.done():
        raise ProblemFormatError("unexpected trailing content", lines.peek_line())
    space = WeightedSpace(M)
    return build_problem(space, F, sigma, m_pr, gamma)


def read_problem(path) -> InverseProblem:
    with open(path, "r", encoding="ascii") as fh:
        return parse_problem_text(fh.read())


def problem_text(p: InverseProblem) -> str:
    """Canonical serialization; exact identity blocks use the shorthand."""
    out = [f"schema_version {SCHEMA_VERSION}", f"n {p.n}", f"n_s {p.n_s}"]

    def row(values):
        return " ".join(_fmt(x) for x in values)

    for key, A in (("M", p.space.M), ("Gamma_pr", p.gamma_pr.rep)):
        if np.array_equal(A, np.eye(A.shape[0])):
            out.append(f"{key} identity")
        else:
            out += [f"{key} dense", *map(row, A)]
    out += ["F dense", *map(row, p.F), "sigma", row(p.sigma), "m_pr", row(p.m_pr)]
    return "\n".join(out) + "\n"


def write_problem(p: InverseProblem, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(problem_text(p))


def default_timestamp() -> str:
    """ISO timestamp from SOURCE_DATE_EPOCH, or "unset" for reproducibility."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return "unset"
    return datetime.fromtimestamp(int(epoch), timezone.utc).isoformat()


@dataclass(frozen=True)
class ReportFile:
    """A report payload together with its file header fields."""

    kind: str
    payload: SelectionReport | VerificationSummary
    tool_version: str
    problem_hash: str
    timestamp: str


def _header(kind, problem_hash, tool_version, timestamp):
    return [
        f"schema_version {SCHEMA_VERSION}",
        f"report {kind}",
        f"tool_version {tool_version}",
        f"problem_hash {problem_hash}",
        f"timestamp {timestamp}",
    ]


def report_text(
    payload,
    problem_hash: str | None = None,
    tool_version: str = TOOL_VERSION,
    timestamp: str | None = None,
) -> str:
    if timestamp is None:
        timestamp = default_timestamp()
    if isinstance(payload, SelectionReport):
        out = _header("selection", problem_hash or payload.problem_hash,
                      tool_version, timestamp)
        out.append(f"method {payload.method}")
        out.append(f"seed {'unset' if payload.seed is None else payload.seed}")
        out.append(f"k {payload.k}")
        out.append("chosen" + "".join(f" {i + 1}" for i in payload.chosen))
        out.append(f"phi_final {_fmt(payload.phi_final)}")
        out.append(f"eig_final {_fmt(payload.eig_final)}")
        cert = payload.bound_certificate
        if cert is None:
            out.append("certificate unset")
        else:
            out.append(
                f"certificate {_fmt(cert.opt_phi)} {_fmt(cert.ratio)} {_fmt(cert.floor)}"
            )
        out.append(f"steps {len(payload.per_step)}")
        for idx, gain, phi in payload.per_step:
            out.append(f"{idx + 1} {_fmt(gain)} {_fmt(phi)}")
    elif isinstance(payload, VerificationSummary):
        if problem_hash is None:
            raise ValueError("verification reports need an explicit problem hash")
        out = _header("verification", problem_hash, tool_version, timestamp)
        mono, sub, mc = payload.monotone, payload.submodular, payload.mc
        out.append(f"seed {payload.seed}")
        out.append(f"monotone_trials {mono.trials}")
        out.append(f"monotone_violations {mono.violations}")
        out.append(f"monotone_min_gain {_fmt(mono.min_gain)}")
        out.append(f"monotone_max_formula_err {_fmt(mono.max_formula_err)}")
        out.append(f"submodular_mode {sub.mode}")
        out.append(f"submodular_checks {sub.checks}")
        out.append(f"submodular_violations {sub.violations}")
        out.append(f"submodular_max_breach {_fmt(sub.max_breach)}")
        err = "unset" if sub.max_formula_err is None else _fmt(sub.max_formula_err)
        out.append(f"submodular_max_formula_err {err}")
        out.append(f"mc_samples {mc.n_samples}")
        out.append("mc_design" + "".join(f" {i + 1}" for i in payload.mc_design))
        out.append(f"mc_mean {_fmt(mc.mean_kl)}")
        out.append(f"mc_stderr {_fmt(mc.std_error)}")
        out.append(f"mc_target {_fmt(payload.mc_target)}")
        out.append(f"mc_ok {'yes' if payload.mc_ok else 'no'}")
        out.append(f"ok {'yes' if payload.ok else 'no'}")
    else:
        raise TypeError(f"cannot serialize report payload of type {type(payload)!r}")
    return "\n".join(out) + "\n"


def write_report(payload, path, problem_hash=None, tool_version=TOOL_VERSION,
                 timestamp=None) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(report_text(payload, problem_hash, tool_version, timestamp))


def _expect_value(lines, key):
    lineno, rest = _expect_key(lines, key)
    if len(rest) != 1:
        raise ProblemFormatError(f"'{key}' takes one value", lineno)
    return lineno, rest[0]


def _expect_float(lines, key) -> float:
    lineno, val = _expect_value(lines, key)
    return _float(val, f"'{key}'", lineno)


def _expect_flag(lines, key) -> bool:
    lineno, val = _expect_value(lines, key)
    if val not in ("yes", "no"):
        raise ProblemFormatError(f"'{key}' must be 'yes' or 'no', got {val!r}", lineno)
    return val == "yes"


def parse_report_text(text: str) -> ReportFile:
    lines = _Lines(text)
    lineno, rest = _expect_key(lines, "schema_version")
    if rest != [SCHEMA_VERSION]:
        raise ProblemFormatError(f"unsupported schema_version {' '.join(rest)!r}", lineno)
    _, kind = _expect_value(lines, "report")
    _, tool_version = _expect_value(lines, "tool_version")
    _, problem_hash = _expect_value(lines, "problem_hash")
    _, timestamp = _expect_value(lines, "timestamp")
    if kind == "selection":
        payload = _parse_selection(lines, problem_hash)
    elif kind == "verification":
        payload = _parse_verification(lines)
    else:
        raise ProblemFormatError(f"unknown report kind {kind!r}")
    if not lines.done():
        raise ProblemFormatError("unexpected trailing content", lines.peek_line())
    return ReportFile(kind, payload, tool_version, problem_hash, timestamp)


def _parse_selection(lines, problem_hash) -> SelectionReport:
    _, method = _expect_value(lines, "method")
    lineno, seed_tok = _expect_value(lines, "seed")
    seed = None if seed_tok == "unset" else _int(seed_tok, "'seed'", lineno)
    k = _expect_int(lines, "k")
    lineno, chosen_toks = _expect_key(lines, "chosen")
    chosen = Design(_indices(chosen_toks, "'chosen'", lineno))
    phi_final = _expect_float(lines, "phi_final")
    eig_final = _expect_float(lines, "eig_final")
    lineno, cert_toks = _expect_key(lines, "certificate")
    if cert_toks == ["unset"]:
        cert = None
    elif len(cert_toks) == 3:
        vals = _parse_floats(lineno, cert_toks, 3, "certificate")
        cert = Certificate(opt_phi=vals[0], ratio=vals[1], floor=vals[2])
    else:
        raise ProblemFormatError("certificate takes 'unset' or three values", lineno)
    n_steps = _expect_int(lines, "steps")
    steps = []
    for s in range(n_steps):
        lineno, tokens = lines.next(f"step {s + 1}")
        if len(tokens) != 3:
            raise ProblemFormatError(
                f"step {s + 1} has {len(tokens)} values, expected 3", lineno
            )
        (idx,) = _indices(tokens[:1], f"step {s + 1}", lineno)
        gain, phi = _parse_floats(lineno, tokens[1:], 2, f"step {s + 1}")
        steps.append((idx, gain, phi))
    return SelectionReport(
        method=method,
        chosen=chosen,
        per_step=tuple(steps),
        phi_final=phi_final,
        eig_final=eig_final,
        k=k,
        problem_hash=problem_hash,
        seed=seed,
        bound_certificate=cert,
        wall_time=None,
    )


def _parse_verification(lines) -> VerificationSummary:
    seed = _expect_int(lines, "seed")
    mono = MonotoneReport(
        trials=_expect_int(lines, "monotone_trials"),
        violations=_expect_int(lines, "monotone_violations"),
        min_gain=_expect_float(lines, "monotone_min_gain"),
        max_formula_err=_expect_float(lines, "monotone_max_formula_err"),
    )
    _, mode = _expect_value(lines, "submodular_mode")
    checks = _expect_int(lines, "submodular_checks")
    violations = _expect_int(lines, "submodular_violations")
    max_breach = _expect_float(lines, "submodular_max_breach")
    lineno, err_tok = _expect_value(lines, "submodular_max_formula_err")
    max_err = None if err_tok == "unset" else _float(
        err_tok, "'submodular_max_formula_err'", lineno)
    sub = SubmodularReport(mode, checks, violations, max_breach, max_err)
    mc_samples = _expect_int(lines, "mc_samples")
    lineno, design_toks = _expect_key(lines, "mc_design")
    mc_design = _indices(design_toks, "'mc_design'", lineno)
    mc_mean = _expect_float(lines, "mc_mean")
    mc_stderr = _expect_float(lines, "mc_stderr")
    mc_target = _expect_float(lines, "mc_target")
    mc_ok = _expect_flag(lines, "mc_ok")
    _expect_flag(lines, "ok")
    mc = McEigEstimate(mc_samples, mc_mean, mc_stderr, seed + 2)
    return VerificationSummary(mono, sub, mc, mc_design, mc_target, mc_ok, seed)


def read_report(path) -> ReportFile:
    with open(path, "r", encoding="ascii") as fh:
        return parse_report_text(fh.read())
