"""Output checks that decide whether a command counts as failed.

Nothing here calls into senselect.  Problem and report files are parsed
by the small readers below, and the objective is recomputed by an oracle
that works from the problem arrays through Sylvester's identity:

    phi(S) = log det(I_k + Sigma_S^-1/2 F_S Gamma_pr M^-1 F_S' Sigma_S^-1/2)

a k x k computation that shares no code path with senselect.objective.
"""

from __future__ import annotations

import math
import os

import numpy as np

# Relative tolerance of every phi comparison.  It matches the program's own
# drift gate (REFACTOR_PHI_TOL); observed oracle differences are ~1e-14.
PHI_RTOL = 1e-8
# Greedy gains may rise by at most this much from one step to the next
# (the program's GAIN_MONOTONE_TOL).
GAIN_TOL = 1e-9
FLOOR = 1.0 - 1.0 / math.e


def _rows(text: str) -> list[list[str]]:
    rows = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].split()
        if body:
            rows.append(body)
    return rows


def read_problem_arrays(path):
    """(M, Gamma_pr, F, sigma) of a problem file, as float arrays."""
    with open(path, encoding="ascii") as fh:
        it = iter(_rows(fh.read()))

    def key(name):
        row = next(it)
        if row[0] != name:
            raise ValueError(f"expected {name!r}, found {row[0]!r}")
        return row[1:]

    key("schema_version")
    n = int(key("n")[0])
    n_s = int(key("n_s")[0])

    def matrix(name, rows):
        if key(name) == ["identity"]:
            return np.eye(rows)
        return np.array([next(it) for _ in range(rows)], dtype=float)

    M = matrix("M", n)
    G = matrix("Gamma_pr", n)
    F = matrix("F", n_s)
    key("sigma")
    sigma = np.array(next(it), dtype=float)
    return M, G, F, sigma


class Oracle:
    """phi(S) of one problem file, by Sylvester's identity."""

    def __init__(self, path):
        self.M, self.G, self.F, self.sigma = read_problem_arrays(path)

    def __call__(self, chosen) -> float:
        idx = list(chosen)
        if not idx:
            return 0.0
        FS = self.F[idx]
        K = FS @ (self.G @ np.linalg.solve(self.M, FS.T))
        K /= np.outer(self.sigma[idx], self.sigma[idx])
        A = np.eye(len(idx)) + 0.5 * (K + K.T)
        return 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(A)))))


def parse_selection(text: str) -> dict:
    """Fields of a selection report; raises ValueError when malformed."""
    rows = _rows(text)
    fields = {}
    i = 0
    while i < len(rows) and rows[i][0] != "steps":
        fields[rows[i][0]] = rows[i][1:]
        i += 1
    if i == len(rows):
        raise ValueError("no steps section")
    steps = rows[i + 1:]
    if len(steps) != int(rows[i][1]):
        raise ValueError(f"steps header says {rows[i][1]}, found {len(steps)} lines")
    try:
        cert = fields["certificate"]
        return {
            "method": fields["method"][0],
            "k": int(fields["k"][0]),
            "chosen": tuple(int(t) - 1 for t in fields["chosen"]),
            "phi_final": float(fields["phi_final"][0]),
            "eig_final": float(fields["eig_final"][0]),
            "certificate": None if cert == ["unset"] else tuple(float(t) for t in cert),
            "steps": [(int(a) - 1, float(g), float(p)) for a, g, p in steps],
        }
    except (KeyError, IndexError) as exc:
        raise ValueError(f"missing field {exc}") from None


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= PHI_RTOL * max(1.0, abs(b))


def check_selection(text: str, k: int, oracle=None, certify: bool = False) -> list[str]:
    """Failures of one selection report (empty when it passes)."""
    try:
        r = parse_selection(text)
    except ValueError as exc:
        return [f"unreadable report: {exc}"]
    bad = []
    steps = r["steps"]
    if r["k"] != k or len(r["chosen"]) != k or len(steps) != k:
        bad.append(f"expected {k} sensors, report has k={r['k']}, "
                   f"{len(r['chosen'])} chosen, {len(steps)} steps")
    if sorted(i for i, _, _ in steps) != list(r["chosen"]):
        bad.append("chosen set differs from the sensors in the steps")
    prev_phi, prev_gain = 0.0, math.inf
    for t, (_, gain, phi) in enumerate(steps, start=1):
        if not gain > 0.0:
            bad.append(f"step {t}: gain {gain!r} not positive")
        if gain > prev_gain + GAIN_TOL:
            bad.append(f"step {t}: gain {gain!r} above the previous {prev_gain!r}")
        if not _close(phi, prev_phi + gain):
            bad.append(f"step {t}: phi {phi!r} is not the running sum of gains")
        prev_phi, prev_gain = phi, gain
    phi_final = r["phi_final"]
    if r["eig_final"] != 0.5 * phi_final:
        bad.append("eig_final is not phi_final / 2")
    if steps and not _close(phi_final, steps[-1][2]):
        bad.append(f"phi_final {phi_final!r} differs from the last step {steps[-1][2]!r}")
    if oracle is not None:
        ref = oracle(r["chosen"])
        if not _close(phi_final, ref):
            bad.append(f"phi_final {phi_final!r} differs from the oracle {ref!r}")
    cert = r["certificate"]
    if certify:
        if cert is None:
            bad.append("certificate missing")
        else:
            opt, ratio, floor = cert
            if floor != FLOOR:
                bad.append(f"certificate floor {floor!r} is not 1 - 1/e")
            if ratio < FLOOR:
                bad.append(f"certificate ratio {ratio!r} below 1 - 1/e")
            if opt < phi_final:
                bad.append(f"opt_phi {opt!r} below phi_final {phi_final!r}")
            elif ratio != (1.0 if phi_final == opt else phi_final / opt):
                bad.append(f"certificate ratio {ratio!r} is not phi_final / opt_phi")
    elif cert is not None:
        bad.append("unexpected certificate")
    return bad


def check_verification(text: str) -> list[str]:
    """Failures of one verification report."""
    fields = {row[0]: row[1:] for row in _rows(text)}
    bad = []
    for key, want in (("monotone_violations", "0"), ("submodular_violations", "0"),
                      ("mc_ok", "yes"), ("ok", "yes")):
        if fields.get(key) != [want]:
            bad.append(f"{key} is {fields.get(key)!r}, expected {want!r}")
    return bad


def same_except_method(reference: str, text: str) -> bool:
    """Whether two selection reports agree on every line but `method`."""
    a = [line for line in reference.splitlines() if not line.startswith("method ")]
    b = [line for line in text.splitlines() if not line.startswith("method ")]
    return a == b


def read_outputs(workload, sdir) -> dict[str, bytes]:
    """Bytes of every file the session's commands wrote."""
    files = {}
    for cmd in workload.commands:
        for name in cmd.outputs:
            path = os.path.join(sdir, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    files[name] = fh.read()
    return files


def load_oracles(workload, sdir, bad: dict) -> dict:
    """An Oracle per problem file the session's `gen` commands wrote.

    A problem file that cannot be read is a failure of its `gen` command,
    added to bad (command label -> messages).
    """
    oracles = {}
    for cmd in workload.commands:
        path = os.path.join(sdir, cmd.problem)
        if cmd.sub == "gen" and os.path.exists(path):
            try:
                oracles[cmd.problem] = Oracle(path)
            except (ValueError, StopIteration) as exc:
                bad[cmd.label].append(f"problem file unreadable: {exc}")
    return oracles


def check_outputs(workload, files: dict, oracles: dict, reference: dict | None = None,
                  stdout: dict | None = None) -> dict[str, list[str]]:
    """Failures per command label of one session.

    files maps each output file name to its bytes; oracles maps problem
    file names to their Oracle; reference holds the files of an earlier
    session of the run, which these must equal byte for byte.  stdout maps
    command labels to their captured output, when the commands ran as
    processes.
    """
    bad = {cmd.label: [] for cmd in workload.commands}
    first_variant = None
    for cmd in workload.commands:
        out = bad[cmd.label]
        for name in cmd.outputs:
            if name not in files:
                out.append(f"{name} not written")
            elif reference is not None and files[name] != reference.get(name):
                out.append(f"{name} differs from the first session's")
        if cmd.out is None or cmd.out not in files:
            continue
        text = files[cmd.out].decode("ascii", "replace")
        if cmd.sub == "greedy":
            out += check_selection(text, cmd.k, oracles.get(cmd.problem), cmd.certify)
            if cmd.label in workload.variants:
                if first_variant is None:
                    first_variant = text
                elif not same_except_method(first_variant, text):
                    out.append(f"report differs from {workload.variants[0]} "
                               "beyond the method line")
        elif cmd.sub == "verify":
            out += check_verification(text)
    if stdout is not None:
        for cmd in workload.commands:
            lines = stdout.get(cmd.label, "").splitlines()
            if cmd.sub == "verify" and (not lines or lines[-1] != "all checks passed"):
                bad[cmd.label].append("verify did not print 'all checks passed'")
            want = workload.expect_stdout.get(cmd.label)
            if want is not None and lines != want:
                bad[cmd.label].append("stdout differs from README")
    return bad
