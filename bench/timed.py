"""Timed run: each session command is a `python -m senselect` process.

Commands run one after another from this single process, so at most one
runs at a time.  Each command's wall time is taken around its process, and
its peak memory is the max RSS from that child's own rusage (os.wait4), so
every command gets its own peak rather than a running maximum.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from checks import check_outputs, load_oracles, read_outputs

# A run holds at least this many sessions, even past --seconds, because
# the second and later sessions are checked for byte-identity.
MIN_SESSIONS = 2
# ... and at least this many `gen` samples for setup_s, whose median is
# bounded although a session may hold a single short `gen`.
MIN_SETUPS = 5


def run_command(argv, cwd, env, timeout: float):
    """(exit code, wall seconds, max RSS in MB, stdout text) of one process."""
    out_path = os.path.join(cwd, ".stdout")
    with open(out_path, "wb") as out, open(os.path.join(cwd, ".stderr"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    # ru_maxrss is in KiB on Linux
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout


def run(workload, workdir, env, seconds: float, deadline: float) -> dict:
    """Run whole sessions until `seconds` have passed.

    A run holds at least MIN_SESSIONS sessions.  When they hold fewer than
    MIN_SETUPS `gen` commands, the workload's `gen` commands run again after
    the sessions, and each must rewrite the first session's problem file
    byte for byte.  Returns per-metric samples, per-command failures and
    the command counts.
    """
    samples: dict[str, list[float]] = {"session_s": [], "peak_rss_mb": []}
    for cmd in workload.commands:
        samples.setdefault(cmd.metric, [])
    attempted = failed = 0
    failures = []
    reference = oracles = None
    t_start = time.perf_counter()
    session = 0
    while True:
        sdir = os.path.join(workdir, f"s{session}")
        os.makedirs(sdir)
        stdout, codes = {}, {}
        total = peak = 0.0
        for cmd in workload.commands:
            argv = [sys.executable, "-m", "senselect", *cmd.argv()]
            timeout = max(1.0, deadline - time.perf_counter())
            code, wall, rss_mb, out = run_command(argv, sdir, env, timeout)
            codes[cmd.label], stdout[cmd.label] = code, out
            samples[cmd.metric].append(wall)
            total += wall
            peak = max(peak, rss_mb)
        samples["session_s"].append(total)
        samples["peak_rss_mb"].append(peak)

        files = read_outputs(workload, sdir)
        bad = {cmd.label: [] for cmd in workload.commands}
        # later sessions must write the same problem files, so one set of
        # oracles serves
        if oracles is None:
            oracles = load_oracles(workload, sdir, bad)
        for label, msgs in check_outputs(workload, files, oracles, reference, stdout).items():
            bad[label] += msgs
        for label, code in codes.items():
            if code != 0:
                bad[label].insert(0, f"exit code {code}")
        attempted += len(workload.commands)
        failed += sum(1 for msgs in bad.values() if msgs)
        failures += [f"session {session} {label}: {m}" for label, msgs in bad.items()
                     for m in msgs]
        if reference is None:
            reference = files
        shutil.rmtree(sdir)
        session += 1

        now = time.perf_counter()
        typical = statistics.median(samples["session_s"])
        if now + typical > deadline or (session >= MIN_SESSIONS
                                        and now - t_start + typical > seconds):
            break

    gens = [cmd for cmd in workload.commands if cmd.sub == "gen"]
    extra = 0
    while (len(samples["setup_s"]) < MIN_SETUPS
           and time.perf_counter() + statistics.median(samples["setup_s"]) < deadline):
        cmd = gens[extra % len(gens)]
        sdir = os.path.join(workdir, f"setup{extra}")
        os.makedirs(sdir)
        argv = [sys.executable, "-m", "senselect", *cmd.argv()]
        timeout = max(1.0, deadline - time.perf_counter())
        code, wall, _, _ = run_command(argv, sdir, env, timeout)
        samples["setup_s"].append(wall)
        bad = [f"exit code {code}"] if code != 0 else []
        path = os.path.join(sdir, cmd.problem)
        if not os.path.exists(path):
            bad.append(f"{cmd.problem} not written")
        else:
            with open(path, "rb") as fh:
                if fh.read() != reference.get(cmd.problem):
                    bad.append(f"{cmd.problem} differs from the first session's")
        attempted += 1
        failed += bool(bad)
        failures += [f"set-up {extra} {cmd.label}: {m}" for m in bad]
        shutil.rmtree(sdir)
        extra += 1
    return {"samples": samples, "attempted": attempted, "failed": failed,
            "failures": failures, "sessions": session}
