"""Benchmark of senselect CLI sessions.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With --trace 0 each session command runs as
a `python -m senselect` process and the end-to-end metrics are printed;
with --trace 1 the same sessions are replayed in-process under spans and
the per-layer metrics are printed.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"} holding the metrics
BENCHMARK.json lists for that mode.  Human-readable lines above it give
every metric with its median, tail percentile and sample count, the
machine, and any failed output check.  Scratch files and per-run JSON
records go to .bench_out/ under the root.

Workloads, the reasons they were chosen and the map from layer metrics to
end-to-end metrics are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Pin BLAS threads before numpy loads, here and in every child: phi_final
# differs in its last digits between thread counts, so byte-identity and
# oracle checks only mean something under one fixed setting.
for _var in BLAS_VARS:
    os.environ[_var] = str(NPROC)

import hashlib  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402
from measure import summarize  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".bench_out")
HARD_LIMIT_S = 170.0

# longest suffix first
UNITS = (("_us_per_sample", "us"), ("_per_s", "1/s"), ("_bytes", "B"), ("_flops", "flop"),
         ("_ms", "ms"), ("_us", "us"), ("_mb", "MB"), ("_s", "s"))


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def source_sha256() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "senselect")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def machine(seed: int) -> dict:
    import numpy
    import scipy

    rev = "unavailable"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or rev
        except OSError:
            pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "git_revision": rev,
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "nproc": NPROC,
        "cpu": cpu,
        "seed": seed,
    }


def check_package(env) -> None:
    """Exit non-zero unless senselect imports from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "senselect", "__init__.py")):
        sys.exit(f"error: no senselect package under {SRC}")
    proc = subprocess.run([sys.executable, "-c", "import senselect.cli, senselect; "
                           "print(senselect.__file__)"],
                          env=env, capture_output=True, text=True, timeout=120)
    where = proc.stdout.strip()
    if proc.returncode != 0 or not where.startswith(SRC + os.sep):
        sys.exit(f"error: senselect does not import from {SRC}: {proc.stderr.strip()}")


def print_metric(name: str, values, note: str = "") -> None:
    s = summarize(values)
    tail = "" if s["p"] == 50.0 else f" p{s['p']:g}={s['p_value']:.6g}"
    print(f"  {name:<40} median={s['median']:.6g}{tail} n={s['n']} "
          f"{unit_of(name)}{note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    deadline = started + HARD_LIMIT_S

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = child_env()
    check_package(env)
    wl = workloads.build(args.workload, args.seed, NPROC)
    info = machine(args.seed)
    mode = "traced" if args.trace else "timed"
    workdir = os.path.join(OUT_DIR, f"{mode}-{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            sys.path.insert(0, SRC)
            import traced
            res = traced.run(wl, workdir, env, args.seconds, deadline)
        else:
            import timed
            res = timed.run(wl, workdir, env, args.seconds, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# {mode} run: workload {wl.name}, seed {args.seed}, "
          f"{res['sessions']} sessions, {res['attempted']} commands")
    why = next(w["why"] for w in spec["workloads"] if w["name"] == wl.name)
    print(f"# why: {why}")
    for cmd in wl.commands:
        print(f"#   python -m senselect {' '.join(cmd.argv())}")
    print("# machine " + json.dumps(info, sort_keys=True))

    record = {"workload": wl.name, "mode": mode, "machine": info,
              "attempted": res["attempted"], "failed": res["failed"],
              "failures": res["failures"]}
    if args.trace:
        samples = res["metrics"]
        print("per-layer metrics (n = probe calls, spans, or 1 for a derived value):")
        for name in sorted(samples):
            note = " (computed, not measured)" if name in res["computed"] else ""
            print_metric(name, samples[name], note)
        values = {name: summarize(vals)["median"] for name, vals in samples.items()}
        print(f"  traced session total {values['traced.session_s']:.6g} s next to "
              f"timed session_s {_last_timed_session(wl.name)}; "
              "the gap is process start-up plus tracing overhead")
        print("self time per layer, median over sessions:")
        for layer, secs in sorted(res["layer_self_s"].items(), key=lambda kv: -sum(kv[1])):
            print_metric(f"{layer}.self_s", secs)
        print("  lazy greedy's real gain-evaluation count is not observable from outside")
        record["samples"] = samples
        record["spans"] = [vars(s) for s in res["spans"]]
    else:
        samples = res["samples"]
        print("end-to-end metrics:")
        for name, vals in samples.items():
            print_metric(name, vals)
        print(f"  {'fail_rate':<40} {res['failed'] / res['attempted']:.6g} ratio "
              f"({res['failed']}/{res['attempted']} commands)")
        values = {name: summarize(vals)["median"] for name, vals in samples.items()}
        record["samples"] = samples
    for line in res["failures"]:
        print(f"FAILED {line}")

    with open(os.path.join(OUT_DIR, f"{mode}-{wl.name}-{args.seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.exit(f"error: workload {wl.name} produced no value for {missing}")
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


def _last_timed_session(workload: str) -> str:
    """Median session_s of the newest timed record of this workload, if any."""
    best = None
    prefix = f"timed-{workload}-"
    for name in os.listdir(OUT_DIR):
        if name.startswith(prefix) and name.endswith(".json"):
            path = os.path.join(OUT_DIR, name)
            if best is None or os.path.getmtime(path) > os.path.getmtime(best):
                best = path
    if best is None:
        return "n/a (no timed run of this workload in .bench_out/)"
    with open(best, encoding="utf-8") as fh:
        samples = json.load(fh)["samples"]["session_s"]
    return f"{summarize(samples)['median']:.6g} s ({os.path.basename(best)})"


if __name__ == "__main__":
    sys.exit(main())
