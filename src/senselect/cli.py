"""Command line interface.

Subcommands: eval, greedy, exhaustive, verify, gen.  Sensor indices are
1-based on the command line and in files.  Exit codes: 0 on success, 2
for parse errors (non-finite problem data and non-ASCII bytes included)
and for files that cannot be read or written, 3 for invariant
violations, 4 when an enumeration cap is exceeded, and 5 for property
violations, including a greedy gain that is not positive or that rises.

Each command imports the modules it runs when it runs, so gen and eval
load neither the solvers nor the checks.
"""

from __future__ import annotations

import argparse
import sys

from . import fileio
from .model import count_at_least

_FMT12 = "#.12g"


def _f12(x: float) -> str:
    return format(float(x), _FMT12)


def _count_at_least(lo: int):
    """argparse type of an integer flag that must be at least lo."""
    def parse(text: str) -> int:
        value = int(text)  # not an integer: argparse's own 'invalid int value'
        try:
            return count_at_least(value, lo, "")
        except ValueError as exc:  # argparse names the flag
            raise argparse.ArgumentTypeError(str(exc).lstrip()) from None
    parse.__name__ = "int"  # argparse names the type in its 'invalid int value' message
    return parse


def _parse_subset(text: str, p) -> tuple[int, ...]:
    """eval's 1-based subset of p's sensors, made 0-based.  A fault names
    the index as typed and exits 3; a token that is no integer exits 2."""
    from .model import candidate_position

    text = text.strip()
    seen = []
    for tok in text.split(",") if text else ():
        i = fileio._int(tok.strip(), "subset")
        if not 1 <= i <= p.n_s:
            raise ValueError(f"subset: sensor {i} out of range [1, {p.n_s}]")
        if i in seen:
            raise ValueError(f"subset: sensor {i} appears twice")
        if candidate_position(p, i - 1) is None:
            raise ValueError(f"subset: sensor {i} is inactive (zero forward-map row)")
        seen.append(i)
    return tuple(i - 1 for i in seen)


def cmd_eval(args) -> int:
    from . import objective

    p = fileio.read_problem(args.problem)
    subset = _parse_subset(args.subset, p)
    phi = objective.phi_eig(p, subset)
    print(f"phi_eig {_f12(phi)}")
    print(f"eig_nats {_f12(0.5 * phi)}")
    return 0


def _emit_selection(report, out) -> int:
    """Print the report and, when out is set, write it there."""
    if report.per_step:
        print(f"{'step':>4} {'sensor':>6} {'gain':>18} {'phi':>18}")
        for t, (idx, gain, phi) in enumerate(report.per_step, start=1):
            print(f"{t:>4} {idx + 1:>6} {_f12(gain):>18} {_f12(phi):>18}")
    chosen = " ".join(str(i + 1) for i in report.chosen)
    print(f"chosen {chosen if chosen else '(empty)'}")
    print(f"phi_final {_f12(report.phi_final)}")
    print(f"eig_final {_f12(report.eig_final)}")
    cert = report.bound_certificate
    if cert is not None:
        print(
            f"certificate opt_phi={_f12(cert.opt_phi)} "
            f"ratio={_f12(cert.ratio)} floor={_f12(cert.floor)}"
        )
    if out:
        fileio.write_report(report, out)
        print(f"report written to {out}")
    return 0


def _cap(args) -> int:
    """--cap, or selection's default when the flag is absent."""
    from .selection import EXHAUSTIVE_CAP

    return EXHAUSTIVE_CAP if args.cap is None else args.cap


def cmd_greedy(args) -> int:
    from . import selection

    p = fileio.read_problem(args.problem)
    run = selection.lazy_greedy if args.lazy else selection.greedy
    report = run(p, args.k, threads=args.threads)
    if args.certify:
        opt = selection.exhaustive(p, args.k, cap=_cap(args))
        report = selection.certify_bound(report, opt)
    return _emit_selection(report, args.out)


def cmd_exhaustive(args) -> int:
    from . import selection

    p = fileio.read_problem(args.problem)
    return _emit_selection(selection.exhaustive(p, args.k, cap=_cap(args)), args.out)


def cmd_verify(args) -> int:
    from . import verify

    p = fileio.read_problem(args.problem)
    summary = verify.verification_run(
        p, trials=args.trials, samples=args.samples, seed=args.seed
    )
    mono, sub, mc = summary.monotone, summary.submodular, summary.mc
    print(
        f"monotone trials={mono.trials} violations={mono.violations} "
        f"min_gain={_f12(mono.min_gain)} max_formula_err={_f12(mono.max_formula_err)}"
    )
    err = "n/a" if sub.max_formula_err is None else _f12(sub.max_formula_err)
    print(
        f"submodular[{sub.mode}] checks={sub.checks} violations={sub.violations} "
        f"max_breach={_f12(sub.max_breach)} max_formula_err={err}"
    )
    print(
        f"mc_eig samples={mc.n_samples} mean={_f12(mc.mean_kl)} "
        f"stderr={_f12(mc.std_error)} target={_f12(summary.mc_target)} "
        f"within_3se={'yes' if summary.mc_ok else 'no'}"
    )
    if args.out:
        fileio.write_report(summary, args.out, problem_hash=p.content_hash())
        print(f"report written to {args.out}")
    if not summary.ok:
        print("FAIL: property violation detected", file=sys.stderr)
        return 5
    print("all checks passed")
    return 0


def cmd_gen(args) -> int:
    from . import problems

    nodes = None
    if args.sensor_nodes is not None:
        nodes = tuple(fileio._int(t.strip(), "--sensor-nodes")
                      for t in args.sensor_nodes.split(",") if t.strip())
    spec = problems.ProblemSpec(
        kind=args.kind,
        n=args.n,
        n_s=args.n_s,
        seed=args.seed,
        conditioning=args.conditioning,
        diffusivity=args.diffusivity,
        element_size=args.element_size,
        prior_weight=args.prior_weight,
        sensor_nodes=nodes,
    )
    p = problems.generate(spec)
    fileio.write_problem(p, args.out)
    print(f"wrote {args.out} (kind={spec.kind} n={p.n} n_s={p.n_s} seed={spec.seed})")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="senselect",
        description="Greedy sensor selection maximizing expected information gain.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate the objective on a fixed subset")
    pe.add_argument("problem", help="problem file")
    pe.add_argument("subset", help="comma-separated 1-based sensor indices, '' for empty")
    pe.set_defaults(func=cmd_eval)

    pg = sub.add_parser("greedy", help="greedy selection of k sensors")
    pg.add_argument("problem")
    pg.add_argument("k", type=_count_at_least(0))
    pg.add_argument("--lazy", action="store_true",
                    help="accepted for compatibility; runs plain greedy, report method lazy_greedy")
    pg.add_argument("--certify", action="store_true",
                    help="attach the (1 - 1/e) certificate via exhaustive search")
    pg.add_argument("--out", help="write a report file")
    pg.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility and ignored; selection runs serially")
    pg.add_argument("--cap", type=_count_at_least(0), default=None,
                    help="subset cap for --certify")
    pg.set_defaults(func=cmd_greedy)

    px = sub.add_parser("exhaustive", help="exact optimum over all size-k subsets")
    px.add_argument("problem")
    px.add_argument("k", type=_count_at_least(0))
    px.add_argument("--cap", type=_count_at_least(0), default=None)
    px.add_argument("--out", help="write a report file")
    px.set_defaults(func=cmd_exhaustive)

    pv = sub.add_parser("verify", help="run the property and Monte Carlo checks")
    pv.add_argument("problem")
    pv.add_argument("--trials", type=_count_at_least(0), default=200)
    pv.add_argument("--samples", type=_count_at_least(2), default=2000,
                    help="Monte Carlo samples, at least 2 for a standard error")
    pv.add_argument("--seed", type=_count_at_least(0), default=0)
    pv.add_argument("--out", help="write a report file")
    pv.set_defaults(func=cmd_verify)

    pn = sub.add_parser("gen", help="generate a problem file")
    pn.add_argument("--kind", choices=("random", "chain"), required=True)
    pn.add_argument("--n", type=int, required=True)
    pn.add_argument("--n-s", dest="n_s", type=int, required=True)
    pn.add_argument("--seed", type=int, default=0)
    pn.add_argument("--conditioning", type=float, default=50.0)
    pn.add_argument("--diffusivity", type=float, default=1.0)
    pn.add_argument("--element-size", dest="element_size", type=float, default=None)
    pn.add_argument("--prior-weight", dest="prior_weight", type=float, default=0.1)
    pn.add_argument("--sensor-nodes", dest="sensor_nodes", default=None,
                    help="comma-separated interior nodes for chain problems")
    pn.add_argument("--out", required=True)
    pn.set_defaults(func=cmd_gen)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (fileio.ProblemFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # CapExceededError exits 4; BoundViolationError and the greedy gain
        # guards of selection exit 5.  Only selection raises any of them.
        from .selection import CapExceededError

        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, CapExceededError) else 5
    except ValueError as exc:
        # includes numpy.linalg.LinAlgError; these are model invariant breaches
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
