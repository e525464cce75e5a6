"""The two workloads the benchmark runs, as CLI sessions.

A session is a list of commands run one after another in a fresh
directory.  Each `gen` writes a problem file that the later commands of
its part read; its wall time is a set-up sample.  A workload's session is
one part (`greedy-dense`) or several parts run back to back
(`certify-verify`); a command's `part` names its part, and the main part
has the empty name.  Each command carries a label, unique in its
workload, and the label names the end-to-end metric its wall time feeds
(`<label>_s`).

The benchmark's seed goes to `gen --seed` and `verify --seed` wherever a
workload does not pin them.  Chain problems ignore the generator seed, so
the `chain` part gives the same problem on every seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Command:
    label: str
    sub: str
    problem: str
    out: str | None = None
    k: int | None = None
    lazy: bool = False
    threads: int | None = None
    certify: bool = False
    kind: str | None = None
    n: int | None = None
    n_s: int | None = None
    seed: int | None = None
    subset: str | None = None
    trials: int | None = None
    samples: int | None = None
    part: str = ""

    def argv(self) -> list[str]:
        """Arguments after `python -m senselect`."""
        if self.sub == "gen":
            return ["gen", "--kind", self.kind, "--n", str(self.n), "--n-s", str(self.n_s),
                    "--seed", str(self.seed), "--out", self.problem]
        if self.sub == "greedy":
            args = ["greedy", self.problem, str(self.k)]
            if self.lazy:
                args.append("--lazy")
            if self.threads is not None:
                args += ["--threads", str(self.threads)]
            if self.certify:
                args.append("--certify")
            return args + ["--out", self.out]
        if self.sub == "eval":
            return ["eval", self.problem, self.subset]
        if self.sub == "verify":
            return ["verify", self.problem, "--trials", str(self.trials), "--samples",
                    str(self.samples), "--seed", str(self.seed), "--out", self.out]
        raise ValueError(f"unknown subcommand {self.sub!r}")

    @property
    def outputs(self) -> tuple[str, ...]:
        """Files the command writes."""
        return (self.problem,) if self.sub == "gen" else (self.out,) if self.out else ()

    @property
    def metric(self) -> str:
        return "setup_s" if self.sub == "gen" else f"{self.label}_s"


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    # command label -> expected stdout lines
    expect_stdout: dict = field(default_factory=dict)
    # commands whose reports must match line for line except `method`
    variants: tuple[str, ...] = field(default=())

    def main(self, sub: str) -> Command | None:
        """The first `sub` command of the main part, if any."""
        return next((c for c in self.commands if c.sub == sub and not c.part), None)


# Expected stdout of the README session, copied from README.md.
README_STDOUT = {
    "readme_gen": ["wrote chain.prob (kind=chain n=20 n_s=10 seed=7)"],
    "readme_certify": [
        "step sensor               gain                phi",
        "   1     10      4.62352527082      4.62352527082",
        "   2      1      1.65850831406      6.28203358488",
        "   3      2     0.559917736304      6.84195132118",
        "chosen 1 2 10",
        "phi_final 6.84195132118",
        "eig_final 3.42097566059",
        "certificate opt_phi=6.84195132118 ratio=1.00000000000 floor=0.632120558829",
        "report written to run.report",
    ],
    "eval": ["phi_eig 6.84195132118", "eig_nats 3.42097566059"],
}


def build(name: str, seed: int, nproc: int) -> Workload:
    """The workload `name` with the benchmark seed and thread count filled in."""
    if name == "greedy-dense":
        k = 60
        return Workload(
            name,
            (
                Command("gen", "gen", "P", kind="random", n=400, n_s=800, seed=seed),
                Command("greedy", "greedy", "P", "R.greedy", k=k),
                Command("lazy", "greedy", "P", "R.lazy", k=k, lazy=True),
                Command("threads", "greedy", "P", "R.threads", k=k, threads=nproc),
            ),
            variants=("greedy", "lazy", "threads"),
        )
    if name == "certify-verify":
        readme, chain = "readme", "chain"
        return Workload(
            name,
            (
                # the README session verbatim
                Command("readme_gen", "gen", "chain.prob", kind="chain", n=20, n_s=10, seed=7,
                        part=readme),
                Command("readme_certify", "greedy", "chain.prob", "run.report", k=3,
                        certify=True, part=readme),
                Command("eval", "eval", "chain.prob", subset="1,2,10", part=readme),
                Command("readme_verify", "verify", "chain.prob", "verify.report", trials=10,
                        samples=2000, seed=3, part=readme),
                # exhaustive certificate on a chain that prunes poorly
                Command("chain_gen", "gen", "C", kind="chain", n=100, n_s=24, seed=seed,
                        part=chain),
                Command("chain_certify", "greedy", "C", "R.chain", k=5, certify=True,
                        part=chain),
                # exhaustive certificate and Monte Carlo check on a random instance
                Command("gen", "gen", "P", kind="random", n=40, n_s=24, seed=seed),
                Command("certify", "greedy", "P", "R.certify", k=5, certify=True),
                Command("verify", "verify", "P", "R.verify", trials=200, samples=20000,
                        seed=seed),
            ),
            expect_stdout=README_STDOUT,
        )
    raise KeyError(name)


NAMES = ("greedy-dense", "certify-verify")
