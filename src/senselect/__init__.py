"""Greedy sensor selection maximizing expected information gain.

Linear Gaussian Bayesian inverse problems on a weighted (mass-matrix)
inner-product space, with pointwise uncorrelated sensor noise.  The set
objective log det(I + Ht(S)) is twice the expected information gain of
the design S; it is strictly monotone and submodular, which gives the
greedy solver a certified (1 - 1/e) share of the optimum.

The names below are loaded from their modules on first access (PEP 562),
so a process imports only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package root re-exports from it, in __all__ order
_EXPORTS = {
    "wspace": ("WeightedSpace", "Operator", "SingularUpdateError", "tensor", "adjoint_forward",
               "is_selfadjoint", "rank1_det_factor", "rank1_inverse_update"),
    "model": ("InverseProblem", "Posterior", "build_problem", "validate_design",
              "hessian_misfit", "hessian_preconditioned", "posterior"),
    "objective": ("Design", "DesignState", "design_state", "phi_eig", "eig_nats", "overlap",
                  "marginal_gain", "marginal_gain_conditioned", "extend"),
    "selection": ("SelectionReport", "Certificate", "greedy", "lazy_greedy", "exhaustive",
                  "certify_bound", "random_baseline", "CapExceededError",
                  "BoundViolationError"),
    "verify": ("McEigEstimate", "MonotoneReport", "SubmodularReport", "VerificationSummary",
               "kl_gaussian", "mc_eig", "check_monotone", "check_submodular",
               "verification_run"),
    "problems": ("ProblemSpec", "generate", "gen_random", "gen_chain"),
    "fileio": ("ProblemFormatError", "ReportFile", "read_problem", "write_problem",
               "read_report", "write_report"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    dunders = {k for k in globals() if k.startswith("__")} - {"__getattr__", "__dir__"}
    return sorted({*__all__, *_EXPORTS, *dunders})
