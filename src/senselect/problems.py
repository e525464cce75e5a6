"""Reproducible problem generators for tests, benchmarks, and the CLI.

Both generators draw from numpy's default PCG64 generator seeded
explicitly, with a fixed draw order documented per generator, so a given
ProblemSpec always yields the same problem (bitwise, for a fixed numpy
and BLAS build).

gen_random produces dense instances with a controlled condition number;
gen_chain discretizes a 1-D screened-diffusion source-to-observation map
on a uniform mesh, with the classic tridiagonal mass matrix as the weight
and an inverse-elliptic smoothing prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import InverseProblem, build_problem
from .wspace import Operator, WeightedSpace


@dataclass(frozen=True)
class ProblemSpec:
    """Parameters of a generated instance.

    kind is "random" or "chain".  conditioning bounds the condition number
    of random SPD factors.  The chain parameters are the diffusivity of
    the forward operator, the element size h (None means 1 / (n - 1), a
    unit domain), and the prior correlation weight on the stiffness term.
    sensor_nodes optionally pins the chain's interior observation nodes;
    repeats are allowed and produce duplicated sensors.  A seed below 0 is
    refused for either kind, although a chain draws nothing.
    """

    kind: str
    n: int
    n_s: int
    seed: int
    conditioning: float = 50.0
    diffusivity: float = 1.0
    element_size: float | None = None
    prior_weight: float = 0.1
    sensor_nodes: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")


def generate(spec: ProblemSpec) -> InverseProblem:
    if spec.kind == "random":
        return gen_random(spec)
    if spec.kind == "chain":
        return gen_chain(spec)
    raise ValueError(f"unknown problem kind {spec.kind!r}")


def _require_finite(spec: ProblemSpec, *names: str) -> None:
    """Refuse a NaN or infinite parameter, which no range check below catches."""
    for name in names:
        value = getattr(spec, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _random_spd(rng: np.random.Generator, n: int, cond: float) -> np.ndarray:
    """Q diag(lam) Q' with log-uniform spectrum in [1, cond]."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.exp(rng.uniform(0.0, math.log(cond), n))
    A = (Q * lam) @ Q.T
    return 0.5 * (A + A.T)


def gen_random(spec: ProblemSpec) -> InverseProblem:
    """Dense random instance.

    Draw order: weight matrix factor, weight spectrum, prior factor,
    prior spectrum, forward map, noise levels, prior mean.  The prior
    covariance is built as M^-1 (SPD), which is selfadjoint in the
    weighted inner product by construction; noise levels are log-uniform
    in [1/2, 2].
    """
    if spec.n < 1 or spec.n_s < 1:
        raise ValueError("need n >= 1 and n_s >= 1")
    _require_finite(spec, "conditioning")
    if spec.conditioning < 1.0:
        raise ValueError("conditioning must be at least 1")
    rng = np.random.default_rng(spec.seed)
    M = _random_spd(rng, spec.n, spec.conditioning)
    space = WeightedSpace(M)
    C = _random_spd(rng, spec.n, spec.conditioning)
    gamma_pr = Operator(space, space.solve(C))
    F = rng.standard_normal((spec.n_s, spec.n))
    sigma = np.exp(rng.uniform(math.log(0.5), math.log(2.0), spec.n_s))
    m_pr = rng.standard_normal(spec.n)
    return build_problem(space, F, sigma, m_pr, gamma_pr)


def _tridiag(n: int, lower, diag, upper) -> np.ndarray:
    A = np.zeros((n, n))
    A[np.arange(n), np.arange(n)] = diag
    A[np.arange(1, n), np.arange(n - 1)] = lower
    A[np.arange(n - 1), np.arange(1, n)] = upper
    return A


def chain_mass_matrix(n: int, h: float) -> np.ndarray:
    """Assembled mass matrix of piecewise-linear elements on a uniform mesh.

    Interior rows are (h/6) [1 4 1]; the first and last rows see a single
    element and become (h/6) [2 1].  Row sums add up to the domain length
    (n - 1) h, the partition-of-unity property tests rely on.
    """
    M = _tridiag(n, h / 6.0, 4.0 * h / 6.0, h / 6.0)
    M[0, 0] = M[n - 1, n - 1] = 2.0 * h / 6.0
    return M


def chain_stiffness_matrix(n: int, h: float) -> np.ndarray:
    """Tridiagonal stiffness (1/h) [-1 2 -1] with natural boundary rows."""
    K = _tridiag(n, -1.0 / h, 2.0 / h, -1.0 / h)
    K[0, 0] = K[n - 1, n - 1] = 1.0 / h
    return K


def _solve_screened(M: np.ndarray, K: np.ndarray, weight: float, name: str) -> np.ndarray:
    """(M + weight K)^-1 M; an operator that is not finite or is singular
    is refused by name, as 'M + <name> K'."""
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names the fault
        A = M + weight * K
    if not np.isfinite(A).all():
        raise ValueError(f"M + {name} K is not finite")
    try:
        return np.linalg.solve(A, M)
    except np.linalg.LinAlgError:
        raise ValueError(f"M + {name} K is singular") from None


def gen_chain(spec: ProblemSpec) -> InverseProblem:
    """1-D chain instance on n mesh nodes.

    The forward map solves the screened diffusion system
    (M + diffusivity K) u = M m once and reads off u at n_s interior
    nodes (evenly spread unless sensor_nodes pins them); observation
    noise is constant.  The prior covariance is the inverse-elliptic
    smoother (M + prior_weight K)^-1 M, selfadjoint in the mass inner
    product by construction.  Fully deterministic: the instance depends
    only on the fields above, and the seed is unused.
    """
    n = spec.n
    if n < 3:
        raise ValueError("chain problems need n >= 3 nodes")
    if spec.n_s < 1:
        raise ValueError(f"chain problems need n_s >= 1 sensors, got {spec.n_s}")
    interior = n - 2
    if spec.sensor_nodes is not None:
        nodes = tuple(int(i) for i in spec.sensor_nodes)
        if len(nodes) != spec.n_s:
            raise ValueError(f"expected {spec.n_s} sensor nodes, got {len(nodes)}")
    else:
        if spec.n_s > interior:
            raise ValueError(f"n_s = {spec.n_s} exceeds the {interior} interior nodes")
        nodes = tuple(
            int(round(x)) for x in np.linspace(1, n - 2, spec.n_s)
        )
    for i in nodes:
        if not 1 <= i <= n - 2:
            raise ValueError(f"sensor node {i} is not an interior node of the mesh")
    _require_finite(spec, "diffusivity", "prior_weight", "element_size")
    if spec.diffusivity <= 0 or spec.prior_weight <= 0:
        raise ValueError("diffusivity and prior weight must be positive")
    h = spec.element_size if spec.element_size is not None else 1.0 / (n - 1)
    if h <= 0:
        raise ValueError("element size must be positive")

    M = chain_mass_matrix(n, h)
    K = chain_stiffness_matrix(n, h)
    space = WeightedSpace(M)

    gamma_pr = Operator(space, _solve_screened(M, K, spec.prior_weight, "prior_weight"))
    F = _solve_screened(M, K, spec.diffusivity, "diffusivity")[list(nodes), :]
    sigma = np.full(len(nodes), 0.1)
    m_pr = np.zeros(n)
    return build_problem(space, F, sigma, m_pr, gamma_pr)
