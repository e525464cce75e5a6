"""Linear algebra on a weighted inner-product space.

The space is R^n equipped with the inner product <u, v> = u' M v for a
symmetric positive definite weight matrix M (a finite element mass matrix
in the motivating applications).  Operators are stored as plain n x n
matrix representations acting on coordinate vectors; the weighting enters
through inner products, adjoints, and selfadjointness checks.

Two rank-one identities are used throughout the package.  For an
invertible operator A on the space and vectors u, v,

    det(A + u (x) v) = (1 + <A^-1 u, v>) det(A)
    (A + u (x) v)^-1 = A^-1 - A^-1 (u (x) v) A^-1 / (1 + <A^-1 u, v>)

where u (x) v denotes the rank-one tensor product (u (x) v) x = <v, x> u,
whose matrix representation is u v' M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYMMETRY_TOL = 1e-10
UPDATE_DENOMINATOR_TOL = 1e-12


class SingularUpdateError(ValueError):
    """Rank-one inverse update has a numerically vanishing denominator."""


def require_finite(a: np.ndarray, name: str) -> None:
    """Raise ValueError naming the array when it holds a NaN or an Inf.

    Cholesky and LU factorizations return NaN for such input without
    raising, so every array is checked before it is factored.
    """
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has a non-finite entry (NaN or Inf)")


class WeightedSpace:
    """R^n with inner product <u, v> = u' M v.

    The weight matrix must be finite, symmetric to within SYMMETRY_TOL
    and positive definite (verified by a Cholesky factorization of the
    symmetrized matrix).  The stored matrix is symmetrized once so that
    every downstream identity can treat M and M' interchangeably.
    """

    def __init__(self, M):
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"weight matrix must be square, got shape {M.shape}")
        require_finite(M, "weight matrix M")
        if not M.any():
            raise ValueError("weight matrix is zero")
        sym = symmetric_part(M)
        if sym is None:
            raise ValueError("weight matrix is not symmetric within tolerance")
        try:
            chol = np.linalg.cholesky(sym)
        except np.linalg.LinAlgError as exc:
            raise ValueError("weight matrix is not positive definite") from exc
        self.M = sym
        self.n = int(M.shape[0])
        self._chol = chol

    @classmethod
    def euclidean(cls, n: int) -> "WeightedSpace":
        return cls(np.eye(n))

    @property
    def whitening_factor(self) -> np.ndarray:
        """Lower triangular L with L L' = M.

        Coordinates z = L' x are orthonormal with respect to the weighted
        inner product, so L is the factor used whenever a computation is
        mapped to ordinary Euclidean coordinates and back.
        """
        return self._chol

    def check_vector(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n,):
            raise ValueError(f"expected vector of shape ({self.n},), got {u.shape}")
        return u

    def inner(self, u, v) -> float:
        u = self.check_vector(u)
        v = self.check_vector(v)
        return float(u @ (self.M @ v))

    def norm(self, u) -> float:
        return float(np.sqrt(max(self.inner(u, u), 0.0)))

    def solve(self, B) -> np.ndarray:
        """M^-1 B by an LU solve with M itself."""
        B = np.asarray(B, dtype=float)
        if B.shape[0] != self.n:
            raise ValueError("leading dimension does not match the space")
        return np.linalg.solve(self.M, B)


@dataclass(eq=False)
class Operator:
    """Matrix representation of a linear operator on a WeightedSpace."""

    space: WeightedSpace
    rep: np.ndarray

    def __post_init__(self):
        rep = np.asarray(self.rep, dtype=float)
        n = self.space.n
        if rep.shape != (n, n):
            raise ValueError(f"operator representation must be {n} x {n}, got {rep.shape}")
        self.rep = rep

    def apply(self, x) -> np.ndarray:
        return self.rep @ self.space.check_vector(x)


def identity(space: WeightedSpace) -> Operator:
    return Operator(space, np.eye(space.n))


def tensor(space: WeightedSpace, u, v) -> Operator:
    """Rank-one tensor product u (x) v, acting as x -> <v, x> u."""
    u = space.check_vector(u)
    v = space.check_vector(v)
    return Operator(space, np.outer(u, space.M @ v))


def adjoint_forward(space: WeightedSpace, F) -> np.ndarray:
    """Adjoint M^-1 F' of a forward map F : space -> R^q.

    The returned n x q array contains the weighted-space representers of
    the q observation functionals, satisfying <F* y, v> = y . (F v).
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[1] != space.n:
        raise ValueError(f"forward map must have {space.n} columns, got shape {F.shape}")
    return space.solve(F.T)


def symmetric_part(B: np.ndarray, tol: float = SYMMETRY_TOL) -> np.ndarray | None:
    """0.5 (B + B'), or None when B is not symmetric to tol relative to its largest entry."""
    if float(np.abs(B - B.T).max()) > tol * float(np.abs(B).max()):
        return None
    return 0.5 * (B + B.T)


def is_selfadjoint(T: Operator, tol: float = SYMMETRY_TOL) -> bool:
    """Whether M . rep is symmetric, relative to its largest entry."""
    return symmetric_part(T.space.M @ T.rep, tol) is not None


def rank1_det_factor(A: Operator, u, v) -> float:
    """Determinant ratio det(A + u (x) v) / det(A) = 1 + <A^-1 u, v>."""
    space = A.space
    u = space.check_vector(u)
    v = space.check_vector(v)
    x = np.linalg.solve(A.rep, u)
    return 1.0 + float(x @ (space.M @ v))


def rank1_inverse_update(A_inv: Operator, u, v) -> Operator:
    """Inverse of A + u (x) v given A^-1 (Sherman-Morrison in the weighted space).

    Raises SingularUpdateError when 1 + <A^-1 u, v> is zero to within a
    relative guard; the updated operator is singular there and no inverse
    exists.
    """
    space = A_inv.space
    u = space.check_vector(u)
    v = space.check_vector(v)
    x = A_inv.rep @ u
    Mv = space.M @ v
    gamma = float(x @ Mv)
    den = 1.0 + gamma
    if abs(den) < UPDATE_DENOMINATOR_TOL * (1.0 + abs(gamma)):
        raise SingularUpdateError(
            f"rank-one update denominator {den:.3e} is numerically zero"
        )
    # row vector v' M A^-1 stored as a column
    w = A_inv.rep.T @ Mv
    return Operator(space, A_inv.rep - np.outer(x, w) / den)
