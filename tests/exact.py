"""Exact arithmetic on a problem's doubles, with the standard library alone.

A problem holds doubles, so its Gram matrix

    K = Sigma^-1 F Gamma_pr M^-1 F' Sigma^-1,    Sigma = diag(sigma),

is rational in them, and so is det(I + K_SS) for every design S; by
Sylvester's identity phi(S) = log det(I + Gamma_pr H(S)) is its logarithm.
kernel forms K over the positions of p.active with one fraction-free
(Bareiss) elimination of M, and det takes the determinant of a rational
matrix the same way, and inverse its inverse by Gauss-Jordan elimination.
Only the final log rounds, to within a few ulps.
"""

import math
from fractions import Fraction


def _integers(rows):
    """rows scaled by the least common denominator of their entries: (scaled, scale)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    return [[int(x * scale) for x in row] for row in rows], scale


def _eliminate(a, pivots):
    """Bareiss elimination of the first pivots columns of the integer rows a,
    in place; the sign of the row permutation it made, or 0 for a singular block.

    Every entry stays an integer (a minor of the rows as permuted), and
    a[pivots - 1][pivots - 1] ends as that sign times the determinant of the
    leading pivots x pivots block.  A zero pivot is swapped for the first
    nonzero entry below it in its column.
    """
    prev, sign = 1, 1
    for k in range(pivots):
        swap = next((i for i in range(k, len(a)) if a[i][k] != 0), None)
        if swap is None:
            return 0
        if swap != k:
            a[k], a[swap], sign = a[swap], a[k], -sign
        piv = a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k]
            a[i] = [(piv * x - f * y) // prev if j > k else 0
                    for j, (x, y) in enumerate(zip(a[i], a[k]))]
        prev = piv
    return sign


def det(rows) -> Fraction:
    """Determinant of a nonempty square matrix of rationals."""
    a, scale = _integers(rows)
    k = len(a)
    return Fraction(_eliminate(a, k) * a[k - 1][k - 1], scale ** k)


def inverse(rows) -> list:
    """Inverse of a nonsingular square matrix of rationals, as rows of
    Fractions, by Gauss-Jordan elimination on the first nonzero pivot of
    each column."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
         for i, row in enumerate(rows)]
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k] != 0)  # none: the matrix is singular
        a[k], a[piv] = a[piv], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [row[n:] for row in a]


def kernel(p):
    """K over the active positions as rows of Fractions, from p's own doubles."""
    n, act = p.n, list(p.active)
    f = [p.F[i].tolist() for i in act]
    m_int, m_scale = _integers(p.space.M.tolist())
    ft_int, ft_scale = _integers([list(col) for col in zip(*f)])  # F', n x m
    a = [row + rhs for row, rhs in zip(m_int, ft_int)]
    assert _eliminate(a, n) == 1  # M's leading minors are positive: no row is swapped
    d = a[n - 1][n - 1]
    # back substitution: y = d M_int^-1 F'_int is an integer matrix (Cramer)
    y = [None] * n
    for i in reversed(range(n)):
        row = [d * x for x in a[i][n:]]
        for j in range(i + 1, n):
            row = [r - a[i][j] * yj for r, yj in zip(row, y[j])]
        q = [divmod(r, a[i][i]) for r in row]
        assert all(rem == 0 for _, rem in q)
        y[i] = [x for x, _ in q]
    # M^-1 F' = y m_scale / (d ft_scale)
    g, g_scale = _integers(p.gamma_pr.rep.tolist())
    f_int, f_scale = _integers(f)
    gy = [[sum(gi[k] * y[k][j] for k in range(n)) for j in range(len(act))] for gi in g]
    fgy = [[sum(fi[k] * gy[k][j] for k in range(n)) for j in range(len(act))] for fi in f_int]
    common = Fraction(m_scale, d * ft_scale * g_scale * f_scale)
    inv_sigma = [1 / Fraction(p.sigma[i]) for i in act]
    return [[common * x * si * sj for x, sj in zip(row, inv_sigma)]
            for row, si in zip(fgy, inv_sigma)]


def info_det(K, S) -> Fraction:
    """det(I + K_SS) of the positions S."""
    return det([[K[i][j] + (i == j) for j in S] for i in S])


def log(q: Fraction) -> float:
    """log q for a positive rational q: the float of q / 2^shift in (1/2, 2), then
    log1p of its distance from 1, plus shift log 2, so q's size costs no digits."""
    shift = q.numerator.bit_length() - q.denominator.bit_length()
    x = q / Fraction(2) ** shift
    return math.log1p(float(x - 1)) + shift * math.log(2.0)


def phi(K, S) -> float:
    """Exact phi(S) = log det(I + K_SS), rounded once at the end."""
    return log(info_det(K, S))
