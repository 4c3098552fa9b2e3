"""Exact integer and rational matrix arithmetic of the benchmark's own.

The corpus generator and the verdict checks use these instead of
`toralconj.exact_linalg`, so a fault there cannot hide itself.  Matrices are
tuples of row tuples; polynomials are coefficient lists, highest degree
first.
"""

import re
from fractions import Fraction
from itertools import combinations
from math import gcd


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(A, B):
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*B)) for row in A
    )


def det(M):
    """Exact determinant by Gaussian elimination over Q."""
    a = [[Fraction(x) for x in row] for row in M]
    n = len(a)
    out = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return int(out)


def inverse(M):
    """Exact inverse over Q, as rows of Fractions."""
    n = len(M)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M)]
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[piv] = a[piv], a[k]
        p = a[k][k]
        a[k] = [x / p for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return tuple(tuple(row[n:]) for row in a)


def integral(M):
    if any(Fraction(x).denominator != 1 for row in M for x in row):
        raise ArithmeticError("matrix is not integral")
    return tuple(tuple(int(x) for x in row) for row in M)


def char_poly(M):
    """det(xI - M), highest degree first, by Faddeev-LeVerrier over Q."""
    n = len(M)
    coeffs = [Fraction(1)]
    Mk = identity(n)
    for k in range(1, n + 1):
        AM = mat_mul(M, Mk)
        c = -sum(AM[i][i] for i in range(n)) / k
        coeffs.append(c)
        Mk = tuple(tuple(AM[i][j] + (c if i == j else 0) for j in range(n)) for i in range(n))
    return [int(c) for c in coeffs]


def poly_at_matrix(coeffs, M):
    """g(M) by Horner's rule, g given highest degree first."""
    n = len(M)
    out = tuple((0,) * n for _ in range(n))
    for c in coeffs:
        out = mat_mul(out, M)
        out = tuple(tuple(x + (c if i == j else 0) for j, x in enumerate(row))
                    for i, row in enumerate(out))
    return out


def invariant_factors(M):
    """Invariant factors > 1 of Z^n / Z^n M (M nonsingular), as the quotients
    of the determinantal divisors: the gcds of all k x k minors."""
    n = len(M)
    divisors = [1]
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                g = gcd(g, det(tuple(tuple(M[i][j] for j in cols) for i in rows)))
        divisors.append(g)
    if divisors[-1] == 0:
        raise ArithmeticError("singular relation matrix")
    return [d for d in (divisors[k] // divisors[k - 1] for k in range(1, n + 1)) if d > 1]


_TERM = re.compile(r"([+-]?)(\d*)(x(?:\^(\d+))?)?")


def parse_poly(text):
    """Coefficients, highest degree first, of a polynomial written like
    'x^3-23x^2+7x-1'."""
    terms = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m.end() == pos:
            raise ValueError(f"bad polynomial {text!r}")
        sign, coef, xpart, power = m.groups()
        if not coef and not xpart:
            raise ValueError(f"bad polynomial {text!r}")
        e = (int(power) if power else 1) if xpart else 0
        terms[e] = terms.get(e, 0) + (-1 if sign == "-" else 1) * (int(coef) if coef else 1)
        pos = m.end()
    return [terms.get(e, 0) for e in range(max(terms), -1, -1)]
