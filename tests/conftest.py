import random
from fractions import Fraction
from itertools import product

import pytest

from toralconj import exact_linalg as xl
from toralconj.bf_invariants import hyperbolicity_check

# The two worked pairs used throughout: hyperbolic 3x3 matrices sharing an
# irreducible characteristic polynomial but distinguished (or not) by the
# finite invariants.
A1 = xl.mat([[0, 1, 0], [1, 0, 4], [6, -2, 23]])
B1 = xl.mat([[0, 1, 12], [1, 0, -4], [0, 2, 23]])
A2 = xl.mat([[0, 1, 0], [0, 0, 1], [1, 8, 2]])
B2 = xl.mat([[-1, 2, 0], [-1, 1, 1], [-5, 9, 2]])
# x^3 - x^2 - 2x - 8, whose Z[beta] has index 2 in the maximal order: the
# eigen ideal of the companion matrix RING_A has multiplier ring Z[beta],
# that of RING_B (a root acting on the maximal order) the maximal order.
RING_A = xl.mat([[0, 1, 0], [0, 0, 1], [8, 2, 1]])
RING_B = xl.mat([[0, 0, 4], [1, -1, 0], [0, 2, 2]])
# a sublattice pair with x^3 + x^2 - 5x - 61: O(I) = O(J), and neither eigen
# ideal is invertible over it, yet they are weakly equivalent, so decide
# skips the screens on it as on the second worked pair
NONINVERTIBLE_A = xl.mat([[-3, 4, -2], [-4, -1, -1], [-4, -4, 3]])
NONINVERTIBLE_B = xl.mat([[-7, -20, 10], [2, 3, -3], [0, -4, 3]])
# a sublattice pair with x^3 + 8x + 8: O(I) = O(J), I is invertible over it
# and J is not, so J Y = I and X Y = O fail, and decide screens the pair and
# reaches the tower
NOT_WEAK_A = xl.mat([[0, 4, 1], [-2, 2, 0], [-4, 0, -2]])
NOT_WEAK_B = xl.mat([[1, 5, -2], [-1, 1, 0], [3, -1, -2]])

SEED = 20250811


@pytest.fixture
def rng():
    return random.Random(SEED)


def random_matrix(rng, n, bound):
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n))


def random_hyperbolic(rng, n=3, bound=9):
    while True:
        M = random_matrix(rng, n, bound)
        if xl.det(M) != 0 and hyperbolicity_check(M):
            return M


def direct_sum(X, Y):
    """The block-diagonal matrix X + Y."""
    n, m = len(X), len(Y)
    return tuple(tuple(r) + (0,) * m for r in X) + tuple((0,) * n + tuple(r) for r in Y)


def with_eigenvalue(M, c):
    """The direct sum M + [c]."""
    return direct_sum(M, ((c,),))


def random_unimodular(rng, n=3, entry_bound=3, ops=6):
    """Product of elementary shears and signed swaps, rejected until all
    entries fit the bound."""
    while True:
        U = [list(r) for r in xl.identity(n)]
        for _ in range(ops):
            kind = rng.randrange(3)
            i = rng.randrange(n)
            j = rng.randrange(n)
            if i == j:
                continue
            if kind == 0:
                c = rng.choice((-1, 1))
                for col in range(n):
                    U[i][col] += c * U[j][col]
            elif kind == 1:
                U[i], U[j] = U[j], U[i]
            else:
                U[i] = [-x for x in U[i]]
        M = tuple(tuple(r) for r in U)
        if xl.det(M) in (1, -1) and all(abs(x) <= entry_bound for r in M for x in r):
            return M


def sublattice_restriction(A, p):
    """M A M^-1, where the rows of M span the A-invariant sublattice
    {v : v . w = 0 mod p} of index p for the first eigenvector w of A mod p
    (in the order of product(range(p))), or None if A has none."""
    n = len(A)
    for w in product(range(p), repeat=n):
        k = next((i for i in range(n) if w[i]), None)
        Aw = tuple(sum(A[i][j] * w[j] for j in range(n)) % p for i in range(n))
        if k is None or any((Aw[i] * w[k] - Aw[k] * w[i]) % p for i in range(n)):
            continue
        # L = {v : v . w = 0 mod p}, with A w = lam w mod p, so L A <= L
        inv = pow(w[k], -1, p)
        M = [list(r) for r in xl.identity(n)]
        for i in range(n):
            M[i][k] = p if i == k else -w[i] * inv % p
        adj, d = xl.invert_rational(M)
        num = xl.mat_mul(xl.mat_mul(M, A), adj)
        assert not any(x % d for r in num for x in r)
        return tuple(tuple(x // d for x in r) for r in num)
    return None


def sublattice_pair(rng, n, bound):
    """(A, B) with B = U (M A M^-1) U^-1, where the rows of M span an
    A-invariant sublattice of prime index and U is a random unimodular."""
    while True:
        A = random_hyperbolic(rng, n, bound)
        S = sublattice_restriction(A, rng.choice((2, 3, 5)))
        if S is not None:
            U = random_unimodular(rng, n)
            return A, xl.mat_mul(xl.mat_mul(U, S), xl.unimodular_inverse(U))


# ---------------------------------------------------------------- oracles

def det_cofactor(M):
    """Independent determinant oracle: recursive cofactor expansion."""
    n = len(M)
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        if M[0][j] == 0:
            continue
        minor = tuple(row[:j] + row[j + 1 :] for row in M[1:])
        term = M[0][j] * det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def char_poly_interpolation(M):
    """Independent characteristic polynomial oracle: evaluate det(tI - M) by
    cofactors at n+1 points and Lagrange-interpolate over Q."""
    n = len(M)
    pts = range(n + 1)
    vals = []
    for t in pts:
        shifted = tuple(
            tuple((t if i == j else 0) - M[i][j] for j in range(n)) for i in range(n)
        )
        vals.append(Fraction(det_cofactor(shifted)))
    coeffs = [Fraction(0)] * (n + 1)
    for i, t in enumerate(pts):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for k, u in enumerate(pts):
            if k == i:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                new[d] -= c * u
                new[d + 1] += c
            basis = new
            denom *= t - u
        for d, c in enumerate(basis):
            coeffs[d] += vals[i] * c / denom
    assert all(c.denominator == 1 for c in coeffs)
    return tuple(int(c) for c in coeffs)


def power_by_repeated_multiplication(M, e):
    out = xl.identity(len(M))
    for _ in range(e):
        out = xl.mat_mul(out, M)
    return out


def elementary_divisors_oracle(M):
    """Invariant factors from gcds of k x k minors (determinantal divisors)."""
    from itertools import combinations
    from math import gcd

    n = len(M)
    dets = [1]
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                sub = tuple(tuple(M[i][j] for j in cols) for i in rows)
                g = gcd(g, det_cofactor(sub))
        dets.append(abs(g))
    out = []
    for k in range(1, n + 1):
        if dets[k] == 0:
            out.append(0)
        else:
            out.append(dets[k] // dets[k - 1])
    return tuple(out)
