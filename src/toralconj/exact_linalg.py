"""Exact integer matrix kernels: normal forms, determinants, inverses,
characteristic polynomials, resultants, and lattice arithmetic.

Matrices are immutable tuples of row tuples of Python ints; row convention
throughout (lattices are row spans, vectors act as v @ M).  No floating point
anywhere.
"""

import functools
import itertools
import operator
import os
from fractions import Fraction
from math import gcd

from . import polys
from .errors import InternalInconsistencyError, ResourceLimitError

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]

DEFAULT_MAX_BITS = 1_000_000

# largest k for which M^(k!) is formed: tower levels and depths stop here,
# because the entries grow factorially
MAX_FACTORIAL_K = 6


def max_bits() -> int:
    raw = os.environ.get("TORALCONJ_MAX_BITS", "")
    try:
        return int(raw) if raw else DEFAULT_MAX_BITS
    except ValueError:
        return DEFAULT_MAX_BITS


def guard_bits(M: Mat) -> None:
    """Fail loudly instead of stalling on runaway entry growth."""
    cap = max_bits()
    for row in M:
        for x in row:
            if x.bit_length() > cap:
                raise ResourceLimitError(
                    f"matrix entry exceeds TORALCONJ_MAX_BITS={cap} bits"
                )


def _entry(x) -> int:
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"matrix entry {x!r} is not an integer") from None


def mat(rows) -> Mat:
    """rows as a tuple of int tuples; a float or other non-integer entry
    raises ValueError rather than being truncated.  A tuple of equal-length
    int tuples is returned as it is, after three passes at C speed."""
    if type(rows) is tuple and set(map(type, rows)) <= {tuple} and len(set(map(len, rows))) <= 1:
        if set(map(type, itertools.chain.from_iterable(rows))) <= {int}:
            return rows
    out = tuple(tuple(_entry(x) for x in row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


@functools.lru_cache(maxsize=16)
def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zeros(r: int, c: int) -> Mat:
    return tuple((0,) * c for _ in range(r))


def dims(M: Mat) -> tuple[int, int]:
    return (len(M), len(M[0]) if M else 0)


def is_square(M: Mat) -> bool:
    return all(len(r) == len(M) for r in M)


def transpose(M: Mat) -> Mat:
    return tuple(zip(*M)) if M else ()


def mat_add(A: Mat, B: Mat) -> Mat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_sub(A: Mat, B: Mat) -> Mat:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_neg(A: Mat) -> Mat:
    return tuple(tuple(-x for x in r) for r in A)


def mat_scale(A: Mat, c: int) -> Mat:
    return tuple(tuple(c * x for x in r) for r in A)


def mat_mul(A: Mat, B: Mat) -> Mat:
    return tuple(map(tuple, mat_mul_rows(A, B)))


def mat_mul_rows(A: Mat, B: Mat, shift: int = 0) -> list[list[int]]:
    """A B + shift I (A B square when shift is nonzero) as a list of row
    lists, the shift added on the diagonal in place."""
    if (len(A[0]) if A else 0) != len(B):
        raise ValueError("dimension mismatch")
    cols = list(zip(*B))
    C = [[sum(map(operator.mul, row, col)) for col in cols] for row in A]
    for i in range(len(C) if shift else 0):
        C[i][i] += shift
    return C


def unvec(v: Vec, n: int) -> Mat:
    """The n x n matrix whose rows, concatenated, are v."""
    return tuple(tuple(v[i : i + n]) for i in range(0, n * n, n))


def vec_mat(v: Vec, M: Mat) -> Vec:
    """The row vector v M, from the rows of M with a nonzero coefficient
    only: cheap for the sparse vectors that lead each shell of shell_vectors,
    one extra scan of v when it has no zero."""
    if len(v) != len(M):
        raise ValueError("dimension mismatch")
    if 0 in v and any(v):
        # lists: tuples built from these iterators held about 1 MB more
        # memory over a run of the benchmark
        v, M = list(filter(None, v)), list(itertools.compress(M, v))
        if len(v) == 1:
            return tuple(map(operator.mul, itertools.repeat(v[0]), M[0]))
    return tuple(sum(map(operator.mul, v, col)) for col in zip(*M))


def mat_pow(M: Mat, e: int) -> Mat:
    if e < 0:
        raise ValueError("negative power")
    result = identity(len(M))
    base = M
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if e > 1 else base
        e >>= 1
    return result


def det(M: Mat) -> int:
    """Exact determinant: the cofactor formula for n = 2, 3, fraction-free
    (Bareiss) elimination otherwise."""
    if not is_square(M):
        raise ValueError("determinant of non-square matrix")
    n = len(M)
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = M
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 2:
        (a, b), (c, d) = M
        return a * d - b * c
    return _det_bareiss(M)


def _det_bareiss(M: Mat) -> int:
    """Exact determinant of a square matrix by fraction-free (Bareiss)
    elimination."""
    n = len(M)
    if n == 0:
        return 1
    a = [list(r) for r in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _faddeev_leverrier(M: Mat) -> polys.Poly:
    """Characteristic polynomial (monic, lowest degree first), with the
    Cayley-Hamilton identity verified."""
    n = len(M)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    prev = identity(n)
    for k in range(1, n + 1):
        prev = mat_mul_rows(M, prev)
        t = sum(prev[i][i] for i in range(n))
        if t % k != 0:
            raise InternalInconsistencyError("Faddeev-LeVerrier trace division not exact")
        c = coeffs[n - k] = -(t // k)
        for i in range(n):
            prev[i][i] += c
    # prev is now p(M), which must vanish by Cayley-Hamilton
    if any(map(any, prev)):
        raise InternalInconsistencyError("Cayley-Hamilton verification failed")
    return tuple(coeffs)


def char_poly(M: Mat) -> polys.Poly:
    """Monic characteristic polynomial det(xI - M), lowest degree first:
    (det, -tr, 1) for n = 2 and (-det, e2, -tr, 1) for n = 3, with e2 the
    sum of the principal 2 x 2 minors; Faddeev-LeVerrier otherwise."""
    if not is_square(M):
        raise ValueError("characteristic polynomial of non-square matrix")
    n = len(M)
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = M
        return -det(M), a * e - b * d + a * i - c * g + e * i - f * h, -(a + e + i), 1
    if n == 2:
        (a, b), (c, d) = M
        return a * d - b * c, -(a + d), 1
    return _faddeev_leverrier(M)


def eval_poly_at_matrix(g: polys.Poly, M: Mat) -> Mat:
    """Horner evaluation of g at a square matrix, from the leading
    coefficient down, each lower coefficient added on the diagonal in place."""
    n = len(M)
    if not g:
        return zeros(n, n)
    acc = mat_scale(identity(n), g[-1])
    for c in reversed(g[:-1]):
        acc = mat_mul_rows(acc, M, c)
    return tuple(map(tuple, acc))


def matrix_power_factorial(M: Mat, k: int) -> Mat:
    """M^(k!) via P_1 = M, P_k = P_(k-1)^k, with binary powering per step."""
    if k < 1:
        raise ValueError("k must be positive")
    if k > MAX_FACTORIAL_K:
        raise ResourceLimitError(f"factorial power cap exceeded: k={k} > {MAX_FACTORIAL_K}")
    P = M
    for j in range(2, k + 1):
        P = mat_pow(P, j)
        guard_bits(P)
    return P


def resultant(p: polys.Poly, g: polys.Poly) -> int:
    """Resultant via the Sylvester determinant (Bareiss underneath).

    For monic p of positive degree the second argument is first reduced mod
    p, which leaves the value unchanged and keeps the Sylvester matrix small.
    """
    if not p or not g:
        raise ValueError("resultant of zero polynomial")
    if polys.is_monic(p) and polys.degree(g) > polys.degree(p) >= 1:
        g = polys.divmod_exact(g, p)[1]
        if not g:
            return 0
    m, n = polys.degree(p), polys.degree(g)
    if m == 0:
        return p[0] ** n
    if n == 0:
        return g[0] ** m
    size = m + n
    rows = []
    for i in range(n):  # n rows of p coefficients
        row = [0] * size
        for j, c in enumerate(reversed(p)):
            row[i + j] = c
        rows.append(tuple(row))
    for i in range(m):  # m rows of g coefficients
        row = [0] * size
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(tuple(row))
    return det(tuple(rows))


def discriminant(p: polys.Poly) -> int:
    """disc(p) = (-1)^(n(n-1)/2) res(p, p') / lc(p)."""
    n = polys.degree(p)
    if n < 1:
        raise ValueError("discriminant needs a nonconstant polynomial")
    r = resultant(p, polys.derivative(p))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    val = sign * r
    if val % p[-1] != 0:
        raise InternalInconsistencyError("discriminant division not exact")
    return val // p[-1]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def hnf(M: Mat, transform: bool = True) -> tuple[Mat, Mat]:
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular, U @ M equal to H stacked over zero
    rows, pivots positive, and entries above each pivot reduced into
    [0, pivot).  H contains only the nonzero rows, so it is the canonical
    basis of the row lattice of M.  With transform=False, U is not built
    and () is returned in its place.
    """
    nrows, ncols = dims(M)
    W = [list(r) for r in M]
    U = [list(r) for r in identity(nrows)] if transform else [[] for _ in range(nrows)]
    urange = range(nrows) if transform else range(0)
    piv = 0
    for col in range(ncols):
        # clear everything below position piv in this column
        pivot_row = None
        for i in range(piv, nrows):
            if W[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        W[piv], W[pivot_row] = W[pivot_row], W[piv]
        U[piv], U[pivot_row] = U[pivot_row], U[piv]
        for i in range(piv + 1, nrows):
            if W[i][col] == 0:
                continue
            a, b = W[piv][col], W[i][col]
            if b % a == 0:
                q = b // a
                for j in range(ncols):
                    W[i][j] -= q * W[piv][j]
                for j in urange:
                    U[i][j] -= q * U[piv][j]
            else:
                x, y, g = _xgcd(a, b)
                ag, bg = a // g, b // g
                for j in range(ncols):
                    wp, wi = W[piv][j], W[i][j]
                    W[piv][j] = x * wp + y * wi
                    W[i][j] = -bg * wp + ag * wi
                for j in urange:
                    up, ui = U[piv][j], U[i][j]
                    U[piv][j] = x * up + y * ui
                    U[i][j] = -bg * up + ag * ui
        if W[piv][col] < 0:
            W[piv] = [-x for x in W[piv]]
            U[piv] = [-x for x in U[piv]]
        d = W[piv][col]
        for i in range(piv):
            q = W[i][col] // d
            if q:
                for j in range(ncols):
                    W[i][j] -= q * W[piv][j]
                for j in urange:
                    U[i][j] -= q * U[piv][j]
        piv += 1
    H = tuple(tuple(r) for r in W[:piv])
    return H, tuple(tuple(r) for r in U) if transform else ()


def hnf_basis(M: Mat) -> Mat:
    return hnf(M, transform=False)[0]


def snf(M: Mat) -> tuple[Vec, Mat, Mat]:
    """Smith normal form of a square matrix: (diag, V, Vinv) with U M V
    diagonal for some unimodular U, entries nonnegative and each dividing
    the next, and Vinv the exact inverse of V.

    Every column operation on V is applied, inverted, to the rows of Vinv,
    so no separate inversion is needed.  U itself is not kept."""
    if not is_square(M):
        raise ValueError("snf of non-square matrix")
    n = len(M)
    W = [list(r) for r in M]
    V = [list(r) for r in identity(n)]
    Vinv = [list(r) for r in identity(n)]

    def row_op(i1, i2, x, y, bg, ag):
        for j in range(n):
            a, b = W[i1][j], W[i2][j]
            W[i1][j] = x * a + y * b
            W[i2][j] = -bg * a + ag * b

    def col_op(j1, j2, x, y, bg, ag):
        # columns (j1, j2) times [[x, -bg], [y, ag]]; its inverse
        # [[ag, bg], [-y, x]] acts on rows (j1, j2) of Vinv
        for i in range(n):
            a, b = W[i][j1], W[i][j2]
            W[i][j1] = x * a + y * b
            W[i][j2] = -bg * a + ag * b
        for i in range(n):
            a, b = V[i][j1], V[i][j2]
            V[i][j1] = x * a + y * b
            V[i][j2] = -bg * a + ag * b
        r1, r2 = Vinv[j1], Vinv[j2]
        Vinv[j1] = [ag * a + bg * b for a, b in zip(r1, r2)]
        Vinv[j2] = [-y * a + x * b for a, b in zip(r1, r2)]

    for t in range(n):
        # find a nonzero pivot in the trailing submatrix
        found = None
        for i in range(t, n):
            for j in range(t, n):
                if W[i][j] != 0:
                    found = (i, j)
                    break
            if found:
                break
        if not found:
            break
        i0, j0 = found
        if i0 != t:
            W[t], W[i0] = W[i0], W[t]
        if j0 != t:
            for r in range(n):
                W[r][t], W[r][j0] = W[r][j0], W[r][t]
            for r in range(n):
                V[r][t], V[r][j0] = V[r][j0], V[r][t]
            Vinv[t], Vinv[j0] = Vinv[j0], Vinv[t]
        while True:
            for i in range(t + 1, n):
                if W[i][t] != 0:
                    a, b = W[t][t], W[i][t]
                    if b % a == 0:
                        q = b // a
                        for j in range(n):
                            W[i][j] -= q * W[t][j]
                    else:
                        x, y, g = _xgcd(a, b)
                        row_op(t, i, x, y, b // g, a // g)
            for j in range(t + 1, n):
                if W[t][j] != 0:
                    a, b = W[t][t], W[t][j]
                    if b % a == 0:
                        # col_j -= q col_t, undone on Vinv by row_t += q row_j
                        q = b // a
                        for i in range(n):
                            W[i][j] -= q * W[i][t]
                        for i in range(n):
                            V[i][j] -= q * V[i][t]
                        Vinv[t] = [x + q * y for x, y in zip(Vinv[t], Vinv[j])]
                    else:
                        x, y, g = _xgcd(a, b)
                        col_op(t, j, x, y, b // g, a // g)
            if all(W[i][t] == 0 for i in range(t + 1, n)) and all(
                W[t][j] == 0 for j in range(t + 1, n)
            ):
                # enforce divisibility of the remaining block by the pivot
                bad = None
                for i in range(t + 1, n):
                    for j in range(t + 1, n):
                        if W[i][j] % W[t][t] != 0:
                            bad = i
                            break
                    if bad:
                        break
                if bad is None:
                    break
                for j in range(n):
                    W[t][j] += W[bad][j]
        if W[t][t] < 0:
            for j in range(n):
                W[t][j] = -W[t][j]
    diag = tuple(W[i][i] for i in range(n))
    return diag, tuple(tuple(r) for r in V), tuple(tuple(r) for r in Vinv)


def unimodular_inverse(U: Mat) -> Mat:
    """Exact inverse of a matrix with determinant +-1."""
    inv, den = invert_rational(U)
    if den != 1:
        raise ValueError("matrix is not unimodular")
    return inv


def left_kernel(M: Mat) -> Mat:
    """HNF basis of {x : x @ M = 0}."""
    H, U = hnf(M)
    rank = len(H)
    return hnf_basis(U[rank:]) if rank < len(U) else ()


def lattice_membership(basis: Mat, v: Vec) -> Vec | None:
    """Coordinates of v in an HNF row basis, or None when v is not in the
    lattice.  Back-substitution along the pivot staircase."""
    if basis and len(v) != len(basis[0]):
        raise ValueError("dimension mismatch")
    rem = list(v)
    coords = []
    for row in basis:
        col = next(j for j, x in enumerate(row) if x != 0)
        if rem[col] % row[col] != 0:
            return None
        q = rem[col] // row[col]
        coords.append(q)
        if q:
            for j in range(col, len(rem)):
                rem[j] -= q * row[j]
    if any(rem):
        return None
    return tuple(coords)


def solve_left(M: Mat, b: Vec) -> Vec | None:
    """An integer x with x @ M = b, or None when there is none."""
    H, U = hnf(M)
    y = lattice_membership(H, b)
    return None if y is None else vec_mat(y + (0,) * (len(U) - len(y)), U)


def lattice_intersection(B1: Mat, B2: Mat) -> Mat:
    """HNF basis of the intersection of two row lattices of equal ambient
    dimension, via the left kernel of the stacked bases."""
    c1 = dims(B1)[1] if B1 else None
    c2 = dims(B2)[1] if B2 else None
    if c1 is not None and c2 is not None and c1 != c2:
        raise ValueError("ambient dimension mismatch")
    if not B1 or not B2:
        return ()
    stacked = B1 + mat_neg(B2)
    kern = left_kernel(stacked)
    rows = [vec_mat(k[: len(B1)], B1) for k in kern]
    return hnf_basis(tuple(rows))


def congruence_kernel(C: Mat, moduli: Vec) -> Mat:
    """HNF basis of {f : f @ C = 0 mod moduli, columnwise}.

    The j-th column of C is a linear form constrained modulo moduli[j];
    computed as a left kernel with slack rows diag(moduli).
    """
    k, q = dims(C)
    if len(moduli) != q:
        raise ValueError("moduli/columns mismatch")
    if q == 0 or k == 0:
        return identity(k)
    slack = tuple(
        tuple(moduli[i] if j == i else 0 for j in range(q)) for i in range(q)
    )
    kern = left_kernel(C + slack)
    rows = [row[:k] for row in kern]
    return hnf_basis(tuple(rows))


def _fraction_free_rref(a: list[list[int]], above: bool = True) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan (Bareiss) elimination of a in place, to p
    times its reduced row echelon form; returns the pivot columns and p.
    Each division is exact: every entry is a minor of the input.  With
    above=False only the rows below each pivot are cleared, which leaves an
    echelon form with the same pivot columns at a fraction of the work."""
    pivots: list[int] = []
    prev = 1
    for col in range(len(a[0]) if a else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][col]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        top, piv = a[r], a[r][col]
        for i in range(0 if above else r + 1, len(a)):
            if i != r:
                f = a[i][col]
                a[i] = [(piv * x - f * y) // prev for x, y in zip(a[i], top)]
        pivots.append(col)
        prev = piv
    return pivots, prev


def rank(M: Mat) -> int:
    """Rank over Q: the pivot count of a fraction-free echelon form."""
    return len(_fraction_free_rref([list(r) for r in M], above=False)[0])


def rational_kernel(M: Mat) -> Mat:
    """Independent integer rows spanning {x : x @ M = 0} over Q, one per free
    column of the fraction-free Gauss-Jordan form of M^T, each divided by its
    content and verified; saturation turns them into the integer kernel."""
    a = [list(col) for col in zip(*M)]
    pivots, p = _fraction_free_rref(a)
    rows = []
    for f in sorted(set(range(len(M))) - set(pivots)):
        x = [0] * len(M)
        x[f] = p
        for row, c in zip(a, pivots):
            x[c] = -row[f]
        g = gcd(*x)
        rows.append(tuple(v // g for v in x))
    if any(any(vec_mat(x, M)) for x in rows):
        raise InternalInconsistencyError("rational kernel row fails x M = 0")
    return tuple(rows)


def invert_rational(M: Mat) -> tuple[Mat, int]:
    """Inverse of a nonsingular integer matrix as (integer matrix, denominator),
    i.e. M^-1 = matrix / den with den = |det(M)|: the adjugate, its sign
    folded in.

    The adjugate is the closed cofactor formula for n = 2, 3, and otherwise
    the right half of a fraction-free Gauss-Jordan elimination of [M | I]
    (_adjugate_bareiss).  M @ matrix = den I is verified exactly."""
    if not is_square(M):
        raise ValueError("inverse of non-square matrix")
    n = len(M)
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = M
        adj = (
            (e * i - f * h, c * h - b * i, b * f - c * e),
            (f * g - d * i, a * i - c * g, c * d - a * f),
            (d * h - e * g, b * g - a * h, a * e - b * d),
        )
        den = a * adj[0][0] + b * adj[1][0] + c * adj[2][0]
    elif n == 2:
        (a, b), (c, d) = M
        adj, den = ((d, -b), (-c, a)), a * d - b * c
    else:
        adj, den = _adjugate_bareiss(M)
    if den == 0:
        raise ValueError("singular matrix")
    if den < 0:
        adj, den = mat_neg(adj), -den
    if mat_mul(M, adj) != mat_scale(identity(n), den):
        raise InternalInconsistencyError("inverse failed M X = det I")
    return adj, den


def _adjugate_bareiss(M: Mat) -> tuple[Mat, int]:
    """(X, d) with M X = d I and d = +-det(M), or d = 0 for a singular M,
    by fraction-free Gauss-Jordan elimination (Bareiss) of [M | I]: the last
    pivot is +-det(M), with the right half then +-adj(M)."""
    n = len(M)
    a = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(M)]
    pivots, prev = _fraction_free_rref(a)
    if pivots != list(range(n)):
        return (), 0
    return tuple(tuple(r[n:]) for r in a), prev


def saturation(R: Mat) -> Mat:
    """HNF basis of span_Q(rows of R) meet Z^m, for R of full row rank.

    The columns of R span a full lattice in Z^r with HNF basis H (the rows
    of the HNF of R^T), so R = H^T Y with Y integral and the columns of Y
    spanning Z^r.  Then x Y integral forces x integral: the rows of Y are
    a basis of the saturation.  Y comes from forward substitution in the
    lower triangular H^T, each division exact."""
    r = len(R)
    H = hnf_basis(transpose(R))
    if len(H) != r:
        raise ValueError("rows are linearly dependent")
    Y: list[list[int]] = []
    for i in range(r):
        d = H[i][i]
        row = list(R[i])
        for k in range(i):
            h = H[k][i]
            if h:
                row = [x - h * y for x, y in zip(row, Y[k])]
        if any(x % d for x in row):
            raise InternalInconsistencyError("saturation division not exact")
        Y.append([x // d for x in row])
    return hnf_basis(tuple(tuple(row) for row in Y))


def inverse_infinity_norm_bound(M: Mat) -> Fraction:
    """Exact 1 / max-column-abs-sum of M^-1: a lower bound on the infinity
    norm of any nonzero row vector x @ M with x integral."""
    inv, den = invert_rational(M)
    cols = transpose(inv)
    worst = max(sum(abs(x) for x in col) for col in cols)
    return Fraction(den, worst)


def det_form(mats) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The integer form F(c) = det(sum c_i M_i) of square matrices M_i, as
    (coefficient, indices) terms with the indices ascending:
    F(c) = sum a * c[i_1] ... c[i_n].

    The determinant is multilinear in its rows, so it expands into the
    len(mats)^n determinants that take row r from M_(i_r), collected by the
    multiset of the i_r into at most C(len(mats) + n - 1, n) monomials."""
    coeffs: dict[tuple[int, ...], int] = {}
    for idx in itertools.product(range(len(mats)), repeat=len(mats[0]) if mats else 0):
        d = det(tuple(mats[i][r] for r, i in enumerate(idx)))
        if d:
            key = tuple(sorted(idx))
            coeffs[key] = coeffs.get(key, 0) + d
    return tuple((a, key) for key, a in sorted(coeffs.items()) if a)


def form_value(form, c) -> int:
    """The value at the integer vector c of a form from det_form."""
    total = 0
    for a, idx in form:
        for i in idx:
            a *= c[i]
        total += a
    return total


def _shell(rank: int, rho: int):
    values = [*range(-rho, 0), *range(1, rho + 1)]
    for size in range(1, rank + 1):
        for support in itertools.combinations(range(rank), size):
            for nonzero in itertools.product(range(1, rho + 1), *[values] * (size - 1)):
                if rho in nonzero or -rho in nonzero:
                    c = [0] * rank
                    for i, x in zip(support, nonzero):
                        c[i] = x
                    yield tuple(c)


def shell_vectors(rank: int, radius: int):
    """One of each pair +-c of nonzero integer coefficient vectors of
    max-norm <= radius, the one whose first nonzero entry is positive,
    sparse first: by shell radius rho ascending, then by the number of
    nonzero entries, then by their positions in itertools.combinations
    order, then by their values lexicographically over {-rho..rho} minus 0,
    at least one of them +-rho.  So the single lattice rows rho e_i lead
    each shell.  Each shell is generated lazily and holds the same
    vectors as in lexicographic order, so a walk that exhausts its box tries
    the same candidates in either order; a walk stopped by a candidate cap
    tries a different subset, and may find or miss what the other finds."""
    for rho in range(1, radius + 1):
        yield from _shell(rank, rho)


def box_solver(form, targets, rank: int, bound: int):
    """A function solve(rho) returning the vectors of shell rho of
    shell_vectors(rank, bound) at which a form from det_form takes a value
    in the set targets, for the shells of one search in ascending order.

    Solved line by line along the last coordinate x: F(h, x) =
    sum_k G_k(h) x^k over the heads h, the first rank - 1 coordinates with
    the first nonzero entry positive (or h = 0 with x > 0).  The heads of
    max-norm <= rho are solved when shell rho first comes up, each over its
    whole line x = -bound..bound, so each G_k is evaluated once per head
    and search.  A line is one integer V = M ONES + sum_k G_k(h) P_k, with
    P_k = sum_i x_i^k 2^(w i) and ONES = sum_i 2^(w i): slot i holds
    F(h, x_i) + M in [0, 2M], M bounding |F| over the box plus the largest
    |target|, and w = bit_length(2M) + 1 leaves the top bit of every slot
    clear, so no slot borrows from the next.  Target t hits slot i iff slot
    i of Z = V ^ (t + M) ONES is 0, and (Z - ONES) & ~Z & HIGH (HIGH the top
    bits) is nonzero iff some slot is 0; a borrow out of a zero slot may
    also flag the slots above it, so a flagged line is read slot by slot."""
    degree = len(form[0][1]) if form else 0
    # G_k: the terms a c[i_1] ... c[i_d] of F that hold x^k, x^k struck out,
    # listed from k = degree down
    parts: list[list] = [[] for _ in range(degree + 1)]
    for a, idx in form:
        k = idx.count(rank - 1)
        parts[degree - k].append((a, idx[: len(idx) - k]))
    M = form_value([(abs(a), idx) for a, idx in form], [bound] * rank) + max(map(abs, targets), default=0)
    w = max((2 * M).bit_length() + 1, 2)
    line = range(-bound, bound + 1)
    ones, mask = sum(1 << (w * i) for i in range(len(line))), (1 << w) - 1
    high = ones << (w - 1)
    packs = [sum(x**k << (w * i) for i, x in enumerate(line)) for k in range(degree, -1, -1)]
    patterns = [(t + M) * ones for t in targets]
    hits: dict[int, set[Vec]] = {}
    solved = 0 if rank and patterns else bound + 1

    def solve(rho: int) -> set[Vec]:
        nonlocal solved
        for r in range(solved, rho + 1):
            for h in _shell(rank - 1, r) if r else [(0,) * (rank - 1)]:
                V = M * ones + sum(map(operator.mul, [form_value(part, h) for part in parts], packs))
                if any((Z - ones) & ~Z & high for Z in (V ^ p for p in patterns)):
                    for i, x in enumerate(line):
                        if (x > 0 or r) and ((V >> (w * i)) & mask) - M in targets:
                            hits.setdefault(max(r, abs(x)), set()).add(h + (x,))
        solved = max(solved, rho + 1)
        return hits.get(rho, set())

    return solve


def bounded_search(
    rank: int,
    bound: int,
    accept,
    max_candidates: int | None = None,
    start: int = 0,
    solutions=None,
):
    """(first non-None accept(c), tried) over shell_vectors(rank, bound);
    (None, tried) when the shells or max_candidates run out.  With start,
    the first start vectors (whole shells by count) are skipped and counted
    as tried, so a search resumes where a capped one stopped.

    solutions = (form, targets) promises that accept(c) is None unless
    form_value(form, c) is in targets.  Each shell is then solved first
    (box_solver, one per search): without a solution its walk counts as
    tried unwalked, else accept sees only its solutions, in walk order.  So
    (result, tried) is that of the plain walk, which ends in the first shell
    that reaches max_candidates: no shell or solver line runs past it.
    """
    if max_candidates is not None:
        reach = 1
        while reach < bound and ((2 * reach + 1) ** rank - 1) // 2 < max_candidates:
            reach += 1
        bound = min(bound, reach)
    tried, last = start, 0
    solve = None if solutions is None else box_solver(*solutions, rank, bound)
    for rho in range(1, bound + 1):
        first, last = last, last + ((2 * rho + 1) ** rank - (2 * rho - 1) ** rank) // 2
        stop = last if max_candidates is None else min(last, max_candidates)
        if tried >= stop:
            continue
        keep = None
        if solve is not None:
            keep = solve(rho)
            if not keep:
                tried = stop
                continue
        for c in itertools.islice(_shell(rank, rho), tried - first, stop - first):
            tried += 1
            if keep is None or c in keep:
                hit = accept(c)
                if hit is not None:
                    return hit, tried
    return None, tried
