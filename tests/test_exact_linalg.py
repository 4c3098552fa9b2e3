import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toralconj import exact_linalg as xl
from toralconj import polys
from toralconj.errors import ResourceLimitError

from conftest import A1, A2, char_poly_interpolation, det_cofactor, direct_sum, power_by_repeated_multiplication

I3 = xl.identity(3)

mat3 = st.lists(
    st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=3, max_size=3
).map(xl.mat)
mat_small = st.integers(2, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n
    ).map(xl.mat)
)


# ------------------------------------------------------------------ mat

def test_mat_returns_integer_tuples_and_refuses_the_rest():
    M = ((2, 1), (1, 1))
    assert xl.mat(M) == M and xl.mat([[2, 1], [1, 1]]) == M and xl.mat(()) == ()
    # a non-integer entry is refused, never truncated, inside a tuple too
    for bad in (2.5, Fraction(1, 2), "1"):
        for rows in (((bad, 1), (1, 1)), [[bad, 1], [1, 1]], ((1, 1), [1, bad])):
            with pytest.raises(ValueError, match="not an integer"):
                xl.mat(rows)
    for rows in (((1, 2), (3,)), [[1, 2], [3]]):
        with pytest.raises(ValueError, match="ragged"):
            xl.mat(rows)
    # a bool is converted to the int it stands for, in a tuple as in a list
    for rows in (((True, 0), (0, 1)), [[True, 0], [0, 1]]):
        out = xl.mat(rows)
        assert out == xl.identity(2) and type(out[0][0]) is int


# ------------------------------------------------------------------ det

def test_products_match_entrywise_sums(rng):
    assert xl.mat_mul((), ()) == () and xl.vec_mat((), ()) == () and xl.identity(0) == ()
    for r, k, c in itertools.product(range(1, 4), range(4), range(4)):
        A = tuple(tuple(rng.randint(-9, 9) for _ in range(k)) for _ in range(r))
        B = tuple(tuple(rng.randint(-9, 9) for _ in range(c)) for _ in range(k))
        v = tuple(rng.randint(-9, 9) for _ in range(k))
        # with k = 0, B has no rows and neither product has columns
        assert xl.mat_mul(A, B) == tuple(
            tuple(sum(A[i][t] * B[t][j] for t in range(k)) for j in range(c if k else 0)) for i in range(r)
        )
        assert xl.vec_mat(v, B) == tuple(sum(v[t] * B[t][j] for t in range(k)) for j in range(c if k else 0))
        # vec_mat builds from the rows with a nonzero coefficient only: any
        # number of them, over integer and Fraction rows, an integer times a
        # Fraction row staying a Fraction
        for den, support in itertools.product((1, 3), range(k + 1)):
            Bq = tuple(tuple(Fraction(x, den) for x in row) for row in B) if den > 1 else B
            w = [0] * k
            for i in rng.sample(range(k), support):
                w[i] = rng.choice((-3, -1, 1, 2, Fraction(1, 2)))
            got = xl.vec_mat(tuple(w), Bq)
            assert got == tuple(sum(w[t] * Bq[t][j] for t in range(k)) for j in range(c if k else 0))
            assert den == 1 or all(isinstance(x, Fraction) for x in got)
        with pytest.raises(ValueError, match="dimension mismatch"):
            xl.vec_mat(v + (1,), B)
        with pytest.raises(ValueError, match="dimension mismatch"):
            xl.mat_mul(A, B + ((1,) * c,))
    # an empty operand against a nonempty one is a mismatch too
    for A, B in (((), ((1, 2),)), (((1, 2),), ())):
        with pytest.raises(ValueError, match="dimension mismatch"):
            xl.mat_mul(A, B)
    assert xl.unvec(tuple(range(9)), 3) == ((0, 1, 2), (3, 4, 5), (6, 7, 8))


def test_det_examples():
    assert xl.det(A1) == det_cofactor(A1) == 1
    assert xl.det(I3) == 1
    assert xl.det(xl.mat_add(A1, I3)) == det_cofactor(xl.mat_add(A1, I3)) == 32


@given(mat_small)
@settings(max_examples=60)
def test_det_matches_cofactor_oracle(M):
    assert xl.det(M) == det_cofactor(M)


def _mat(rows, cols):
    return st.lists(
        st.lists(st.integers(-4, 4), min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(xl.mat)


# products of an r x k and a k x c matrix, k < min(r, c) often, so rank drops
low_rank = st.tuples(st.integers(1, 5), st.integers(1, 3), st.integers(1, 5)).flatmap(
    lambda d: st.tuples(_mat(d[0], d[1]), _mat(d[1], d[2])).map(lambda lr: xl.mat_mul(*lr))
)
rectangular = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(lambda d: _mat(*d))


@given(st.one_of(rectangular, low_rank))
@settings(max_examples=80)
def test_rational_kernel_saturates_to_the_left_kernel(M):
    rows = xl.rational_kernel(M)
    assert len(rows) + len(xl.hnf_basis(M)) == len(M)
    assert xl.saturation(rows) == xl.left_kernel(M)


@given(st.one_of(rectangular, low_rank))
@settings(max_examples=80)
def test_rank_counts_the_pivots_of_the_echelon_form(M):
    # the echelon-only elimination agrees with the full one and with the
    # left-kernel oracle
    assert xl.rank(M) == len(M) - len(xl.left_kernel(M)) == len(M) - len(xl.rational_kernel(M))


# ------------------------------------------------------------------ char poly

def test_char_poly_examples():
    assert xl.char_poly(A1) == (-1, 7, -23, 1)
    assert xl.char_poly(A2) == (-1, -8, -2, 1)
    assert xl.char_poly(xl.identity(2)) == (1, -2, 1)


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-30, 30), min_size=n, max_size=n), min_size=n, max_size=n
        ).map(xl.mat)
    )
)
@settings(max_examples=60)
# degenerate inputs, where the trace divisions and the Cayley-Hamilton check
# see repeated and zero eigenvalues: zero, 3 I, a nilpotent Jordan block and
# a direct sum with itself
@example(xl.zeros(4, 4))
@example(xl.mat_scale(xl.identity(3), 3))
@example(tuple(tuple(int(j == i + 1) for j in range(5)) for i in range(5)))
@example(direct_sum(A1, A1))
def test_char_poly_matches_interpolation_oracle(M):
    assert xl.char_poly(M) == char_poly_interpolation(M)


@given(mat3)
@settings(max_examples=40)
def test_cayley_hamilton(M):
    assert xl.eval_poly_at_matrix(xl.char_poly(M), M) == xl.zeros(3, 3)


# ------------------------------------------------------------------ inverse

def test_invert_rational_examples():
    assert xl.invert_rational(I3) == (I3, 1)
    assert xl.invert_rational(xl.mat([[2, 0], [0, 3]])) == (((3, 0), (0, 2)), 6)
    # det -2: the adjugate ((4, -2), (-3, 1)) changes sign with it
    assert xl.invert_rational(xl.mat([[1, 2], [3, 4]])) == (((-4, 2), (3, -1)), 2)


def cofactor_adjugate(M):
    n = len(M)
    return tuple(
        tuple(
            (-1) ** (i + j)
            * det_cofactor(tuple(r[:i] + r[i + 1 :] for k, r in enumerate(M) if k != j))
            for j in range(n)
        )
        for i in range(n)
    )


@given(mat_small)
@settings(max_examples=40)
def test_invert_rational_matches_the_cofactor_oracle(M):
    d = det_cofactor(M)
    if d == 0:
        with pytest.raises(ValueError):
            xl.invert_rational(M)
        return
    adj = cofactor_adjugate(M)
    n = len(M)
    assert xl.mat_mul(M, adj) == xl.mat_scale(xl.identity(n), d)
    assert xl.invert_rational(M) == ((adj, d) if d > 0 else (xl.mat_neg(adj), -d))


@st.composite
def closed_form_mats(draw):
    """n <= 3, entries mixing small values, which make singular matrices
    likely, with values past 2^64; one draw in three makes the last row a
    combination of the others."""
    n = draw(st.integers(1, 3))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.integers(0, 2)) == 0:
        weights = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum(w * r[j] for w, r in zip(weights, rows)) for j in range(n)]
    return xl.mat(rows)


@given(closed_form_mats())
@settings(max_examples=150)
@example(((0, 1), (1, 0)))
@example(((-5,),))
@example(((1, 2, 3), (4, 5, 6), (7, 8, 10)))
@example(((2**70 + 1, 2**71 + 2), (3, 6)))
@example(((2**70 + 1, 0, 1), (0, 1, 0), (1, 0, 0)))
def test_closed_forms_match_the_bareiss_path(M):
    # the closed forms for n = 2, 3 against the Bareiss path of the other sizes
    n = len(M)
    d = xl._det_bareiss(M)
    assert xl.det(M) == d
    adj, pivot = xl._adjugate_bareiss(M)
    if d == 0:
        assert pivot == 0
        with pytest.raises(ValueError, match="singular matrix"):
            xl.invert_rational(M)
        return
    inv, den = xl.invert_rational(M)
    assert den == abs(d) == abs(pivot) > 0
    assert xl.mat_mul(M, inv) == xl.mat_scale(xl.identity(n), den)
    assert inv == (adj if pivot > 0 else xl.mat_neg(adj))


@given(st.integers(2, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80)), min_size=n, max_size=n),
        min_size=n, max_size=n,
    ).map(xl.mat)
))
@settings(max_examples=150)
# zero, scalar, nilpotent and repeated-eigenvalue matrices of both sizes
@example(xl.zeros(2, 2))
@example(xl.zeros(3, 3))
@example(xl.mat_scale(xl.identity(2), -7))
@example(xl.mat_scale(xl.identity(3), 2**80))
@example(((0, 1), (0, 0)))
@example(((0, 1, 0), (0, 0, 1), (0, 0, 0)))
@example(((5, 1, 0), (0, 5, 0), (0, 0, 5)))
@example(((3, 1), (-1, 1)))
@example(((2, 1, 0), (0, 2, 0), (0, 0, -1)))
def test_char_poly_closed_forms_match_faddeev_leverrier(M):
    # (det, -tr, 1) and (-det, e2, -tr, 1) against the trace recurrence,
    # which checks Cayley-Hamilton, and against interpolated cofactor
    # determinants
    assert xl.char_poly(M) == xl._faddeev_leverrier(M) == char_poly_interpolation(M)


# ------------------------------------------------------------------ poly at matrix

def test_eval_poly_at_matrix():
    assert xl.eval_poly_at_matrix((0, 1), A1) == A1
    assert xl.eval_poly_at_matrix((1, 1), A1) == xl.mat_add(A1, I3)
    assert xl.eval_poly_at_matrix((), A1) == xl.zeros(3, 3)


# ------------------------------------------------------------------ powers

def test_matrix_power_factorial():
    assert xl.matrix_power_factorial(A1, 1) == A1
    assert xl.matrix_power_factorial(A1, 2) == xl.mat_mul(A1, A1)
    assert xl.matrix_power_factorial(A1, 3) == power_by_repeated_multiplication(A1, 6)
    assert xl.matrix_power_factorial(A2, 4) == power_by_repeated_multiplication(A2, 24)
    with pytest.raises(ResourceLimitError):
        xl.matrix_power_factorial(A1, 7)


def test_bit_guard(monkeypatch):
    monkeypatch.setenv("TORALCONJ_MAX_BITS", "64")
    big = xl.mat([[1 << 80]])
    with pytest.raises(ResourceLimitError):
        xl.guard_bits(big)
    monkeypatch.delenv("TORALCONJ_MAX_BITS")
    xl.guard_bits(big)


# ------------------------------------------------------------------ resultant / discriminant

def test_resultant_examples():
    assert abs(xl.resultant((-1, 7, -23, 1), (1, 1))) == 32
    assert abs(xl.resultant((-1, -8, -2, 1), (-1, 1))) == 10
    p = (-1, 7, -23, 1)
    assert abs(xl.resultant(p, (0, 1))) == abs(p[0])
    # the characteristic polynomial of the 0 x 0 matrix
    assert xl.resultant((1,), (1, 1)) == 1


def test_resultant_monic_reduction_path():
    # degree of g far above p exercises the mod-p fast path
    p = (-1, -8, -2, 1)
    g = polys.x_pow_minus_one(24)
    direct = xl.resultant(p, g)
    assert direct == xl.resultant(p, polys.divmod_exact(g, p)[1])


def test_discriminant_examples():
    assert xl.discriminant((-1, -8, -2, 1)) == 1957
    assert xl.discriminant((-1, 0, 1)) == 4
    assert xl.discriminant((1, 0, 1)) == -4


@given(
    st.one_of(st.just(xl.identity(0)), mat_small),
    st.lists(st.integers(-4, 4), min_size=1, max_size=4).map(polys.trim),
)
@example(xl.identity(0), (1, 1))
@settings(max_examples=30)
def test_resultant_det_identity(M, g):
    # |det g(M)| = |res(char_poly(M), g)| for monic characteristic polynomials
    if not g:
        return
    p = xl.char_poly(M)
    assert abs(xl.det(xl.eval_poly_at_matrix(g, M))) == abs(xl.resultant(p, g))


# ------------------------------------------------------------------ HNF

def test_hnf_examples():
    H, U = xl.hnf(I3)
    assert H == I3 and U == I3
    H, U = xl.hnf(xl.mat([[2, 4], [0, 3]]))
    assert H == ((2, 1), (0, 3))
    assert xl.mat_mul(U, xl.mat([[2, 4], [0, 3]])) == H
    H, U = xl.hnf(xl.zeros(2, 2))
    assert H == ()


@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=1, max_size=4).map(xl.mat))
@settings(max_examples=60)
def test_hnf_properties(M):
    H, U = xl.hnf(M)
    padded = H + xl.zeros(len(M) - len(H), 3)
    assert xl.mat_mul(U, M) == padded
    assert xl.det(U) in (1, -1)
    # idempotence on the basis
    if H:
        H2, _ = xl.hnf(H)
        assert H2 == H
    # the same basis without the transform
    assert xl.hnf(M, transform=False) == (H, ())


# ------------------------------------------------------------------ SNF

def test_snf_examples():
    d, V, Vinv = xl.snf(xl.mat([[2, 0], [0, 3]]))
    assert d == (1, 6)
    assert xl.mat_mul(V, Vinv) == xl.identity(2)
    d, _, _ = xl.snf(xl.mat_add(A1, I3))
    assert d == (1, 4, 8)
    B1 = xl.mat([[0, 1, 12], [1, 0, -4], [0, 2, 23]])
    d, _, _ = xl.snf(xl.mat_add(B1, I3))
    assert d == (1, 2, 16)


@given(mat_small)
@settings(max_examples=60)
def test_snf_properties(M):
    n = len(M)
    d, V, Vinv = xl.snf(M)
    D = tuple(tuple(d[i] if i == j else 0 for j in range(n)) for i in range(n))
    # U M V = D for a unimodular U, stated on row lattices: M V and D span
    # the same lattice
    assert xl.hnf_basis(xl.mat_mul(M, V)) == xl.hnf_basis(D)
    assert xl.det(V) in (1, -1)
    assert xl.mat_mul(V, Vinv) == xl.identity(n)
    for a, b in zip(d, d[1:]):
        if b != 0:
            assert a != 0 and b % a == 0
    if xl.det(M) != 0:
        prod = 1
        for x in d:
            prod *= x
        assert prod == abs(xl.det(M))


def test_snf_matches_elementary_divisor_oracle():
    from conftest import elementary_divisors_oracle

    for M in (A1, A2, xl.mat([[4, 6], [2, 8]]), xl.mat([[0, 2], [3, 0]])):
        assert xl.snf(M)[0] == elementary_divisors_oracle(M)


# ------------------------------------------------------------------ lattices

def test_lattice_membership():
    L = xl.hnf_basis(xl.mat_sub(A1, I3))
    assert xl.lattice_membership(L, (0, 0, 0)) == (0, 0, 0)
    v = xl.vec_mat((1, 0, 0), xl.mat_sub(A1, I3))
    assert xl.lattice_membership(L, v) is not None
    L2 = xl.hnf_basis(xl.mat_scale(I3, 2))
    assert xl.lattice_membership(L2, (1, 0, 0)) is None


def test_lattice_intersection_examples():
    L = xl.hnf_basis(xl.mat([[2, 0], [0, 2]]))
    assert xl.lattice_intersection(L, L) == L
    two = xl.hnf_basis(xl.mat_scale(xl.identity(2), 2))
    three = xl.hnf_basis(xl.mat_scale(xl.identity(2), 3))
    assert xl.lattice_intersection(two, three) == xl.mat_scale(xl.identity(2), 6)
    # rows(A-I) cap rows(A+I) contains rows(A^2-I)
    minus = xl.hnf_basis(xl.mat_sub(A1, I3))
    plus = xl.hnf_basis(xl.mat_add(A1, I3))
    inter = xl.lattice_intersection(minus, plus)
    sq = xl.mat_sub(xl.mat_mul(A1, A1), I3)
    for row in sq:
        assert xl.lattice_membership(inter, row) is not None


def test_solve_left():
    M = xl.mat([[2, 0, 0], [0, 3, 0]])
    assert xl.solve_left(M, (4, 9, 0)) == (2, 3)
    assert xl.solve_left(M, (1, 0, 0)) is None
    # dependent rows: any solution will do, but it must solve
    D = xl.mat([[2, 4], [1, 2], [3, 6]])
    assert xl.vec_mat(xl.solve_left(D, (5, 10)), D) == (5, 10)
    assert xl.solve_left(D, (1, 1)) is None
    assert xl.solve_left(xl.zeros(2, 2), (0, 0)) == (0, 0)


def test_congruence_kernel():
    # x + y = 0 mod 4 in Z^2
    C = xl.mat([[1], [1]])
    K = xl.congruence_kernel(C, (4,))
    assert len(K) == 2
    for row in K:
        assert (row[0] + row[1]) % 4 == 0
    assert xl.lattice_membership(K, (1, 3)) is not None
    assert xl.lattice_membership(K, (1, 0)) is None


def _saturation_oracle(R):
    """Vectors orthogonal to the rational right kernel of R."""
    right = xl.left_kernel(xl.transpose(R))
    return xl.left_kernel(xl.transpose(right)) if right else xl.identity(len(R[0]))


@given(
    st.integers(1, 3).flatmap(
        lambda r: st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4), min_size=r, max_size=r)
    ),
    st.integers(1, 6),
)
@settings(max_examples=60)
def test_saturation_matches_the_orthogonal_oracle(rows, scale):
    R = xl.mat(rows)
    if len(xl.hnf_basis(R)) < len(R):
        with pytest.raises(ValueError):
            xl.saturation(R)
        return
    # a multiple of R spans the same rational space
    S = xl.saturation(xl.mat_scale(R, scale))
    assert S == _saturation_oracle(R)
    assert xl.hnf_basis(S + xl.hnf_basis(R)) == S


def test_saturation_examples():
    # 2 Z^2 saturates to Z^2; the line through (2, 4) to the one through (1, 2)
    assert xl.saturation(xl.mat([[2, 0], [0, 2]])) == xl.identity(2)
    assert xl.saturation(xl.mat([[2, 4]])) == ((1, 2),)
    assert xl.saturation(xl.mat([[2, 4, 6], [0, 3, 3]])) == ((1, 0, 1), (0, 1, 1))


def test_left_kernel():
    M = xl.mat([[1, 2], [2, 4], [0, 1]])
    K = xl.left_kernel(M)
    assert len(K) == 1
    assert xl.vec_mat(K[0], M) == (0, 0)


def test_unimodular_inverse():
    U = xl.mat([[1, 2, 0], [0, 1, 1], [0, 1, 2]])
    Ui = xl.unimodular_inverse(U)
    assert xl.mat_mul(U, Ui) == I3
    with pytest.raises(ValueError):
        xl.unimodular_inverse(xl.mat_scale(I3, 2))


def test_inverse_norm_bound_exact_value():
    from fractions import Fraction

    M = xl.mat_sub(xl.mat_mul(A1, A1), I3)
    assert xl.inverse_infinity_norm_bound(M) == Fraction(8, 11)


def test_shell_vectors_rank_zero_is_empty():
    assert list(xl.shell_vectors(0, 3)) == []
    assert xl.bounded_search(0, 3, lambda c: c) == (None, 0)


@pytest.mark.parametrize("rank, radius", [(1, 3), (2, 3), (3, 2)])
def test_shell_vectors_order_and_signs(rank, radius):
    import itertools

    box = [c for c in itertools.product(range(-radius, radius + 1), repeat=rank) if any(c)]
    walk = list(xl.shell_vectors(rank, radius))

    def sparse_first(c):
        support = tuple(i for i, x in enumerate(c) if x)
        return (max(map(abs, c)), len(support), support, tuple(c[i] for i in support))

    # one of each +-c of the box, the one whose first nonzero entry is
    # positive, by shell, then by support size, support positions and
    # nonzero values
    assert len(walk) == len(box) // 2
    assert set(walk) | {tuple(-x for x in c) for c in walk} == set(box)
    assert walk == sorted((c for c in box if next(x for x in c if x) > 0), key=sparse_first)


def test_bounded_search_first_hit_and_cap():
    seen = []

    def accept(c):
        seen.append(c)
        return c if c == (2, -1) else None

    hit, tried = xl.bounded_search(2, 3, accept)
    assert hit == (2, -1) and tried == len(seen)
    assert seen == list(xl.shell_vectors(2, 3))[:tried]
    assert xl.bounded_search(2, 3, accept, max_candidates=5) == (None, 5)
    assert xl.bounded_search(2, 3, lambda c: None, max_candidates=0) == (None, 0)
    assert xl.bounded_search(2, 3, lambda c: None) == (None, 24)


def test_bounded_search_resumes_after_start():
    seen = []

    def accept(c):
        seen.append(c)
        return c if c == (2, -1) else None

    walk = list(xl.shell_vectors(2, 3))
    hit, tried = xl.bounded_search(2, 3, accept)
    seen.clear()
    # a search capped before the hit, then resumed, sees each vector once
    assert xl.bounded_search(2, 3, accept, max_candidates=5) == (None, 5)
    assert xl.bounded_search(2, 3, accept, start=5) == (hit, tried)
    assert seen == walk[:tried]
    assert xl.bounded_search(2, 3, accept, start=len(walk)) == (None, len(walk))


# ------------------------------------------------------------------ det_form

def _mats(n, k):
    entries = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    return st.lists(st.lists(entries, min_size=n, max_size=n).map(xl.mat), min_size=k, max_size=k)


@given(st.data())
@settings(max_examples=60)
def test_det_form_matches_the_determinant_of_the_sum(data):
    # the form has one variable per matrix, whether there are fewer or more
    # of them than the size n
    n, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    mats = data.draw(_mats(n, k))
    form = xl.det_form(mats)
    assert len(form) <= math.comb(k + n - 1, n)
    for c in data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=k, max_size=k), min_size=1, max_size=4)):
        total = functools.reduce(xl.mat_add, (xl.mat_scale(M, x) for x, M in zip(c, mats)))
        assert xl.form_value(form, c) == det_cofactor(total)


def _form_and_shell(data, max_rho):
    n, rank = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    form = xl.det_form(data.draw(_mats(n, rank)))
    return form, rank, data.draw(st.integers(1, max_rho))


def _filtered_shell(form, targets, rank, rho):
    # the oracle: shell rho of the box, first nonzero entry positive, filtered
    # by form_value
    return {
        c
        for c in itertools.product(range(-rho, rho + 1), repeat=rank)
        if c and max(map(abs, c)) == rho and c > (0,) * rank and xl.form_value(form, c) in targets
    }


@given(st.data())
@settings(max_examples=60)
def test_box_solver_matches_the_filtered_shell(data):
    # shells asked in ascending order, some skipped as a search's start or
    # cap skips them
    form, rank, bound = _form_and_shell(data, 3)
    walk = list(xl.shell_vectors(rank, bound))
    values = [xl.form_value(form, c) for c in walk]
    targets = set(data.draw(st.lists(st.sampled_from(values + [-1, 0, 1]), max_size=3)))
    solve = xl.box_solver(form, targets, rank, bound)
    for rho in sorted(data.draw(st.sets(st.integers(1, bound)))):
        assert solve(rho) == _filtered_shell(form, targets, rank, rho)


def _sum_power_form(rank, n):
    # (c_1 + ... + c_rank)^n: every coefficient is positive, so the form
    # reaches +-form_value(|form|, [bound] * rank) at the corners +-(bound, ...)
    return xl.det_form([xl.identity(n)] * rank)


def _corner(rank, n, bound):
    return (rank * bound) ** n


@pytest.mark.parametrize(
    "form, rank, bound, targets",
    [
        (_sum_power_form(3, 3), 3, 8, {0}),
        (_sum_power_form(3, 3), 3, 8, {_corner(3, 3, 8), -_corner(3, 3, 8), 0}),
        (_sum_power_form(2, 3), 2, 8, {_corner(2, 3, 8) + 1, -_corner(2, 3, 8) - 1, 10**30}),
        (_sum_power_form(2, 2), 2, 5, set()),
        (xl.det_form([((1, 2), (0, -1)), ((0, 1), (1, 3))]), 2, 8, {0, 1, -1, 7}),
        ((), 2, 3, {0}),
        ((), 2, 3, {1}),
        ((), 0, 3, {0}),
        (((-2, (0, 0)),), 1, 8, {-128, -2, 0, 8}),
        (((3, (0, 0, 0)),), 1, 8, {3 * 8**3, -(3 * 8**3)}),
    ],
    ids=[
        "zero-target", "corners", "outside", "no-targets", "indefinite",
        "zero-form", "zero-form-miss", "rank-0", "rank-1", "rank-1-corners",
    ],
)
def test_box_solver_at_the_edges_of_its_slots(form, rank, bound, targets):
    solve = xl.box_solver(form, targets, rank, bound)
    shells = [solve(rho) for rho in range(1, bound + 1)]
    assert shells == [_filtered_shell(form, targets, rank, rho) for rho in range(1, bound + 1)]
    walk = list(xl.shell_vectors(rank, bound))
    assert xl.bounded_search(rank, bound, lambda c: None, solutions=(form, targets)) == (None, len(walk))


@given(st.data())
@settings(max_examples=60)
def test_bounded_search_with_solutions_walks_the_same(data):
    # start and the cap may fall inside a shell, and accept rejects some
    # solutions, as the HNF check of principal_search does
    form, rank, bound = _form_and_shell(data, 3)
    walk = list(xl.shell_vectors(rank, bound))
    values = [xl.form_value(form, c) for c in walk]
    targets = set(data.draw(st.lists(st.sampled_from(values), max_size=3)))
    modulus = data.draw(st.integers(2, 4))

    def accept(c):
        return c if xl.form_value(form, c) in targets and sum(c) % modulus else None

    start = data.draw(st.integers(0, len(walk) + 1))
    cap = data.draw(st.none() | st.integers(0, len(walk) + 1))
    plain = xl.bounded_search(rank, bound, accept, cap, start)
    solved = xl.bounded_search(rank, bound, accept, cap, start, solutions=(form, targets))
    assert solved == plain


def test_bounded_search_evaluates_each_head_once(monkeypatch):
    # every head of shell rho recurs in the shells after it; one search
    # solves each head over its whole line once, so at rank 4, bound 5 the
    # G_k of the 666 heads are evaluated once each, and every shell has the
    # solutions a solver asked for that shell alone finds
    rng = random.Random(4)
    form = xl.det_form([tuple(tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3)) for _ in range(4)])
    targets = set(range(-9, 10))
    fresh = [xl.box_solver(form, targets, 4, 5)(rho) for rho in range(1, 6)]
    solve = xl.box_solver(form, targets, 4, 5)
    assert [solve(rho) for rho in range(1, 6)] == fresh
    evaluated, seen = [], []
    original = xl.form_value
    monkeypatch.setattr(xl, "form_value", lambda part, h: evaluated.append(h) or original(part, h))
    assert xl.bounded_search(4, 5, seen.append, solutions=(form, targets)) == (None, 7320)
    heads = [h for h in evaluated if isinstance(h, tuple)]
    assert len(heads) == 4 * len(set(heads)) == 4 * 666
    solutions = set().union(*fresh)
    assert seen == [c for c in xl.shell_vectors(4, 5) if c in solutions] != []
