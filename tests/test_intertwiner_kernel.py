"""The intertwiner lattice {W : A W = W B}: the Krylov route and the
saturated rational kernel of the n^2 x n^2 system against the left-kernel
oracle and each other, and the pairs that used to stall."""

import random
import time

import pytest

from toralconj import exact_linalg as xl
from toralconj import finite_modules as fm
from toralconj.conjugacy_pipeline import decide

from conftest import (
    A1,
    A2,
    B1,
    char_poly_interpolation,
    det_cofactor,
    direct_sum,
    random_hyperbolic,
    random_unimodular,
    sublattice_pair,
)

X = xl.mat([[5, -3], [0, -2]])
Y = xl.mat([[5, -21], [0, -2]])

# the oracle keeps its own reference, so tests may forbid the library one
left_kernel = xl.left_kernel


def kernel_oracle(A, B):
    """HNF basis of the integer left kernel of the n^2 x n^2 matrix of
    W -> A W - W B, written out entry by entry: (A W - W B)[i][l] takes
    A[i][k] W[k][l] and -W[i][j] B[j][l]."""
    n = len(A)
    rows = []
    for k in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for i in range(n):
                for l in range(n):
                    row[i * n + l] += A[i][k] if j == l else 0
                    row[i * n + l] -= B[j][l] if i == k else 0
            rows.append(tuple(row))
    # rows are indexed by the entry (k, j) of W, columns by (i, l)
    return left_kernel(tuple(rows))


def e1_krylov_matrix(M):
    """The columns e1, M e1, ..., M^(n-1) e1, as rows."""
    cols = [tuple(int(i == 0) for i in range(len(M)))]
    for _ in range(len(M) - 1):
        cols.append(tuple(sum(a * x for a, x in zip(row, cols[-1])) for row in M))
    return tuple(cols)


def krylov_route_applies(A, B):
    """e1 is cyclic for A and for B, and W0 = P Q^-1 intertwines.  With P
    and Q nonsingular, A P = P C_A and B Q = Q C_B for the companion
    matrices of the two characteristic polynomials, so W0 intertwines
    exactly when those polynomials are equal."""
    return (
        len(A) > 0
        and det_cofactor(e1_krylov_matrix(A)) != 0
        and det_cofactor(e1_krylov_matrix(B)) != 0
        and char_poly_interpolation(A) == char_poly_interpolation(B)
    )


def conjugate_pair(rng, n, bound=3):
    A = random_hyperbolic(rng, n, bound)
    U = random_unimodular(rng, n)
    return A, xl.mat_mul(xl.mat_mul(U, A), xl.unimodular_inverse(U))


def _pairs(rng):
    cyclic = [conjugate_pair(rng, n) for n in (2, 3, 4, 5) for _ in range(3)]
    cyclic += [sublattice_pair(rng, n, 4) for n in (2, 3, 4) for _ in range(3)]
    cyclic += [(A1, B1), (direct_sum(X, A1), direct_sum(Y, B1))]
    non_cyclic = [
        (direct_sum(X, X), direct_sum(X, Y)),
        (direct_sum(X, X), direct_sum(X, X)),
        (direct_sum(A1, A1), direct_sum(A1, B1)),
    ]
    # different characteristic polynomials: the lattice may still be nonzero
    # (a shared factor)
    dissimilar = [(A1, A2), (direct_sum(X, A1), direct_sum(X, A2))]
    dissimilar += [(random_hyperbolic(rng, n, 3), random_hyperbolic(rng, n, 3)) for n in (2, 3, 4)]
    return cyclic, non_cyclic, dissimilar


def _refuse_left_kernel(M):
    raise AssertionError(f"left_kernel called on a {len(M)}-row system")


def _count_eliminations(monkeypatch):
    calls = []
    original = xl.rational_kernel

    def counting(M):
        calls.append(len(M))
        return original(M)

    monkeypatch.setattr(fm.xl, "rational_kernel", counting)
    return calls


def test_kernel_matches_the_system_oracle(rng, monkeypatch):
    calls = _count_eliminations(monkeypatch)
    monkeypatch.setattr(fm.xl, "left_kernel", _refuse_left_kernel)
    cyclic, non_cyclic, dissimilar = _pairs(rng)
    for group in (cyclic, non_cyclic, dissimilar):
        for A, B in group:
            fm.intertwiner_kernel.cache_clear()
            calls.clear()
            got = fm.intertwiner_kernel(A, B)
            n = len(A)
            # the Krylov route solves no system; every other pair takes one
            # elimination of the n^2 x n^2 system
            assert calls == ([] if krylov_route_applies(A, B) else [n * n])
            assert got == kernel_oracle(A, B)
            if group is not dissimilar:
                assert xl.saturation(got) == got
    fm.intertwiner_kernel.cache_clear()


def test_both_routes_give_one_basis(rng, monkeypatch):
    # the Krylov rows and the rational kernel of the system span one space
    # over Q, so their saturations are the same HNF basis
    krylov = [conjugate_pair(rng, n) for n in range(2, 9)]
    krylov += [sublattice_pair(rng, n, 4) for n in (2, 3, 4)]
    # e1 is an eigenvector of X, so of X + A1, though the pair is cyclic
    # and similar; A1 and A2 have cyclic e1 but differ, so W0 fails
    eliminated = [(direct_sum(X, A1), direct_sum(Y, B1)), (A1, A2)]
    assert not any(map(krylov_route_applies, *zip(*eliminated)))
    calls = _count_eliminations(monkeypatch)
    for group in (krylov, eliminated):
        for A, B in group:
            fm.intertwiner_kernel.cache_clear()
            calls.clear()
            got = fm.intertwiner_kernel(A, B)
            assert len(calls) == (group is eliminated)
            assert got == xl.saturation(xl.rational_kernel(fm.intertwiner_system(A, B)))
    fm.intertwiner_kernel.cache_clear()


def test_kernel_of_empty_and_1x1_pairs():
    fm.intertwiner_kernel.cache_clear()
    assert fm.intertwiner_kernel((), ()) == ()
    assert fm.intertwiner_kernel(((3,),), ((3,),)) == ((1,),)
    assert fm.intertwiner_kernel(((3,),), ((4,),)) == ()
    fm.intertwiner_kernel.cache_clear()


def test_guard_catches_a_shared_factor():
    # X + A1 against X + A2: characteristic polynomials differ, yet the
    # intertwiners between the X blocks form a nonzero lattice
    A, B = direct_sum(X, A1), direct_sum(X, A2)
    fm.intertwiner_kernel.cache_clear()
    assert len(fm.intertwiner_kernel(A, B)) > 0
    fm.intertwiner_kernel.cache_clear()


@pytest.mark.parametrize("n", [6, 7, 8])
def test_large_conjugate_pairs_build_a_small_lattice(rng, monkeypatch, n):
    # the n^2 x n^2 transform-HNF ran for minutes on such pairs; the Krylov
    # route solves no system, takes milliseconds, and keeps the basis
    # entries small
    monkeypatch.setattr(fm.xl, "left_kernel", _refuse_left_kernel)
    calls = _count_eliminations(monkeypatch)
    for _ in range(2):
        A, B = conjugate_pair(rng, n)
        fm.intertwiner_kernel.cache_clear()
        calls.clear()
        started = time.perf_counter()
        basis = fm.intertwiner_kernel(A, B)
        assert time.perf_counter() - started < 1.0
        assert calls == []
        assert len(basis) == n
        assert max(abs(x).bit_length() for row in basis for x in row) <= 64
        assert decide(A, B).outcome == "conjugate"
    fm.intertwiner_kernel.cache_clear()


def m_plus_m_pair(seed):
    """M + M against a unimodular conjugate, M a random hyperbolic 4 x 4."""
    rng = random.Random(seed)
    M = random_hyperbolic(rng, 4, 3)
    U = random_unimodular(rng, 8)
    A = direct_sum(M, M)
    return A, xl.mat_mul(xl.mat_mul(U, A), xl.unimodular_inverse(U))


@pytest.mark.parametrize("seed", [5, 7])
def test_non_cyclic_8x8_pairs_take_one_elimination(monkeypatch, seed):
    # M + M against a unimodular conjugate has no cyclic vector, so the
    # 64 x 64 system is solved; its transform HNF took 6 s and 9 s on these
    # seeds, one fraction-free elimination and a saturation take 0.05 s
    A, B = m_plus_m_pair(seed)
    monkeypatch.setattr(fm.xl, "left_kernel", _refuse_left_kernel)
    fm.intertwiner_kernel.cache_clear()
    started = time.perf_counter()
    basis = fm.intertwiner_kernel(A, B)
    assert time.perf_counter() - started < 1.0
    fm.intertwiner_kernel.cache_clear()
    assert len(basis) == 16


@pytest.mark.parametrize("seed", [5, 7])
def test_non_cyclic_8x8_pairs_certify_before_the_module_screen(seed):
    # walked lexicographically, the rank-16 lattice gave its first
    # certificate at candidate 155,253, after the degree >= 2 screen (43 s
    # and 86 s); sparse first, a combination of few lattice rows comes early
    A, B = m_plus_m_pair(seed)
    fm.intertwiner_kernel.cache_clear()
    v = decide(A, B)
    fm.intertwiner_kernel.cache_clear()
    assert v.outcome == "conjugate"
    stages = [e["stage"] for e in v.evidence]
    assert stages == ["similarity", "hyperbolicity", "bf_screen", "unimodular_search"]
    assert v.evidence[-1]["result"]["candidates"] <= 100
