"""The n = 2 stage of decide: proper classes of binary quadratic forms,
checked against a brute-force search of GL(2, Z) over a box."""

from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toralconj import binary_forms as bqf
from toralconj import exact_linalg as xl
from toralconj.conjugacy_pipeline import decide

BOX = 12


def brute_force_conjugator(A, B):
    """Some P with A P = P B, det P = +-1 and entries <= BOX, or None.

    The columns v, w of P satisfy A v = b11 v + b21 w and A w = b12 v + b22 w,
    so the first column fixes the second when b21 != 0; otherwise v is an
    eigenvector and every w of the box is tried."""
    (b11, b12), (b21, b22) = B
    box = range(-BOX, BOX + 1)
    for v in ((x, y) for x in box for y in box):
        u = tuple(A[i][0] * v[0] + A[i][1] * v[1] - b11 * v[i] for i in range(2))
        if b21:
            if any(x % b21 for x in u):
                continue
            ws = [tuple(x // b21 for x in u)]
        elif u == (0, 0):
            ws = [(x, y) for x in box for y in box]
        else:
            continue
        for w in ws:
            P = ((v[0], w[0]), (v[1], w[1]))
            if max(map(abs, w)) <= BOX and xl.det(P) in (1, -1) and xl.mat_mul(A, P) == xl.mat_mul(P, B):
                return P
    return None


def check_against_brute_force(A, B):
    # a pair that the box links is certified, and a refuted pair has no P
    # in the box; no 2 x 2 pair of small entries ends unknown
    v = decide(A, B)
    stages = [e["stage"] for e in v.evidence]
    P = brute_force_conjugator(A, B)
    if P is not None:
        assert v.outcome == "conjugate", (A, B, P)
    assert v.outcome in ("conjugate", "not_conjugate")
    if v.outcome == "conjugate":
        C = v.certificate
        assert xl.mat_mul(A, C) == xl.mat_mul(C, B) and xl.det(C) in (1, -1)
    if stages[0] == "similarity" and v.evidence[0]["similar"]:
        assert stages == ["similarity", "hyperbolicity", "binary_forms"]
        assert "step_cap" not in v.evidence[-1]
    return v


def divisors(m):
    return [k for k in range(1, abs(m) + 1) if m % k == 0]


@st.composite
def same_char_poly_pairs(draw):
    """(A, B) with entries of A <= 6 and one characteristic polynomial:
    B = [[a, b], [c, t - a]] with b c = a (t - a) - det A."""
    small = st.integers(-6, 6)
    A = ((draw(small), draw(small)), (draw(small), draw(small)))
    t, det = A[0][0] + A[1][1], xl.det(A)
    a = draw(st.integers(-8, 8))
    bc = a * (t - a) - det
    if bc == 0:
        other = draw(small)
        b, c = draw(st.sampled_from([(0, other), (other, 0)]))
    else:
        c = draw(st.sampled_from(divisors(bc))) * draw(st.sampled_from((1, -1)))
        b = bc // c
    return A, ((a, b), (c, t - a))


@st.composite
def unimodular(draw):
    """P in GL(2, Z): a primitive first column, completed and sheared."""
    box = st.integers(-BOX, BOX)
    p, r = draw(box), draw(box)
    if gcd(p, r) != 1:
        p, r = 1, 0
    x, y, _ = xl._xgcd(p, r)
    k, sign = draw(st.integers(-3, 3)), draw(st.sampled_from((1, -1)))
    return (p, sign * (-y + k * p)), (r, sign * (x + k * r))


# pairs for each kind of discriminant, with the non-hyperbolic
# [[0, -1], [1, 0]] (D = -4) and [[1, 1], [0, 1]] (D = 0) among them
KINDS = {
    "negative": ("negative", ((0, -1), (1, 0)), ((1, -2), (1, -1))),
    "zero": ("zero", ((1, 1), (0, 1)), ((1, 2), (0, 1))),
    "zero_conjugate": ("zero", ((1, 1), (0, 1)), ((1, 0), (-1, 1))),
    "square": ("square", ((5, -3), (0, -2)), ((5, -21), (0, -2))),
    "nonsquare": ("nonsquare", ((0, 15), (1, 0)), ((0, 5), (3, 0))),
    "nonsquare_conjugate": ("nonsquare", ((1, 5), (1, 0)), ((1, 1), (5, 0))),
}


def kind_of(D):
    return "negative" if D < 0 else "zero" if D == 0 else "square" if isqrt(D) ** 2 == D else "nonsquare"


@pytest.mark.parametrize("kind, A, B", list(KINDS.values()), ids=list(KINDS))
def test_each_kind_of_discriminant_against_brute_force(kind, A, B):
    v = check_against_brute_force(A, B)
    assert kind_of(v.evidence[-1]["discriminant"]) == kind


@given(same_char_poly_pairs())
@settings(max_examples=150, deadline=None)
@example(KINDS["negative"][1:])
@example(KINDS["zero"][1:])
@example(KINDS["square"][1:])
@example(KINDS["nonsquare"][1:])
def test_stage_agrees_with_brute_force(pair):
    check_against_brute_force(*pair)


@given(st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6)), unimodular())
@settings(max_examples=150, deadline=None)
def test_every_conjugate_is_certified(entries, P):
    A = (entries[:2], entries[2:])
    B = xl.mat_mul(xl.mat_mul(xl.unimodular_inverse(P), A), P)
    check_against_brute_force(A, B)
    assert decide(A, B).outcome == "conjugate"


@given(st.tuples(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20)), unimodular())
@settings(max_examples=150, deadline=None)
def test_one_representative_per_proper_class(f, P):
    # every form of the class of f, f o P with det P = 1, reduces to the
    # representative of f, and M in SL(2, Z) carries f onto it
    if xl.det(P) == -1:
        P = ((P[0][0], -P[0][1]), (P[1][0], -P[1][1]))
    g, M, _ = bqf.proper_class(f)
    assert bqf.act(f, M) == g and xl.det(M) == 1
    assert bqf.proper_class(bqf.act(f, P))[0] == g


def test_a_pair_past_the_step_cap_takes_the_general_path():
    # x^2 - 1000000007 has a long continued fraction, so the walk of F_A
    # stops at MAX_STEPS; the pair goes on to the intertwiner lattice,
    # whose search certifies it
    A = ((0, 1_000_000_007), (1, 0))
    U = ((2, 1), (1, 1))
    B = xl.mat_mul(xl.mat_mul(U, A), xl.unimodular_inverse(U))
    assert bqf.proper_class(bqf.form_of(A)) is None
    v = decide(A, B)
    assert v.evidence[2] == {
        "stage": "binary_forms",
        "discriminant": 4_000_000_028,
        "step_cap": bqf.MAX_STEPS,
    }
    assert [e["stage"] for e in v.evidence][3:] == ["unimodular_search"]
    assert v.outcome == "conjugate"
