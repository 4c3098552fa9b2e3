import hashlib
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toralconj import exact_linalg as xl
from toralconj import finite_modules as fm
from toralconj.bf_invariants import default_family
from toralconj.errors import IllFormedActionError, InfiniteQuotientError, InternalInconsistencyError
from toralconj.intfactor import factorint, is_prime

from conftest import A1, A2, B1, random_hyperbolic, random_unimodular

I3 = xl.identity(3)


def bf_module(A, g):
    return fm.quotient(xl.eval_poly_at_matrix(g, A), A)


# ------------------------------------------------------------------ quotient

def test_quotient_examples():
    triv = fm.quotient(I3, I3)
    assert triv.order == 1 and triv.factors == ()
    P = bf_module(A1, (1, 1))
    assert P.order == 32 and P.factors == (4, 8)
    two = fm.quotient(xl.mat_scale(xl.identity(2), 2), xl.identity(2))
    assert two.factors == (2, 2)


def test_quotient_rejects_singular():
    with pytest.raises(InfiniteQuotientError):
        fm.quotient(xl.mat([[1, 0], [1, 0]]), xl.identity(2))


def test_quotient_rejects_bad_action():
    # relations 2Z x 4Z are not preserved by the swap action
    M = xl.mat([[2, 0], [0, 4]])
    swap = xl.mat([[0, 1], [1, 0]])
    with pytest.raises(IllFormedActionError):
        fm.quotient(M, swap)


def test_quotient_rejects_a_wrong_smith_form(monkeypatch):
    # the Smith form is the quotient's only description of the lattice, so
    # a diagonal that does not present Z^n M must not pass; the true one is
    # (1, 4, 8), and the checks must not divide by a wrong 0
    M = xl.mat_add(A1, I3)
    assert fm.quotient(M, A1).factors == (4, 8)
    true_snf = xl.snf
    for wrong in ((1, 2, 16), (1, 8, 4), (2, 2, 8), (-1, 4, -8), (1, 4, 4), (0, 4, 8)):
        monkeypatch.setattr(xl, "snf", lambda R, wrong=wrong: (wrong,) + true_snf(R)[1:])
        with pytest.raises(InternalInconsistencyError):
            fm.quotient(M, A1)


def _square(n, bound):
    row = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n).map(xl.mat)


# (M, A, vectors): M is either random, so A rarely preserves its lattice,
# or A - c I, whose lattice every A preserves
quotient_cases = st.integers(1, 3).flatmap(
    lambda n: st.tuples(
        st.one_of(_square(n, 6), st.none()),
        _square(n, 3),
        st.integers(-4, 4),
        st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n).map(tuple), min_size=4, max_size=4),
    )
)


@given(quotient_cases)
@settings(max_examples=80)
def test_contains_and_action_check_match_the_hnf_oracle(case):
    M, A, c, vs = case
    n = len(A)
    if M is None:
        M = xl.mat_sub(A, xl.mat_scale(xl.identity(n), c))
    if xl.det(M) == 0:
        return
    H = xl.hnf_basis(M)
    P = fm.quotient(M, xl.identity(n))
    for v in tuple(vs) + M + xl.mat_mul(tuple(vs), M):
        assert P.contains(v) == (xl.lattice_membership(H, v) is not None)
    preserved = all(xl.lattice_membership(H, row) is not None for row in xl.mat_mul(M, A))
    if preserved:
        assert fm.quotient(M, A).action == A
    else:
        with pytest.raises(IllFormedActionError):
            fm.quotient(M, A)


def test_order_equals_det():
    for A, g in ((A1, (1, 1)), (A1, (-1, 1)), (A2, (-1, 1)), (A2, (1, 1))):
        P = bf_module(A, g)
        assert P.order == abs(xl.det(xl.eval_poly_at_matrix(g, A)))


# ------------------------------------------------------------------ reduce / act

def test_reduce_zero_and_relations():
    P = bf_module(A1, (1, 1))
    assert P.reduce((0, 0, 0)) == (0,) * P.rank
    for row in P.relations:
        assert P.reduce(row) == (0,) * P.rank


def test_reduce_coset_invariance():
    P = bf_module(A1, (1, 1))
    m = (3, -7, 2)
    for xi in ((1, 0, 0), (0, -2, 5), (7, 7, -7)):
        shift = xl.vec_mat(xi, P.relations)
        assert P.reduce(m) == P.reduce(tuple(a + b for a, b in zip(m, shift)))


def test_lift_section():
    P = bf_module(A2, (-1, 0, 0, 0, 0, 0, 1))
    for e in list(P.elements())[:50]:
        assert P.reduce(P.lift(e)) == e


def test_act_definition_and_bijectivity():
    P = bf_module(A1, (1, 1))
    assert P.act((0,) * P.rank) == (0,) * P.rank
    e1 = P.reduce((1, 0, 0))
    assert P.act(e1) == P.reduce(xl.vec_mat((1, 0, 0), A1))
    imgs = {P.act(e) for e in P.elements()}
    assert len(imgs) == P.order


def test_act_orbit_returns():
    P = bf_module(A2, (-1, 1))
    x = P.reduce((1, 0, 0))
    cur = x
    for _ in range(P.order):
        cur = P.act(cur)
        if cur == x:
            break
    else:
        pytest.fail("orbit did not return within the group order")


# ------------------------------------------------------------------ primary decomposition

def _components(P):
    """(p, component) over the primes of the order; the component orders
    multiply to the order of P."""
    comps = [(p, fm._primary_component(P, p)[0]) for p in fm._primes(P)]
    assert math.prod(c.order for _, c in comps) == P.order
    return comps


def test_primary_decomposition_examples():
    P = bf_module(A1, (1, 1))
    assert [(p, c.order) for p, c in _components(P)] == [(2, 32)]
    Q = bf_module(A2, (-1, 1))
    assert [(p, c.order) for p, c in _components(Q)] == [(2, 2), (5, 5)]
    triv = fm.quotient(I3, I3)
    assert _components(triv) == []


def test_primary_component_actions_consistent():
    P = bf_module(A2, (1, 0, 0, 0, 0, 0, 1))
    for p, comp in _components(P):
        # the component's action must still be an automorphism
        imgs = {comp.act(e) for e in comp.elements()}
        assert len(imgs) == comp.order


# ------------------------------------------------------------------ iso decision

def test_example1_witness():
    PA = bf_module(A1, (1, 1))
    PB = bf_module(B1, (1, 1))
    res = fm.module_iso_exists(PA, PB)
    assert res.verdict == "no"
    assert res.witness["reason"] == "invariant_factors"
    assert res.witness["left"] == [4, 8] and res.witness["right"] == [2, 16]


def test_self_iso_is_identity():
    P = bf_module(A1, (1, 1))
    res = fm.module_iso_exists(P, P)
    assert res.verdict == "yes"
    assert res.iso.mat == xl.identity(P.rank)
    assert res.iso.is_isomorphism()


def test_conjugation_transport(rng):
    for g in ((-1, 1), (1, 1)):
        for _ in range(4):
            A = random_hyperbolic(rng)
            U = random_unimodular(rng)
            B = xl.mat_mul(xl.mat_mul(U, A), xl.unimodular_inverse(U))
            if xl.det(xl.eval_poly_at_matrix(g, A)) == 0:
                continue
            res = fm.module_iso_exists(bf_module(A, g), bf_module(B, g))
            assert res.verdict == "yes"
            assert res.iso.is_isomorphism()


def test_verdict_symmetry():
    pairs = [
        (bf_module(A1, (1, 1)), bf_module(B1, (1, 1))),
        (bf_module(A1, (-1, 1)), bf_module(B1, (-1, 1))),
        (bf_module(A2, (-1, 1)), bf_module(A2, (-1, 1))),
    ]
    for PA, PB in pairs:
        r1 = fm.module_iso_exists(PA, PB)
        r2 = fm.module_iso_exists(PB, PA)
        assert r1.verdict == r2.verdict


def test_order_mismatch_witness():
    PA = bf_module(A1, (1, 1))
    PB = bf_module(A1, (-1, 1))
    res = fm.module_iso_exists(PA, PB)
    assert res.verdict == "no" and res.witness["reason"] == "order"


def test_action_distinguishes_same_group():
    # same abelian group (Z/5)^2, different semisimple actions
    rel = xl.mat_scale(xl.identity(2), 5)
    ident = fm.quotient(rel, xl.identity(2))
    twist = fm.quotient(rel, xl.mat([[2, 0], [0, 2]]))
    res = fm.module_iso_exists(ident, twist)
    assert res.verdict == "no"
    assert res.witness["reason"] == "action_char_poly_mod_p"


def test_action_refutation_counts_maps_tried_first():
    # the identity is tried before the per-prime check refutes; the ambient
    # intertwiners of I and 2I are only 0, so no further candidate exists
    rel = xl.mat_scale(xl.identity(2), 5)
    ident = fm.quotient(rel, xl.identity(2))
    twist = fm.quotient(rel, xl.mat([[2, 0], [0, 2]]))
    data = fm.module_iso_exists(ident, twist).to_data()
    assert data["witness"]["reason"] == "action_char_poly_mod_p"
    assert data["candidates_tried"] == 1


def test_ambient_walk_tries_one_of_each_sign(monkeypatch):
    # -W induces an isomorphism exactly when W does, so the walk over the
    # rank-3 ambient intertwiners of the first worked pair at BF_{x^4+1}
    # tries one of each +-W, all (7^3 - 1) / 2 of the box of radius 3,
    # before the per-prime search finds the isomorphism
    from toralconj.bf_invariants import bf_group

    tried = []
    original = fm.map_from_ambient

    def recording(source, target, W):
        tried.append(W)
        return original(source, target, W)

    monkeypatch.setattr(fm, "map_from_ambient", recording)
    g = (1, 0, 0, 0, 1)
    res = fm.module_iso_exists(bf_group(A1, g), bf_group(B1, g))
    assert res.verdict == "yes"
    assert len(tried) == len(set(tried)) == (7**3 - 1) // 2
    assert not set(tried) & {xl.mat_neg(W) for W in tried}


def test_iso_yes_passes_skipped_action_check(rng):
    # a Yes found by a candidate map skips the per-prime G/pG check, so
    # re-run that check on every module pair of the BF family
    yes = 0
    for _ in range(6):
        A = random_hyperbolic(rng)
        U = random_unimodular(rng)
        B = xl.mat_mul(xl.mat_mul(U, A), xl.unimodular_inverse(U))
        for g in default_family(A):
            PA, PB = bf_module(A, g), bf_module(B, g)
            res = fm.module_iso_exists(PA, PB)
            assert res.verdict != "no"
            if res.verdict == "yes":
                yes += 1
                assert fm.invariant_mismatch(PA, PB) is None
    assert yes > 0


def test_primes_from_largest_invariant_factor(rng):
    checked = 0
    for _ in range(4):
        A = random_hyperbolic(rng)
        for g in default_family(A):
            P = bf_module(A, g)
            assert fm._primes(P) == sorted(factorint(P.order))
            checked += P.rank > 1
    assert checked > 0
    assert fm._primes(fm.quotient(I3, A1)) == []


def test_exhausted_search_is_certified_no():
    # (Z/5)^2 with actions of different multiplicative order: x -> 2x vs x -> x
    # already refuted by char polys; force the search branch with matching
    # char polys but non-isomorphic module structure: Jordan block vs diagonal
    rel = xl.mat_scale(xl.identity(2), 5)
    jordan = fm.quotient(rel, xl.mat([[1, 1], [0, 1]]))
    ident = fm.quotient(rel, xl.identity(2))
    res = fm.module_iso_exists(jordan, ident)
    assert res.verdict == "no"
    assert res.witness["reason"] == "exhausted_search"


def test_found_map_fully_verifies(rng):
    P = bf_module(A2, (1, 0, 1))
    res = fm.module_iso_exists(P, P)
    assert res.verdict == "yes"
    m = res.iso
    assert m.is_well_defined() and m.intertwines() and m.is_surjective()


def test_trivial_modules_always_isomorphic():
    t1 = fm.quotient(I3, A1)
    t2 = fm.quotient(I3, A2)
    res = fm.module_iso_exists(t1, t2)
    assert res.verdict == "yes"
    assert res.iso.is_isomorphism()


@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=3, max_size=3).map(xl.mat))
@settings(max_examples=25)
def test_reduce_is_coset_map(M):
    if xl.det(M) == 0:
        return
    P = fm.quotient(M, I3)
    for m in ((1, 2, 3), (-4, 0, 7)):
        shift = xl.vec_mat((1, -1, 2), M)
        assert P.reduce(m) == P.reduce(tuple(a + b for a, b in zip(m, shift)))


def test_act_injective_on_larger_module():
    # full injectivity of the action on a module of order 512
    P = bf_module(A1, (-1, 0, 1))
    assert P.order == 512
    imgs = {P.act(e) for e in P.elements()}
    assert len(imgs) == P.order


def test_large_prime_component_grid_yes():
    # elementary abelian over a large prime: the hom set (~q^2 elements) is
    # far beyond any budget, but the determinant-grid argument decides in a
    # handful of candidates.  The target action is conjugate to the source
    # action only mod q (by a large matrix), so no exact ambient intertwiner
    # or identity shortcut can apply.
    q = 1000003
    rel = xl.mat_scale(xl.identity(2), q)
    act = xl.mat([[0, 1], [3, 2]])
    V = xl.mat([[1, 123457], [0, 1]])
    Vinv = xl.unimodular_inverse(V)
    conj = xl.mat_mul(xl.mat_mul(V, act), Vinv)
    act2 = tuple(tuple(x % q for x in row) for row in conj)
    S = fm.quotient(rel, act)
    T = fm.quotient(rel, act2)
    res = fm.module_iso_exists(S, T, budget=1000)
    assert res.verdict == "yes"
    assert res.iso.is_isomorphism()
    assert res.tried < 100


def test_large_prime_component_grid_certified_no():
    # Jordan block versus scalar action over a huge prime: no isomorphism
    # exists, and the grid proves it without enumerating ~q^2 homomorphisms
    q = 1000003
    rel = xl.mat_scale(xl.identity(2), q)
    jordan = fm.quotient(rel, xl.mat([[1, 1], [0, 1]]))
    scalar = fm.quotient(rel, xl.identity(2))
    res = fm.module_iso_exists(jordan, scalar, budget=1000)
    assert res.verdict == "no"
    assert res.witness["reason"] == "exhausted_search"
    assert res.tried < 100


def test_lazy_walk_of_a_huge_hom_set_ends_unknown():
    # Z/p^2 with actions 2 and 2 + p: equal mod p, so the per-prime
    # polynomials agree, and the hom set has p elements.  The walk stops at
    # the budget without building the box's ranges.
    p = 10**12 + 39
    assert is_prime(p)
    S = fm.quotient(((p * p,),), ((2,),))
    T = fm.quotient(((p * p,),), ((2 + p,),))
    res = fm.module_iso_exists(S, T, budget=1000)
    assert res.verdict == "unknown"
    assert res.witness == {"reason": "budget_exhausted", "primes_undecided": [p]}
    assert res.tried == 1001


def test_mixed_radix_walks_the_box_in_product_order():
    box = (3, 1, 4, 2)
    assert [fm._mixed_radix(i, box) for i in range(math.prod(box))] == list(
        itertools.product(*(range(d) for d in box))
    )


def _primary_pair(rng, p, exps, iso):
    """Z^r / Z^r diag(p^e) with a random action, and the same group with a
    random action (iso=False) or the action carried over by a random W with
    L W = L, det W = 1 (iso=True, so the two are isomorphic)."""
    d = [p**e for e in exps]
    r = len(d)
    rel = tuple(tuple(x if i == j else 0 for j, x in enumerate(d)) for i in range(r))

    def action():
        return xl.mat([[rng.randrange(d[j]) * (d[j] // math.gcd(d[i], d[j])) % d[j] for j in range(r)] for i in range(r)])

    act = action()
    if not iso:
        return fm.quotient(rel, act), fm.quotient(rel, action())
    # exps ascend, so entry (i, j) of W is free below the diagonal and a
    # multiple of d_j / d_i above it
    low = [[int(i == j) or (rng.randrange(-3, 4) if i > j else 0) for j in range(r)] for i in range(r)]
    up = [[int(i == j) or (rng.randrange(-3, 4) * d[j] // d[i] if i < j else 0) for j in range(r)] for i in range(r)]
    W = xl.mat_mul(xl.mat(low), xl.mat(up))
    act2 = xl.mat_mul(xl.mat_mul(xl.unimodular_inverse(W), act), W)
    return fm.quotient(rel, act), fm.quotient(rel, xl.mat([[x % dj for x, dj in zip(row, d)] for row in act2]))


# sha256 of _component_iso_search's (F, tried, complete) on the cases of
# test_component_search_outcomes_are_pinned; a change that alters an outcome
# updates this value and says so
COMPONENT_SEARCH_SHA256 = "ae21493d0975bfca5626248ff027d5622c7a3d373a06061130174599a9ec7c6d"


def test_component_search_outcomes_are_pinned():
    # seeded p-primary pairs, half of them isomorphic, one in four with p^2
    # factors, at every budget whose walk is at most 3,000 candidates or that
    # takes the F_p grid (elementary abelian, square, p > rank and
    # prod(diag) > budget >= prod(grid))
    rng = random.Random(32)
    outcomes, on_grid = [], 0
    for p in (2, 3, 5, 7, 101, 1009):
        for r in (1, 2, 3):
            for k in range(8):
                exps = sorted(rng.choice((1, 2)) for _ in range(r)) if k % 4 == 3 else [1] * r
                S, T = _primary_pair(rng, p, exps, iso=k % 2 == 0)
                diag = fm._hom_lattice_quotient(S, T)[1]
                size, grid = math.prod(diag), math.prod(min(d, r + 1) for d in diag)
                square = S.rank == T.rank < p and all(d == p for d in S.factors + T.factors)
                for budget in (1, 2, 3, 5, 8, 13, 27, 64, 100, 250, 1000, 10_000, 100_000):
                    takes_grid = square and size > budget >= grid
                    if min(size, budget) > 3000 and not takes_grid:
                        continue
                    on_grid += takes_grid
                    F, tried, complete = fm._component_iso_search(S, T, p, budget)
                    if F is not None:
                        assert fm.ModuleMap(S, T, F).is_isomorphism()
                    outcomes.append(json.dumps([p, budget, F, tried, complete]))
    assert (len(outcomes), on_grid) == (1868, 238)
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == COMPONENT_SEARCH_SHA256


def test_maps_that_are_not_well_defined():
    # Z/2 -> Z/4: [1] -> [1] sends 2 = 0 to 2 != 0, and W = 1 carries the
    # relation 2 outside 4Z
    Z2, Z4 = fm.quotient(((2,),), ((1,),)), fm.quotient(((4,),), ((1,),))
    assert not fm.ModuleMap(Z2, Z4, ((1,),)).is_well_defined()
    assert fm.ModuleMap(Z2, Z4, ((2,),)).is_well_defined()
    assert fm.map_from_ambient(Z2, Z4, ((1,),)) is None
    assert fm.map_from_ambient(Z2, Z4, ((2,),)).mat == ((2,),)


def test_conjugation_invariance_small_det(rng):
    # arbitrary integer matrices (not necessarily hyperbolic) with small
    # determinant: the induced modules transport along any unimodular change
    for g in ((-1, 1), (1, 1)):
        done = 0
        while done < 4:
            M = tuple(tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(3))
            if not (0 < abs(xl.det(M)) <= 50):
                continue
            gM = xl.eval_poly_at_matrix(g, M)
            if xl.det(gM) == 0:
                continue
            U = random_unimodular(rng)
            Mc = xl.mat_mul(xl.mat_mul(U, M), xl.unimodular_inverse(U))
            res = fm.module_iso_exists(
                fm.quotient(gM, M), fm.quotient(xl.eval_poly_at_matrix(g, Mc), Mc)
            )
            assert res.verdict == "yes"
            done += 1
