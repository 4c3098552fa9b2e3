import random

import pytest

from toralconj import exact_linalg as xl
from toralconj import polys
from toralconj.conjugacy_pipeline import (
    DEFAULT_CONFIG,
    PipelineConfig,
    _emit_not_conjugate,
    decide,
    intertwiner_lattice,
    similarity_check,
    unimodular_search,
)
from toralconj.errors import InternalInconsistencyError
from toralconj.finite_modules import intertwiner_kernel

from conftest import A1, A2, B1, B2, random_hyperbolic, random_unimodular

I3 = xl.identity(3)


# ------------------------------------------------------------------ similarity

def test_similarity_examples():
    assert similarity_check(A1, B1)
    assert similarity_check(A2, B2)
    assert similarity_check(A1, A1)
    assert not similarity_check(A1, A2)


def test_similarity_separates_minimal_polynomial():
    # equal characteristic polynomials (x-1)^2 (x-2), different minimal ones
    D = xl.mat([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    J = xl.mat([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    assert xl.char_poly(D) == xl.char_poly(J)
    assert not similarity_check(D, J)
    assert similarity_check(J, J)


def test_similarity_conjugate_invariance(rng):
    for _ in range(3):
        A = random_hyperbolic(rng)
        U = random_unimodular(rng)
        B = xl.mat_mul(xl.mat_mul(U, A), xl.unimodular_inverse(U))
        assert similarity_check(A, B)


# ------------------------------------------------------------------ intertwiners

def test_intertwiner_lattice_commutant():
    lat = intertwiner_lattice(A1, A1)
    assert lat.rank == 3  # commutant of an irreducible cubic action
    for r in range(lat.rank):
        K = lat.matrix(tuple(1 if i == r else 0 for i in range(lat.rank)))
        assert xl.mat_mul(A1, K) == xl.mat_mul(K, A1)


def test_intertwiner_lattice_contains_conjugator(rng):
    U = random_unimodular(rng)
    B = xl.mat_mul(xl.mat_mul(U, A1), xl.unimodular_inverse(U))
    lat = intertwiner_lattice(A1, B)
    C = xl.unimodular_inverse(U)  # A C = C B
    flat = tuple(x for row in C for x in row)
    assert xl.lattice_membership(lat.basis, flat) is not None


def test_decide_solves_intertwiner_system_once(rng):
    U = random_unimodular(rng)
    B = xl.mat_mul(xl.mat_mul(U, A1), xl.unimodular_inverse(U))
    intertwiner_kernel.cache_clear()
    v = decide(A1, B)
    assert v.outcome == "conjugate"
    screen = next(e for e in v.evidence if e["stage"] == "bf_screen")
    assert screen["report"]["outcome"] != "not_equivalent"
    info = intertwiner_kernel.cache_info()
    # the BF screen builds the lattice; the unimodular search reuses it
    assert info.misses == 1 and info.hits >= 1


def test_decide_accepts_list_matrices(rng):
    U = random_unimodular(rng)
    B = xl.mat_mul(xl.mat_mul(U, A1), xl.unimodular_inverse(U))
    as_lists = decide([list(r) for r in A1], [list(r) for r in B])
    assert as_lists.to_data() == decide(A1, B).to_data()


def test_intertwiner_lattice_dissimilar_rank_zero():
    lat = intertwiner_lattice(A1, xl.mat_scale(A1, 2))
    assert lat.rank == 0


def test_unimodular_search_identity():
    lat = intertwiner_lattice(A1, A1)
    out = unimodular_search(lat, 1)
    assert out.found
    C = out.conjugator
    assert xl.mat_mul(A1, C) == xl.mat_mul(C, A1) and xl.det(C) in (1, -1)


def test_unimodular_search_example2_fails():
    lat = intertwiner_lattice(A2, B2)
    out = unimodular_search(lat, 5)
    assert not out.found


# ------------------------------------------------------------------ decide

def test_decide_example1():
    v = decide(A1, B1)
    assert v.outcome == "not_conjugate"
    assert v.witness["kind"] == "bf_screen"
    assert v.witness["g"] == "x+1"
    assert v.witness["left"]["invariant_factors"] == [4, 8]
    assert v.witness["right"]["invariant_factors"] == [2, 16]


def test_decide_self():
    v = decide(A1, A1)
    assert v.outcome == "conjugate"
    assert v.certificate == I3


def test_decide_example2_unknown():
    v = decide(A2, B2)
    assert v.outcome == "unknown"
    stages = {e["stage"]: e for e in v.evidence}
    assert stages["bf_screen"]["report"]["outcome"] == "passed_screen"
    ideal = stages["ideal_route"]
    assert ideal["rings_equal"]
    assert ideal["weak_equivalence"]["weakly_equivalent"]
    assert not ideal["principal_search"]["principal"]
    assert ideal["principal_search"]["bound"] == 8
    # the tower route only screens the levels: a conjugator read off the
    # pair lattices is one unimodular_search has already found
    tower = stages["tower_route"]
    assert tower["level_iso"]["kind"] == "found"
    assert "delta" not in tower


def test_decide_dissimilar():
    v = decide(A1, A2)
    assert v.outcome == "not_conjugate"
    assert v.witness["kind"] == "similarity"


def test_decide_conjugate_roundtrip(rng):
    for _ in range(3):
        A = random_hyperbolic(rng)
        U = random_unimodular(rng)
        B = xl.mat_mul(xl.mat_mul(U, A), xl.unimodular_inverse(U))
        v = decide(A, B)
        assert v.outcome == "conjugate"
        C = v.certificate
        assert xl.mat_mul(A, C) == xl.mat_mul(C, B)
        assert xl.det(C) in (1, -1)


@pytest.fixture
def no_factoring(monkeypatch):
    def refuse(n):
        pytest.fail(f"the module isomorphism test factored {n}")

    monkeypatch.setattr("toralconj.finite_modules.factorint", refuse)


def _conjugate_by(U, A):
    return xl.mat_mul(xl.mat_mul(U, A), xl.unimodular_inverse(U))


def test_decide_2x2_large_orders_without_factoring(no_factoring):
    # BF orders of this pair stall Pollard rho; the identity or an ambient
    # intertwiner settles every module pair of the screen before factoring
    A = xl.mat([[1000001, 1000000], [1, 1]])
    B = _conjugate_by(xl.mat([[2, 1], [1, 1]]), A)
    v = decide(A, B)
    assert v.outcome == "conjugate"
    assert xl.mat_mul(A, v.certificate) == xl.mat_mul(v.certificate, B)


def test_decide_4x4_entries_30_without_factoring(no_factoring):
    rng = random.Random(2)
    A = random_hyperbolic(rng, 4, 30)
    B = _conjugate_by(random_unimodular(rng, 4), A)
    v = decide(A, B)
    assert v.outcome == "conjugate"
    assert xl.mat_mul(A, v.certificate) == xl.mat_mul(v.certificate, B)


def test_decide_nests_ideals_at_large_scale():
    # the eigen ideal of A fits inside that of B only after scaling by
    # 28169 = 17 * 1657
    A = xl.mat([[1000001, 1000000], [1, 1]])
    B = xl.mat([[2, 28169], [71, 1000000]])
    v = decide(A, B)
    assert v.outcome == "unknown"
    assert [e["stage"] for e in v.evidence][-2:] == ["ideal_route", "tower_route"]


@pytest.mark.parametrize(
    "witness",
    [
        {"kind": "bf_screen", "g": "x+1"},
        {"kind": "tower_level", "level": 2, "detail": {"kind": "canonical_quotient", "divisor": "x+1"}},
        {"kind": "tower_level", "level": 2, "detail": {"kind": "module_iso_no"}},
    ],
    ids=["bf_screen", "canonical_quotient", "module_iso_no"],
)
def test_module_witnesses_rebuilt_from_scratch(witness):
    # BF_{x+1} separates the first worked pair, and so does the level-2 module
    # G_2 = BF_{x^2-1}, whose (x+1)-quotient is BF_{x+1}; the same witness
    # for a matrix against itself must fail to re-verify
    assert _emit_not_conjugate(A1, B1, witness, [], DEFAULT_CONFIG).outcome == "not_conjugate"
    with pytest.raises(InternalInconsistencyError, match="does not re-verify"):
        _emit_not_conjugate(A1, A1, witness, [], DEFAULT_CONFIG)


def test_decide_symmetry_examples():
    pairs = [(A1, B1), (A2, B2)]
    for A, B in pairs:
        v1, v2 = decide(A, B), decide(B, A)
        certified = {"conjugate", "not_conjugate"}
        if v1.outcome in certified and v2.outcome in certified:
            assert v1.outcome == v2.outcome


def test_decide_monotone_in_budget():
    small = PipelineConfig(iso_budget=500, unimodular_bound=2, tower_depth=2, principal_bound=2)
    v_small = decide(A1, B1, small)
    v_big = decide(A1, B1, DEFAULT_CONFIG)
    assert v_small.outcome == v_big.outcome == "not_conjugate"
    v2_small = decide(A2, B2, small)
    assert v2_small.outcome in ("unknown", "not_conjugate")
    # a certified outcome never flips with larger budgets
    if v2_small.outcome != "unknown":
        assert decide(A2, B2, DEFAULT_CONFIG).outcome == v2_small.outcome


def test_verdict_serialization_shape():
    v = decide(A1, B1)
    data = v.to_data()
    assert data["outcome"] == "not_conjugate"
    assert isinstance(data["evidence"], list)
    assert data["config"]["tower_depth"] == DEFAULT_CONFIG.tower_depth


def test_ideal_route_certifies_when_direct_search_disabled(rng):
    # with the intertwiner search switched off, a conjugate pair must still
    # be certified through the principal-generator change of basis
    U = random_unimodular(rng)
    B = xl.mat_mul(xl.mat_mul(U, A1), xl.unimodular_inverse(U))
    cfg = PipelineConfig(unimodular_bound=0, principal_bound=8)
    v = decide(A1, B, cfg)
    assert v.outcome == "conjugate"
    C = v.certificate
    assert xl.mat_mul(A1, C) == xl.mat_mul(C, B)
    assert xl.det(C) in (1, -1)
    ideal_ev = [e for e in v.evidence if e["stage"] == "ideal_route"]
    assert ideal_ev and "conjugator_from_generator" in ideal_ev[0]


def test_multiplier_ring_refutation_path():
    # index-2 cubic order: companion matrix versus multiplication by a root
    # on the maximal order (which needs the half-integral element
    # (b^2 + b)/2).  The eigen ideals have different multiplier rings, so
    # the matrices cannot be conjugate; with the screen emptied, the ideal
    # route must carry the refutation itself.
    A = xl.mat([[0, 1, 0], [0, 0, 1], [8, 2, 1]])
    B = xl.mat([[0, 0, 4], [1, -1, 0], [0, 2, 2]])
    assert xl.char_poly(A) == xl.char_poly(B) == polys.parse("x^3-x^2-2x-8")
    assert similarity_check(A, B)
    cfg = PipelineConfig(family_max_shift=0, family_max_power=0, cyclotomic_index=0, unimodular_bound=2)
    v = decide(A, B, cfg)
    assert v.outcome == "not_conjugate"
    assert v.witness["kind"] == "multiplier_ring"
    # the default pipeline refutes earlier, through the finite screen
    v2 = decide(A, B)
    assert v2.outcome == "not_conjugate"
    assert v2.witness["kind"] == "bf_screen"


def test_nonmaximal_multiplier_ring_value():
    from toralconj import ideal_theory as it

    B = xl.mat([[0, 0, 4], [1, -1, 0], [0, 2, 2]])
    J, w, nf = it.eigen_ideal(B)
    OJ = it.multiplier_ring(J)
    # the ring of the eigen ideal of the maximal-order matrix is strictly
    # larger than Z[beta]: it contains (b + b^2)/2
    half = it.FieldElement.make(nf, (0, 1, 1), 2)
    assert OJ.contains(half)
    assert not it.FractionalIdeal.z_beta(nf).contains(half)
