import collections
import hashlib
import itertools
import json
import random
import time
from pathlib import Path

import pytest

from toralconj import exact_linalg as xl
from toralconj import finite_modules, polys
from toralconj import conjugacy_pipeline as pipeline
from toralconj.bf_invariants import default_family, hyperbolicity_check, strong_bf_screen
from toralconj.conjugacy_pipeline import (
    DEFAULT_CONFIG,
    PipelineConfig,
    _bf_witness,
    _emit_not_conjugate,
    decide,
    intertwiner_lattice,
    similarity_check,
    unimodular_search,
)
from toralconj.errors import InternalInconsistencyError
from toralconj.finite_modules import intertwiner_kernel
from toralconj.ideal_theory import eigen_ideal, multiplier_ring, principal_search, weak_equivalence
from toralconj.tower import tower_polynomials

from conftest import (
    A1,
    A2,
    B1,
    B2,
    NONINVERTIBLE_A,
    NONINVERTIBLE_B,
    NOT_WEAK_A,
    NOT_WEAK_B,
    RING_A,
    RING_B,
    direct_sum,
    random_hyperbolic,
    random_unimodular,
    sublattice_pair,
    sublattice_restriction,
    with_eigenvalue,
)

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


def _companion(p):
    """Companion matrix (row convention) of the monic polynomial p."""
    n = polys.degree(p)
    return tuple(
        tuple(1 if j == i + 1 else 0 for j in range(n)) if i < n - 1 else tuple(-c for c in p[:n])
        for i in range(n)
    )


def _ranks_agree(A, B):
    """The three-dimension criterion, taken directly: equal kernel sizes of
    the systems of (A, A), (A, B) and (B, B)."""
    systems = ((A, A), (A, B), (B, B))
    return len({len(xl.left_kernel(finite_modules.intertwiner_system(X, Y))) for X, Y in systems}) == 1


def test_similarity_squarefree_shortcut_skips_the_ranks(rng, monkeypatch):
    # a squarefree characteristic polynomial makes both matrices cyclic, so
    # the shortcut answers what the three kernel dimensions would
    squarefree = []
    for n in (2, 3, 4):
        A = random_hyperbolic(rng, n, 4)
        chi = xl.char_poly(A)
        if polys.degree(polys.poly_gcd(chi, polys.derivative(chi))) > 0:
            continue
        U = random_unimodular(rng, n)
        squarefree.append((A, xl.mat_mul(xl.mat_mul(U, A), xl.unimodular_inverse(U))))
        squarefree.append((A, _companion(chi)))
    squarefree.append((xl.mat([[2, 0], [0, 3]]), xl.mat([[2, 1], [0, 3]])))
    assert len(squarefree) >= 4 and all(_ranks_agree(A, B) for A, B in squarefree)

    def refuse(M):
        pytest.fail("a squarefree characteristic polynomial reached the kernels")

    monkeypatch.setattr(xl, "rank", refuse)
    assert all(similarity_check(A, B) for A, B in squarefree)


def _jordan(c, k):
    return tuple(tuple(c if j == i else 1 if j == i + 1 else 0 for j in range(k)) for i in range(k))


def _block(kind):
    """("J", c, k) is the Jordan block J(c, k); ("Q", b, d, k) the companion
    matrix of (x^2 + b x + d)^k, for an irreducible quadratic."""
    if kind[0] == "J":
        return _jordan(kind[1], kind[2])
    p = polys.ONE
    for _ in range(kind[3]):
        p = polys.mul(p, (kind[2], kind[1], 1))
    return _companion(p)


def _block_matrix(rng, kinds):
    """The blocks in a random order, summed and conjugated by a unimodular."""
    kinds = list(kinds)
    rng.shuffle(kinds)
    M = _block(kinds[0])
    for kind in kinds[1:]:
        M = direct_sum(M, _block(kind))
    U = random_unimodular(rng, len(M))
    return xl.mat_mul(xl.mat_mul(U, M), xl.unimodular_inverse(U))


def _random_blocks(rng, size):
    """Elementary-divisor blocks of total size `size` around one eigenvalue
    and one irreducible quadratic, with the multiplicity of each factor;
    redrawn until some factor repeats."""
    quadratics = [(b, d) for b in range(-2, 3) for d in range(-2, 3) if polys.is_irreducible_deg_le4((d, b, 1))]
    while True:
        kinds, left = [], size
        c = rng.randint(-2, 2)
        b, d = rng.choice(quadratics)
        while left:
            k = rng.randint(1, min(left, 4))
            if k % 2 or rng.random() < 0.5:
                kinds.append(("J", c if rng.random() < 0.7 else rng.randint(-2, 2), k))
            else:
                kinds.append(("Q", b, d, k // 2))
            left -= k
        mult = collections.Counter()
        for kind in kinds:
            mult[kind[:-1]] += kind[-1]
        if max(mult.values()) > 1:
            return kinds, mult


def _repartition(rng, kinds, mult):
    """The blocks with the exponents of one repeated factor redistributed:
    the same characteristic polynomial and a different multiset."""
    factor = rng.choice(sorted(f for f, m in mult.items() if m > 1))
    old = sorted(k[-1] for k in kinds if k[:-1] == factor)
    sizes = old
    while sorted(sizes) == old:
        sizes, total = [], mult[factor]
        while total:
            sizes.append(rng.randint(1, total))
            total -= sizes[-1]
    return [k for k in kinds if k[:-1] != factor] + [factor + (e,) for e in sizes]


def test_similarity_matches_the_block_oracle(rng):
    # A and B are unimodular conjugates of sums of elementary-divisor blocks
    # (Jordan blocks J(c, k), companions of q^k for irreducible quadratics
    # q), so they are similar iff the block lists agree as multisets.  Each
    # n = 2..9 gets two pairs of each answer, the rest go to n <= 5
    lists = []
    for i in range(160):
        kinds, mult = _random_blocks(rng, 2 + (i // 2) % (8 if i < 32 else 4))
        lists.append((kinds, list(kinds) if i % 2 else _repartition(rng, kinds, mult)))
    # J(c, 4) + J(c, 1) + J(c, 1) and J(c, 3) + J(c, 3): both commutants
    # have dimension 12, so only the rank of C(A, B) tells them apart
    for c in (-1, 2):
        lists.append(([("J", c, 4), ("J", c, 1), ("J", c, 1)], [("J", c, 3), ("J", c, 3)]))
    answers, sizes = [], set()
    for kinds, other in lists:
        A, B = _block_matrix(rng, kinds), _block_matrix(rng, other)
        chi = xl.char_poly(A)
        assert chi == xl.char_poly(B) and polys.degree(polys.poly_gcd(chi, polys.derivative(chi))) > 0
        expected = sorted(kinds) == sorted(other)
        assert similarity_check(A, B) == expected, (kinds, other)
        answers.append(expected)
        sizes.add(len(A))
    assert sizes == set(range(2, 10))
    assert answers.count(True) == 80 and answers.count(False) == 82


def test_similarity_of_a_10x10_repeated_pair_is_fast(rng):
    # M + M has a repeated factor, so each check takes the ranks of three
    # 100 x 100 systems: about 0.3 s for both, where a cofactor expansion of
    # the minors of xI - A takes seconds
    M = random_hyperbolic(rng, 5, 3)
    MM = direct_sum(M, M)
    U = random_unimodular(rng, 10)
    conj = xl.mat_mul(xl.mat_mul(U, MM), xl.unimodular_inverse(U))
    started = time.perf_counter()
    assert similarity_check(MM, conj)
    assert not similarity_check(MM, _companion(xl.char_poly(MM)))
    assert time.perf_counter() - started < 2.0


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


def test_decide_solves_intertwiner_system_once(rng, monkeypatch):
    U = random_unimodular(rng)
    B = xl.mat_mul(xl.mat_mul(U, A1), xl.unimodular_inverse(U))
    # module_iso_exists reads the kernel through finite_modules; count those
    # calls apart from the pipeline's own
    screen_calls = []

    def counting(*args):
        screen_calls.append(args)
        return intertwiner_kernel(*args)

    monkeypatch.setattr(finite_modules, "intertwiner_kernel", counting)
    intertwiner_kernel.cache_clear()
    v = decide(A1, B)
    assert v.outcome == "conjugate"
    # the search certifies inside shell 1, so neither screen runs
    stages = [e["stage"] for e in v.evidence]
    assert stages == ["similarity", "hyperbolicity", "unimodular_search"]
    assert v.evidence[-1]["result"]["candidates"] <= 13
    # the system is solved once, for the search, and no screen asks for a map
    info = intertwiner_kernel.cache_info()
    assert info.misses == 1 and info.hits == 0
    assert screen_calls == []


def _screen_then_search(A, B, config=DEFAULT_CONFIG):
    """The stage order before the search moved ahead of the module screen:
    the whole family screened, then the search.  None when both pass."""
    family = default_family(
        A,
        max_shift=config.family_max_shift,
        max_power=config.family_max_power,
        cyclotomic_index=config.cyclotomic_index,
    )
    screen = strong_bf_screen(A, B, family, budget=config.iso_budget)
    if screen.outcome == "not_equivalent":
        return "not_conjugate", None, _bf_witness(screen), screen
    search = unimodular_search(intertwiner_lattice(A, B), config.unimodular_bound, config.search_max_candidates)
    if search.found:
        return "conjugate", search.conjugator, None, screen
    return None, None, None, screen


# BF_{x-c} agree for c = +-1..+-5, but BF_{x^3+1} is cyclic of order 882 on
# the left and Z/7 + Z/126 on the right
LINEAR_PASS_A = xl.mat([[5, -3], [0, -2]])
LINEAR_PASS_B = xl.mat([[5, -21], [0, -2]])


# the stages of decide after hyperbolicity, in order; any run is a
# subsequence of this, cut where a stage decides
LEGGED_ORDER = [
    "unimodular_search",
    "periodic_data",
    "bf_screen",
    "unimodular_search_resumed",
    "bf_module_screen",
    "unimodular_search_resumed",
    "ideal_route",
    "tower_route",
]


def _is_subsequence(part, whole):
    rest = iter(whole)
    return all(any(x == y for y in rest) for x in part)


def test_decide_matches_the_screen_then_search_order(rng):
    # a certificate makes every BF_g isomorphic and a refutation rules one
    # out, so walking the search in legs between the degree-1 and the
    # degree >= 2 screens gives the outcome, certificate and witness of
    # screening the whole family first; a 2 x 2 pair ends at the binary
    # forms, with the outcome of the old order wherever that decides
    pairs = []
    for n in (2, 3, 4, 5):
        for _ in range(3 if n <= 3 else 2):
            A = random_hyperbolic(rng, n, 3)
            U = random_unimodular(rng, n)
            pairs.append((A, xl.mat_mul(xl.mat_mul(U, A), xl.unimodular_inverse(U))))
        if n <= 3:
            pairs += [sublattice_pair(rng, n, 4) for _ in range(8 if n == 2 else 4)]
    pairs += [(A1, B1), (A2, B2), (RING_A, RING_B), (LINEAR_PASS_A, LINEAR_PASS_B)]
    pairs.append((with_eigenvalue(LINEAR_PASS_A, 3), with_eigenvalue(LINEAR_PASS_B, 3)))
    ends, sizes, skipped = set(), collections.Counter(), 0
    for A, B in pairs:
        v = decide(A, B)
        stages = [e["stage"] for e in v.evidence]
        assert stages[:2] == ["similarity", "hyperbolicity"]
        ends.add((v.outcome, stages[-1]))
        if len(A) == 2:
            assert stages[2:] == ["binary_forms"] and v.outcome != "unknown"
            outcome = _screen_then_search(A, B)[0]
            assert outcome in (None, v.outcome)
            continue
        assert _is_subsequence(stages[2:], LEGGED_ORDER), stages
        if v.outcome == "conjugate" and stages[-1].startswith("unimodular_search"):
            sizes[len(A)] += 1
        reports = {e["stage"]: e["report"] for e in v.evidence if e["stage"].startswith("bf_")}
        linear = reports.get("bf_screen", {"family": [], "records": []})
        module = reports.get("bf_module_screen", {"family": [], "records": []})
        assert all(polys.degree(polys.parse(g)) == 1 for g in linear["family"])
        assert all(polys.degree(polys.parse(g)) >= 2 for g in module["family"])
        outcome, certificate, witness, screen = _screen_then_search(A, B)
        if "periodic_data" in stages:
            # the skipped screens pass in full
            skipped += 1
            assert not reports and "tower_route" not in stages
            assert screen.outcome == "passed_screen"
        elif outcome is None:
            # both screens passed, and together they are the old one
            assert linear["records"] + module["records"] == list(screen.records)
        if outcome is None:
            assert v.outcome != "conjugate" or v.evidence[-1]["stage"] == "ideal_route"
            continue
        assert (v.outcome, v.certificate, v.witness) == (outcome, certificate, witness)
    assert {
        ("conjugate", "binary_forms"),
        ("not_conjugate", "binary_forms"),
        ("conjugate", "unimodular_search"),
        ("not_conjugate", "bf_screen"),
        ("not_conjugate", "bf_module_screen"),
        ("unknown", "ideal_route"),
        ("unknown", "tower_route"),
    } <= ends
    assert skipped
    # the search certified every random conjugate pair, 4 x 4 and 5 x 5 too
    assert sizes[4] == sizes[5] == 2


def test_periodic_data_skip_only_where_every_screen_passes(rng):
    # weakly equivalent eigen ideals are locally isomorphic, so every
    # BF_g(A) = I / g(beta) I = J / g(beta) J = BF_g(B); wherever decide skips
    # on that ground, the default family and the tower polynomials, which it
    # would have screened, all pass.  The weakly equivalent pair with
    # non-invertible ideals skips too, and the pair that fails JY = I and
    # XY = O over equal rings does not
    tower = tower_polynomials(DEFAULT_CONFIG.tower_depth)

    def full_screen(A, B):
        family = default_family(A)
        return strong_bf_screen(A, B, family + [g for g in tower if g not in family]).outcome

    for A, B, skipped in ((NONINVERTIBLE_A, NONINVERTIBLE_B, True), (A2, B2, True), (NOT_WEAK_A, NOT_WEAK_B, False)):
        stages = [e["stage"] for e in decide(A, B).evidence]
        assert ("periodic_data" in stages) == skipped and "ideal_route" in stages
    assert full_screen(NONINVERTIBLE_A, NONINVERTIBLE_B) == "passed_screen"
    fired = collections.Counter()
    for n in (3, 4):
        pairs = [sublattice_pair(rng, n, 4 if n < 4 else 2) for _ in range(40 if n < 4 else 16)]
        for _ in range(10):
            A = random_hyperbolic(rng, n, 3)
            U = random_unimodular(rng, n)
            pairs.append((A, xl.mat_mul(xl.mat_mul(U, A), xl.unimodular_inverse(U))))
        for A, B in pairs:
            if not polys.is_irreducible_deg_le4(xl.char_poly(A)):
                continue
            v = decide(A, B)
            if not any(e["stage"] == "periodic_data" for e in v.evidence):
                continue
            fired[n] += 1
            assert full_screen(A, B) == "passed_screen", (A, B)
    assert min(fired[n] for n in (3, 4)) >= 5, fired


def test_decide_linear_refutation_builds_the_lattice_once(monkeypatch):
    # BF_{x+1} separates the first worked pair, also inside a direct sum with
    # a common summand; order and invariant factors settle every x - c, so
    # the screen asks for no module map, and the system is solved once, for
    # the rank that sets the first leg of the search
    screen_calls = []

    def counting(*args):
        screen_calls.append(args)
        return intertwiner_kernel(*args)

    monkeypatch.setattr(finite_modules, "intertwiner_kernel", counting)
    for A, B in [(A1, B1), (direct_sum(A1, A1), direct_sum(A1, B1))]:
        intertwiner_kernel.cache_clear()
        v = decide(A, B)
        assert v.outcome == "not_conjugate" and v.witness["g"] == "x+1"
        assert [e["stage"] for e in v.evidence][-1] == "bf_screen"
        assert intertwiner_kernel.cache_info().misses == 1
    assert screen_calls == []


def test_decide_walks_shell_one_before_a_linear_refutation():
    # the rank-3 lattice of the first worked pair has 13 vectors of max-norm
    # 1 up to sign; the walk of those comes before BF_{x+1} refutes
    v = decide(A1, B1)
    assert v.outcome == "not_conjugate" and v.witness["g"] == "x+1"
    assert [e["stage"] for e in v.evidence] == ["similarity", "hyperbolicity", "unimodular_search", "bf_screen"]
    search = v.evidence[2]
    assert search["rank"] == 3
    assert search["result"] == {"found": False, "bound": 5, "candidates": 13}


def test_decide_skips_shell_one_above_rank_six(monkeypatch):
    # A1 + A1 against A1 + B1 has an intertwiner lattice of rank 12, whose
    # shell 1 holds (3^12 - 1) / 2 = 265,720 vectors, more than the first
    # 1,000 candidates: the degree-1 screen refutes before any walk
    A, B = direct_sum(A1, A1), direct_sum(A1, B1)
    assert intertwiner_lattice(A, B).rank == 12
    v = decide(A, B)
    assert [e["stage"] for e in v.evidence] == ["similarity", "hyperbolicity", "bf_screen"]
    # the rule is the length of shell 1 against FIRST_SEARCH_CANDIDATES: a
    # first phase shorter than the 13 vectors of a rank-3 shell skips it too
    monkeypatch.setattr(pipeline, "FIRST_SEARCH_CANDIDATES", 12)
    v = decide(A1, B1)
    assert [e["stage"] for e in v.evidence] == ["similarity", "hyperbolicity", "bf_screen"]


def test_decide_certifies_in_shell_one_without_the_screens(rng, monkeypatch):
    # a conjugate pair whose certificate lies in shell 1 needs no BF module:
    # neither the family nor any BF_g(A) is built
    from toralconj import bf_invariants

    def forbidden(*args, **kwargs):
        raise AssertionError("a BF screen ran")

    pairs = []
    while len(pairs) < 3:
        A = random_hyperbolic(rng, 3, 3)
        U = random_unimodular(rng, 3)
        B = xl.mat_mul(xl.mat_mul(U, A), xl.unimodular_inverse(U))
        v = decide(A, B)
        if v.outcome == "conjugate" and len(v.evidence) == 3:
            assert v.evidence[-1]["result"]["candidates"] <= 13
            pairs.append((A, B, v.certificate))
    monkeypatch.setattr(pipeline, "family_candidates", forbidden)
    monkeypatch.setattr(pipeline, "bf_group", forbidden)
    monkeypatch.setattr(bf_invariants, "bf_group", forbidden)
    for A, B, C in pairs:
        v = decide(A, B)
        assert v.outcome == "conjugate" and v.certificate == C
        assert [e["stage"] for e in v.evidence] == ["similarity", "hyperbolicity", "unimodular_search"]


def test_decide_refutes_a_degree_two_pair_inside_the_first_search_phase():
    # (X + X, X + Y) passes every x - c, and the walk of its rank-8
    # intertwiner lattice runs to the 200,000-candidate cap; its shell 1
    # (3,280 vectors) is longer than the first phase, so the walk starts
    # after the degree-1 screen, and BF_{x^3+1} refutes after the first
    # phase of the search, before the rest of it
    A = direct_sum(LINEAR_PASS_A, LINEAR_PASS_A)
    B = direct_sum(LINEAR_PASS_A, LINEAR_PASS_B)
    v = decide(A, B)
    assert v.outcome == "not_conjugate" and v.witness["g"] == "x^3+1"
    stages = [e["stage"] for e in v.evidence]
    assert stages == ["similarity", "hyperbolicity", "bf_screen", "unimodular_search", "bf_module_screen"]
    search = v.evidence[-2]
    assert search["rank"] == 8
    assert search["result"]["candidates"] == pipeline.FIRST_SEARCH_CANDIDATES == 1_000


def test_decide_resumes_the_search_after_the_module_screen(rng, monkeypatch):
    # with a first phase shorter than the walk to a certificate outside
    # shell 1, both screens run in between the three legs, and the last leg
    # ends on the certificate of the uninterrupted search; a reducible
    # characteristic polynomial keeps the screens from being skipped
    while True:
        A = random_hyperbolic(rng, 3, 3)
        if polys.is_irreducible_deg_le4(xl.char_poly(A)):
            continue
        U = random_unimodular(rng, 3)
        B = xl.mat_mul(xl.mat_mul(U, A), xl.unimodular_inverse(U))
        whole = decide(A, B)
        last = whole.evidence[-1]
        if last["stage"] == "unimodular_search_resumed" and last["result"]["candidates"] >= 15:
            tried = last["result"]["candidates"]
            break
    assert [e["stage"] for e in whole.evidence][-3:] == ["unimodular_search", "bf_screen", "unimodular_search_resumed"]
    monkeypatch.setattr(pipeline, "FIRST_SEARCH_CANDIDATES", tried - 1)
    v = decide(A, B)
    assert v.outcome == "conjugate" and v.certificate == whole.certificate
    stages = [e["stage"] for e in v.evidence]
    assert stages[2:] == [
        "unimodular_search",
        "bf_screen",
        "unimodular_search_resumed",
        "bf_module_screen",
        "unimodular_search_resumed",
    ]
    shell, linear, second, module, rest = v.evidence[2:]
    assert shell["result"] == {"found": False, "bound": 5, "candidates": 13}
    assert linear["report"]["outcome"] == "passed_screen"
    assert second["result"] == {"found": False, "bound": 5, "candidates": tried - 1}
    assert module["report"]["outcome"] == "passed_screen"
    assert rest == whole.evidence[-1]
    # a cap below the first phase leaves nothing for the last leg
    capped = decide(A, B, PipelineConfig(search_max_candidates=tried - 1))
    searches = [e for e in capped.evidence if e["stage"].startswith("unimodular_search")]
    assert [e["result"]["candidates"] for e in searches] == [13, tried - 1]


def test_decide_tests_irreducibility_once(monkeypatch):
    # the ideal route's gate and the field of each eigen ideal ask about the
    # same characteristic polynomial, and each answer looks for its integer
    # roots, so one decision tests it once
    runs = []
    original = polys.integer_roots

    def counting(p):
        runs.append(p)
        return original(p)

    monkeypatch.setattr(polys, "integer_roots", counting)
    polys.is_irreducible_deg_le4.cache_clear()
    pairs = [(A2, B2), (NONINVERTIBLE_A, NONINVERTIBLE_B)]
    for A, B in pairs:
        v = decide(A, B)
        assert "ideal_route" in [e["stage"] for e in v.evidence]
    assert runs == [xl.char_poly(A) for A, _ in pairs]


def test_semiprime_cubic_pair_decides_without_factoring():
    # chi = x^3 - x^2 - x - p q with p, q the next primes after 2^44 + 12,345
    # and 2^44 + 987,654: the ideal route's irreducibility gate asks for the
    # integer roots of chi, which divisors of p q would find only after a
    # Pollard rho of seconds; the sublattice of index 2 is refuted by the
    # degree-1 BF screen
    p, q = 17592186056779, 17592187032113
    A = ((0, 1, 0), (0, 0, 1), (p * q, 1, 1))
    U = random_unimodular(random.Random(1), 3)
    B = xl.mat_mul(xl.mat_mul(U, sublattice_restriction(A, 2)), xl.unimodular_inverse(U))
    polys.is_irreducible_deg_le4.cache_clear()
    started = time.perf_counter()
    v = decide(A, B)
    assert time.perf_counter() - started < 1.0
    assert v.outcome == "not_conjugate" and v.evidence[-1]["stage"] == "bf_screen"
    assert polys.is_irreducible_deg_le4(xl.char_poly(A))


def test_semiprime_quartic_pair_decides_without_factoring(monkeypatch):
    # chi = x^4 - x^3 - x^2 - x - p q with p, q the next primes after
    # 2^44 + 12,345 and 2^44 + 987,654, against its sublattice of index 3
    # scrambled by random_unimodular(Random(1), 4): the ideal route's gate
    # finds no integer root and no quadratic factor of chi without a
    # Pollard rho on p q, and the pair ends at the ideal route
    import toralconj.finite_modules as fm
    import toralconj.intfactor as intfactor

    calls = []
    factorint = intfactor.factorint
    counting = lambda n: calls.append(n) or factorint(n)
    monkeypatch.setattr(intfactor, "factorint", counting)
    monkeypatch.setattr(fm, "factorint", counting)
    p, q = 17592186056779, 17592187032113
    A = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (p * q, 1, 1, 1))
    B = (
        (1, 0, 0, -1),
        (-1, 2, -103161675804862218838114675, -103161675804862218838114676),
        (2, -1, -1, 0),
        (1, 1, 0, -1),
    )
    polys.is_irreducible_deg_le4.cache_clear()
    v = decide(A, B)
    assert v.outcome == "unknown" and v.evidence[-1]["stage"] == "ideal_route"
    assert calls == []
    polys.is_irreducible_deg_le4.cache_clear()


def test_decide_computes_each_char_poly_once(rng, monkeypatch):
    from toralconj import bf_invariants

    A = random_hyperbolic(rng, n=3, bound=4)
    U = random_unimodular(rng)
    B = xl.mat_mul(xl.mat_mul(U, A), xl.unimodular_inverse(U))
    runs = []
    original = xl.char_poly

    def counting(M):
        runs.append(M)
        return original(M)

    monkeypatch.setattr(xl, "char_poly", counting)
    bf_invariants._char_poly_memo.cache_clear()
    assert decide(A, B).outcome == "conjugate"
    # similarity, hyperbolicity and every BF module of the screen read
    # the same two polynomials, each computed once behind the memo
    assert bf_invariants._char_poly_memo.cache_info().misses == 2
    assert runs.count(A) == 1 and runs.count(B) == 1


def test_decide_accepts_list_matrices(rng):
    U = random_unimodular(rng)
    B = xl.mat_mul(xl.mat_mul(U, A1), xl.unimodular_inverse(U))
    as_lists = decide([list(r) for r in A1], [list(r) for r in B])
    assert as_lists.to_data() == decide(A1, B).to_data()
    # a list and a tuple of the same entries are the same matrix
    empty = decide([], ())
    assert (empty.outcome, empty.certificate) == ("conjugate", ())
    same = decide([[2, 1], [1, 1]], ((2, 1), (1, 1)))
    assert [e["stage"] for e in same.evidence] == ["identical_inputs"]
    # a float entry is refused, never truncated into another matrix
    with pytest.raises(ValueError):
        decide([[2.5, 1], [1, 1]], [[2, 1], [1, 1]])
    # every public entry point gives one result for list and tuple input,
    # and refuses a float inside a tuple as inside a list
    floats = ((2.5, 1, 0), (1, 0, 4), (6, -2, 23))
    for f, args in (
        (hyperbolicity_check, (A1,)),
        (similarity_check, (A1, B)),
        (intertwiner_lattice, (A1, B)),
        (eigen_ideal, (A1,)),
        (decide, (A1, B)),
    ):
        got = [f(*args), f(*([list(r) for r in M] for M in args))]
        if f is decide:
            got = [v.to_data() for v in got]
        assert got[0] == got[1], f.__name__
        for bad in (floats, [list(r) for r in floats]):
            with pytest.raises(ValueError):
                f(bad, *args[1:])


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


def lexicographic_shells(rank, radius):
    """The oracle walk: each max-norm shell in plain lexicographic order,
    one of each +-c."""
    zero = (0,) * rank
    for rho in range(1, radius + 1):
        for c in itertools.product(range(-rho, rho + 1), repeat=rank):
            if (rho in c or -rho in c) and c > zero:
                yield c


def test_sparse_first_walk_matches_the_lexicographic_oracle(rng):
    # each shell holds the same vectors in both orders, and the sparse-first
    # one starts with the single rows rho e_i
    for rank in range(1, 5):
        walk = list(xl.shell_vectors(rank, 3))
        oracle = list(lexicographic_shells(rank, 3))
        assert len(walk) == len(oracle)
        for rho in (1, 2, 3):
            shell = [c for c in walk if max(map(abs, c)) == rho]
            assert set(shell) == {c for c in oracle if max(map(abs, c)) == rho}
            assert all(sum(map(bool, c)) == 1 for c in shell[:rank])
    # so a search that exhausts its box finds a certificate in either order
    bound = 2
    pairs = [sublattice_pair(rng, n, 4) for n in (2, 3, 4) for _ in range(4)]
    for n in (2, 3, 4):
        A, U = random_hyperbolic(rng, n, 3), random_unimodular(rng, n)
        pairs.append((A, xl.mat_mul(xl.mat_mul(U, A), xl.unimodular_inverse(U))))
    outcomes = set()
    for A, B in pairs:
        lattice = intertwiner_lattice(A, B)
        box = ((2 * bound + 1) ** lattice.rank - 1) // 2
        out = unimodular_search(lattice, bound, box)
        oracle = next(
            (c for c in lexicographic_shells(lattice.rank, bound)
             if xl.det(xl.unvec(xl.vec_mat(c, lattice.basis), lattice.n)) in (1, -1)),
            None,
        )
        assert out.found == (oracle is not None)
        if out.found:
            C = out.conjugator
            assert xl.mat_mul(A, C) == xl.mat_mul(C, B) and xl.det(C) in (1, -1)
        else:
            assert out.tried == box
        outcomes.add(out.found)
    assert outcomes == {True, False}


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
    # the eigen ideals of the second worked pair are weakly equivalent over
    # Z[beta], so its screens and tower route are skipped
    v = decide(A2, B2)
    assert v.outcome == "unknown"
    assert [e["stage"] for e in v.evidence][2:] == [
        "unimodular_search",
        "periodic_data",
        "unimodular_search_resumed",
        "ideal_route",
    ]
    stages = {e["stage"]: e for e in v.evidence}
    ideal = stages["ideal_route"]
    assert ideal["rings_equal"]
    assert ideal["weak_equivalence"]["weakly_equivalent"]
    assert not ideal["principal_search"]["principal"]
    assert ideal["principal_search"]["bound"] == 8
    # a pair with equal rings that is not weakly equivalent passes the
    # screens, and the tower route screens the tower polynomials up to
    # depth 4 that the default family lacks
    v = decide(NOT_WEAK_A, NOT_WEAK_B)
    assert v.outcome == "unknown"
    stages = {e["stage"]: e for e in v.evidence}
    assert "periodic_data" not in stages
    assert stages["bf_screen"]["report"]["outcome"] == "passed_screen"
    assert stages["ideal_route"]["rings_equal"]
    we = stages["ideal_route"]["weak_equivalence"]
    assert not we["weakly_equivalent"] and we["reason"] == "identity_failed:JY=I,XY=O"
    tower = stages["tower_route"]["report"]
    assert tower["outcome"] == "passed_screen"
    assert tower["family"] == ["x^8-x^4+1", "x^8-1", "x^12-1", "x^24-1"]
    assert "delta" not in stages["tower_route"]


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


def test_decide_ideal_route_on_far_apart_eigen_ideals():
    # the eigen ideal of A fits inside that of B only after scaling by
    # 28169 = 17 * 1657; the ideal arithmetic compares them as built, and
    # X = (J : I) has no generator in the bound-8 box.  decide refutes the
    # pair at the binary forms: F_B lies in neither class of F_A
    A = xl.mat([[1000001, 1000000], [1, 1]])
    B = xl.mat([[2, 28169], [71, 1000000]])
    (I, _, _), (J, _, _) = eigen_ideal(A), eigen_ideal(B)
    assert I.to_data() == {"basis": [[1, 999999], [0, 1000000]], "den": 1}
    assert J.to_data() == {"basis": [[1, 28167], [0, 28169]], "den": 1}
    OI, OJ = multiplier_ring(I), multiplier_ring(J)
    assert OI == OJ and OI.to_data() == {"basis": [[1, 0], [0, 1]], "den": 1}
    we = weak_equivalence(I, J, OI, OJ)
    assert we.equivalent
    assert we.X.to_data() == {"basis": [[1, 28166999999], [0, 28169000000]], "den": 1000000}
    assert not principal_search(we.X, OI, 8).found
    v = decide(A, B)
    assert v.outcome == "not_conjugate" and v.witness["kind"] == "binary_form_class"
    assert [e["stage"] for e in v.evidence] == ["similarity", "hyperbolicity", "binary_forms"]
    assert v.witness["right"] not in v.witness["left"]


WITNESS_1 = {
    "kind": "bf_screen",
    "g": "x+1",
    "left": {"order": 32, "invariant_factors": [4, 8]},
    "right": {"order": 32, "invariant_factors": [2, 16]},
}


@pytest.mark.parametrize("witness", [WITNESS_1], ids=["bf_screen"])
def test_module_witnesses_rebuilt_from_scratch(witness):
    # BF_{x+1} separates the first worked pair; the same witness for a matrix
    # against itself must fail to re-verify
    assert _emit_not_conjugate(A1, B1, witness, [], DEFAULT_CONFIG).outcome == "not_conjugate"
    self_witness = dict(witness, right=witness["left"])
    with pytest.raises(InternalInconsistencyError, match="does not re-verify"):
        _emit_not_conjugate(A1, A1, self_witness, [], DEFAULT_CONFIG)
    # the tower's level witnesses are gone; decide refutes there with bf_screen
    tower_level = {"kind": "tower_level", "level": 2, "detail": {"kind": "module_iso_no"}}
    with pytest.raises(InternalInconsistencyError, match="unknown witness kind 'tower_level'"):
        _emit_not_conjugate(A1, B1, tower_level, [], DEFAULT_CONFIG)


Z_BETA = {"basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "den": 1}
HALF_RING = {"basis": [[2, 0, 0], [0, 1, 1], [0, 0, 2]], "den": 2}
SIMILARITY = {"kind": "similarity", "char_poly_left": "x^3-23x^2+7x-1", "char_poly_right": "x^3-2x^2-8x-1"}
RING = {"kind": "multiplier_ring", "left": Z_BETA, "right": HALF_RING}
# x^2 - 15: F_A = x^2 - 15 y^2 and F_B = 3 x^2 - 5 y^2 lie in different
# classes of discriminant 60, and F_B in neither of those of A
FORM_A = xl.mat([[0, 15], [1, 0]])
FORM_B = xl.mat([[0, 5], [3, 0]])
FORMS = {"kind": "binary_form_class", "discriminant": 60, "left": [[1, 8, 1], [6, 18, 11]], "right": [3, 12, 7]}


@pytest.mark.parametrize(
    "A, B, genuine, tampered",
    [
        (A1, B1, WITNESS_1, {"left": WITNESS_1["right"], "right": WITNESS_1["left"]}),
        (A1, B1, WITNESS_1, {"left": {"order": 7, "invariant_factors": [7]}}),
        (A1, B1, WITNESS_1, {"right": None}),
        (A1, A2, SIMILARITY, {"char_poly_left": "x^3-2x^2-8x-1"}),
        (A1, A2, SIMILARITY, {"char_poly_left": "x^3-2x^2-8x-1", "char_poly_right": "x^3-23x^2+7x-1"}),
        (RING_A, RING_B, RING, {"left": HALF_RING, "right": Z_BETA}),
        (RING_A, RING_B, RING, {"right": {"basis": [[2, 0, 0], [0, 1, 1], [0, 0, 1]], "den": 2}}),
        (FORM_A, FORM_B, FORMS, {"left": [[3, 12, 7], [2, 10, 5]], "right": [1, 8, 1]}),
        (FORM_A, FORM_B, FORMS, {"right": [3, 0, -5]}),
    ],
    ids=[
        "bf_swapped",
        "bf_fake_order",
        "bf_missing",
        "sim_left",
        "sim_swapped",
        "ring_swapped",
        "ring_fake",
        "forms_swapped",
        "forms_fake_representative",
    ],
)
def test_witness_recheck_compares_the_claimed_data(A, B, genuine, tampered):
    # the genuine witness re-verifies; a witness whose claims differ from what
    # A and B rebuild is refused, even though the rebuilt data still refute
    assert _emit_not_conjugate(A, B, genuine, [], DEFAULT_CONFIG).outcome == "not_conjugate"
    with pytest.raises(InternalInconsistencyError, match="witness claims"):
        _emit_not_conjugate(A, B, dict(genuine, **tampered), [], DEFAULT_CONFIG)


def test_binary_form_witness_of_a_self_pair_does_not_reverify():
    # the swapped witness above is that of (B, A), and F_B itself is in the
    # class claimed, just not its representative; against A itself the
    # rebuilt classes match the claims, but F_A lies in its own class
    v = decide(FORM_A, FORM_B)
    assert (v.outcome, v.witness) == ("not_conjugate", FORMS)
    assert decide(FORM_B, FORM_A).witness == dict(FORMS, left=[[3, 12, 7], [2, 10, 5]], right=[1, 8, 1])
    self_witness = dict(FORMS, right=FORMS["left"][0])
    with pytest.raises(InternalInconsistencyError, match="does not re-verify"):
        _emit_not_conjugate(FORM_A, FORM_A, self_witness, [], DEFAULT_CONFIG)


def test_decide_tower_route_refutes_with_bf_witness():
    # with the screening family emptied, BF_{x+1} of the first worked pair plus
    # a common eigenvalue 2 is first screened by the tower route
    cfg = PipelineConfig(family_max_shift=0, family_max_power=0, cyclotomic_index=0)
    v = decide(with_eigenvalue(A1, 2), with_eigenvalue(B1, 2), cfg)
    assert v.outcome == "not_conjugate"
    assert v.evidence[-1]["stage"] == "tower_route"
    assert v.evidence[-1]["report"]["outcome"] == "not_equivalent"
    assert v.witness == {
        "kind": "bf_screen",
        "g": "x+1",
        "left": {"order": 96, "invariant_factors": [4, 24]},
        "right": {"order": 96, "invariant_factors": [2, 48]},
    }


def test_decide_symmetry_examples():
    pairs = [(A1, B1), (A2, B2)]
    for A, B in pairs:
        v1, v2 = decide(A, B), decide(B, A)
        certified = {"conjugate", "not_conjugate"}
        if v1.outcome in certified and v2.outcome in certified:
            assert v1.outcome == v2.outcome


def test_config_refuses_families_past_the_degree_cap():
    # x^m -+ 1 and Phi_d are built from polynomials of degree m and d, so
    # either past polys.MAX_DEGREE is refused when the config is built
    from toralconj.errors import ResourceLimitError

    for field in ("family_max_power", "cyclotomic_index"):
        PipelineConfig(**{field: polys.MAX_DEGREE})
        with pytest.raises(ResourceLimitError, match="cap exceeded"):
            PipelineConfig(**{field: polys.MAX_DEGREE + 1})


def test_principal_search_stops_at_the_candidate_cap():
    # an unknown 3 x 3 pair of the similar_irreducible workload: the box of
    # principal_bound 10^6 holds about 4 * 10^18 candidates, and the search
    # stops at search_max_candidates, as unimodular_search does
    A = ((2, -1, 2), (4, -4, -1), (-3, -1, 1))
    B = ((3, -2, 1), (1, -5, -5), (-4, 2, 1))
    started = time.perf_counter()
    v = decide(A, B, PipelineConfig(principal_bound=10**6))
    assert time.perf_counter() - started < 5.0
    assert v.outcome == "unknown"
    (route,) = [e for e in v.evidence if e["stage"] == "ideal_route"]
    assert route["principal_search"] == {"principal": False, "bound": 10**6, "candidates": 200_000}


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


def _spied_calls(monkeypatch, module, name, fn, *args):
    """The argument tuples of every call to module.name during fn(*args),
    and fn's result."""
    real, calls = getattr(module, name), []

    def spy(*spied):
        calls.append(spied)
        return real(*spied)

    with monkeypatch.context() as m:
        m.setattr(module, name, spy)
        return calls, fn(*args)


def test_witness_rechecks_rebuild_from_the_matrices(monkeypatch):
    # the emitter's re-check of a multiplier_ring witness builds both rings
    # again, and that of a similarity witness takes both characteristic
    # polynomials again, even right after decide has computed them
    from toralconj import ideal_theory as it

    cfg = PipelineConfig(family_max_shift=0, family_max_power=0, cyclotomic_index=0, unimodular_bound=2)
    v = decide(RING_A, RING_B, cfg)
    assert v.witness["kind"] == "multiplier_ring"
    calls, _ = _spied_calls(monkeypatch, it, "colon_ideal", _emit_not_conjugate, RING_A, RING_B, v.witness, [], cfg)
    IA, IB = it.eigen_ideal(RING_A)[0], it.eigen_ideal(RING_B)[0]
    assert calls == [(IA, IA), (IB, IB)]

    B = xl.mat_add(A1, I3)
    v = decide(A1, B)
    assert v.witness["kind"] == "similarity"
    calls, _ = _spied_calls(monkeypatch, xl, "char_poly", _emit_not_conjugate, A1, B, v.witness, [], DEFAULT_CONFIG)
    assert calls == [(A1,), (B,)]


def test_decide_builds_each_multiplier_ring_once(monkeypatch):
    # stage 5 builds O(I) and O(J) and every later stage takes them as
    # passed, on a pair that skips the screens and on one that does not
    from toralconj import ideal_theory as it

    for A, B, skipped in ((A2, B2, True), (NOT_WEAK_A, NOT_WEAK_B, False)):
        built, verdict = _spied_calls(monkeypatch, it, "multiplier_ring", decide, A, B)
        stages = [e["stage"] for e in verdict.evidence]
        assert ("periodic_data" in stages) == skipped and "ideal_route" in stages
        assert built == [(it.eigen_ideal(A)[0],), (it.eigen_ideal(B)[0],)]


def test_decide_tests_weak_equivalence_once(monkeypatch):
    # stage 5 tests weak equivalence and the ideal route reads its answer:
    # the two multiplier rings and X, Y are the only colon ideals built,
    # whether the pair skips the screens or not
    from toralconj import ideal_theory as it

    for A, B in ((NONINVERTIBLE_A, NONINVERTIBLE_B), (A2, B2), (NOT_WEAK_A, NOT_WEAK_B)):
        tested, _ = _spied_calls(monkeypatch, it, "weak_equivalence", decide, A, B)
        assert len(tested) == 1
        colons, _ = _spied_calls(monkeypatch, it, "colon_ideal", decide, A, B)
        I, J = it.eigen_ideal(A)[0], it.eigen_ideal(B)[0]
        assert colons == [(I, I), (J, J), (J, I), (I, J)]


def test_nonmaximal_multiplier_ring_value():
    from toralconj import ideal_theory as it

    B = xl.mat([[0, 0, 4], [1, -1, 0], [0, 2, 2]])
    J, w, nf = it.eigen_ideal(B)
    OJ = it.multiplier_ring(J)
    # the ring of the eigen ideal of the maximal-order matrix is strictly
    # larger than Z[beta]: it contains (b + b^2)/2
    half = ((0, 1, 1),), 2
    assert OJ.contains(*half)
    assert not it.FractionalIdeal.z_beta(nf).contains(*half)


# sha256 of the reports on the 120 benchmark corpus pairs; a change that
# alters a report updates this value and says so
CORPUS_REPORTS_SHA256 = "91348fcf4ba18b39b3fe97c0626799c4a9c6e8377aea46b6312f1476c8767119"


def test_corpus_reports_are_pinned():
    corpus = json.loads((Path(__file__).resolve().parent.parent / "decidebench" / "corpus.json").read_text())
    reports = [
        json.dumps(decide(xl.mat(p["A"]), xl.mat(p["B"])).to_data(), sort_keys=True)
        for workload in ("conj_small", "conj_bigorder", "similar_irreducible")
        for p in corpus[workload]["pairs"]
    ]
    assert len(reports) == 120
    assert hashlib.sha256("\n".join(reports).encode()).hexdigest() == CORPUS_REPORTS_SHA256


# sha256 of the reports on 190 sublattice pairs; the 150 2 x 2 pairs end at
# the binary forms, and 21 of the 40 3 x 3 pairs end unknown after both
# bounded searches exhaust their boxes, so a change to either search that
# alters a candidate, a count or a generator shows here
SUBLATTICE_REPORTS_SHA256 = "967450eeaa7e861db10c5b81199ba31d1b076aa20ff99237015d7519dd40be78"


def test_sublattice_reports_are_pinned():
    reports = []
    for k in range(1, 6):
        rng = random.Random(7919 * k)
        pairs = [sublattice_pair(rng, 2, 5) for _ in range(30)] + [sublattice_pair(rng, 3, 4) for _ in range(8)]
        reports += [decide(A, B).to_data() for A, B in pairs]
    assert sum(r["outcome"] == "unknown" for r in reports) == 21
    text = "\n".join(json.dumps(r, sort_keys=True) for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == SUBLATTICE_REPORTS_SHA256


# sha256 of the reports on five 3x3 pairs under two small families, one
# per config; the pairs end at stage 6, at the ideal route after the
# periodic-data skip (twice, the second pair with non-invertible ideals),
# at the ideal route after stage 7, and at the tower route
SMALL_FAMILY_REPORTS_SHA256 = {
    "shift0": "2b1fd3ba3d36bf1baf384a2be040fe0960b03c6e582ab5efae930a3980b7dc41",
    "shift1_power1": "5dbf4a25c25b542f4317fc6b364d658877ed7f7d96cfd4a93021f53a42113de2",
}


@pytest.mark.parametrize(
    "name, config",
    [
        ("shift0", PipelineConfig(family_max_shift=0)),
        ("shift1_power1", PipelineConfig(family_max_shift=1, family_max_power=1)),
    ],
)
def test_small_family_reports_are_pinned(name, config):
    # with max_shift 0, x -+ 1 come from x^1 -+ 1; stage 6 screens them and
    # stage 7 the rest, so the reports are those of the whole family
    pairs = [(A1, B1), (A2, B2), (NONINVERTIBLE_A, NONINVERTIBLE_B), (RING_A, RING_B), (NOT_WEAK_A, NOT_WEAK_B)]
    reports = [decide(A, B, config).to_data() for A, B in pairs]
    ends = ["bf_screen", "ideal_route", "ideal_route", "ideal_route", "tower_route"]
    assert [r["evidence"][-1]["stage"] for r in reports] == ends
    skipped = [any(e["stage"] == "periodic_data" for e in r["evidence"]) for r in reports]
    assert skipped == [False, True, True, False, False]
    text = "\n".join(json.dumps(r, sort_keys=True) for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == SMALL_FAMILY_REPORTS_SHA256[name]


# sha256 of the reports on six 4x4 sublattice pairs; five of them reach the
# ideal route, so the quartic ideal arithmetic shows here
QUARTIC_REPORTS_SHA256 = "37f7f76d285151073704972eee440fb2f32341cce9c643401fe199921543573a"


def test_quartic_sublattice_reports_are_pinned():
    rng = random.Random(4)
    reports = [decide(*sublattice_pair(rng, 4, 4)).to_data() for _ in range(6)]
    assert sum(any(e["stage"] == "ideal_route" for e in r["evidence"]) for r in reports) == 5
    text = "\n".join(json.dumps(r, sort_keys=True) for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == QUARTIC_REPORTS_SHA256
