"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime (run with -s or -v to see them).  All arithmetic is
exact, so equality assertions carry zero tolerance; runtime limits are the
stated wall-clock budgets.
"""

import json
import random
import time

import pytest

from toralconj import exact_linalg as xl
from toralconj import ideal_theory as ideals
from toralconj import polys
from toralconj import tower as tw
from toralconj.bf_invariants import bf_group, strong_bf_screen
from toralconj.cli import main as cli_main
from toralconj.conjugacy_pipeline import decide
from toralconj.finite_modules import quotient

from conftest import A1, A2, B1, B2, SEED, random_hyperbolic, random_unimodular

I3 = xl.identity(3)


def _report(name, started, limit):
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"{name} exceeded its {limit}s budget ({elapsed:.1f}s)"
    print(f"PASS {name} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def conjugate_pairs():
    rng = random.Random(SEED)
    pairs = []
    for _ in range(10):
        A = random_hyperbolic(rng, n=3, bound=9)
        U = random_unimodular(rng, n=3, entry_bound=3)
        B = xl.mat_mul(xl.mat_mul(U, A), xl.unimodular_inverse(U))
        pairs.append((A, U, B))
    return pairs


@pytest.fixture(scope="module")
def criterion4_verdicts(conjugate_pairs):
    started = time.monotonic()
    out = []
    for A, U, B in conjugate_pairs:
        out.append(decide(A, B))
    return started, out


def test_criterion_1_example1_reproduction():
    started = time.monotonic()
    assert xl.char_poly(A1) == polys.parse("x^3-23x^2+7x-1")
    assert xl.char_poly(B1) == polys.parse("x^3-23x^2+7x-1")
    assert bf_group(A1, (1, 1)).factors == (4, 8)
    assert bf_group(B1, (1, 1)).factors == (2, 16)
    verdict = decide(A1, B1)
    assert verdict.outcome == "not_conjugate"
    assert verdict.witness["kind"] == "bf_screen"
    assert verdict.witness["g"] == "x+1"
    _report("criterion 1 (Example 1 reproduction)", started, 1.0)


def test_criterion_2_example2_reproduction():
    started = time.monotonic()
    p = xl.char_poly(A2)
    assert p == polys.parse("x^3-2x^2-8x-1") == xl.char_poly(B2)
    assert xl.discriminant(p) == 1957

    screen = strong_bf_screen(A2, B2)
    assert screen.outcome == "passed_screen"
    for rec in screen.records:
        assert rec["iso"]["verdict"] == "yes"
        g = polys.parse(rec["g"])
        # re-verify every found isomorphism from its matrix, from scratch
        from toralconj.finite_modules import ModuleMap

        PA = quotient(xl.eval_poly_at_matrix(g, A2), A2)
        PB = quotient(xl.eval_poly_at_matrix(g, B2), B2)
        m = ModuleMap(PA, PB, tuple(tuple(r) for r in rec["iso"]["iso_matrix"]))
        assert m.is_isomorphism()

    I, v, nf = ideals.eigen_ideal(A2)
    J, w, _ = ideals.eigen_ideal(B2)
    zb = ideals.FractionalIdeal.z_beta(nf)
    OI, OJ = ideals.multiplier_ring(I), ideals.multiplier_ring(J)
    assert OI == zb
    assert OJ == zb

    we = ideals.weak_equivalence(I, J, OI, OJ)
    assert we.equivalent
    assert ideals.ideal_product(I, we.X) == J
    assert ideals.ideal_product(J, we.Y) == I
    assert ideals.ideal_product(we.X, we.Y) == OI

    X = ideals.colon_ideal(J, I)
    pr = ideals.principal_search(X, ideals.multiplier_ring(X), 8)
    assert not pr.found

    # the eigen ideals are weakly equivalent over Z[beta], so decide skips
    # the screens that the direct screen above shows cannot refute
    verdict = decide(A2, B2)
    assert verdict.outcome == "unknown"
    stages = {e["stage"]: e for e in verdict.evidence}
    assert stages["periodic_data"] == {"stage": "periodic_data", "reason": "weakly_equivalent_over_one_order"}
    assert not stages.keys() & {"bf_screen", "bf_module_screen", "tower_route"}
    assert stages["ideal_route"]["weak_equivalence"]["weakly_equivalent"]
    assert not stages["ideal_route"]["principal_search"]["principal"]
    _report("criterion 2 (Example 2 reproduction)", started, 60.0)


def test_criterion_3_order_resultant_identity():
    started = time.monotonic()
    rng = random.Random(SEED + 3)
    done = 0
    while done < 30:
        n = rng.choice((2, 3, 4))
        M = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        g = polys.trim([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])
        if not g:
            continue
        gM = xl.eval_poly_at_matrix(g, M)
        if xl.det(gM) == 0:
            continue
        group = quotient(gM, M)
        assert group.order == abs(xl.resultant(xl.char_poly(M), g))
        done += 1
    _report("criterion 3 (order = |resultant| on 30 random pairs)", started, 10.0)


def test_criterion_4_conjugate_roundtrip(criterion4_verdicts, conjugate_pairs):
    started, verdicts = criterion4_verdicts
    for (A, U, B), verdict in zip(conjugate_pairs, verdicts):
        assert verdict.outcome == "conjugate"
        C = verdict.certificate
        assert xl.mat_mul(A, C) == xl.mat_mul(C, B)
        assert xl.det(C) in (1, -1)
    _report("criterion 4 (10 conjugate round-trips)", started, 60.0)


def test_criterion_5_lemma_suite():
    started = time.monotonic()
    rng = random.Random(SEED + 5)
    matrices = [A1, A2] + [random_hyperbolic(rng) for _ in range(5)]
    for A in matrices:
        towers = tw.build_tower(A, 4)
        for k in (1, 2, 3):
            assert tw.verify_factorization(A, k)
            upper = towers.level(k + 1).relations
            lower = xl.hnf_basis(towers.level(k).relations)
            for row in upper:
                assert xl.lattice_membership(lower, row) is not None
    for A in (A1, A2):
        for k1, k2 in ((1, 1), (1, 2), (2, 2)):
            assert tw.verify_filtered(A, k1, k2)
    for A in (A1, A2):
        tower = tw.build_tower(A, 4)
        probe = tw.injectivity_probe(tower, 10)
        assert probe["all_escape"], probe["inconclusive_at_depth"]
        assert probe["inconclusive_at_depth"] == []
        # dual-route certification is enforced inside the probe; the exact
        # rational inverse norm bounds are reported per level
        assert len(probe["inverse_norm_bounds"]) == 4
    _report("criterion 5 (nesting, factorization, filtered, injectivity)", started, 120.0)


def test_criterion_6_level_iso_refutation():
    started = time.monotonic()
    towA = tw.build_tower(A1, 2)
    towB = tw.build_tower(B1, 2)
    out = tw.level_iso_family(towA, towB, 2)
    assert out.kind == "not_found_at_level"
    assert out.level == 2
    assert out.witness["kind"] == "canonical_quotient"
    assert out.witness["divisor"] == "x+1"
    assert out.witness["mismatch"]["reason"] == "invariant_factors"
    assert out.witness["mismatch"]["left"] == [4, 8]
    assert out.witness["mismatch"]["right"] == [2, 16]
    # oracle behind the certificate: Z^3 (A^2 - I) <= Z^3 (A + I), so the
    # (x+1)-quotient of level 2 is exactly BF_{x+1}
    plus = xl.hnf_basis(xl.mat_add(A1, I3))
    for row in xl.mat_sub(xl.mat_mul(A1, A1), I3):
        assert xl.lattice_membership(plus, row) is not None
    _report("criterion 6 (level-isomorphism refutation at level 2)", started, 60.0)


def test_criterion_7_delta_classification(conjugate_pairs, criterion4_verdicts):
    started = time.monotonic()
    _, verdicts = criterion4_verdicts
    for (A, U, B), verdict in zip(conjugate_pairs, verdicts):
        C = verdict.certificate
        towA = tw.build_tower(A, 3)
        towB = tw.build_tower(B, 3)
        fam = tw.transport_family(towA, towB, C)
        deltas = [tw.delta_lattice(towA, towB, fam, k) for k in (1, 2, 3)]
        # stabilization: nested lattices, all containing the graph of C
        for d1, d2 in zip(deltas, deltas[1:]):
            for row in d2.basis:
                assert xl.lattice_membership(d1.basis, row) is not None
        for d in deltas:
            for i in range(3):
                e = tuple(1 if j == i else 0 for j in range(3))
                assert xl.lattice_membership(d.basis, e + xl.vec_mat(e, C)) is not None
        cls = tw.classify_delta(towA, towB, fam, deltas, search_bound=5)
        assert cls.kind == "graph_of_conjugator"
        got = cls.conjugator
        assert xl.mat_mul(A, got) == xl.mat_mul(got, B)
        assert xl.det(got) in (1, -1)
        # same certificate up to the depth-3 congruence; in practice equal
        assert got == C
    _report("criterion 7 (delta classification on conjugate pairs)", started, 60.0)


def test_criterion_8_determinism(tmp_path, capsys):
    started = time.monotonic()
    paths = {}
    for name, M in (("A1", A1), ("B1", B1), ("A2", A2), ("B2", B2)):
        p = tmp_path / f"{name}.txt"
        p.write_text("\n".join(" ".join(str(x) for x in row) for row in M) + "\n")
        paths[name] = str(p)
    commands = [
        ["bf", paths["A1"], "x+1", "--json"],
        ["bf", paths["A2"], "x-1", "--json"],
        ["screen", paths["A1"], paths["B1"], "--json"],
        ["screen", paths["A2"], paths["B2"], "--json"],
        ["tower", paths["A1"], "--levels", "2", "--verify", "--probe-bound", "3", "--json"],
        ["ideal", paths["A2"], "ring", "--json"],
        ["ideal", paths["A2"], "weak-equiv", paths["B2"], "--json"],
        ["ideal", paths["A2"], "principal", paths["B2"], "--bound", "8", "--json"],
        ["decide", paths["A1"], paths["B1"], "--json"],
        ["decide", paths["A2"], paths["B2"], "--json"],
        ["decide", paths["A1"], paths["A1"], "--json"],
    ]
    for argv in commands:
        runs = []
        for _ in range(2):
            cli_main(argv)
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1], f"non-deterministic report for {argv}"
        json.loads(runs[0])  # structured output must be valid JSON
    _report("criterion 8 (byte-identical reports)", started, 120.0)
