import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toralconj import polys

small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=6).map(polys.trim)


def test_trim_and_degree():
    assert polys.trim([1, 2, 0, 0]) == (1, 2)
    assert polys.trim([0, 0]) == ()
    assert polys.degree(()) == -1
    assert polys.degree((3, 0, 1)) == 2


def test_arithmetic_basics():
    p = (1, 2)
    q = (0, 0, 3)
    assert polys.add(p, q) == (1, 2, 3)
    assert polys.sub(polys.add(p, q), q) == p
    assert polys.mul((1, 1), (-1, 1)) == (-1, 0, 1)
    assert polys.eval_at((-1, 0, 1), 3) == 8


@given(small_polys, small_polys)
@settings(max_examples=60)
def test_mul_matches_evaluation(p, q):
    r = polys.mul(p, q)
    for x in (-2, -1, 0, 1, 2, 3):
        assert polys.eval_at(r, x) == polys.eval_at(p, x) * polys.eval_at(q, x)


def test_divmod_exact_monic():
    # x^4 - 1 = (x^2 + 1)(x^2 - 1)
    q, r = polys.divmod_exact((-1, 0, 0, 0, 1), (1, 0, 1))
    assert q == (-1, 0, 1) and r == ()
    q, r = polys.divmod_exact((1, 1, 1), (1, 1))
    assert polys.add(polys.mul(q, (1, 1)), r) == (1, 1, 1)


def test_poly_gcd():
    f = polys.mul((1, 1), (-1, 0, 1))     # (x+1)(x^2-1)
    g = polys.mul((1, 1), (2, 1))         # (x+1)(x+2)
    assert polys.poly_gcd(f, g) == (1, 1)
    assert polys.poly_gcd((0, 1), (2,)) == (1,)


def test_is_squarefree_matches_the_gcd():
    # the discriminant of a quadratic against gcd(p, p'), on random monic
    # quadratics and on squares (x - a)^2; cubics and up take the gcd
    rng = random.Random(2)
    quadratics = [(rng.randint(-30, 30), rng.randint(-30, 30), 1) for _ in range(400)]
    quadratics += [(a * a, -2 * a, 1) for a in range(-15, 16)]
    for p in quadratics + [(-1, 0, 0, 1), (0, 0, 1, 1), (3, 1)]:
        assert polys.is_squarefree(p) == (polys.degree(polys.poly_gcd(p, polys.derivative(p))) == 0), p
    assert sum(not polys.is_squarefree(p) for p in quadratics) >= 31


def test_cyclotomic_values():
    assert polys.cyclotomic(1) == (-1, 1)
    assert polys.cyclotomic(2) == (1, 1)
    assert polys.cyclotomic(6) == (1, -1, 1)
    assert polys.cyclotomic(12) == (1, 0, -1, 0, 1)
    # product over divisors reassembles x^12 - 1
    prod = (1,)
    for d in (1, 2, 3, 4, 6, 12):
        prod = polys.mul(prod, polys.cyclotomic(d))
    assert prod == polys.x_pow_minus_one(12)


def test_sturm_root_counting():
    # (x-1)(x-2)(x-3) has all three roots in (0, 4), one in (0, 1.5)
    p = polys.mul(polys.mul((-1, 1), (-2, 1)), (-3, 1))
    assert polys.count_real_roots_open(p, Fraction(0), Fraction(4)) == 3
    assert polys.count_real_roots_open(p, Fraction(0), Fraction(3, 2)) == 1
    # endpoint roots are excluded from the open interval
    assert polys.count_real_roots_open(p, Fraction(1), Fraction(3)) == 1
    # x^2 + 1 has no real roots
    assert polys.count_real_roots_open((1, 0, 1), Fraction(-10), Fraction(10)) == 0


def test_unit_circle_detection():
    assert polys.has_root_on_unit_circle((1, -2, 1))          # (x-1)^2
    assert polys.has_root_on_unit_circle((1, 1))              # x + 1
    assert polys.has_root_on_unit_circle((1, 0, 0, 0, 1))     # x^4 + 1, 8th roots
    assert polys.has_root_on_unit_circle((1, 1, 1))           # cube roots
    assert not polys.has_root_on_unit_circle((1, -3, 1))      # roots (3 +- sqrt5)/2
    assert not polys.has_root_on_unit_circle((-1, 7, -23, 1))
    # reciprocal pair off the circle: (x-2)(x-1/2) scaled -> 2x^2-5x+2
    assert not polys.has_root_on_unit_circle((2, -5, 2))
    # Salem-like check: x^4 - 3x^3 + 3x^2 - 3x + 1 has two unit-circle roots
    assert polys.has_root_on_unit_circle((1, -3, 3, -3, 1))


def test_irreducibility_small():
    assert polys.is_irreducible_deg_le4((-1, 7, -23, 1))
    assert polys.is_irreducible_deg_le4((-1, -8, -2, 1))
    assert not polys.is_irreducible_deg_le4((1, -2, 1))
    assert not polys.is_irreducible_deg_le4(polys.mul((1, 1), (-1, 0, 1)))
    # x^4 + 1 is irreducible over Q; x^4 - 4 = (x^2-2)(x^2+2) is not
    assert polys.is_irreducible_deg_le4((1, 0, 0, 0, 1))
    assert not polys.is_irreducible_deg_le4((-4, 0, 0, 0, 1))
    # x^4 + x^2 + 1 = (x^2+x+1)(x^2-x+1)
    assert not polys.is_irreducible_deg_le4((1, 0, 1, 0, 1))


def test_parse_and_print_roundtrip():
    cases = ["x^3-23x^2+7x-1", "x+1", "x-1", "x^6-1", "3", "-x+2", "x^4-x^2+1"]
    for s in cases:
        p = polys.parse(s)
        assert polys.parse(polys.to_str(p)) == p
    assert polys.parse("x^3-23x^2+7x-1") == (-1, 7, -23, 1)
    assert polys.parse(" x ^ 3 - 23 x^2 + 7x - 1".replace(" ", "")) == (-1, 7, -23, 1)
    assert polys.to_str(()) == "0"


def test_parse_rejects_garbage():
    for bad in ["", "x^", "2.5x", "x**2", "y+1", "x^2++1"]:
        with pytest.raises(ValueError):
            polys.parse(bad)


def test_integer_roots():
    assert polys.integer_roots((-6, 11, -6, 1)) == [1, 2, 3]
    assert polys.integer_roots((0, 0, 1)) == [0]
    assert polys.integer_roots((1, 0, 1)) == []
