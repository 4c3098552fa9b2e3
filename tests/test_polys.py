import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toralconj import polys
from toralconj.intfactor import divisors

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
    # the discriminant of a quadratic or a cubic against gcd(p, p'), on
    # random quadratics and cubics, squares (x - a)^2 and planted
    # (x - a)^2 (b x + c); quartics and up take the gcd
    rng = random.Random(2)
    quadratics = [(rng.randint(-30, 30), rng.randint(-30, 30), 1) for _ in range(400)]
    quadratics += [(a * a, -2 * a, 1) for a in range(-15, 16)]
    cubics = [tuple(rng.randint(-30, 30) for _ in range(3)) + (rng.choice((-3, -1, 1, 2, 5)),) for _ in range(400)]
    squares = []
    for _ in range(200):
        a, b, c = rng.randint(-40, 40), rng.choice((-7, -2, -1, 1, 3, 10**6)), rng.randint(-10**6, 10**6)
        squares.append(polys.mul(polys.mul((-a, 1), (-a, 1)), (c, b)))
    cubics += squares + [(0, 0, 0, 1), (-1, 3, -3, 1), (-1, 0, 0, 1), (0, 0, 1, 1), (4, 0, -3, 1)]
    for p in quadratics + cubics + [(1, -2, 2, -2, 1), (-1, 0, 0, 0, 1), (3, 1)]:
        assert polys.is_squarefree(p) == (polys.degree(polys.poly_gcd(p, polys.derivative(p))) == 0), p
    assert sum(not polys.is_squarefree(p) for p in quadratics) >= 31
    assert not any(polys.is_squarefree(p) for p in squares)


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


def _circle_by_sturm(p):
    """has_root_on_unit_circle for p(0) != 0 through the reciprocal gcd and
    Sturm count of every degree."""
    return polys.eval_at(p, 1) == 0 or polys.eval_at(p, -1) == 0 or polys._circle_roots_by_sturm(p)


def test_unit_circle_closed_forms_match_the_sturm_path():
    # degrees 2 and 3 against the reciprocal gcd and Sturm count: random
    # and non-monic polynomials, circle pairs k (x^2 + s x + 1) and
    # (a x + b)(x^2 + s x + 1), s = m / k just inside |s| < 2 too, their real
    # reciprocal pairs (|s| > 2) and near misses one unit off in one
    # coefficient
    rng = random.Random(3)
    cases = []
    for _ in range(300):
        cases.append(tuple(rng.randint(-20, 20) for _ in range(2)) + (rng.choice((-4, -1, 1, 3)),))
        cases.append(tuple(rng.randint(-20, 20) for _ in range(3)) + (rng.choice((-4, -1, 1, 3)),))
    planted = []
    for s in (-1, 0, 1):
        planted += [polys.scale((1, s, 1), k) for k in (-5, -1, 1, 2, 10**9)]
    for _ in range(200):
        a = rng.choice((-6, -1, 1, 2, 7, 10**5))
        b = rng.choice([v for v in range(-30, 31) if abs(v) != abs(a)])
        planted.append(polys.mul((b, a), (1, rng.choice((-1, 0, 1)), 1)))
    for k in (2, 3, 10**4):
        planted += [polys.mul((rng.randint(1, 9), rng.randint(2, 9)), (k, m, k)) for m in (2 * k - 1, 1 - 2 * k)]
    real_pairs = [polys.mul((rng.randint(1, 9), rng.randint(2, 9)), (1, s, 1)) for s in (-5, -3, 3, 4)]
    real_pairs += [polys.mul((rng.randint(1, 9), rng.randint(2, 9)), (k, m, k)) for k in (2, 10**4) for m in (2 * k + 1, -2 * k - 1)]
    near = []
    for p in planted:
        i = rng.randrange(len(p))
        near += [tuple(c + (j == i) * d for j, c in enumerate(p)) for d in (-1, 1)]
    cases += planted + real_pairs + near + [(2, -5, 2), (-1, 7, -23, 1), (1, 0, 0, 1), (2, 1, 1, 2), (1, 1, 2)]
    cases = [p for p in map(polys.trim, cases) if len(p) in (3, 4) and p[0] != 0]
    for p in cases:
        assert polys.has_root_on_unit_circle(p) == _circle_by_sturm(p), p
    assert all(map(polys.has_root_on_unit_circle, planted))
    assert not any(map(polys.has_root_on_unit_circle, real_pairs))
    assert sum(map(polys.has_root_on_unit_circle, near)) < len(near) // 4


def _integer_roots_by_divisors(p):
    """The integer roots of p with p(0) != 0 among the divisors of p(0)."""
    return sorted(r for d in divisors(p[0]) for r in (d, -d) if polys.eval_at(p, r) == 0)


def test_cubic_integer_roots_match_the_divisor_method():
    # bisection between the critical points against the divisors of the
    # constant term: random cubics and cubics with one to three planted
    # roots, double and triple ones included, coefficients up to 10^7 and
    # leading coefficients other than +-1
    rng = random.Random(4)
    leads = (-6, -2, 2, 3, 5, 97)
    cubics = [
        (rng.choice((-1, 1)) * rng.randint(1, 10**7),) + tuple(rng.randint(-10**7, 10**7) for _ in range(2))
        + (rng.choice(leads),)
        for _ in range(100)
    ]
    for _ in range(150):
        r, t = rng.randint(-300, 300) or 1, rng.randint(-300, 300) or -1
        lead = rng.choice(leads)
        cubics.append(polys.mul((-r, 1), (rng.randint(-10**4, 10**4) or 7, rng.randint(-50, 50), lead)))
        cubics.append(polys.mul(polys.mul((-r, 1), (-t, 1)), (rng.randint(-100, 100) or 3, lead)))
        r, t = rng.randint(-100, 100) or 2, rng.randint(-10, 10)
        cubics.append(polys.mul(polys.mul((-r, 1), (-r, 1)), (-t * lead, lead)))
    cubics += [polys.mul(polys.mul((-r, 1), (-r, 1)), (-r, 1)) for r in (-4, 1, 9)]
    cubics += [(-6, 11, -6, 1), (6, 11, 6, 1), (-1, 7, -23, 1), (1, 0, 0, 1), (-2, 0, 0, 1), (5, 3, 0, 2)]
    cubics = [p for p in cubics if len(p) == 4 and p[0] != 0 and max(map(abs, p)) <= 10**7]
    assert len(cubics) > 500
    for p in cubics:
        assert polys.integer_roots(p) == _integer_roots_by_divisors(p), p
    assert sum(len(polys.integer_roots(p)) >= 2 for p in cubics) > 200


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
