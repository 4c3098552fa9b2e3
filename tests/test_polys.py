import itertools
import math
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toralconj import exact_linalg as xl
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
    """The integer roots of p among 0 and the divisors of its lowest
    nonzero coefficient."""
    k = next(i for i, c in enumerate(p) if c)
    roots = [r for d in divisors(p[k]) for r in (d, -d) if polys.eval_at(p, r) == 0]
    return sorted(roots + [0] * (k > 0))


def test_cubic_integer_roots_match_the_divisor_method():
    # integer_roots against the divisors of the constant term: random cubics and cubics with one to three planted
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


def _has_factor_by_search(p):
    # oracle for a monic quartic: an integer root, or a monic integer
    # quadratic factor, each root of which lies within the Cauchy bound
    bound = 1 + max(map(abs, p[:-1]))
    if any(polys.eval_at(p, r) == 0 for r in range(-bound, bound + 1)):
        return True
    return any(
        not polys.divmod_exact(p, (b, a, 1))[1]
        for b in range(-bound * bound, bound * bound + 1)
        if b and p[0] % b == 0
        for a in range(-2 * bound, 2 * bound + 1)
    )


def test_quartic_irreducibility_matches_a_factor_search():
    rng = random.Random(8)
    quartics = [tuple(rng.randint(-4, 4) for _ in range(4)) + (1,) for _ in range(300)]
    quadratic = lambda: (rng.randint(-3, 3), rng.randint(-3, 3), 1)
    quartics += [polys.mul(quadratic(), quadratic()) for _ in range(100)]
    quartics += [(0, 1, 0, 2, 1), (1, 0, 1, 0, 1), (4, 0, 0, 0, 1), (-4, 0, 0, 0, 1)]
    for p in quartics:
        polys.is_irreducible_deg_le4.cache_clear()
        assert polys.is_irreducible_deg_le4(p) == (p[0] != 0 and not _has_factor_by_search(p)), p


def test_semiprime_quartic_decides_without_factoring(monkeypatch):
    # a constant term of 200 bits, the product of the next primes after
    # 2^99 + 12,345 and 2^100 + 987,654: integer roots and quadratic factors
    # come from bisection and the resolvent cubic, so nothing is factored
    import toralconj.intfactor as intfactor

    calls = []
    factorint = intfactor.factorint
    monkeypatch.setattr(intfactor, "factorint", lambda n: calls.append(n) or factorint(n))
    p, q = 633825300114114700748351615099, 1267650600228229401496704193117
    polys.is_irreducible_deg_le4.cache_clear()
    assert polys.is_irreducible_deg_le4((-p * q, -1, -1, -1, 1))
    assert polys.is_irreducible_deg_le4((p * q, 1, 1, 1, 1))
    assert not polys.is_irreducible_deg_le4(polys.mul((p, 1, 1), (q, -1, 1)))
    assert not polys.is_irreducible_deg_le4(polys.mul((-p, 1), (q, 0, 1, 1)))
    assert not polys.is_irreducible_deg_le4((0, 1, 0, 0, 1))
    assert calls == []
    polys.is_irreducible_deg_le4.cache_clear()


def _has_quadratic_factor_by_divisors(p):
    # a monic quartic's monic quadratic factors (x^2 + a x + b)(x^2 + c x + d)
    # with b d = p0: a (d - b) = p1 - p3 b, or for b = d, p1 = b p3 and a, c
    # the roots of w^2 - p3 w + p2 - 2 b
    p0, p1, p2, p3 = p[:4]
    for b in (s * e for e in divisors(p0) for s in (1, -1)):
        d = p0 // b
        if b != d:
            a, r = divmod(p1 - p3 * b, d - b)
            if r == 0 and b + d + a * (p3 - a) == p2:
                return True
        elif p1 == b * p3:
            disc = p3 * p3 - 4 * (p2 - 2 * b)
            if disc >= 0 and isqrt(disc) ** 2 == disc:
                return True
    return False


def test_integer_roots_and_irreducibility_match_the_divisor_oracles():
    # a seeded differential run over degrees 1..4: integer_roots against
    # the divisors of the lowest nonzero coefficient, and monic degrees
    # 2..4 against the same roots and, in degree 4, a quadratic factor
    # found from the divisors of p0
    rng = random.Random(38)
    lead = lambda: rng.choice((1, 1, -1, 2, -3, 7, 50, rng.randint(1, 10**6)))
    cases = [(9, -45, 50), (6, -5, 1), (2, -3, 1), (1, -2, 1), (0, 0, 1), (1, 0, -10, 0, 1), (1, 0, 1, 0, 1)]
    for _ in range(4500):
        # random coefficients up to 10^12, leading ones other than 1
        bound = 10 ** rng.choice((1, 3, 6, 12))
        cases.append(tuple(rng.randint(-bound, bound) for _ in range(rng.randint(1, 4))) + (lead(),))
    for _ in range(1500):
        # planted rational roots r / t, repeated ones among them
        p = (lead(),)
        for _ in range(rng.randint(1, 4)):
            r = rng.choice((rng.randint(-3, 3), rng.randint(-10**3, 10**3)))
            p = polys.mul(p, (-r, rng.choice((1, 1, 1, rng.randint(2, 60)))))
        cases.append(p)
    for _ in range(1500):
        # clustered, consecutive and double roots, and two roots in one
        # unit interval
        c = rng.randint(-300, 300)
        p = (1,)
        for _ in range(rng.randint(1, 4)):
            t = rng.choice((1, 1, rng.randint(2, 5)))
            p = polys.mul(p, (-(c * t + rng.randint(0, 2)), t))
        cases.append(p)
    for _ in range(2500):
        # monic quartics: biquadratics, products of two quadratics, random
        a, b = rng.randint(-30, 30), rng.randint(-30, 30)
        quadratic = lambda: (rng.randint(-10**4, 10**4), rng.randint(-10**2, 10**2), 1)
        bound = 10 ** rng.choice((1, 3, 6))
        cases.append(rng.choice((
            (b, 0, a, 0, 1),
            polys.mul(quadratic(), quadratic()),
            tuple(rng.randint(-bound, bound) for _ in range(4)) + (1,),
        )))
    cases = [p for p in map(polys.trim, cases) if polys.degree(p) >= 1]
    assert len(cases) >= 10_000
    tally = {"two_roots": 0, "irreducible": 0, "quadratic_factor": 0}
    for p in cases:
        roots = _integer_roots_by_divisors(p)
        assert polys.integer_roots(p) == roots, p
        tally["two_roots"] += len(roots) >= 2
        if polys.is_monic(p) and polys.degree(p) >= 2:
            polys.is_irreducible_deg_le4.cache_clear()
            factor = not roots and polys.degree(p) == 4 and _has_quadratic_factor_by_divisors(p)
            assert polys.is_irreducible_deg_le4(p) == (not roots and not factor), p
            tally["irreducible"] += not roots and not factor
            tally["quadratic_factor"] += factor
    polys.is_irreducible_deg_le4.cache_clear()
    assert tally["two_roots"] > 1500 and tally["irreducible"] > 2000 and tally["quadratic_factor"] > 700


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


def test_parse_refuses_degrees_past_the_cap():
    # the cap is the degree of x^(k!) - 1 at the largest tower level
    assert polys.MAX_DEGREE == math.factorial(xl.MAX_FACTORIAL_K)
    assert polys.degree(polys.parse(f"x^{polys.MAX_DEGREE}-1")) == polys.MAX_DEGREE
    for text in (f"x^{polys.MAX_DEGREE + 1}", "x^1000000-x^1000000+1", "2-x^100000"):
        with pytest.raises(ValueError, match="exceeds the cap"):
            polys.parse(text)


def test_irreducibility_of_quadratics_and_cubics():
    # a quadratic by its discriminant, a cubic by its integer roots; a zero
    # constant term leaves the factor x
    assert not polys.is_irreducible_deg_le4((-6, 11, -6, 1))
    assert not polys.is_irreducible_deg_le4((0, 1, 0, 1))
    assert polys.is_irreducible_deg_le4((-2, 0, 0, 1))
    for b, c in itertools.product(range(-12, 13), repeat=2):
        has_root = any(r * r + b * r + c == 0 for r in range(-13, 14))
        assert polys.is_irreducible_deg_le4((c, b, 1)) == (not has_root), (c, b)


def test_semiprime_quadratic_decides_without_factoring(monkeypatch):
    # x^2 - x - p q with p, q the next primes after 2^44 + 12,345 and
    # 2^44 + 987,654: its discriminant 1 + 4 p q is no square, and nothing
    # factors p q
    import toralconj.intfactor as intfactor

    calls = []
    factorint = intfactor.factorint
    monkeypatch.setattr(intfactor, "factorint", lambda n: calls.append(n) or factorint(n))
    p, q = 17592186056779, 17592187032113
    polys.is_irreducible_deg_le4.cache_clear()
    assert polys.is_irreducible_deg_le4((-p * q, -1, 1))
    assert not polys.is_irreducible_deg_le4(polys.mul((-p, 1), (q, 1)))
    assert calls == []
    polys.is_irreducible_deg_le4.cache_clear()
