"""Integer polynomials as coefficient tuples, lowest degree first.

Canonical form: no trailing zero coefficients, the zero polynomial is ().
All arithmetic is exact over Z; rational work uses fractions.Fraction.
"""

import functools
from fractions import Fraction
from math import gcd, isqrt

from .errors import InternalInconsistencyError
from .intfactor import divisors

Poly = tuple[int, ...]

X: Poly = (0, 1)
ONE: Poly = (1,)


def trim(coeffs) -> Poly:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p: Poly) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(p) - 1


def leading(p: Poly) -> int:
    if not p:
        raise ValueError("zero polynomial has no leading coefficient")
    return p[-1]


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return trim((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n))


def neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def scale(p: Poly, c: int) -> Poly:
    if c == 0:
        return ()
    return tuple(a * c for a in p)


def eval_at(p: Poly, x: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def eval_frac(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p: Poly) -> Poly:
    return trim(i * c for i, c in enumerate(p) if i > 0)


def is_monic(p: Poly) -> bool:
    return bool(p) and p[-1] == 1


def divmod_exact(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of f by g over Q, both required to be integral.

    Raises ValueError if any produced coefficient is non-integral, so this is
    safe only for monic g or known-exact divisions.
    """
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    rem = list(f)
    quo = [0] * max(len(f) - len(g) + 1, 0)
    lead = g[-1]
    for k in range(len(rem) - len(g), -1, -1):
        c = rem[k + len(g) - 1]
        if c == 0:
            continue
        if c % lead != 0:
            raise ValueError("non-exact polynomial division")
        q = c // lead
        quo[k] = q
        for i, gc in enumerate(g):
            rem[k + i] -= q * gc
    return trim(quo), trim(rem)


def pseudo_rem(f: Poly, g: Poly) -> Poly:
    """Pseudo-remainder: rem of lc(g)^(deg f - deg g + 1) * f by g over Z."""
    d = degree(f) - degree(g)
    if d < 0:
        return f
    return divmod_exact(scale(f, leading(g) ** (d + 1)), g)[1]


def content(p: Poly) -> int:
    c = 0
    for a in p:
        c = gcd(c, a)
    return c


def primitive_part(p: Poly) -> Poly:
    c = content(p)
    if c == 0:
        return ()
    q = tuple(a // c for a in p)
    return neg(q) if q[-1] < 0 else q


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Primitive gcd over Z (positive leading coefficient)."""
    a, b = primitive_part(f), primitive_part(g)
    while b:
        a, b = b, primitive_part(pseudo_rem(a, b))
    return a


def is_squarefree(p: Poly) -> bool:
    """gcd(p, p') is constant.  For a quadratic or a cubic that is a nonzero
    discriminant, read off with no gcd."""
    if len(p) == 4:
        d, c, b, a = p
        return b * b * c * c - 4 * a * c**3 - 4 * b**3 * d - 27 * a * a * d * d + 18 * a * b * c * d != 0
    if len(p) == 3:
        return p[1] * p[1] != 4 * p[0] * p[2]
    return degree(poly_gcd(p, derivative(p))) == 0


def reverse(p: Poly) -> Poly:
    """Reciprocal polynomial x^deg(p) * p(1/x); requires p(0) != 0 to keep degree."""
    return trim(reversed(p))


def x_pow_minus_one(m: int) -> Poly:
    return trim([-1] + [0] * (m - 1) + [1])


def x_pow_plus_one(m: int) -> Poly:
    return trim([1] + [0] * (m - 1) + [1])


@functools.lru_cache(maxsize=None)
def cyclotomic(d: int) -> Poly:
    """d-th cyclotomic polynomial via exact division of x^d - 1."""
    p = x_pow_minus_one(d)
    for e in divisors(d):
        if e < d:
            p, r = divmod_exact(p, cyclotomic(e))
            if r != ():
                raise InternalInconsistencyError("cyclotomic division is not exact")
    return p


def _sign_variations(values: list[Fraction]) -> int:
    signs = [(v > 0) - (v < 0) for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _content_reduce_keep_sign(p: Poly) -> Poly:
    c = content(p)
    return tuple(a // c for a in p) if c else ()


def _sturm_chain(p: Poly) -> list[Poly]:
    # Each step needs the negated true remainder up to a POSITIVE scalar, so
    # undo the sign that pseudo-division introduces when lc(g)^(d+1) < 0.
    chain = [p, derivative(p)]
    while chain[-1]:
        f, g = chain[-2], chain[-1]
        d = degree(f) - degree(g)
        r = pseudo_rem(f, g)
        if leading(g) ** (d + 1) > 0:
            r = neg(r)
        chain.append(_content_reduce_keep_sign(r))
    return chain[:-1]


def count_real_roots_open(p: Poly, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of p in the open interval (a, b)."""
    if not p:
        raise ValueError("zero polynomial")
    if degree(p) == 0:
        return 0
    g = poly_gcd(p, derivative(p))
    sqfree = primitive_part(divmod_exact(primitive_part(p), g)[0])
    if degree(sqfree) <= 0:
        return 0
    chain = _sturm_chain(sqfree)
    va = _sign_variations([eval_frac(q, a) for q in chain])
    vb = _sign_variations([eval_frac(q, b) for q in chain])
    count = va - vb  # distinct roots in (a, b]
    if eval_frac(sqfree, b) == 0:
        count -= 1
    return count


def _even_reciprocal_to_half(h: Poly) -> Poly:
    """For self-reciprocal h of even degree 2d, the H with h(x) = x^d H(x + 1/x)."""
    d = degree(h) // 2
    # P_k(t) represents x^k + x^(-k); P_0 = 2, P_1 = t, P_k = t P_(k-1) - P_(k-2)
    pk_prev: Poly = (2,)
    pk: Poly = (0, 1)
    out = scale((1,), h[d])
    for k in range(1, d + 1):
        out = add(out, scale(pk, h[d + k]))
        pk_prev, pk = pk, sub(mul((0, 1), pk), pk_prev)
    return out


def has_root_on_unit_circle(p: Poly) -> bool:
    """Exact test for a complex root of modulus one.

    Roots at 0 are stripped and roots at +-1 read off as p(+-1) = 0.  Any
    other root z on the circle is non-real, and its conjugate 1/z is a root
    too.  So a quadratic q0 + q1 x + q2 x^2 has one iff q0 = q2 and its
    discriminant is negative.  A cubic's third root is then -c0/c3, so it
    has one iff -c0/c3 is a root and the cofactor x^2 + s x + 1,
    s = (c2 - c0)/c3, has no real root.  Higher degrees take the
    reciprocal gcd and a Sturm count (_circle_roots_by_sturm).
    """
    if not p:
        raise ValueError("zero polynomial")
    q = trim(p)
    i = 0
    while i < len(q) and q[i] == 0:
        i += 1
    q = trim(q[i:])  # strip roots at 0, which have modulus 0
    if degree(q) <= 0:
        return False
    if eval_at(q, 1) == 0 or eval_at(q, -1) == 0:
        return True
    if len(q) == 3:
        return q[0] == q[2] and q[1] * q[1] < 4 * q[0] * q[2]
    if len(q) == 4:
        c0, c1, c2, c3 = q
        return c3 * c3 - c1 * c3 + c0 * c2 - c0 * c0 == 0 and (c2 - c0) ** 2 < 4 * c3 * c3
    return _circle_roots_by_sturm(q)


def _circle_roots_by_sturm(q: Poly) -> bool:
    """Whether q, with q(0) != 0 and no root at +-1, has a root of modulus
    one.

    Roots of modulus one are shared with the reciprocal polynomial, so they
    divide g = gcd(q, rev q).  g is then self-reciprocal of even degree and
    its circle roots correspond to real roots of the half-degree transform
    in the open interval (-2, 2), which a Sturm count decides exactly.
    """
    g = poly_gcd(q, reverse(q))
    if degree(g) <= 0:
        return False
    # g has root set closed under z -> 1/z and no root at +-1, hence it is
    # self-reciprocal of even degree.
    if g != reverse(g) or degree(g) % 2 != 0:
        raise InternalInconsistencyError("reciprocal gcd lost self-reciprocality")
    half = _even_reciprocal_to_half(g)
    return count_real_roots_open(half, Fraction(-2), Fraction(2)) > 0


def integer_roots(p: Poly) -> list[int]:
    """All integer roots of a nonzero polynomial: for a cubic by bisection
    (_cubic_integer_roots), otherwise among the divisors of the constant
    term once the roots at 0 are stripped."""
    q = trim(p)
    if not q:
        raise ValueError("zero polynomial")
    i = 0
    while q[i] == 0:
        i += 1
    roots = [0] if i > 0 else []
    q = q[i:]
    if len(q) == 4:
        roots += _cubic_integer_roots(q)
    elif len(q) > 1:
        for d in divisors(q[0]):
            if eval_at(q, d) == 0:
                roots.append(d)
            if eval_at(q, -d) == 0:
                roots.append(-d)
    return sorted(roots)


def _cubic_integer_roots(f: Poly) -> list[int]:
    """Integer roots of a cubic f with f(0) != 0, in integers only.

    An integer root divides f(0), so it lies in [-|f(0)|, |f(0)|].  f is
    strictly monotone on each side of its critical points
    (-c2 +- sqrt(c2^2 - 3 c1 c3)) / (3 c3), so cutting that range after the
    floor of each leaves pieces that hold at most one root each, found by
    bisection.
    """
    c0, c1, c2, c3 = f
    bound = abs(c0)
    cuts: list[int] = []
    disc = c2 * c2 - 3 * c1 * c3
    if disc > 0:
        # the critical points are (u -+ sqrt(disc)) / k with k > 0, in
        # ascending order; floor(u + sqrt(disc)) = u + r, and
        # floor(u - sqrt(disc)) = u - r - 1 unless disc is a square
        u, k = (-c2, 3 * c3) if c3 > 0 else (c2, -3 * c3)
        r = isqrt(disc)
        cuts = [(u - r - (r * r != disc)) // k, (u + r) // k]
    roots = []
    for lo, hi in zip([-bound] + [m + 1 for m in cuts], cuts + [bound]):
        x = _monotone_zero(f, max(lo, -bound), min(hi, bound))
        if x is not None:
            roots.append(x)
    return roots


def _monotone_zero(f: Poly, lo: int, hi: int) -> int | None:
    """The integer zero of f in [lo, hi], where f is strictly monotone, or
    None (also for an empty range)."""
    if lo > hi:
        return None
    a, b = eval_at(f, lo), eval_at(f, hi)
    if a == 0:
        return lo
    if b == 0:
        return hi
    if (a > 0) == (b > 0):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        v = eval_at(f, mid)
        if v == 0:
            return mid
        if (v > 0) == (a > 0):
            lo = mid
        else:
            hi = mid
    return None


@functools.lru_cache(maxsize=2)
def is_irreducible_deg_le4(p: Poly) -> bool:
    """Exact irreducibility over Q for monic p of degree 2..4.

    Monic integer polynomials factor into monic integer polynomials, so it is
    enough to exclude integer roots and, in degree 4, integer quadratic
    factors x^2 + a x + b with b dividing the constant term.  Outside the
    cubic both factor the constant term, and one decision on a 3 x 3 or
    4 x 4 pair asks three times about the same characteristic polynomial
    (the ideal route's gate, then the field of each eigen ideal; a 2 x 2
    pair is decided by its binary quadratic forms and never asks), so the
    last two answers are kept.
    """
    n = degree(p)
    if not is_monic(p) or n < 2 or n > 4:
        raise ValueError("supported: monic, degree 2..4")
    if integer_roots(p):
        return False
    if n < 4:
        return True
    p0, p1, p2, p3 = p[0], p[1], p[2], p[3]
    for b in divisors(p0):
        for bb in (b, -b):
            if p0 % bb != 0:
                continue
            d = p0 // bb
            # (x^2 + a x + bb)(x^2 + c x + d): match remaining coefficients
            if bb == d:
                # a + c = p3, ac = p2 - 2 bb, and p1 = a d + bb c = bb p3 must hold
                if p1 != bb * p3:
                    continue
                disc = p3 * p3 - 4 * (p2 - 2 * bb)
                if disc >= 0 and _is_square(disc) and (p3 + isqrt(disc)) % 2 == 0:
                    return False
            else:
                num = p1 - p3 * bb
                if num % (d - bb) != 0:
                    continue
                a = num // (d - bb)
                c = p3 - a
                if bb + d + a * c == p2:
                    return False
    return True


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def to_str(p: Poly) -> str:
    """Render in the CLI grammar, e.g. 'x^3-23x^2+7x-1'."""
    if not p:
        return "0"
    parts: list[str] = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            xs = "x" if i == 1 else f"x^{i}"
            body = xs if mag == 1 else f"{mag}{xs}"
        parts.append(sign + body)
    return "".join(parts)


def parse(text: str) -> Poly:
    """Parse the integer-coefficient grammar: signs, optional coefficient,
    optional x with caret power; whitespace is ignored."""
    s = "".join(text.split())
    if not s:
        raise ValueError("empty polynomial")
    import re

    term = re.compile(r"([+-]?)(\d*)(x(?:\^(\d+))?)?")
    coeffs: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = term.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad polynomial syntax near {s[pos:]!r}")
        sign_s, coef_s, xpart, pow_s = m.groups()
        if not sign_s and not first:
            raise ValueError(f"missing sign near {s[pos:]!r}")
        if not coef_s and not xpart:
            raise ValueError(f"empty term near {s[pos:]!r}")
        sign = -1 if sign_s == "-" else 1
        coef = int(coef_s) if coef_s else 1
        if xpart:
            power = int(pow_s) if pow_s else 1
        else:
            power = 0
        coeffs[power] = coeffs.get(power, 0) + sign * coef
        pos = m.end()
        first = False
    out = [0] * (max(coeffs) + 1)
    for k, v in coeffs.items():
        out[k] = v
    return trim(out)
