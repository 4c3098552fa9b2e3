"""Independent checks of `decide` outputs, and an exact oracle for n = 2.

Nothing here imports `toralconj`: certificates, witnesses and 2 x 2 verdicts
are re-derived with the benchmark's own arithmetic (`arith`).  Each check
returns None when the output passes, else a one-line reason.
"""

from math import gcd, isqrt, prod

from arith import char_poly, det, invariant_factors, mat_mul, parse_poly, poly_at_matrix


def check_certificate(A, B, C):
    if C is None:
        return "conjugate verdict without a certificate"
    if mat_mul(A, C) != mat_mul(C, B):
        return "certificate fails A C = C B"
    if det(C) not in (1, -1):
        return "certificate determinant is not +-1"
    return None


def check_bf_witness(A, B, witness):
    """The claimed invariant factors of BF_g(A) and BF_g(B) are re-derived
    from determinantal divisors, and must differ."""
    g = parse_poly(witness["g"])
    for side, M in (("left", A), ("right", B)):
        factors = invariant_factors(poly_at_matrix(g, M))
        claim = witness[side]
        if factors != list(claim["invariant_factors"]) or prod(factors) != claim["order"]:
            return f"BF_{witness['g']} {side}: re-derived factors {factors}, claimed {claim}"
    if witness["left"]["invariant_factors"] == witness["right"]["invariant_factors"]:
        return f"BF_{witness['g']} invariant factors agree, so they refute nothing"
    return None


def check_witness(A, B, witness):
    kind = (witness or {}).get("kind")
    if kind == "bf_screen":
        return check_bf_witness(A, B, witness)
    if len(A) == 2:
        return None  # the n = 2 oracle below decides these
    return f"witness kind {kind!r} has no independent check"


def check_construction(pair, outcome):
    construction = pair["construction"]
    if construction == "conjugate" and outcome == "not_conjugate":
        return "pair is conjugate by construction but was refuted"
    if construction == "worked_pair_1" and outcome != "not_conjugate":
        return f"worked pair 1 must be refuted, got {outcome}"
    if construction == "worked_pair_2" and outcome == "conjugate":
        return "worked pair 2 is not conjugate, got conjugate"
    return None


def check_oracle(pair, outcome):
    if pair["n"] != 2 or outcome not in ("conjugate", "not_conjugate"):
        return None
    truth = "conjugate" if conjugate_2x2(pair["A"], pair["B"]) else "not_conjugate"
    if outcome != truth:
        return f"2x2 oracle says {truth}, decide said {outcome}"
    return None


def check_output(pair, outcome, certificate, witness):
    """All failed checks of one `decide(A, B)` output."""
    A, B = pair["A"], pair["B"]
    reasons = [check_construction(pair, outcome), check_oracle(pair, outcome)]
    if outcome == "conjugate":
        reasons.append(check_certificate(A, B, certificate))
    elif outcome == "not_conjugate":
        reasons.append(check_witness(A, B, witness))
    elif outcome != "unknown":
        reasons.append(f"unexpected outcome {outcome!r}")
    return [r for r in reasons if r]


# ------------------------------------------------------------ n = 2 oracle
#
# A = [[a, b], [c, d]] gives the binary quadratic form
#   F_A(x, y) = c x^2 + (d - a) x y - b y^2,   disc = trace^2 - 4 det,
# and F_{P^-1 A P}(v) = det(P) F_A(P v) for P in GL(2, Z).  Two matrices with
# one characteristic polynomial are therefore GL(2, Z)-conjugate iff F_B is
# properly (SL(2, Z)-) equivalent to F_A or to -F_A(x, -y).  Proper classes
# are told apart by canonical representatives: the cycle of reduced forms
# for a non-square positive discriminant, the reduced form for a negative
# one, and (0, s, c mod s) for a square discriminant s^2.

def conjugate_2x2(A, B):
    if char_poly(A) != char_poly(B):
        return False
    fa, fb = form_of(A), form_of(B)
    target = form_class(fb)
    return target == form_class(fa) or target == form_class((-fa[0], fa[1], -fa[2]))


def form_of(A):
    (a, b), (c, d) = A
    return (c, d - a, -b)


def form_class(f):
    a, b, c = f
    D = b * b - 4 * a * c
    if D < 0:
        return ("definite",) + (_reduce_definite(f) if a > 0 else _neg(_reduce_definite(_neg(f))))
    s = isqrt(D)
    if s * s == D:
        return ("square", D) + _square_class(f, s)
    return ("cycle", D, min(_reduced_cycle(f, D, s)))


def _neg(f):
    return tuple(-x for x in f)


def _reduce_definite(f):
    """The unique reduced form |b| <= a <= c (b >= 0 if |b| = a or a = c)
    properly equivalent to a positive definite f."""
    a, b, c = f
    D = b * b - 4 * a * c
    while True:
        b = b % (2 * a)
        if b > a:
            b -= 2 * a
        c = (b * b - D) // (4 * a)
        if a <= c:
            break
        a, b, c = c, -b, a
    if b < 0 and a == c:
        b = -b
    return (a, b, c)


def _is_reduced(f, D):
    a, b, _ = f
    if b <= 0 or b * b >= D:
        return False  # need 0 < b < sqrt(D)
    lo, hi = 2 * abs(a) - b, b + 2 * abs(a)
    return hi * hi > D and (lo < 0 or lo * lo < D)


def _rho(f, D, r):
    """Reduction operator (a, b, c) -> (c, s, (s^2 - D) / 4c), s = -b mod 2c
    in (-|c|, |c|] if |c| > sqrt(D), else in (sqrt(D) - 2|c|, sqrt(D))."""
    _, b, c = f
    m = 2 * abs(c)
    if c * c > D:
        s = -b % m
        if s > abs(c):
            s -= m
    else:
        s = r - (r + b) % m
    return (c, s, (s * s - D) // (4 * c))


def _reduced_cycle(f, D, r):
    for _ in range(10_000):
        if _is_reduced(f, D):
            break
        f = _rho(f, D, r)
    else:
        raise ArithmeticError(f"form {f} did not reduce")
    cycle = [f]
    g = _rho(f, D, r)
    while g != f:
        cycle.append(g)
        g = _rho(g, D, r)
        if len(cycle) > 100_000:
            raise ArithmeticError("reduction cycle did not close")
    return cycle


def _square_class(f, s):
    """Class of a form of discriminant s^2: zero form, or (0, s, c mod s)
    reached by moving a rational zero of f to (1, 0)."""
    a, b, c = f
    if s == 0:
        if f == (0, 0, 0):
            return ("zero",)
        return (gcd(a, c) * (1 if (a or c) > 0 else -1),)
    if a == 0:
        roots = [(1, 0), (-c, b)]
    else:
        roots = [(-b + s, 2 * a), (-b - s, 2 * a)]
    for x0, y0 in roots:
        g = gcd(x0, y0)
        p, r = x0 // g, y0 // g
        u, v = _complete(p, r)
        b2 = 2 * a * p * u + b * (p * v + u * r) + 2 * c * r * v
        if b2 == s:
            return (s, (a * u * u + b * u * v + c * v * v) % s)
    raise ArithmeticError(f"no zero of {f} gives middle coefficient {s}")


def _complete(p, r):
    """(u, v) with p v - r u = 1, for coprime p, r."""
    x0, x1, y0, y1, a, b = 1, 0, 0, 1, p, r
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    # x0 p + y0 r = a = +-1
    return (-y0 * a, x0 * a)
