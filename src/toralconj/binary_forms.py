"""Proper classes of binary quadratic forms: the exact n = 2 stage of decide.

A = [[a, b], [c, d]] gives F_A(v) = det(v, A v) = c x^2 + (d - a) x y - b y^2
for v = (x, y), so F_{P^-1 A P} = det(P) F_A o P for P in GL(2, Z).  A form
fixes a matrix up to a multiple of I, so for A, B with one characteristic
polynomial B = P^-1 A P iff F_B = det(P) F_A o P: A and B are conjugate iff
F_B is properly (SL(2, Z)-) equivalent to F_A or to -F_A(x, -y)
(Latimer-MacDuffee 1933).  Each proper class gets a canonical representative
(Buchmann-Vollmer, *Binary Quadratic Forms*, 2007), by the discriminant D:

* D < 0: the Gauss-reduced form |b| <= a <= c, b >= 0 when |b| = a or a = c
  (of -f for a negative definite f, negated);
* D > 0 not a square: the least (a, b, c) among the Zagier-reduced forms
  (a, c > 0, b > a + c) of the class with w = (b + sqrt D) / 2a > 2, on a
  walk that runs each stretch of steps w -> 1 / (2 - w) as one step;
* D = s^2 > 0: (0, s, t mod s), a rational zero moved to (1, 0);
* D = 0: (0, 0, +-g) for f = +-g (p x + q y)^2.

Forms are (a, b, c) for a x^2 + b x y + c y^2, and f o M is the form
v -> f(M v).
"""

from math import gcd, isqrt

from . import exact_linalg as xl
from .errors import InternalInconsistencyError

Mat = xl.Mat
Form = tuple[int, int, int]

# Zagier walk steps per form; a class that needs more is left undecided
# here.  With det A = +-1 the eigenvalue is a unit, and the cycle walk is
# as short as the continued fraction of the fundamental unit
MAX_STEPS = 2_000

_S = ((0, -1), (1, 0))


def form_of(A: Mat) -> Form:
    (a, b), (c, d) = A
    return c, d - a, -b


def act(f: Form, M: Mat) -> Form:
    a, b, c = f
    (p, q), (r, s) = M
    return (
        a * p * p + b * p * r + c * r * r,
        2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
        a * q * q + b * q * s + c * s * s,
    )


def _mul(M: Mat, N: Mat) -> Mat:
    """The 2 x 2 product M N, without the general mat_mul's row lists."""
    (p, q), (r, s) = M
    (t, u), (v, w) = N
    return (p * t + q * v, p * u + q * w), (r * t + s * v, r * u + s * w)


def _sl2_inverse(M: Mat) -> Mat:
    (p, q), (r, s) = M
    return (s, -q), (-r, p)


def _gauss(f: Form) -> tuple[Form, Mat]:
    """The reduced form of a positive definite f and M with f o M = it."""
    M = xl.identity(2)
    while True:
        a, b, c = f
        k = (a - b) // (2 * a)  # b + 2 a k in (-a, a]
        if k:
            T = ((1, k), (0, 1))
            f, M = act(f, T), _mul(M, T)
        a, b, c = f
        if a < c or (a == c and b >= 0):
            return f, M
        f, M = act(f, _S), _mul(M, _S)


def _floor(u: int, v: int, r: int) -> int:
    """floor((u + sqrt D) / v) for v != 0, r = isqrt(D), sqrt D irrational."""
    return (u + r) // v if v > 0 else -((u + r) // -v) - 1


def _zagier_step(f: Form, r: int) -> Mat:
    """The SL(2, Z) matrix of one walk step from f: w -> 1 / (n - w) with
    n = ceil(w), or, when n = 2, the k = floor(1 / (w - 1)) such steps that
    bring w above 2 ([[2, 1], [-1, 0]]^k = [[k + 1, k], [-k, 1 - k]])."""
    a, b, c = f
    n = _floor(b, 2 * a, r) + 1
    if n != 2:
        return (n, 1), (-1, 0)
    k = _floor(2 * a - b, 2 * (b - a - c), r)
    return (k + 1, k), (-k, 1 - k)


def _zagier(f: Form, r: int) -> tuple[Form, Mat, int] | None:
    """The walk of f onto its cycle and once round it, or None after
    MAX_STEPS steps."""

    def on_cycle(g):
        a, b, c = g
        return a > 0 and c > 0 and b > a + c and b + r >= 4 * a

    M, steps = xl.identity(2), 0
    while not on_cycle(f):
        if steps == MAX_STEPS:
            return None
        step = _zagier_step(f, r)
        f, M, steps = act(f, step), _mul(M, step), steps + 1
    start, best = f, (f, M)
    while True:
        if steps == MAX_STEPS:
            return None
        step = _zagier_step(f, r)
        f, M, steps = act(f, step), _mul(M, step), steps + 1
        if f == start:
            return best[0], best[1], steps
        if on_cycle(f) and f < best[0]:
            best = f, M


def _split(f: Form, s: int) -> tuple[Form, Mat]:
    """(0, s, t mod s) for D = s^2 > 0: of the two rational zeros, the one
    that o M moves to (1, 0) with middle coefficient +s, not -s."""
    a, b, c = f
    zeros = [(1, 0), (-c, b)] if a == 0 else [(s - b, 2 * a), (-s - b, 2 * a)]
    for p, r in zeros:
        g = gcd(p, r)
        p, r = p // g, r // g
        x, y, _ = xl._xgcd(p, r)
        M = ((p, -y), (r, x))
        t = act(f, M)
        if t[1] == s:
            T = ((1, -(t[2] // s)), (0, 1))
            return (0, s, t[2] % s), _mul(M, T)
    raise InternalInconsistencyError(f"no zero of {f} gives the middle coefficient {s}")


def _degenerate(f: Form) -> tuple[Form, Mat]:
    """(0, 0, g) for D = 0 and f = g (p x + q y)^2, gcd(p, q) = 1."""
    a, b, c = f
    if f == (0, 0, 0):
        return f, xl.identity(2)
    g = gcd(a, b, c) * (1 if a > 0 or c > 0 else -1)
    p, q = isqrt(a // g), isqrt(c // g)
    if b // g < 0:
        q = -q
    x, y, _ = xl._xgcd(q, -p)
    return (0, 0, g), ((q, -y), (-p, x))


def proper_class(f: Form) -> tuple[Form, Mat, int] | None:
    """(g, M, steps): the canonical representative g of the proper class
    of f, M in SL(2, Z) with f o M = g, and the walk steps taken; None when
    the walk reaches MAX_STEPS."""
    a, b, c = f
    D = b * b - 4 * a * c
    if D < 0:
        if a > 0:
            return *_gauss(f), 0
        g, M = _gauss((-a, -b, -c))
        return (-g[0], -g[1], -g[2]), M, 0
    if D == 0:
        return *_degenerate(f), 0
    r = isqrt(D)
    if r * r == D:
        return *_split(f, r), 0
    return _zagier(f, r)


def compare(A: Mat, B: Mat) -> tuple[dict, Mat | None]:
    """For 2 x 2 A, B with one characteristic polynomial: the record
    {"discriminant", "left": [class of F_A, class of -F_A(x, -y)],
    "right": class of F_B, "steps"}, each class its canonical
    representative, and C with A C = C B, det C = +-1 when right is in
    left, else None.  When a walk reaches MAX_STEPS the record is
    {"discriminant", "step_cap"} and C is None."""
    fa, fb = form_of(A), form_of(B)
    a, b, c = fa
    record: dict = {"discriminant": b * b - 4 * a * c}
    reduced = []
    for f in (fa, (-a, b, -c), fb):
        reduced.append(proper_class(f))
        if reduced[-1] is None:
            record["step_cap"] = MAX_STEPS
            return record, None
    (ga, Ma, na), (gr, Mr, nr), (gb, Mb, nb) = reduced
    record.update(left=[list(ga), list(gr)], right=list(gb), steps=na + nr + nb)
    # F_A o Ma = F_B o Mb gives F_B = F_A o P with P = Ma Mb^-1; and
    # -F_A(x, -y) o Mr = F_B o Mb gives F_B = -F_A o P with P = R Mr Mb^-1,
    # R = diag(1, -1)
    if gb == ga:
        return record, _mul(Ma, _sl2_inverse(Mb))
    if gb == gr:
        (p, q), (r, s) = _mul(Mr, _sl2_inverse(Mb))
        return record, ((p, q), (-r, -s))
    return record, None
