"""Integer factorization helpers: deterministic Miller-Rabin plus Pollard rho.

Orders of the finite quotient modules can reach ~10^30 for deep tower levels,
so trial division alone is not enough.  The module isomorphism test factors
only after its cheap candidate maps have failed, and then only the largest
invariant factor, which has the primes of the order and fewer bits.
Everything here is deterministic: the rho walk uses fixed increments, so
repeated runs factor identically.  A perfect power r^k is split by an exact
integer k-th root before rho, which would take about sqrt(r) steps to find
its factor r (seconds for the square of a 40-bit prime).
"""

from math import gcd

from .errors import ResourceLimitError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# Witness set is proven deterministic below 3.3 * 10^24; for larger inputs it
# is a strong probable-prime test with no known counterexample.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # n odd composite, no small prime factors.  Floyd's cycle finding on
    # x -> x^2 + c, with a deterministic sequence of increments c.
    for c in range(1, 1000):
        x = 2
        y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ResourceLimitError(f"pollard rho found no factor of {n}")


def _perfect_power(m: int) -> tuple[int, int]:
    """(r, k) with m = r^k for the least prime k that gives one, else (m, 1).
    m has no prime factor up to 47, so r > 2^5 and k <= bit_length / 5."""
    for k in range(2, m.bit_length() // 5 + 1):
        if not is_prime(k):
            continue
        # integer Newton from above converges to the floor of the k-th root
        r = 1 << -(-m.bit_length() // k)
        while True:
            s = ((k - 1) * r + m // r ** (k - 1)) // k
            if s >= r:
                break
            r = s
        if r**k == m:
            return r, k
    return m, 1


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; empty for |n| <= 1."""
    n = abs(n)
    out: dict[int, int] = {}
    if n <= 1:
        return out
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # (m, e): m^e is left to factor
    stack = [(n, 1)] if n > 1 else []
    while stack:
        m, e = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + e
            continue
        r, k = _perfect_power(m)
        if k > 1:
            stack.append((r, e * k))
            continue
        d = _pollard_rho(m)
        stack.append((d, e))
        stack.append((m // d, e))
    return dict(sorted(out.items()))


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of |n| (n != 0)."""
    if n == 0:
        raise ValueError("divisors of 0")
    divs = [1]
    for p, e in factorint(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)
