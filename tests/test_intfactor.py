import pytest

from toralconj.errors import ResourceLimitError
import random

from toralconj.intfactor import _perfect_power, _pollard_rho, divisors, factorint, is_prime


def _trial_division(n):
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorint_matches_trial_division():
    for n in range(2, 3000):
        assert factorint(n) == _trial_division(n)
    assert factorint(1) == {} and factorint(-12) == {2: 2, 3: 1}


def test_factorint_rho_split():
    # two primes above the trial-division range, so the rho walk must split
    p, q = 1000003, 999983
    assert is_prime(p) and is_prime(q)
    assert factorint(p * q * q) == {q: 2, p: 1}


def test_factorint_perfect_powers_skip_rho(monkeypatch):
    # rho on p^2 or 7 p^3 takes seconds; the k-th root splits both at once
    p = 10**12 + 39
    assert is_prime(p)

    def no_rho(n):
        raise AssertionError(f"rho called on {n}")

    monkeypatch.setattr("toralconj.intfactor._pollard_rho", no_rho)
    assert factorint(p**2) == {p: 2}
    assert factorint(7 * p**3) == {7: 1, p: 3}
    # a sixth power is a square of a cube
    assert factorint(p**6) == {p: 6}


def test_factorint_product_of_two_40_bit_primes():
    # no perfect power, so rho splits it
    p, q = 549755813911, 1099511627791
    assert is_prime(p) and is_prime(q)
    assert factorint(p * q) == {p: 1, q: 1}


def test_factorint_square_of_a_composite():
    # the square root is split by rho in turn
    p, q = 1000003, 999983
    assert factorint((p * q) ** 2 * 5) == {5: 1, q: 2, p: 2}


def test_perfect_power_matches_powers():
    rng = random.Random(11)
    for _ in range(300):
        r = rng.randrange(53, 10**8)
        k = rng.choice((1, 2, 3, 5, 7, 11))
        m = r**k
        root, e = _perfect_power(m)
        # m is a k-th power, hence a q-th one for the primes q | k, and the
        # least prime exponent is found
        assert root**e == m and (k == 1 or 1 < e <= k)
    # one more than a square is none, whatever its size
    assert _perfect_power((10**20 + 39) ** 2 + 1)[1] == 1


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    with pytest.raises(ValueError):
        divisors(0)


def test_pollard_rho_failure_is_a_resource_limit():
    # every increment cycles back to n on a prime, so the walk gives up
    with pytest.raises(ResourceLimitError):
        _pollard_rho(53)
