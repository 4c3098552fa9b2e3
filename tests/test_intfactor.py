import pytest

from toralconj.errors import ResourceLimitError
from toralconj.intfactor import _pollard_rho, divisors, factorint, is_prime


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


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    with pytest.raises(ValueError):
        divisors(0)


def test_pollard_rho_failure_is_a_resource_limit():
    # every increment cycles back to n on a prime, so the walk gives up
    with pytest.raises(ResourceLimitError):
        _pollard_rho(53)
