import random
from math import isqrt

import pytest

from gordian import numtheory
from gordian.numtheory import (
    MR_LIMIT,
    Undecided,
    factorize,
    is_prime,
    jacobi,
    pell_unit,
    square_root,
)


def _prime_by_trial(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _product(factors):
    out = 1
    for p, k in factors.items():
        out *= p**k
    return out


class TestIsPrime:
    def test_agrees_with_trial_division_below_1e5(self):
        assert all(is_prime(n) == _prime_by_trial(n) for n in range(100_000))

    def test_strong_pseudoprimes_are_composite(self):
        # 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7;
        # 3825123056546413051 to every prime base up to 23
        assert is_prime(3215031751) is False
        assert is_prime(3825123056546413051) is False

    def test_large_primes(self):
        assert is_prime(10**18 + 9) is True
        assert is_prime(2**61 - 1) is True

    def test_not_certified_at_the_limit(self):
        # MR_LIMIT itself is composite and passes every base
        assert is_prime(MR_LIMIT) is None
        assert is_prime(2**89 - 1) is None
        assert is_prime(MR_LIMIT + 1) is False


class TestJacobi:
    def test_minus_one_means_no_root(self):
        for n in range(1, 120, 2):
            squares = {x * x % n for x in range(n)}
            for a in range(n):
                j = jacobi(a, n)
                assert j in (-1, 0, 1)
                if j == -1:
                    assert a not in squares
                if _prime_by_trial(n):
                    assert (j == 1) == (a % n != 0 and a in squares)

    def test_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            jacobi(3, 10)


class TestFactorize:
    def test_random_products(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randrange(1, 10**15)
            factors = factorize(n)
            assert _product(factors) == n
            assert all(is_prime(p) for p in factors)

    def test_two_large_factors(self):
        n = (10**9 + 7) * (10**9 + 9) * (2**31 - 1)
        assert factorize(n) == {10**9 + 7: 1, 10**9 + 9: 1, 2**31 - 1: 1}

    def test_prime_powers(self):
        assert factorize(3**40 * 5**3 * (10**12 + 39)) == {3: 40, 5: 3, 10**12 + 39: 1}
        assert factorize(1009**2 * 1013**3) == {1009: 2, 1013: 3}
        assert factorize(1) == {}

    def test_budget_runs_out(self, monkeypatch):
        monkeypatch.setattr(numtheory, "FACTOR_STEP_BUDGET", 1000)
        with pytest.raises(Undecided, match="factoring budget of 1000"):
            factorize((10**12 + 39) * (10**12 + 61))

    def test_uncertified_cofactor(self):
        with pytest.raises(Undecided, match="certified primality limit"):
            factorize(3 * (2**89 - 1))


class TestSquareRoots:
    def test_square_root_by_scan(self):
        for n in list(range(1, 200, 2)) + [3**7, 5**5, 3**4 * 7**3, 3 * 5 * 7 * 11 * 13]:
            factors = factorize(n)
            for a in range(0, n, max(1, n // 100)):
                x = square_root(a, n, factors)
                if x is None:
                    assert all((y * y - a) % n for y in range(n)), (a, n)
                else:
                    assert 0 <= x < n and (x * x - a) % n == 0, (a, n)

    def test_eighteen_primes(self):
        # 2^18 roots modulo n, of which one is built
        n = _product({p: 1 for p in range(3, 68) if _prime_by_trial(p)})
        factors = factorize(n)
        assert len(factors) == 18
        a = (2**61 - 1) ** 2 % n
        x = square_root(a, n, factors)
        assert 0 <= x < n and (x * x - a) % n == 0


class TestPell:
    def test_units(self):
        assert pell_unit(5) == (9, 4)
        assert pell_unit(13) == (649, 180)
        assert pell_unit(61) == (1766319049, 226153980)

    def test_smallest_by_scan(self):
        for D in range(2, 60):
            if isqrt(D) ** 2 == D:
                continue
            y = 1
            while isqrt(1 + D * y * y) ** 2 != 1 + D * y * y:
                y += 1
            x1, y1 = pell_unit(D)
            assert (x1 * x1 - D * y1 * y1, y1) == (1, y)

    def test_limit(self):
        assert pell_unit(61, q_limit=10**6) is None
        with pytest.raises(ValueError):
            pell_unit(49)
