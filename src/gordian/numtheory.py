"""Exact integer number theory for the battery's decisions.

Primality by deterministic Miller-Rabin, factoring by trial division and
Pollard-Brent, square roots modulo n by Tonelli-Shanks, a Newton (Hensel)
lift and the Chinese remainder theorem, the Jacobi symbol, and the unit of
the Pell equation x^2 - D y^2 = 1 from the continued fraction of sqrt(D).

Factoring stops at stated limits by raising ``Undecided``; a caller turns
that into an inconclusive verdict.
"""

from __future__ import annotations

from math import gcd, isqrt

# Miller-Rabin with the prime bases 2..41 is exact below MR_LIMIT, the
# smallest strong pseudoprime to all of them (Sorenson and Webster, 2015).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3_317_044_064_679_887_385_961_981

TRIAL_LIMIT = 1000

# Pollard-Brent iterations x -> x^2 + c spent on one factorisation, summed
# over all cofactors and restarts: about 0.4 s of CPU time on one x86 core.
# A prime factor p takes on the order of sqrt(p) steps to split off, so this
# reaches factors up to about 10^11.
FACTOR_STEP_BUDGET = 1 << 20


class Undecided(Exception):
    """A computation stopped at a budget or at the certified primality limit."""


def is_prime(n: int) -> bool | None:
    """Decide whether n is prime.

    Exact for n < MR_LIMIT.  At or above it, a composite found by one of
    the bases gives False, and a number that passes every base gives None:
    probably prime, but not certified.
    """
    if n < 2:
        return False
    for p in MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True if n < MR_LIMIT else None


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a / n) for odd n > 0.  A value of -1 proves that a
    is not a square modulo n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("the Jacobi symbol needs an odd positive modulus")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _brent(n: int, c: int, budget: int):
    """One Pollard-Brent run of x -> x^2 + c modulo the composite n.

    Returns (divisor, steps): a divisor 1 < g <= n (g == n means retry with
    another c), or None when ``budget`` steps were spent without one.
    """
    y, r, q, g, steps = 2, 1, 1, 1, 0
    while g == 1:
        if steps + 2 * r > budget:
            return None, steps
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        steps += r
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = gcd(q, n)
            k += 128
        steps += r
        r *= 2
    if g == n:
        # the batched product hit 0 mod n: step back one at a time
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(abs(x - ys), n)
    return g, steps


def factorize(n: int) -> dict:
    """The prime factorisation of n >= 1 as {p: exponent}.

    Every p returned is certified prime: it is below TRIAL_LIMIT squared
    after trial division, or below MR_LIMIT.  Raises Undecided when the
    Pollard-Brent steps exceed FACTOR_STEP_BUDGET or when a cofactor that
    does not split lies above MR_LIMIT.
    """
    if n < 1:
        raise ValueError("only positive integers are factored")
    budget = FACTOR_STEP_BUDGET
    factors: dict = {}
    # a composite p never divides: its prime factors are already removed
    for p in range(2, TRIAL_LIMIT):
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    pending, spent = [n] if n > 1 else [], 0
    while pending:
        m = pending.pop()
        prime = m < TRIAL_LIMIT * TRIAL_LIMIT or is_prime(m)
        if prime is None:
            raise Undecided(f"the cofactor {m} is above the certified primality limit")
        if prime:
            factors[m] = factors.get(m, 0) + 1
            continue
        c = 1
        while True:
            g, steps = _brent(m, c, budget - spent)
            spent += steps
            if g is None:
                raise Undecided(f"the factoring budget of {budget} Pollard-Brent steps ran out")
            if g != m:
                pending += [g, m // g]
                break
            c += 1
    return factors


def _sqrt_mod_prime(a: int, p: int) -> int:
    """A root of x^2 = a mod the odd prime p, for a nonzero square a (Tonelli-Shanks)."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _prime_power_roots(a: int, p: int, k: int):
    """A root of x^2 = a mod p^k, p an odd prime, or None when there is none:
    of the two root classes modulo m | p^k, the smaller residue (0 if p^k | a)."""
    pk = p**k
    a %= pk
    if a == 0:
        return 0
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    if v % 2 or pow(a, (p - 1) // 2, p) != 1:
        return None
    # x = p^(v/2) z with z^2 = a mod p^(k-v); z is only fixed mod p^(k-v),
    # so x is fixed mod p^(k-v/2)
    top = p ** (k - v)
    z, mod = _sqrt_mod_prime(a % p, p), p
    while mod < top:
        mod = min(mod * mod, top)
        z = (z - (z * z - a) * pow(2 * z, -1, mod)) % mod
    assert (z * z - a) % top == 0
    scale, m = p ** (v // 2), p ** (k - v // 2)
    return min(scale * z % m, scale * (top - z) % m)


def square_root(a: int, n: int, factors: dict):
    """An x in [0, n) with x^2 = a mod n, or None when there is none.

    ``factors`` is the factorisation of the odd modulus n.  The roots modulo
    its prime powers, in increasing order, are joined by the Chinese remainder
    theorem.
    """
    x, modulus = 0, 1
    for p, k in sorted(factors.items()):
        r = _prime_power_roots(a, p, k)
        if r is None:
            return None
        pk = p**k
        x += modulus * ((r - x) * pow(modulus, -1, pk) % pk)
        modulus *= pk
    assert (x * x - a) % n == 0
    return x


def pell_unit(D: int, q_limit: int | None = None):
    """The smallest (x, y) with x, y > 0 and x^2 - D y^2 = 1, for D > 0 not a
    square, from the convergents of the continued fraction of sqrt(D).

    Returns None once a convergent denominator exceeds ``q_limit``; the unit
    then has y > q_limit.
    """
    a0 = isqrt(D)
    if a0 * a0 == D:
        raise ValueError("D must not be a perfect square")
    m, den, a = 0, 1, a0
    p_prev, p, q_prev, q = 1, a0, 0, 1
    while p * p - D * q * q != 1:
        m = den * a - m
        den = (D - m * m) // den
        a = (a0 + m) // den
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        if q_limit is not None and q > q_limit:
            return None
    return p, q
