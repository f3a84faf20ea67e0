"""Closed-form parameter arithmetic for the two exceptional design
families, with the Mersenne/Fermat primality side conditions and the
Diophantine forcing of the orbit parameters in the even-characteristic
coset geometry."""
from __future__ import annotations

import sys
from dataclasses import dataclass
from math import isqrt

from .designs import ParameterSet
from .errors import InputError, ResourceLimitError
from .suzuki import _check_q

FORCING_TERM_LIMIT = 1 << 16   # orbits, q/2, that g2_orbit_forcing lists


def is_mersenne_prime(m: int) -> bool:
    """True iff m = 2^p - 1 for some p and m is prime.

    2^p - 1 is composite for composite p.  For an odd prime p the
    Lucas-Lehmer test decides it: with s = 4 and s -> s^2 - 2, 2^p - 1
    is prime iff s is 0 mod 2^p - 1 after p - 2 steps."""
    if m < 1:
        raise InputError("argument must be positive")
    if m & (m + 1):  # not of the form 2^p - 1
        return False
    p = m.bit_length()
    if p < 3:  # 2^1 - 1 = 1 is not prime, 2^2 - 1 = 3 is
        return p == 2
    if any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        return False
    s = 4
    for _ in range(p - 2):
        s = (s * s - 2) % m
    return s == 0


def is_fermat_prime(m: int) -> bool:
    """True iff m = 2^(2^t) + 1 and m is prime.

    F_0 = 3 is prime.  For t >= 1 Pepin's test decides it: F is prime iff
    3^((F-1)/2) is -1 mod F."""
    if m < 2:
        raise InputError("argument must be at least 2")
    e = m - 1
    if e & (e - 1):  # m - 1 not a power of two
        return False
    n = e.bit_length() - 1  # m = 2^n + 1
    if n == 0 or n & (n - 1):  # n itself must be a power of two
        return False
    return m == 3 or pow(3, e // 2, m) == m - 1


def _log2_even_q(q: int) -> int:
    """log2 q, for q a power of two with q >= 4; InputError otherwise."""
    f = q.bit_length() - 1
    if q < 4 or (1 << f) != q:
        raise InputError(f"q={q} must be a power of two, q >= 4")
    return f


def _checked(q, params):
    """params, once they pass `check_identities`.  A parameter with more
    digits than Python converts to a string (a limit of 0 is none) is an
    InputError first, so q is refused before its primality test and before
    any message prints the number."""
    digits = sys.get_int_max_str_digits()
    if digits and max(params.astuple()) >= 10 ** digits:
        raise InputError(f"q=2^{q.bit_length() - 1} gives parameters of more than {digits} digits")
    params.check_identities()
    return params


@dataclass
class FamilyParams:
    family: str
    q: int
    params: ParameterSet
    prime_condition: str
    condition_holds: bool


def suzuki_params(q: int) -> FamilyParams:
    """Ovoid family: (q^2+1, q(q^2+1), q^2, q, q-1), q = 2^(2a+1) >= 8.

    The block count comes from bk = vr; the identities are re-checked on
    the constructed parameter set."""
    _check_q(q)
    params = _checked(q, ParameterSet(q * q + 1, q * (q * q + 1), q * q, q, q - 1))
    return FamilyParams("Suzuki", q, params, f"Mersenne({q - 1})",
                        is_mersenne_prime(q - 1))


def g2_params(q: int) -> FamilyParams:
    """Even-q family: (q^3(q^3-1)/2, (q+1)(q^6-1), (q+1)(q^3+1), q^3/2, q+1)."""
    _log2_even_q(q)
    lam = q + 1
    params = _checked(q, ParameterSet(q**3 * (q**3 - 1) // 2, lam * (q**6 - 1),
                                      lam * (q**3 + 1), q**3 // 2, lam))
    return FamilyParams("G2", q, params, f"Fermat({q + 1})", is_fermat_prime(q + 1))


@dataclass
class OrbitForcing:
    """Forced parameters of the point-stabilizer-orbit 1-designs."""

    q: int
    orbit_lengths: list[int]
    k_j: list[int]
    r_j: list[int]
    b_j: int


def g2_orbit_forcing(q: int) -> OrbitForcing:
    """Solve the orbit-counting relations exactly.

    With orbit lengths q^2(q^3+1) (q/2-1 times) and (q^2-1)(q^3+1), and
    every 1-design having b_j = (q+1)(q^3+1) blocks, the counting
    relations force k_j = q^2 except k_{q/2} = q^2-1, with r_j = q+1
    throughout.  Above FORCING_TERM_LIMIT orbits the q/2 terms are
    refused before any list is built."""
    _log2_even_q(q)
    half = q // 2
    if half > FORCING_TERM_LIMIT:
        raise ResourceLimitError(f"q={q} gives {half} orbits, above limit {FORCING_TERM_LIMIT}")
    lengths = [q * q * (q**3 + 1)] * (half - 1) + [(q * q - 1) * (q**3 + 1)]
    b_j = (q + 1) * (q**3 + 1)

    # b_j k_j = |O_j| r_j with gcd(q+1, q^2) = 1 forces q^2 | k_j for j < q/2
    # and (q-1) | k_last; the total q^3/2 - 1 then makes k_last + 1 a positive
    # multiple of q^2, and q/2 positive multiples of q^2 summing to q^3/2 are
    # all q^2.
    total = q**3 // 2 - 1
    k_j = [q * q] * (half - 1) + [q * q - 1]
    if sum(k_j) != total:
        raise AssertionError("k_j do not sum to k-1")
    r_j = []
    for length, k in zip(lengths, k_j):
        num = b_j * k
        if num % length:
            raise AssertionError("1-design identity b_j k_j = v_j r_j fails")
        r_j.append(num // length)
    if any(r != q + 1 for r in r_j):
        raise AssertionError("forced replication is not q+1")
    return OrbitForcing(q, lengths, k_j, r_j, b_j)


def lemma38_block_stabilizer_order(q: int, f1: int) -> int:
    """f1 * q^6 (q^2-1) / lambda with lambda = q+1, for f1 dividing log2 q.

    Non-integrality would signal infeasibility; for lambda = q+1 the
    factor q^2-1 = (q-1)(q+1) always absorbs it."""
    f = _log2_even_q(q)
    if f1 < 1 or f % f1:
        raise InputError(f"f1={f1} must divide log2(q)={f}")
    lam = q + 1
    num = f1 * q**6 * (q * q - 1)
    if num % lam:
        raise InputError(f"lambda={lam} does not divide {num}: infeasible")
    return num // lam
