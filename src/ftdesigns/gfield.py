"""Characteristic-2 finite fields GF(2^m) on int-encoded elements.

Elements are ints in [0, 2^m); addition is XOR, multiplication is
carryless product reduced by a pinned primitive polynomial.  Log/antilog
tables make bulk multiplication cheap.
"""
from __future__ import annotations

import numpy as np

from .errors import InputError

# Pinned primitive polynomials (bitmask includes the leading term).
PRIMITIVE_POLYS = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


class GF:
    """Field descriptor for GF(2^m) with the pinned primitive polynomial."""

    def __init__(self, m: int):
        if not 1 <= m <= 16:
            raise InputError(f"m={m} outside supported range 1..16")
        self.m = m
        self.size = 1 << m
        self.poly = PRIMITIVE_POLYS[m]
        self._build_tables()

    def _build_tables(self):
        n = self.size
        exp = np.zeros(2 * n, dtype=np.int64)
        log = np.zeros(n, dtype=np.int64)
        x = 1
        for i in range(n - 1):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & n:
                x ^= self.poly
        if x != 1:
            raise InputError(f"polynomial {self.poly:#b} is not primitive for m={self.m}")
        exp[n - 1:2 * n - 2] = exp[:n - 1]
        self._exp = exp
        self._log = log

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return int(self._exp[self._log[a] + self._log[b]])

    def pow(self, a, e):
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise InputError("zero has no negative powers")
            return 0
        return int(self._exp[(self._log[a] * e) % (self.size - 1)])

    def mul_array(self, a, b):
        """Elementwise product of integer arrays over the field."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = self._exp[self._log[a] + self._log[b]]
        return np.where((a == 0) | (b == 0), 0, out)

    def __repr__(self):
        return f"GF(2^{self.m}, poly={self.poly:#b})"
