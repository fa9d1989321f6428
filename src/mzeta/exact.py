"""Exact rational arithmetic and the classical number tables.

Everything here is computed over ``fractions.Fraction`` (arbitrary precision,
always reduced), so downstream symbolic work never sees rounding.  The module
holds the memoized tables and the Pochhammer polynomials:

- Bernoulli numbers ``B_n`` (convention ``B_1 = -1/2``) and their "star"
  companions ``B*_n = (-1)^n B_n``, and the ratios ``B_n/n!`` and ``B*_n/n!``,
- signed Stirling numbers of the first kind ``s(n, k)``,
- rising-factorial (Pochhammer) polynomials ``(s)_k``, extended to the
  reciprocal marker ``(s)_{-1} = 1/(s-1)``.

Tables are append-only and guarded by a lock; all returned values are
immutable, so concurrent readers are safe.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Union

Number = Union[int, float, complex, Fraction]

_lock = threading.Lock()
_bernoulli_cache: list[Fraction] = [Fraction(1)]
_stirling_cache: list[list[int]] = [[1]]
_bernoulli_ratio_cache: dict[bool, list[Fraction]] = {False: [], True: []}


def bernoulli(n: int, star: bool = False) -> Fraction:
    """Return B_n, or B*_n = (-1)^n B_n when ``star`` is set.

    Computed by the binomial recurrence sum_{j=0}^{n} C(n+1, j) B_j = 0,
    i.e. B_n = -1/(n+1) * sum_{j<n} C(n+1, j) B_j, and memoized.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    with _lock:
        while len(_bernoulli_cache) <= n:
            m = len(_bernoulli_cache)
            acc = Fraction(0)
            for j, bj in enumerate(_bernoulli_cache):
                acc += comb(m + 1, j) * bj
            _bernoulli_cache.append(-acc / (m + 1))
        value = _bernoulli_cache[n]
    if star and n % 2 == 1:
        return -value
    return value


def bernoulli_ratios(n: int, star: bool = False) -> list[Fraction]:
    """[B_0/0!, .., B_n/n!] (B*_k/k! when ``star``), from one table per variant."""
    table = _bernoulli_ratio_cache[star]
    for k in range(len(table), n + 1):
        ratio = bernoulli(k, star) / factorial(k)
        with _lock:
            if len(table) == k:
                table.append(ratio)
    return table[: n + 1]


def stirling_first(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k).

    Sign convention: s(n, k) = (-1)^{n-k} [n choose-cycles k], equivalently
    the coefficients of the falling factorial.  Recurrence:
    s(n+1, k) = s(n, k-1) - n * s(n, k).
    """
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"Stirling index out of range: ({n}, {k})")
    with _lock:
        while len(_stirling_cache) <= n:
            m = len(_stirling_cache) - 1
            prev = _stirling_cache[-1]
            row = [0] * (m + 2)
            for j in range(m + 2):
                above = prev[j] if j <= m else 0
                left = prev[j - 1] if j >= 1 else 0
                row[j] = left - m * above
            _stirling_cache.append(row)
        return _stirling_cache[n][k]


@dataclass(frozen=True)
class PochhammerPoly:
    """The rising factorial (s)_k as a dense polynomial in s.

    For k >= 0 this is the monic degree-k polynomial s(s+1)...(s+k-1);
    ``(s)_0 = 1``.  The special order k = -1 is kept as an explicit
    reciprocal marker for 1/(s-1) and never expanded: every consumer
    multiplies it into a rational function symbolically.
    """

    k: int
    coeffs: tuple[Fraction, ...]

    @property
    def reciprocal(self) -> bool:
        return self.k == -1

    @property
    def degree(self) -> int:
        return self.k

    def __call__(self, s: Number) -> Number:
        if self.reciprocal:
            return 1 / (s - 1)
        acc: Number = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc


def pochhammer(k: int) -> PochhammerPoly:
    """Return (s)_k as a :class:`PochhammerPoly` (k = -1 gives the marker)."""
    if k < -1:
        raise ValueError("Pochhammer order must be >= -1")
    if k == -1:
        return PochhammerPoly(-1, ())
    coeffs = [Fraction(1)]
    for i in range(k):
        # multiply by (s + i)
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d] += i * c
            nxt[d + 1] += c
        coeffs = nxt
    return PochhammerPoly(k, tuple(coeffs))


def rising(s: Number, k: int) -> Number:
    """Numeric (s)_k for k >= 0, with (s)_{-1} = 1/(s-1).

    Unlike :func:`pochhammer` this evaluates directly and is the workhorse
    of the numeric tail expansions.
    """
    if k < -1:
        raise ValueError("Pochhammer order must be >= -1")
    if k == -1:
        return 1 / (s - 1)
    acc: Number = 1
    for i in range(k):
        acc = acc * (s + i)
    return acc
