"""Exact rational arithmetic, the classical number tables and integer tuples.

Everything here is computed over ``fractions.Fraction`` (arbitrary precision,
always reduced), so downstream symbolic work never sees rounding.  The module
holds the memoized tables and the Pochhammer polynomials:

- Bernoulli numbers ``B_n`` (convention ``B_1 = -1/2``) and their "star"
  companions ``B*_n = (-1)^n B_n``, and the ratios ``B_n/n!`` and ``B*_n/n!``,
- signed Stirling numbers of the first kind ``s(n, k)``,
- rising-factorial (Pochhammer) polynomials ``(s)_k``, extended to the
  reciprocal marker ``(s)_{-1} = 1/(s-1)``,
- the weak compositions of an integer, which every enumeration of integer
  tuples with a fixed sum reads.

The tables are :func:`config.memo` entries; a cold call does not recurse,
and all returned values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, pairwise
from math import factorial
from typing import Iterator, Union

import mpmath

from .config import memo

Number = Union[int, float, complex, Fraction]


@memo(key=lambda n, star=False: (n, star))
def bernoulli(n: int, star: bool = False) -> Fraction:
    """Return B_n, or B*_n = (-1)^n B_n when ``star`` is set (mpmath's exact
    ``bernfrac``)."""
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    b = Fraction(*mpmath.bernfrac(n))
    return -b if star and n % 2 == 1 else b


@memo(key=lambda k, star: (k, star))
def _bernoulli_ratio(k: int, star: bool) -> Fraction:
    return bernoulli(k, star) / factorial(k)


@memo(key=lambda n, star=False: (n, star))
def bernoulli_ratios(n: int, star: bool = False) -> tuple[Fraction, ...]:
    """(B_0/0!, .., B_n/n!), or the B*_k/k! when ``star`` is set.  Each ratio
    is divided out once, so a cold call costs n lookups and no recursion."""
    return tuple(_bernoulli_ratio(k, star) for k in range(n + 1))


@memo(key=lambda n: n)
def _stirling_row(n: int) -> tuple[int, ...]:
    """(s(n, 0), .., s(n, n)), by s(n, k) = s(n-1, k-1) - (n-1) s(n-1, k) from the
    nearest memoised row below, in a local loop: only rows asked for are kept."""
    start = max((m for m in list(_stirling_row.cache) if m < n), default=0)  # a copy: threads may add rows
    row = _stirling_row.cache.get(start, (1,))
    for m in range(start + 1, n + 1):
        prev = (*row, 0)
        row = tuple((prev[k - 1] if k else 0) - (m - 1) * prev[k] for k in range(m + 1))
    return row


def stirling_first(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k).

    Sign convention: s(n, k) = (-1)^{n-k} [n choose-cycles k], equivalently
    the coefficients of the falling factorial.
    """
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"Stirling index out of range: ({n}, {k})")
    return _stirling_row(n)[k]


def compositions(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    """The weak compositions of n into ``parts`` parts, in lexicographic order.

    Stars and bars: each choice of parts - 1 bar slots among n + parts - 1
    cuts the n stars into one composition.  Nothing for n < 0.
    """
    if n < 0 or parts == 0:
        if n == parts == 0:
            yield ()
        return
    slots = n + parts - 1
    for bars in combinations(range(slots), parts - 1):
        yield tuple(b - a - 1 for a, b in pairwise((-1, *bars, slots)))


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


def pochhammer(k: int) -> PochhammerPoly:
    """Return (s)_k as a :class:`PochhammerPoly` (k = -1 gives the marker)."""
    if k < -1:
        raise ValueError("Pochhammer order must be >= -1")
    if k == -1:
        return PochhammerPoly(-1, ())
    # (s)_k = sum_j |s(k, j)| s^j
    return PochhammerPoly(k, tuple(Fraction(abs(c)) for c in _stirling_row(k)))


def rising(s: Number, k: int) -> Number:
    """Numeric (s)_k for k >= 0, with (s)_{-1} = 1/(s-1): the one evaluator
    of the rising factorial (:func:`pochhammer` gives its coefficients)."""
    if k < -1:
        raise ValueError("Pochhammer order must be >= -1")
    if k == -1:
        return 1 / (s - 1)
    acc: Number = 1
    for i in range(k):
        acc = acc * (s + i)
    return acc
