"""Exact rational arithmetic, the classical number tables and integer tuples.

Everything here is computed over ``fractions.Fraction`` (arbitrary precision,
always reduced), so downstream symbolic work never sees rounding.  The module
holds the memoized tables:

- Bernoulli numbers ``B_n`` (convention ``B_1 = -1/2``) and their "star"
  companions ``B*_n = (-1)^n B_n``, and the ratios ``B_n/n!`` and ``B*_n/n!``,
- the weak compositions of an integer, which every enumeration of integer
  tuples with a fixed sum reads.

The tables are :func:`config.memo` entries; a cold call does not recurse,
and all returned values are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, pairwise
from math import factorial
from typing import Iterator

import mpmath

from .config import memo


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
