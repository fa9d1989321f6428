"""Runtime limits, numeric coercions and the memo shared by the numeric modules."""

from __future__ import annotations

import functools
import os
from fractions import Fraction

import mpmath
from mpmath import mp

DEFAULT_MAX_N = 2**20
MIN_MAX_N = 16  # the least cap, and the first level of the zeta-value schedule
DEPTH_CAP = 6


def to_mpf(x) -> mpmath.mpf:
    """mpf at the ambient precision; accepts Fraction (mpmath's ctor doesn't)."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def to_mpc(x) -> mpmath.mpc:
    if isinstance(x, Fraction):
        return mp.mpc(x.numerator) / x.denominator
    return mp.mpc(x)


def check_depth(depth: int) -> None:
    if depth > DEPTH_CAP:
        raise ValueError(f"depth {depth} exceeds the cap {DEPTH_CAP}")


def max_n() -> int:
    """Summation cap, past which no sweep sums; MZETA_MAX_N overrides it."""
    raw = os.environ.get("MZETA_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"MZETA_MAX_N must be an integer, got {raw!r}") from None
    if value < MIN_MAX_N:
        raise ValueError(f"MZETA_MAX_N must be >= {MIN_MAX_N}")
    return value


def memo(key):
    """Memoise a function on ``key``, called with the function's own arguments.

    The entries live for the life of the process in the dict ``fn.cache``;
    a call that raises stores nothing.  There is no lock: parallel
    verification runs in processes (mpmath's context is process-global), and
    under the GIL two threads racing on one key only compute it twice.
    """

    def decorate(fn):
        cache = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = key(*args, **kwargs)
            if k not in cache:
                cache[k] = fn(*args, **kwargs)
            return cache[k]

        wrapper.cache = cache
        return wrapper

    return decorate
