"""Runtime limits and numeric coercions shared by the numeric modules."""

from __future__ import annotations

import os
from fractions import Fraction

import mpmath
from mpmath import mp

DEFAULT_MAX_N = 2**20


def to_mpf(x) -> mpmath.mpf:
    """mpf at the ambient precision; accepts Fraction (mpmath's ctor doesn't)."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def to_mpc(x) -> mpmath.mpc:
    if isinstance(x, Fraction):
        return mp.mpc(x.numerator) / x.denominator
    return mp.mpc(x)


def max_n() -> int:
    """Summation cap; the MZETA_MAX_N environment variable overrides it."""
    raw = os.environ.get("MZETA_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"MZETA_MAX_N must be an integer, got {raw!r}") from None
    if value < 2:
        raise ValueError("MZETA_MAX_N must be >= 2")
    return value
