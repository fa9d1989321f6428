"""Formal summation of basis sequences (log n)^l n^-m via Euler-Maclaurin.

Given the expansion of a sequence (v_n), the partial sums u_N = sum_{n<N} v_n
again have an expansion relative to the scale {(log n)^l n^-m}.  This module
produces its divergent part exactly: the antiderivative and the Bernoulli
correction terms of (log t)^l t^-m are finite Q-linear combinations of basis
functions, computed symbolically.  The regularised constant (the limit of
u_N minus the divergent part) is not part of the result: the caller names it,
as :func:`mzeta.stieltjes.asymptotic_expansion` does with its ``g(..)`` atom.

For the basis sum itself that constant is the depth-1 constant g(m|l) less
the rational constant cell of :func:`sum_basis`.  Its closed form (Euler's
gamma for (l, m) = (0, 1), log(2 pi)/2 for (1, 0), zeta values and
derivatives elsewhere) is available as metadata through
:func:`known_closed_form`, keyed by :func:`em_slot_name`; it is never
substituted silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp

from .config import max_n, memo
from .errors import InsufficientPrecisionError
from .exact import bernoulli_ratios
from .scale import INF, Cell, Coeff, ScaleSeries

# A "cell map" represents a finite Q-combination sum c * (log t)^l t^-m
# as {(m, l): c}, the cells of a ScaleSeries with rational coefficients; it
# is the form of the antiderivatives (the derivatives run on int cell maps).
CellMap = dict[Cell, Fraction]


@dataclass(frozen=True)
class BasisTerm:
    """One comparison-scale element (log n)^l n^-m."""

    l: int
    m: int

    def __post_init__(self) -> None:
        if self.l < 0:
            raise ValueError("log power must be >= 0")


def _derivative(cells: dict[Cell, int]) -> dict[Cell, int]:
    out: dict[Cell, int] = {}
    for (m, l), c in cells.items():
        if l:
            key = (m + 1, l - 1)
            out[key] = out.get(key, 0) + l * c
        key = (m + 1, l)
        out[key] = out.get(key, 0) - m * c
    return {k: v for k, v in out.items() if v}


def _antiderivative(l: int, m: int) -> CellMap:
    # integral of (log t)^l t^-m dt, constant of integration zero
    if m == 1:
        return {(0, l + 1): Fraction(1, l + 1)}
    out: CellMap = {}
    coeff = Fraction(1)
    for lam in range(l, -1, -1):
        # by parts: I_l = (log t)^l t^(1-m)/(1-m) - l/(1-m) I_(l-1)
        coeff = coeff / (1 - m)
        out[(m - 1, lam)] = coeff
        coeff = -coeff * lam
    return out


@memo(key=lambda l, m, precision: (l, m, precision))
def _basis_rows(l: int, m: int, precision: int) -> tuple[tuple[tuple[Cell, int], ...], int, float]:
    """The basis sum's sorted nonzero cells ((m', l'), numerator) over one
    common denominator, the denominator, and the series precision."""
    cells = _antiderivative(l, m)
    cells[(m, l)] = cells.get((m, l), 0) - Fraction(1, 2)
    h = _derivative({(m, l): 1})  # f^(2j-1), starting at j = 1
    j = 1
    while h and m + 2 * j - 1 <= precision:
        b = bernoulli_ratios(2 * j)[-1]
        for k, c in h.items():
            cells[k] = cells.get(k, 0) + b * c
        h = _derivative(_derivative(h))
        j += 1
    exact = not h
    if l == 0 and m <= 0:
        # The sum is a polynomial in N; pin the constant so that
        # divergent(N) == u_N exactly.  At N = 1 the empty sum is 0 and
        # every cell evaluates to its coefficient.
        cells[(0, 0)] = cells.get((0, 0), 0) - sum(cells.values())
        exact = True
    prec = INF if exact and precision >= 0 else precision
    kept = sorted((k, c) for k, c in cells.items() if c and k[0] <= prec)
    den = math.lcm(*(c.denominator for _, c in kept))
    return tuple((k, c.numerator * (den // c.denominator)) for k, c in kept), den, prec


def sum_basis(term: BasisTerm, precision: int) -> ScaleSeries:
    """Divergent part of sum_{1<=n<N} (log n)^l n^-m to X-precision ``precision``.

    Antiderivative - f/2 + sum_j B_2j/(2j)! f^(2j-1), truncated at the
    requested order.  For l = 0, m <= 0 the sum is an exact polynomial in N:
    its full rational constant is folded in, and for ``precision >= 0`` the
    series is exact (precision inf), equal to the partial sums for every N.

    Built from the memoised integer rows that :func:`sum_sequence` reads:
    one numerator per cell over the sum's common denominator.
    """
    rows, den, prec = _basis_rows(term.l, term.m, precision)
    return ScaleSeries.make({k: Coeff.rational(Fraction(n, den)) for k, n in rows}, prec)


def sum_sequence(v: ScaleSeries, precision: int) -> ScaleSeries:
    """Divergent part of the partial sums of a sequence with expansion ``v``.

    Linear extension of :func:`sum_basis` over every known cell of ``v``, so
    the constant cell holds only the basis sums' rational constants.  The
    input must be known at least to X-precision ``precision + 1``.  The
    result is exact (precision inf) when ``v`` and every basis sum are.

    Each product coefficient x basis cell is an integer over one common
    denominator, lcm(input denominators) x lcm(basis denominators), summed
    per (cell, atom); each output rational is reduced once, at the end.
    """
    if v.precision < precision + 1:
        raise InsufficientPrecisionError(
            f"summation to precision {precision} needs input precision "
            f">= {precision + 1}, got {v.precision}"
        )
    # each input cell's basis rows and its linear form, "" naming the rational part
    bases = [(_basis_rows(l, m, precision), (("", c.q), *c.weights)) for (m, l), c in v.terms]
    exact = v.precision == INF and all(prec == INF for (_, _, prec), _ in bases)
    den_v = math.lcm(*(w.denominator for _, form in bases for _, w in form))
    den_b = math.lcm(*(den for (_, den, _), _ in bases))
    acc: dict[Cell, dict[str, int]] = {}
    for (rows, den, _), form in bases:
        ints = [(a, w.numerator * (den_v // w.denominator) * (den_b // den)) for a, w in form if w]
        for k, b in rows:
            cell = acc.setdefault(k, {})
            for a, w in ints:
                cell[a] = cell.get(a, 0) + w * b
    den = den_v * den_b
    cells = {
        k: Coeff(
            Fraction(cell.pop("", 0), den),
            tuple((a, Fraction(n, den)) for a, n in sorted(cell.items()) if n),
        )
        for k, cell in acc.items()
    }
    return ScaleSeries.make(cells, INF if exact else precision)


# -- closed-form metadata and shared numeric helpers ------------------------


def schedule_n(digits: int) -> int:
    """First level N of the constant engine: near the digit count, at least
    64, and at most half the cap, since each level also sums to 2N."""
    return min(max(64, 1 << (digits - 1).bit_length()), max_n() // 2)


def abs_cell_magnitude(series: ScaleSeries, order: int, n: int) -> float:
    log_n = math.log(n)
    mag = 0.0
    for (m, l), c in series.terms:  # sorted: the float sum runs in ascending l
        if m == order:
            # the rational part first, then the atom weights in name order
            mag += sum((abs(float(w)) for _, w in c.weights), abs(float(c.q))) * log_n**l
    return mag * float(n) ** (-order)


def em_slot_name(l: int, m: int) -> str:
    return f"em({l},{m})"


def known_closed_form(slot: str) -> mpmath.mpf:
    """Closed form, at the ambient precision, of the regularised constant of
    the basis sum named ``em(l,m)`` by :func:`em_slot_name`: the depth-1
    constant g(m|l) less the rational constant cell of :func:`sum_basis`.

    Metadata only: resolution never substitutes these silently, but tests
    cross-check against them.
    """
    if not (slot.startswith("em(") and slot.endswith(")")):
        raise ValueError(f"not an em slot: {slot}")
    l, m = (int(x) for x in slot[3:-1].split(","))
    if l == 0 and m <= 0:
        return mp.zero  # the exact slots: the whole constant is rational
    if m == 1:
        return +mpmath.stieltjes(l)
    # the (regularised) value of sum_{n>=1} (log n)^l n^-m is (-1)^l zeta^(l)(m);
    # for em(1,0) this is log(2 pi)/2 by the Stirling formula
    return (-1) ** l * mpmath.zeta(mp.mpf(m), derivative=l)
