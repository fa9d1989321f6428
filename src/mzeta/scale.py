"""Truncated Laurent series in X and L -- the algebra of asymptotic expansions.

A :class:`ScaleSeries` represents a finite window of a formal Laurent series

    F = sum_m F_m(L) X**m,

where ``X`` stands for 1/N and ``L`` for log N.  Terms with exponent
``m > precision`` are *unknown*, not zero: arithmetic propagates the
weakest-link precision, exactly as with numerical power series whose
higher-order coefficients were never computed.  Exact series (polynomials in
X**-1, L) carry ``precision = math.inf``.

Every coefficient is linear in the named transcendental constants ("atoms",
the Stieltjes constants ``g(..)``/``gs(..)``): a :class:`Coeff` is a
rational number plus rational weights of atoms.  Tagging the
transcendental part this way keeps the rational bookkeeping exact; a
coefficient only turns into a number when a map name -> raw mpf value is
supplied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from mpmath.libmp import from_int, from_rational, fzero, mpf_add, mpf_log, mpf_mul, mpf_pow_int

from .errors import UnresolvedConstantError

Rational = Union[int, Fraction]
Cell = tuple[int, int]  # (m, l): the scale element L**l X**m

INF = math.inf


def _as_fraction(x: Rational) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Coeff:
    """The linear form q + sum w * atom: the rational part ``q`` and the
    nonzero atom weights, in atom-name order."""

    q: Fraction
    weights: tuple[tuple[str, Fraction], ...] = ()

    @staticmethod
    def rational(q: Rational) -> "Coeff":
        return Coeff(_as_fraction(q))

    @staticmethod
    def atom(name: str, weight: Rational = 1) -> "Coeff":
        w = _as_fraction(weight)
        return Coeff(Fraction(0), ((name, w),) if w else ())

    @property
    def is_zero(self) -> bool:
        return not self.q and not self.weights

    def atoms(self) -> set[str]:
        return {name for name, _ in self.weights}

    def __add__(self, other: "Coeff") -> "Coeff":
        if not other.weights:
            return Coeff(self.q + other.q, self.weights)
        weights = dict(self.weights)
        for name, w in other.weights:
            weights[name] = weights.get(name, 0) + w
        return Coeff(self.q + other.q, tuple(sorted((a, w) for a, w in weights.items() if w)))

    def __neg__(self) -> "Coeff":
        return Coeff(-self.q, tuple((a, -w) for a, w in self.weights))

    def __sub__(self, other: "Coeff") -> "Coeff":
        return self + (-other)

    def scale(self, q: Rational) -> "Coeff":
        q = _as_fraction(q)
        if not q:
            return COEFF_ZERO
        return Coeff(self.q * q, tuple((a, w * q) for a, w in self.weights))

    def resolve(self, values: Mapping[str, tuple], prec: int, rnd: str) -> tuple:
        """Raw mpf of the coefficient from raw atom values, with the steps of
        mpf arithmetic on its Fractions: the rational part first, then each
        weighted atom in name order.  A Fraction converts as mpmath converts
        it, rounded by ``from_rational``'s default and not by ``rnd``."""
        total = _raw(self.q, prec)
        for name, w in self.weights:
            if name not in values:
                raise UnresolvedConstantError(f"unresolved constant: {name}")
            total = mpf_add(total, mpf_mul(values[name], _raw(w, prec), prec, rnd), prec, rnd)
        return total


def _raw(q: Fraction, prec: int) -> tuple:
    return from_rational(q.numerator, q.denominator, prec)


COEFF_ZERO = Coeff(Fraction(0))
COEFF_ONE = Coeff.rational(1)


@dataclass(frozen=True)
class ScaleSeries:
    """Truncated Laurent series in X over L-polynomials; see module docstring.

    ``terms`` holds the nonzero cells ``((m, l), c)``, standing for
    c * L**l * X**m, sorted by (m, l).
    """

    terms: tuple[tuple[Cell, Coeff], ...]
    precision: float  # int precision, or math.inf for exact series

    @staticmethod
    def make(cells: Mapping[Cell, Coeff], precision: float = INF) -> "ScaleSeries":
        kept = [(k, c) for k, c in cells.items() if not c.is_zero and k[0] <= precision]
        return ScaleSeries(tuple(sorted(kept)), precision)

    @staticmethod
    def zero(precision: float = INF) -> "ScaleSeries":
        return ScaleSeries((), precision)

    @staticmethod
    def one(precision: float = INF) -> "ScaleSeries":
        return ScaleSeries.monomial(COEFF_ONE, l=0, m=0, precision=precision)

    @staticmethod
    def monomial(c: Coeff, l: int = 0, m: int = 0, precision: float = INF) -> "ScaleSeries":
        return ScaleSeries.make({(m, l): c}, precision)

    # -- queries ---------------------------------------------------------

    def cell(self, m: int, l: int) -> Coeff:
        for key, c in self.terms:
            if key == (m, l):
                return c
        return COEFF_ZERO

    def order(self) -> float:
        """Smallest exponent with a nonzero coefficient; inf for zero."""
        return self.terms[0][0][0] if self.terms else INF

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def atoms(self) -> set[str]:
        out: set[str] = set()
        for _, c in self.terms:
            out |= c.atoms()
        return out

    def _rows(self) -> dict[int, list[Coeff]]:
        """Dense L-polynomial of each exponent m, lowest m first."""
        rows: dict[int, list[Coeff]] = {}
        for (m, l), c in self.terms:
            row = rows.setdefault(m, [])
            row.extend([COEFF_ZERO] * (l - len(row)))
            row.append(c)
        return rows

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ScaleSeries") -> "ScaleSeries":
        prec = min(self.precision, other.precision)
        cells = dict(self.terms)
        for k, c in other.terms:
            cells[k] = cells[k] + c if k in cells else c
        return ScaleSeries.make(cells, prec)

    def __neg__(self) -> "ScaleSeries":
        return ScaleSeries(tuple((k, -c) for k, c in self.terms), self.precision)

    def __sub__(self, other: "ScaleSeries") -> "ScaleSeries":
        return self + (-other)

    def shift(self, l: int, m: int) -> "ScaleSeries":
        """Multiply by the exact monomial L**l X**m."""
        prec = self.precision if self.precision == INF else self.precision + m
        return ScaleSeries(
            tuple(((mm + m, ll + l), c) for (mm, ll), c in self.terms), prec
        )

    def truncated(self, precision: float) -> "ScaleSeries":
        if precision >= self.precision:
            return self
        return ScaleSeries(tuple(t for t in self.terms if t[0][0] <= precision), precision)

    def with_constant_cell(self, c: Coeff) -> "ScaleSeries":
        """Replace the L^0 X^0 coefficient by ``c``."""
        cells = dict(self.terms)
        cells[(0, 0)] = c
        return ScaleSeries.make(cells, self.precision)

    def drop_constant_cell(self) -> "ScaleSeries":
        return ScaleSeries(tuple(t for t in self.terms if t[0] != (0, 0)), self.precision)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, tops: Sequence[int], values: Mapping[str, tuple], prec: int, rnd: str) -> list[tuple]:
        """Raw mpf sums of all known cells at each N in ``tops`` (L = log N),
        at precision ``prec`` and rounding ``rnd``, from raw atom values.

        Each cell resolves once for every N.  Horner in L runs over each
        dense row, zero coefficients included, so the rounding is that of
        the dense polynomial; the rows add up lowest m first.
        """
        rows = [
            (m, [c.resolve(values, prec, rnd) for c in reversed(row)]) for m, row in self._rows().items()
        ]
        out = []
        for n in tops:
            x = from_int(n)
            log_n = mpf_log(x, prec, rnd)
            total = fzero
            for m, row in rows:
                acc = fzero
                for c in row:
                    acc = mpf_add(mpf_mul(acc, log_n, prec, rnd), c, prec, rnd)
                total = mpf_add(total, mpf_mul(acc, mpf_pow_int(x, -m, prec, rnd), prec, rnd), prec, rnd)
            out.append(total)
        return out
