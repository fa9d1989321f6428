"""Truncated Laurent series over Q[L] — the algebra of asymptotic expansions.

A :class:`ScaleSeries` represents a finite window of a formal Laurent series

    F = sum_m F_m(L) X**m,

where ``X`` stands for 1/N and ``L`` for log N.  Terms with exponent
``m > precision`` are *unknown*, not zero: arithmetic propagates the
weakest-link precision, exactly as with numerical power series whose
higher-order coefficients were never computed.  Exact series (polynomials in
X**-1, L) carry ``precision = math.inf``.

Coefficients live in the polynomial ring Q[atoms]: a :class:`Coeff` is a
rational linear combination of formal monomials in named transcendental
constants ("atoms", e.g. the regularised value of a divergent sum).  Tagging
the transcendental part this way keeps the rational bookkeeping exact; a
coefficient only turns into a float when a resolution map name -> value is
supplied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .errors import ConstantNotDeterminedError, UnresolvedConstantError

Rational = Union[int, Fraction]
Monomial = tuple[str, ...]
Cell = tuple[int, int]  # (m, l): the scale element L**l X**m

INF = math.inf


def _as_fraction(x: Rational) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Coeff:
    """Element of Q[atoms]: map from sorted atom monomials to rationals."""

    terms: tuple[tuple[Monomial, Fraction], ...]

    @staticmethod
    def make(data: Mapping[Monomial, Fraction]) -> "Coeff":
        items = tuple(sorted((m, q) for m, q in data.items() if q != 0))
        return Coeff(items)

    @staticmethod
    def rational(q: Rational) -> "Coeff":
        q = _as_fraction(q)
        return Coeff((((), q),)) if q else Coeff(())

    @staticmethod
    def atom(name: str, weight: Rational = 1) -> "Coeff":
        w = _as_fraction(weight)
        return Coeff((((name,), w),)) if w else Coeff(())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_rational(self) -> bool:
        return all(m == () for m, _ in self.terms)

    def rational_part(self) -> Fraction:
        for m, q in self.terms:
            if m == ():
                return q
        return Fraction(0)

    def atoms(self) -> set[str]:
        return {name for m, _ in self.terms for name in m}

    def __add__(self, other: "Coeff") -> "Coeff":
        data = dict(self.terms)
        for m, q in other.terms:
            data[m] = data.get(m, Fraction(0)) + q
        return Coeff.make(data)

    def __neg__(self) -> "Coeff":
        return Coeff(tuple((m, -q) for m, q in self.terms))

    def __sub__(self, other: "Coeff") -> "Coeff":
        return self + (-other)

    def __mul__(self, other: "Coeff") -> "Coeff":
        data: dict[Monomial, Fraction] = {}
        for m1, q1 in self.terms:
            for m2, q2 in other.terms:
                m = tuple(sorted(m1 + m2))
                data[m] = data.get(m, Fraction(0)) + q1 * q2
        return Coeff.make(data)

    def scale(self, q: Rational) -> "Coeff":
        q = _as_fraction(q)
        if not q:
            return Coeff(())
        return Coeff(tuple((m, c * q) for m, c in self.terms))

    def resolve(self, values: Mapping[str, object] | None = None):
        """Numeric (or exact, if purely rational) value of the coefficient."""
        if self.is_rational:
            return self.rational_part()
        if values is None:
            missing = sorted(self.atoms())
            raise UnresolvedConstantError(f"unresolved constants: {missing}")
        total = 0
        for m, q in self.terms:
            piece = q
            for name in m:
                if name not in values:
                    raise UnresolvedConstantError(f"unresolved constant: {name}")
                piece = piece * values[name]
            total = total + piece
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m, q in self.terms:
            bits.append(str(q) if m == () else f"{q}*{'*'.join(m)}")
        return " + ".join(bits)


COEFF_ZERO = Coeff(())
COEFF_ONE = Coeff.rational(1)


@dataclass(frozen=True)
class ScaleSeries:
    """Truncated element of Q[atoms][L]((X)); see module docstring.

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

    def constant_term(self, values: Mapping[str, object] | None = None):
        if self.precision < 0:
            raise ConstantNotDeterminedError(
                f"constant term unknown at precision {self.precision}"
            )
        return self.cell(0, 0).resolve(values)

    def _rows(self) -> dict[int, list[Coeff]]:
        """Dense L-polynomial of each exponent m, lowest m first."""
        rows: dict[int, list[Coeff]] = {}
        for (m, l), c in self.terms:
            row = rows.setdefault(m, [])
            row.extend([COEFF_ZERO] * (l - len(row)))
            row.append(c)
        return rows

    # -- ring operations -------------------------------------------------

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

    def __mul__(self, other: "ScaleSeries") -> "ScaleSeries":
        # Weakest-link rule: f = F + o(X^pf), g = G + o(X^pg) gives error
        # terms F*o(X^pg), G*o(X^pf) and o(X^(pf+pg)); zero known parts
        # contribute nothing.
        bounds = [self.precision + other.precision]
        if not self.is_zero:
            bounds.append(self.order() + other.precision)
        if not other.is_zero:
            bounds.append(other.order() + self.precision)
        prec = min(bounds)
        cells: dict[Cell, Coeff] = {}
        for (m1, l1), c1 in self.terms:
            for (m2, l2), c2 in other.terms:
                if m1 + m2 > prec:
                    continue
                k = (m1 + m2, l1 + l2)
                prod = c1 * c2
                cells[k] = cells[k] + prod if k in cells else prod
        return ScaleSeries.make(cells, prec)

    def scale(self, c: Coeff) -> "ScaleSeries":
        return ScaleSeries.make({k: a * c for k, a in self.terms}, self.precision)

    def shift(self, l: int, m: int) -> "ScaleSeries":
        """Multiply by the exact monomial L**l X**m."""
        prec = self.precision if self.precision == INF else self.precision + m
        return ScaleSeries(
            tuple(((mm + m, ll + l), c) for (mm, ll), c in self.terms), prec
        )

    def truncated(self, precision: float) -> "ScaleSeries":
        if precision >= self.precision:
            return self
        return ScaleSeries.make(dict(self.terms), precision)

    def with_constant_cell(self, c: Coeff) -> "ScaleSeries":
        """Replace the L^0 X^0 coefficient by ``c``."""
        cells = dict(self.terms)
        cells[(0, 0)] = c
        return ScaleSeries.make(cells, self.precision)

    def drop_constant_cell(self) -> "ScaleSeries":
        return self.with_constant_cell(COEFF_ZERO)

    # -- evaluation and serialization -------------------------------------

    def evaluate(self, n, log_n=None, values: Mapping[str, object] | None = None):
        """Numeric sum of all known cells at N = n (L = log n).

        Horner in L over each dense row, zero coefficients included, so the
        rounding is that of the dense polynomial.
        """
        if log_n is None:
            log_n = math.log(n)
        total = 0
        for m, row in self._rows().items():
            acc = 0
            for c in reversed(row):
                acc = acc * log_n + c.resolve(values)
            total = total + acc * n ** (-m)
        return total

    def to_json_dict(self) -> dict:
        def enc(c: Coeff):
            if c.is_rational:
                return str(c.rational_part())
            return {("*".join(m) or "1"): str(q) for m, q in c.terms}

        return {
            "min_order": None if self.is_zero else self.order(),
            "precision": None if self.precision == INF else int(self.precision),
            "terms": {str(m): [enc(c) for c in row] for m, row in self._rows().items()},
        }

    @staticmethod
    def from_json_dict(data: dict) -> "ScaleSeries":
        def dec(obj) -> Coeff:
            if isinstance(obj, str):
                return Coeff.rational(Fraction(obj))
            terms = {}
            for key, q in obj.items():
                mono = () if key == "1" else tuple(sorted(key.split("*")))
                terms[mono] = Fraction(q)
            return Coeff.make(terms)

        prec = data.get("precision")
        cells = {
            (int(m), l): dec(c)
            for m, coeffs in data["terms"].items()
            for l, c in enumerate(coeffs)
        }
        return ScaleSeries.make(cells, INF if prec is None else prec)

    def __str__(self) -> str:
        if not self.terms:
            return f"0 (+O(X^{self.precision}))"
        bits = []
        for (m, l), c in self.terms:
            mono = []
            if l:
                mono.append(f"L^{l}" if l > 1 else "L")
            if m:
                mono.append(f"X^{m}" if m != 1 else "X")
            head = "*".join(mono) or "1"
            bits.append(f"({c})*{head}")
        return " + ".join(bits) + f" + O(X^{self.precision})"
