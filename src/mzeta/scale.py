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
from typing import Iterable, Mapping, Union

from .errors import ConstantNotDeterminedError, UnresolvedConstantError

Rational = Union[int, Fraction]
Monomial = tuple[str, ...]

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
class ScalePoly:
    """Dense polynomial in L with :class:`Coeff` coefficients.

    Trailing zero coefficients are stripped; the zero polynomial has the
    sentinel degree -1.
    """

    coeffs: tuple[Coeff, ...]

    @staticmethod
    def make(coeffs: Iterable[Coeff]) -> "ScalePoly":
        cs = list(coeffs)
        while cs and cs[-1].is_zero:
            cs.pop()
        return ScalePoly(tuple(cs))

    @staticmethod
    def rational(*values: Rational) -> "ScalePoly":
        return ScalePoly.make([Coeff.rational(v) for v in values])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, l: int) -> Coeff:
        if 0 <= l < len(self.coeffs):
            return self.coeffs[l]
        return COEFF_ZERO

    def __add__(self, other: "ScalePoly") -> "ScalePoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return ScalePoly.make([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __neg__(self) -> "ScalePoly":
        return ScalePoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "ScalePoly") -> "ScalePoly":
        if self.is_zero or other.is_zero:
            return ScalePoly(())
        out = [COEFF_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return ScalePoly.make(out)

    def scale(self, c: Coeff) -> "ScalePoly":
        return ScalePoly.make([a * c for a in self.coeffs])

    def shift_l(self, l: int) -> "ScalePoly":
        if self.is_zero or l == 0:
            return self
        return ScalePoly((COEFF_ZERO,) * l + self.coeffs)

    def evaluate(self, lval, values: Mapping[str, object] | None = None):
        """Horner evaluation at L = lval, resolving atom coefficients."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * lval + c.resolve(values)
        return acc


@dataclass(frozen=True)
class ScaleSeries:
    """Truncated element of Q[atoms][L]((X)); see module docstring."""

    terms: tuple[tuple[int, ScalePoly], ...]
    precision: float  # int precision, or math.inf for exact series

    @staticmethod
    def make(cells: Mapping[int, ScalePoly], precision: float = INF) -> "ScaleSeries":
        kept = {m: p for m, p in cells.items() if not p.is_zero and m <= precision}
        return ScaleSeries(tuple(sorted(kept.items())), precision)

    @staticmethod
    def zero(precision: float = INF) -> "ScaleSeries":
        return ScaleSeries((), precision)

    @staticmethod
    def one(precision: float = INF) -> "ScaleSeries":
        return ScaleSeries.monomial(COEFF_ONE, l=0, m=0, precision=precision)

    @staticmethod
    def monomial(c: Coeff, l: int = 0, m: int = 0, precision: float = INF) -> "ScaleSeries":
        poly = ScalePoly.make([COEFF_ZERO] * l + [c])
        return ScaleSeries.make({m: poly}, precision)

    # -- queries ---------------------------------------------------------

    def cell(self, m: int, l: int) -> Coeff:
        for mm, poly in self.terms:
            if mm == m:
                return poly.coeff(l)
        return COEFF_ZERO

    def poly_at(self, m: int) -> ScalePoly:
        for mm, poly in self.terms:
            if mm == m:
                return poly
        return ScalePoly(())

    def order(self) -> float:
        """Smallest exponent with a nonzero coefficient; inf for zero."""
        return self.terms[0][0] if self.terms else INF

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def atoms(self) -> set[str]:
        out: set[str] = set()
        for _, poly in self.terms:
            for c in poly.coeffs:
                out |= c.atoms()
        return out

    def constant_term(self, values: Mapping[str, object] | None = None):
        if self.precision < 0:
            raise ConstantNotDeterminedError(
                f"constant term unknown at precision {self.precision}"
            )
        return self.cell(0, 0).resolve(values)

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "ScaleSeries") -> "ScaleSeries":
        prec = min(self.precision, other.precision)
        cells: dict[int, ScalePoly] = dict(self.terms)
        for m, poly in other.terms:
            cells[m] = cells[m] + poly if m in cells else poly
        return ScaleSeries.make(cells, prec)

    def __neg__(self) -> "ScaleSeries":
        return ScaleSeries(tuple((m, -p) for m, p in self.terms), self.precision)

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
        cells: dict[int, ScalePoly] = {}
        for m1, p1 in self.terms:
            for m2, p2 in other.terms:
                m = m1 + m2
                if m > prec:
                    continue
                prod = p1 * p2
                cells[m] = cells[m] + prod if m in cells else prod
        return ScaleSeries.make(cells, prec)

    def scale(self, c: Coeff) -> "ScaleSeries":
        return ScaleSeries.make({m: p.scale(c) for m, p in self.terms}, self.precision)

    def shift(self, l: int, m: int) -> "ScaleSeries":
        """Multiply by the exact monomial L**l X**m."""
        prec = self.precision if self.precision == INF else self.precision + m
        return ScaleSeries(
            tuple((mm + m, poly.shift_l(l)) for mm, poly in self.terms), prec
        )

    def truncated(self, precision: float) -> "ScaleSeries":
        if precision >= self.precision:
            return self
        return ScaleSeries.make(dict(self.terms), precision)

    def with_constant_cell(self, c: Coeff) -> "ScaleSeries":
        """Replace the L^0 X^0 coefficient by ``c``."""
        poly = self.poly_at(0)
        coeffs = list(poly.coeffs) or [COEFF_ZERO]
        coeffs[0] = c
        cells = dict(self.terms)
        cells[0] = ScalePoly.make(coeffs)
        return ScaleSeries.make(cells, self.precision)

    def drop_constant_cell(self) -> "ScaleSeries":
        return self.with_constant_cell(COEFF_ZERO)

    # -- evaluation and serialization -------------------------------------

    def evaluate(self, n, log_n=None, values: Mapping[str, object] | None = None):
        """Numeric sum of all known cells at N = n (L = log n)."""
        if log_n is None:
            log_n = math.log(n)
        total = 0
        for m, poly in self.terms:
            total = total + poly.evaluate(log_n, values) * n ** (-m)
        return total

    def to_json_dict(self) -> dict:
        def enc(c: Coeff):
            if c.is_rational:
                return str(c.rational_part())
            return {("*".join(m) or "1"): str(q) for m, q in c.terms}

        return {
            "min_order": None if self.is_zero else self.terms[0][0],
            "precision": None if self.precision == INF else int(self.precision),
            "terms": {str(m): [enc(c) for c in poly.coeffs] for m, poly in self.terms},
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
            int(m): ScalePoly.make([dec(c) for c in coeffs])
            for m, coeffs in data["terms"].items()
        }
        return ScaleSeries.make(cells, INF if prec is None else prec)

    def __str__(self) -> str:
        if not self.terms:
            return f"0 (+O(X^{self.precision}))"
        bits = []
        for m, poly in self.terms:
            for l, c in enumerate(poly.coeffs):
                if c.is_zero:
                    continue
                mono = []
                if l:
                    mono.append(f"L^{l}" if l > 1 else "L")
                if m:
                    mono.append(f"X^{m}" if m != 1 else "X")
                head = "*".join(mono) or "1"
                bits.append(f"({c})*{head}")
        return " + ".join(bits) + f" + O(X^{self.precision})"
