"""Stufflings, shuffles, and the exact rational-function inversion calculus.

A stuffling of p and q is a triple (r, A, B) with |A| = p, |B| = q and
A u B = {1..r}; positions in A n B merge (their arguments add), so a
shuffling is the disjoint case r = p + q.

The triangular matrix A of reciprocal suffix-sum chains and its inverse are
carried as exact elements of Q(X_1..X_r).  A :class:`RatFunc` is stored as a
sum of terms coef / prod(linear forms); addition and multiplication stay in
that shape, while equality is decided by cross-multiplying the normalized
fractions (no gcd needed).  The inverse entries b_{i,j} are order-polytope
integrals over zigzag regions, evaluated by enumerating linear extensions:
each extension contributes the reciprocal product of the running sums of the
permuted exponents.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterable, Iterator, Sequence

from .config import memo

LinForm = tuple[int, ...]
Term = tuple[Fraction, tuple[LinForm, ...]]


# -- stufflings ---------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Stuffling:
    r: int
    A: tuple[int, ...]
    B: tuple[int, ...]

    @property
    def is_shuffle(self) -> bool:
        return not set(self.A) & set(self.B)


def enumerate_stufflings(p: int, q: int, shuffle_only: bool = False) -> list[Stuffling]:
    """All stufflings of p and q in canonical order (by r, then lex A, B)."""
    if p < 0 or q < 0:
        raise ValueError("arities must be >= 0")
    out: list[Stuffling] = []
    lo = p + q if shuffle_only else max(p, q)
    for r in range(lo, p + q + 1):
        overlap = p + q - r
        for a_set in combinations(range(1, r + 1), p):
            rest = tuple(sorted(set(range(1, r + 1)) - set(a_set)))
            if len(rest) > q:
                continue
            for inter in combinations(a_set, overlap):
                b_set = tuple(sorted(rest + inter))
                out.append(Stuffling(r, a_set, b_set))
    out.sort()
    return out


def deduce_sequence(x: Sequence, y: Sequence, st: Stuffling):
    """The sequence deduced from x and y by the stuffling: positions in A
    take x entries, positions in B take y entries, overlaps add."""
    if len(x) != len(st.A) or len(y) != len(st.B):
        raise ValueError("arity mismatch with the stuffling")
    pos_a = {pos: i for i, pos in enumerate(st.A)}
    pos_b = {pos: i for i, pos in enumerate(st.B)}
    out = []
    for i in range(1, st.r + 1):
        if i in pos_a and i in pos_b:
            out.append(x[pos_a[i]] + y[pos_b[i]])
        elif i in pos_a:
            out.append(x[pos_a[i]])
        else:
            out.append(y[pos_b[i]])
    return tuple(out)


# -- exact multivariate polynomials (internal) --------------------------------

Poly = dict[tuple[int, ...], Fraction]


def _poly_const(c: Fraction, nvars: int) -> Poly:
    return {(0,) * nvars: c} if c else {}


def _poly_from_form(form: LinForm) -> Poly:
    out: Poly = {}
    for idx, c in enumerate(form):
        if c:
            exp = [0] * len(form)
            exp[idx] = 1
            out[tuple(exp)] = Fraction(c)
    return out


def _poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


# -- rational functions -------------------------------------------------------


@dataclass(frozen=True)
class RatFunc:
    """Sum of coef / prod(linear forms) over Q(X_1..X_nvars)."""

    nvars: int
    terms: tuple[Term, ...]

    @staticmethod
    def one(nvars: int) -> "RatFunc":
        return RatFunc(nvars, ((Fraction(1), ()),))

    @staticmethod
    def zero(nvars: int) -> "RatFunc":
        return RatFunc(nvars, ())

    @staticmethod
    def reciprocal_chain(forms: Iterable[LinForm], nvars: int) -> "RatFunc":
        return RatFunc(nvars, ((Fraction(1), tuple(sorted(forms))),))

    def _require_same_vars(self, other: "RatFunc") -> None:
        if self.nvars != other.nvars:
            raise ValueError("rational functions over different variable counts")

    def __add__(self, other: "RatFunc") -> "RatFunc":
        self._require_same_vars(other)
        return RatFunc(self.nvars, self.terms + other.terms)

    def __neg__(self) -> "RatFunc":
        return RatFunc(self.nvars, tuple((-c, fs) for c, fs in self.terms))

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        self._require_same_vars(other)
        terms = []
        for c1, f1 in self.terms:
            for c2, f2 in other.terms:
                terms.append((c1 * c2, tuple(sorted(f1 + f2))))
        return RatFunc(self.nvars, tuple(terms))

    def scale(self, c) -> "RatFunc":
        c = Fraction(c)
        if not c:
            return RatFunc.zero(self.nvars)
        return RatFunc(self.nvars, tuple((q * c, fs) for q, fs in self.terms))

    def evaluate(self, point: Sequence):
        """Exact at Fractions, numeric at floats/complex; forms must not vanish."""
        if len(point) < self.nvars:
            raise ValueError("not enough coordinates")
        exact = all(isinstance(x, (int, Fraction)) for x in point)
        total = Fraction(0) if exact else 0j
        for c, forms in self.terms:
            val = Fraction(c) if exact else complex(c)
            for form in forms:
                lin = sum(k * point[i] for i, k in enumerate(form) if k)
                val = val / lin
            total = total + val
        return total

    def as_fraction(self) -> tuple[Poly, Poly]:
        """Normalized (numerator, denominator) by common-denominator collection."""
        max_mult: dict[LinForm, int] = {}
        for _, forms in self.terms:
            for f, k in Counter(forms).items():
                max_mult[f] = max(max_mult.get(f, 0), k)
        den = _poly_const(Fraction(1), self.nvars)
        for f, k in max_mult.items():
            fp = _poly_from_form(f)
            for _ in range(k):
                den = _poly_mul(den, fp)
        num: Poly = {}
        for c, forms in self.terms:
            counts = Counter(forms)
            part = _poly_const(c, self.nvars)
            for f, k in max_mult.items():
                fp = _poly_from_form(f)
                for _ in range(k - counts[f]):
                    part = _poly_mul(part, fp)
            num = _poly_add(num, part)
        return num, den

    def eq_exact(self, other: "RatFunc") -> bool:
        """Exact equality by cross multiplication (no gcd required)."""
        self._require_same_vars(other)
        n1, d1 = self.as_fraction()
        n2, d2 = other.as_fraction()
        return _poly_mul(n1, d2) == _poly_mul(n2, d1)

    @property
    def is_zero_exact(self) -> bool:
        return self.as_fraction()[0] == {}

    def to_json_dict(self) -> dict:
        num, den = self.as_fraction()

        def enc(poly: Poly) -> list[dict]:
            items = sorted(poly.items())
            return [{"coef": str(c), "powers": list(e)} for e, c in items]

        return {"nvars": self.nvars, "num": enc(num), "den": enc(den)}


# -- order-polytope integrals over zigzag regions ------------------------------


def _zigzag_extensions(
    positions: list[int], descents: dict[int, bool]
) -> Iterator[tuple[int, ...]]:
    """Linear extensions (largest t first) of the zigzag constraints, in
    lexicographic order of the (ascending) ``positions``.

    ``descents[m]`` True means t_m > t_{m+1}; False means t_m < t_{m+1};
    constraints exist only between consecutive positions.
    """
    for ext in permutations(positions):
        rank = {pos: k for k, pos in enumerate(ext)}
        if all((rank[m] < rank[m + 1]) == down for m, down in descents.items()):
            yield ext


def _running_forms(positions: Iterable[int], nvars: int) -> Iterator[LinForm]:
    """The running sums X_p1, X_p1 + X_p2, .. over the 1-based ``positions``."""
    acc = [0] * nvars
    for pos in positions:
        acc[pos - 1] += 1
        yield tuple(acc)


@memo(key=lambda I, i, j, nvars=None: (tuple(sorted(set(I))), i, j, j if nvars is None else nvars))
def b_rational(I: Sequence[int], i: int, j: int, nvars: int | None = None) -> RatFunc:
    """The zigzag order-polytope integral b_{i,j} as an exact rational function.

    Region: t_m > t_{m+1} for interior m not in I, t_m < t_{m+1} for m in I.
    Each linear extension contributes the reciprocal product of the running
    exponent sums, innermost (smallest) variable first.
    """
    if i > j:
        raise ValueError("need i <= j")
    nvars = j if nvars is None else nvars
    if i == j:
        return RatFunc.one(nvars)
    iset = set(I)
    positions = list(range(i + 1, j + 1))
    descents = {m: (m not in iset) for m in range(i + 1, j)}
    total = RatFunc.zero(nvars)
    for ext in _zigzag_extensions(positions, descents):
        # smallest variable first
        total = total + RatFunc.reciprocal_chain(_running_forms(reversed(ext), nvars), nvars)
    return total


def f_rational(I: Sequence[int], i: int) -> RatFunc:
    """The inversion coefficient f_i (region Delta_i), in Q(X_1..X_i)."""
    if i not in set(I) | {0}:
        raise ValueError(f"index {i} not in I")
    return b_rational(I, 0, i)


def inversion_sign(I: Sequence[int], i: int) -> int:
    """The sign (-1)^(i - |I n {1..i}|) that f_i carries in the inversion."""
    return (-1) ** (i - len(set(I) & set(range(1, i + 1))))


def matrix_A(I: Sequence[int], r: int) -> dict[tuple[int, int], RatFunc]:
    """Upper-triangular matrix of reciprocal suffix-sum chains, indexed I x I."""
    idx = sorted(set(I))
    out: dict[tuple[int, int], RatFunc] = {}
    for a in idx:
        for b in idx:
            if a > b:
                out[(a, b)] = RatFunc.zero(r)
            elif a == b:
                out[(a, b)] = RatFunc.one(r)
            else:
                out[(a, b)] = reciprocal_suffix_chain(b - a, a, r)
    return out


def matrix_A_inverse(I: Sequence[int], r: int) -> dict[tuple[int, int], RatFunc]:
    """Inverse entries: (-1)^{|I n {i+1..j}|} b_{i,j}."""
    idx = sorted(set(I))
    iset = set(idx)
    out: dict[tuple[int, int], RatFunc] = {}
    for a in idx:
        for b in idx:
            if a > b:
                out[(a, b)] = RatFunc.zero(r)
            else:
                sign = (-1) ** len(iset & set(range(a + 1, b + 1)))
                out[(a, b)] = b_rational(idx, a, b, nvars=r).scale(sign)
    return out


def matrix_product(
    m1: dict[tuple[int, int], RatFunc],
    m2: dict[tuple[int, int], RatFunc],
    idx: Sequence[int],
) -> dict[tuple[int, int], RatFunc]:
    idx = sorted(set(idx))
    out: dict[tuple[int, int], RatFunc] = {}
    for a in idx:
        for b in idx:
            acc = None
            for c in idx:
                t = m1[(a, c)] * m2[(c, b)]
                acc = t if acc is None else acc + t
            out[(a, b)] = acc
    return out


def reciprocal_suffix_chain(arity: int, offset: int = 0, nvars: int | None = None) -> RatFunc:
    """1 / (X_p (X_p + X_{p-1}) ... (X_p + .. + X_1)), variables shifted by offset."""
    nvars = arity + offset if nvars is None else nvars
    return RatFunc.reciprocal_chain(_running_forms(range(offset + arity, offset, -1), nvars), nvars)
