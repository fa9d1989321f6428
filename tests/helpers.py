"""Helpers shared by the test modules: a finite-difference derivative
oracle, the seeded points of the symbolic-layer digest, the generic
ScaleSeries evaluation that the raw evaluator replaced, and the Stirling
and Pochhammer tables that no route of the package reads."""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

import mpmath
from mpmath import mp

from mzeta.config import memo, to_mpc
from mzeta.errors import UnresolvedConstantError
from mzeta.mzv import working_dps, zeta_value
from mzeta.scale import Coeff, ScaleSeries

Number = Union[int, float, complex, Fraction]


def zeta_partial_derivative(
    s: Sequence, order: Sequence[int], digits: int = 12
) -> mpmath.mpc:
    """Mixed partial derivative via central differences, Richardson once."""
    order = tuple(int(k) for k in order)
    if len(order) != len(s):
        raise ValueError("order and argument depth mismatch")
    k_total = sum(order)
    if k_total == 0:
        return zeta_value(s, digits)
    inner_digits = digits + 2 * k_total + 6
    with mp.workdps(working_dps(inner_digits)):
        h = mp.mpf(10) ** (-mp.mpf(digits) / 3)
        center = [to_mpc(x) for x in s]

        def fn(pt):
            return zeta_value(pt, inner_digits)

        return richardson_partial(fn, center, order, h)[0]


def richardson_partial(fn, center: list, order: tuple[int, ...], h) -> tuple[mpmath.mpc, mpmath.mpf]:
    """Mixed partial derivative of ``fn`` at ``center`` by nested central
    differences at steps h and h/2, Richardson-extrapolated once, and the
    size of that extrapolation's correction as an error estimate."""
    d_h = nested_central(fn, center, order, h)
    d_h2 = nested_central(fn, center, order, h / 2)
    return (4 * d_h2 - d_h) / 3, abs(d_h2 - d_h) / 3


def nested_central(fn, center: list, order: tuple[int, ...], h) -> mpmath.mpc:
    """Mixed partial derivative of ``fn`` by nested central differences."""
    idx = next((i for i, k in enumerate(order) if k > 0), None)
    if idx is None:
        return fn(center)
    lower = tuple(k - (1 if i == idx else 0) for i, k in enumerate(order))

    def shifted(delta):
        pt = list(center)
        pt[idx] = pt[idx] + delta
        return nested_central(fn, pt, lower, h)

    return (shifted(h) - shifted(-h)) / (2 * h)


def symbolic_points(n_pairs=40, seed=6):
    """(point, order) pairs at depth 1-3, points in -2..3, orders in 0..2."""
    rng = random.Random(seed)
    for _ in range(n_pairs):
        depth = rng.randint(1, 3)
        point = tuple(rng.randint(-2, 3) for _ in range(depth))
        order = tuple(rng.randint(0, 2) for _ in range(depth))
        yield point, order


# -- the generic evaluation of a ScaleSeries: floats, Fractions or mpf ------


def resolve(c: Coeff, values: Mapping[str, object] | None = None):
    """Numeric (or exact, if purely rational) value of the coefficient:
    the rational part first, then each weighted atom in name order."""
    if not c.weights:
        return c.q
    if values is None:
        raise UnresolvedConstantError(f"unresolved constants: {sorted(c.atoms())}")
    total = c.q if c.q else 0
    for name, w in c.weights:
        if name not in values:
            raise UnresolvedConstantError(f"unresolved constant: {name}")
        total = total + w * values[name]
    return total


def evaluate(series: ScaleSeries, n, log_n=None, values: Mapping[str, object] | None = None):
    """Numeric sum of all known cells at N = n (L = log n).

    Horner in L over each dense row, zero coefficients included, so the
    rounding is that of the dense polynomial.
    """
    if log_n is None:
        log_n = math.log(n)
    total = 0
    for m, row in series._rows().items():
        acc = 0
        for c in reversed(row):
            acc = acc * log_n + resolve(c, values)
        total = total + acc * n ** (-m)
    return total


# -- Stirling numbers and Pochhammer polynomials ------------------------------


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


@dataclass(frozen=True)
class PochhammerPoly:
    """The rising factorial (s)_k as a dense polynomial in s.

    For k >= 0 this is the monic degree-k polynomial s(s+1)...(s+k-1);
    ``(s)_0 = 1``.  The special order k = -1 is kept as an explicit
    reciprocal marker for 1/(s-1) and never expanded.
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
    """Numeric (s)_k for k >= 0, with (s)_{-1} = 1/(s-1)."""
    if k < -1:
        raise ValueError("Pochhammer order must be >= -1")
    if k == -1:
        return 1 / (s - 1)
    acc: Number = 1
    for i in range(k):
        acc = acc * (s + i)
    return acc
