"""Multiple Stieltjes constants and regularised power series at integer points.

The constant gamma_{k1..kr}^{(a1..ar)} is the regularised value (constant
term of the formal asymptotic expansion) of the truncated nested sum

    u_N = sum_{N > n1 > ... > nr > 0}  log^{k1}(n1)...log^{kr}(nr) / (n1^{a1}...nr^{ar}).

The expansion is built by depth recursion: expand the inner depth-(r-1) sum,
multiply by the basis term (log n)^{k1} n^{-a1}, and push through the
partial-sum operator.  Constants are carried as named atoms
``g(a1,..,ar|k1,..,kr)`` (``gs(...)`` for the star variant); the numeric value
is recovered by extrapolation, u_N minus the resolved divergent part, with
correction terms chosen so the first omitted cell is below tolerance.

Star variant: following the weak-inequality convention, the star constants
regularise sums over N >= n1 >= ... >= nr >= 1; their expansions are obtained
from the strict recursion by adding the N-th term series at each depth.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, count, product
from math import factorial
from typing import Iterable, Iterator, Sequence

import mpmath
from mpmath import mp
from mpmath.libmp import mpf_sub

from . import mzv
from .config import check_depth, max_n, memo, to_mpc, to_mpf
from .errors import PrecisionUnreachableError
from .exact import compositions
from .partial_sums import abs_cell_magnitude, schedule_n, sum_sequence
from .scale import INF, Coeff, ScaleSeries

IntPoint = tuple[int, ...]
OrderIndex = tuple[int, ...]


def as_point(coords: Iterable[int]) -> IntPoint:
    pt = tuple(int(c) for c in coords)
    check_depth(len(pt))
    return pt


def _excess(point: Sequence[int]) -> list[int]:
    """a_1+..+a_i - i for each prefix (a_1..a_i) of the point."""
    return list(accumulate(a - 1 for a in point))


def in_U(point: Sequence[int]) -> bool:
    """Strict domain: every prefix sum a_1+..+a_i exceeds i."""
    return all(e > 0 for e in _excess(point))


def in_closure(point: Sequence[int]) -> bool:
    """Closure of the domain: every prefix sum is at least its length."""
    return all(e >= 0 for e in _excess(point))


def index_set(point: Sequence[int]) -> tuple[int, ...]:
    """Indices i with a_1+..+a_i = i (always including 0)."""
    return (0, *(i for i, e in enumerate(_excess(point), start=1) if e == 0))


# -- constant atoms ----------------------------------------------------------


def gamma_atom(point: Sequence[int], order: Sequence[int], star: bool = False) -> str:
    head = "gs" if star else "g"
    return f"{head}({','.join(map(str, point))}|{','.join(map(str, order))})"


def parse_gamma_atom(name: str) -> tuple[IntPoint, OrderIndex, bool]:
    star = name.startswith("gs(")
    body = name[3:-1] if star else name[2:-1]
    pt_s, ks_s = body.split("|")
    pt = tuple(int(x) for x in pt_s.split(",")) if pt_s else ()
    ks = tuple(int(x) for x in ks_s.split(",")) if ks_s else ()
    return pt, ks, star


# -- formal expansions -------------------------------------------------------


def _point_order(point: Sequence[int], order: Sequence[int]) -> tuple[IntPoint, OrderIndex]:
    """Point and order, refused unless of one depth (within the cap) and >= 0."""
    point, order = as_point(point), tuple(int(k) for k in order)
    if len(point) != len(order):
        raise ValueError("point and order must have equal depth")
    if any(k < 0 for k in order):
        raise ValueError("order entries must be >= 0")
    return point, order


@memo(
    key=lambda point, order, precision, star=False: (
        *_point_order(point, order), precision, star
    )
)
def asymptotic_expansion(
    point: Sequence[int], order: Sequence[int], precision: int, star: bool = False
) -> ScaleSeries:
    """Formal expansion of the truncated nested log sum, to X-precision
    ``precision``; the constant cell is the single atom named by
    :func:`gamma_atom`, every other cell is exact apart from lower-depth
    gamma atoms."""
    point, order = _point_order(point, order)
    if not point:
        series = ScaleSeries.one()
    else:
        a1, k1 = point[0], order[0]
        inner = asymptotic_expansion(point[1:], order[1:], precision + 1 - a1, star)
        v = inner.shift(k1, a1)
        series = sum_sequence(v, precision)
        if star:
            # sum over n <= N adds the N-th term itself to the strict sum
            series = series + v.truncated(series.precision)
        if series.precision >= 0:
            series = series.with_constant_cell(
                Coeff.atom(gamma_atom(point, order, star))
            )
    return series


# -- exact truncated sums ----------------------------------------------------


def truncated_log_sum(
    point: Sequence[int],
    order: Sequence[int],
    n_top: int,
    star: bool = False,
) -> mpmath.mpf:
    """Nested finite sum with n_1 < n_top, at the ambient working precision.

    Strict variant sums over n_top > n1 > ... > nr > 0; the star variant
    relaxes the inner inequalities to n1 >= ... >= nr >= 1 (the top bound
    stays strict, so pass ``n_top = N + 1`` for a weak top bound).

    One sweep of :func:`mzv.nested_sums`: O(n_top * depth) operations in
    O(depth) memory.
    """
    point, order = _point_order(point, order)
    return mzv.nested_sums(point, (n_top,), [order], star)[0][0][0]


# -- numeric resolution ------------------------------------------------------

_atom_cache: dict[str, tuple[int, int, mpmath.mpf]] = {}  # name -> (cap, digits, value)


def resolve_atom(name: str, digits: int) -> mpmath.mpf:
    """Numeric value of a constant atom ``g(..)``/``gs(..)`` of
    :func:`gamma_atom`, by extrapolation.

    A value resolved earlier to at least ``digits`` digits, under the same cap, is reused.
    """
    hit = _atom_cache.get(name)
    if hit is not None and hit[0] == max_n() and hit[1] >= digits:
        return hit[2]
    value = _constant_by_extrapolation(*parse_gamma_atom(name), digits)[0]
    _atom_cache[name] = (max_n(), digits, value)
    return value


def _resolve_series_atoms(series: ScaleSeries, digits: int) -> dict[str, tuple]:
    # deepest first, then by name, whatever the string hashing: a shallower
    # atom that a deeper one resolves on the way, at more digits, is reused
    def deepest_first(name: str) -> tuple[int, str]:
        return -len(parse_gamma_atom(name)[0]), name

    return {name: resolve_atom(name, digits)._mpf_ for name in sorted(series.atoms(), key=deepest_first)}


def _exact_constant(point: IntPoint, order: OrderIndex, star: bool) -> Fraction | None:
    """The rational constant of a nested sum that is a polynomial in N, else
    None: every level sums (l = 0, m <= 0) basis terms, so the expansion is exact."""
    series = ScaleSeries.one()
    for a, k in zip(reversed(point), reversed(order)):
        v = series.shift(k, a)
        series = sum_sequence(v, 0) + (v if star else ScaleSeries.zero())
        if series.precision != INF:
            return None
    return series.cell(0, 0).q


def _constant_by_extrapolation(
    point: IntPoint, order: OrderIndex, star: bool, digits: int
) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Regularised value and error estimate of one constant: a block of one."""
    return next(_constants_by_extrapolation(point, [order], star, digits))


def _constants_by_extrapolation(
    point: IntPoint, orders: Sequence[OrderIndex], star: bool, digits: int
) -> Iterator[tuple[mpmath.mpf, mpmath.mpf]]:
    """Regularised value and error estimate of each order at the point, in
    turn: u_N less its expansion truncated before the first cell below
    target, at N = schedule_n and 2N, refused unless they agree.  At that N
    the floor e^(-2 pi N) lies far below any target, so N is the one level.

    Every order's level is planned before any runs.  Orders whose levels
    share the working dps take u_N and u_2N from one block sweep, made when
    the first of them needs it.  Atoms resolve order by order.
    """
    target = 0.25 * 10.0 ** (-(digits + 2))
    n_top = schedule_n(digits)
    tops = (n_top, 2 * n_top)
    # a star sum includes its top index: u_N sums n1 < N+1
    sum_tops = [n + star for n in tops]
    exacts = [_exact_constant(point, ks, star) for ks in orders]
    levels = [
        None if q is not None else _level(point, ks, star, n_top, target)
        for ks, q in zip(orders, exacts)
    ]
    groups: dict[int, list[OrderIndex]] = {}
    for ks, level in zip(orders, levels):
        if level is not None:
            groups.setdefault(level[1], []).append(ks)
    swept: dict[int, dict[OrderIndex, list]] = {}
    for order, exact, level in zip(orders, exacts, levels):
        if exact is not None:
            with mp.workdps(digits + 15):
                value = to_mpf(exact)
            yield value, mp.zero
            continue
        stable = False
        if level is not None:
            series, extra = level
            values = _resolve_series_atoms(series, digits + extra - 7)
            with mp.workdps(digits + extra):
                prec, rnd = mp._prec_rounding
                if extra not in swept:
                    block = groups[extra]
                    sweep = mzv.nested_sums(point, sum_tops, block, star)
                    swept[extra] = {ks: at_tops for ks, (at_tops, _) in zip(block, sweep)}
                divergent = series.evaluate(tops, values, prec, rnd)
                sums = swept[extra][order]
                u_n, u_2n = (mp.make_mpf(mpf_sub(u._mpf_, d, prec, rnd)) for u, d in zip(sums, divergent))
                # the N/2N gap, floored by the rounding of u_2N - D(2N)
                floor = mpmath.ldexp(max(abs(sums[1]), abs(mp.make_mpf(divergent[1]))), 3 - prec)
                err = max(abs(u_2n - u_n), floor)
                stable = err <= mpmath.mpf(10) ** (-digits)
        if not stable:
            raise PrecisionUnreachableError(
                f"{gamma_atom(point, order, star)} did not stabilise to "
                f"{digits} digits by N={2 * n_top}"
            )
        yield u_2n, err


def _level(
    point: IntPoint, order: OrderIndex, star: bool, n_top: int, target: float
) -> tuple[ScaleSeries, int] | None:
    """The truncated expansion at N = ``n_top`` and the working digits on
    top of the target's (atoms get 7 fewer); None when no cut reaches target."""
    series = _truncated_expansion(point, order, star, n_top, target)
    if series is None:
        return None
    # guard digits for the cancellation u_2N - divergent(2N), at the larger
    # top; both the N-growth of negative orders and the log-power growth count
    max_deg = max((l for (_, l), _ in series.terms), default=0)
    extra = max(0.0, -series.order() * math.log10(2 * n_top))
    extra += max_deg * math.log10(math.log(2 * n_top))
    return series, 15 + int(extra)


def _truncated_expansion(
    point: IntPoint, order: OrderIndex, star: bool, n_top: int, target: float
) -> ScaleSeries | None:
    """The expansion less its constant cell, cut before its first cell below
    ``target`` at N = ``n_top``, raising the X-order by 6 until one is; None
    once the top cells stop shrinking (the series turns near order 2 pi N),
    or at once when the target lies far below that turn's floor e^(-2 pi N).
    The ladder starts at the least prefix excess (a - 1 at depth 1), below
    which no cell of order >= 1 lies; a probe with no top cells probes on."""
    if target < 1e-6 * math.exp(-2 * math.pi * n_top):
        return None
    smallest = INF
    for probe in count(8 + 6 * max(0, (min(_excess(point)) - 3) // 6), 6):
        table = asymptotic_expansion(point, order, probe, star)
        top = {q for (q, _), _ in table.terms if q > probe - 6}
        if not top and table.precision != INF:
            continue
        cut = _first_small_cutoff(table, n_top, target)
        if cut is not None:
            return table.truncated(cut).drop_constant_cell()
        top_smallest = min((abs_cell_magnitude(table, q, n_top) for q in top), default=INF)
        if top_smallest >= smallest:
            return None
        smallest = top_smallest


def _first_small_cutoff(series: ScaleSeries, n_top: int, target: float) -> int | None:
    orders = sorted({q for (q, _), _ in series.terms if q >= 1})
    cutoff = 0
    for q in orders:
        if abs_cell_magnitude(series, q, n_top) < target:
            return cutoff
        cutoff = q
    return None if orders else 0


# -- public values -----------------------------------------------------------


@dataclass(frozen=True)
class StieltjesValue:
    value: mpmath.mpf
    point: IntPoint
    order: OrderIndex
    star: bool
    est_error: mpmath.mpf
    method: str


def stieltjes_constant(
    point: Sequence[int],
    order: Sequence[int],
    digits: int = 12,
    star: bool = False,
    method: str = "extrapolation",
) -> StieltjesValue:
    """The multiple Stieltjes constant of the given order at an integer point.

    ``method="extrapolation"`` (default) resolves the constant as the limit
    of the truncated sum minus its divergent expansion.
    ``method="closed_form_assembly"`` instead Taylor-extracts the value from
    the meromorphic continuation assembled out of tails and Bernoulli
    corrections; agreement of the two routes is part of the test suite, not
    an internal assumption.
    """
    point, order = _point_order(point, order)
    if method == "extrapolation":
        value, err = _constant_by_extrapolation(point, order, star, digits)
    elif method == "closed_form_assembly":
        value, err = _constant_by_assembly(point, order, star, digits)
    else:
        raise ValueError(f"unknown method: {method}")
    return StieltjesValue(value, point, order, star, err, method)


# rho_j / R_j: the torus of the assembly samples against the polydisc of its
# aliasing bound, rho_j = 1e-8 2^-j and R_j = 2^-(j+1)
_TORUS_RATIO = 2e-8


def _constant_by_assembly(
    point: IntPoint, order: OrderIndex, star: bool, digits: int
) -> tuple[mpmath.mpf, mpmath.mpf]:
    """gamma_k = (-1)^|k| k! c_k, where c_k is the Taylor coefficient of the
    regularised function f = :func:`mzv.reg_via_tails` at the point: the mean
    of f(a + z) z^-k over a torus of M_j-th roots of unity of radius rho_j,
    at phases pi (2t+1)/M_j, so that conjugate nodes share one evaluation.
    A contiguous sum z_i+..+z_j stays at least rho_j off 0.

    f is analytic on the polydisc of radii R_j, which moves no contiguous
    sum by 1, so the trapezoidal aliasing is at most
    B R^-k (prod_j 1/(1 - q^M_j) - 1), q = rho_j/R_j, and M_j makes q^M_j
    reach 10^-(digits+2).  B is the majorant sum |c_n| R^n over the grid's
    coefficients of total degree below max M_j (those above it are mostly
    rounding).  Each contiguous sum a_i+..+a_j on a polar integer cancels
    terms of size up to 1/rho_j, so the samples carry 8 more digits for it,
    as for each order of k; their rounding follows the largest scale of
    :func:`mzv.reg_via_tails_with_scale` met, and z^-k magnifies it.
    """
    if not point:
        return mp.one, mp.zero
    r = len(point)
    polar = sum(mzv._is_polar_integer(j - i + 1, sum(point[i : j + 1])) for i in range(r) for j in range(i, r))
    sample_digits = digits + 8 * (sum(order) + polar) + 6
    nodes = [max(k + 1, 2, math.ceil((digits + 2) / -math.log10(_TORUS_RATIO))) for k in order]
    with mp.workdps(mzv.working_dps(sample_digits)):
        q = mp.mpf(_TORUS_RATIO)
        radii = [mp.mpf(2) ** -(j + 1) for j in range(r)]
        rho = [q * R for R in radii]
        axes = [[x * mp.expjpi(mp.mpf(2 * t + 1) / m) for t in range(m)] for x, m in zip(rho, nodes)]
        samples: dict[tuple[int, ...], mpmath.mpc] = {}
        scale = mp.zero
        for t in product(*map(range, nodes)):
            twin = tuple(m - 1 - u for m, u in zip(nodes, t))
            if twin in samples:
                samples[t] = mp.conj(samples[twin])
            else:
                s = [a + axis[u] for a, axis, u in zip(point, axes, t)]
                samples[t], at_t = mzv.reg_via_tails_with_scale(point, s, sample_digits, star=star)
                scale = max(scale, at_t)

        def coefficient(n: tuple[int, ...]) -> mpmath.mpc:
            terms = (f * mp.fprod(axis[u] ** -m for axis, u, m in zip(axes, t, n)) for t, f in samples.items())
            return mp.fsum(terms) / len(samples)

        lower = (n for n in product(*map(range, nodes)) if sum(n) < max(nodes))
        majorant = mp.fsum(abs(coefficient(n)) * mp.fprod(map(pow, radii, n)) for n in lower)
        aliasing = majorant / mp.fprod(map(pow, radii, order)) * (mp.fprod(1 / (1 - q**m) for m in nodes) - 1)
        rounding = scale * mp.mpf(10) ** -(sample_digits + 5) / mp.fprod(map(pow, rho, order))
        weight = math.prod(factorial(k) for k in order)
        return (-1) ** sum(order) * weight * coefficient(order).real, weight * (aliasing + rounding)


# -- regularised power series -------------------------------------------------


def iter_orders(depth: int, degree: int) -> Iterator[OrderIndex]:
    """All order tuples of the given depth with total degree <= degree, in
    lexicographic order: the compositions of degree with a slack part."""
    for ks in compositions(degree, depth + 1):
        yield ks[:-1]


@dataclass(frozen=True)
class RegSeries:
    """Power-series data of the regularised multiple zeta function.

    ``coefficients[k]`` is the Taylor coefficient at the center, i.e.
    (-1)^{|k|} / (k1!..kr!) * gamma_k; populated for |k| <= degree.
    """

    center: IntPoint
    degree: int
    star: bool
    digits: int
    coefficients: dict[OrderIndex, mpmath.mpf] = field(repr=False)

    @property
    def depth(self) -> int:
        return len(self.center)


@dataclass(frozen=True)
class EvalResult:
    value: mpmath.mpc
    remainder_estimate: mpmath.mpf


@memo(
    key=lambda center, degree, digits=12, star=False: (
        as_point(center), degree, digits, star, max_n()
    )
)
def reg_series(
    center: Sequence[int], degree: int, digits: int = 12, star: bool = False
) -> RegSeries:
    center = as_point(center)
    if degree < 0:
        raise ValueError("degree must be >= 0")
    coeffs: dict[OrderIndex, mpmath.mpf] = {}
    orders = list(iter_orders(len(center), degree))
    for ks, (gamma, _) in zip(orders, _constants_by_extrapolation(center, orders, star, digits)):
        weight = Fraction((-1) ** sum(ks), math.prod(factorial(k) for k in ks))
        coeffs[ks] = to_mpf(weight) * gamma
    return RegSeries(center, degree, star, digits, coeffs)


def eval_reg(series: RegSeries, s: Sequence) -> EvalResult:
    """Evaluate the regularised power series at s (near the center).

    Partial sum to the stored degree, with the last total-degree shell as a
    crude remainder estimate; a divergence warning is emitted when the shell
    magnitudes are not decreasing.
    """
    if len(s) != series.depth:
        raise ValueError("argument depth mismatch")
    offsets = [to_mpc(si) - ai for si, ai in zip(s, series.center)]
    shells = [mp.zero * 1j for _ in range(series.degree + 1)]
    for ks, coeff in series.coefficients.items():
        term = coeff * mp.one
        for off, k in zip(offsets, ks):
            if k:
                term *= off**k
        shells[sum(ks)] += term
    value = mp.fsum(sh.real for sh in shells) + 1j * mp.fsum(sh.imag for sh in shells)
    last = abs(shells[-1]) if series.degree >= 0 else mp.zero
    if series.degree >= 2:
        prev = abs(shells[-2])
        if last > prev and last > mp.mpf(10) ** (-series.digits):
            warnings.warn(
                f"regularised series at {series.center}: last shell is not "
                f"decreasing ({mpmath.nstr(prev)} -> {mpmath.nstr(last)}); "
                "offset may be outside the radius of convergence",
                RuntimeWarning,
                stacklevel=2,
            )
    return EvalResult(value, last)
