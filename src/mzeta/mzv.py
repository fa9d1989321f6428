"""Numeric multiple zeta values: truncations, tails, continuation.

The strict truncation zeta(s)_{<N} and the weak (star) one are exact finite
nested sums.  Tails are evaluated through their complete asymptotic
expansions: for the strict tail over n1 > ... > nr > N,

    zeta(s)_{>N}  ~  sum_k  B_{k1}..B_{kr} / (k1!..kr!)
                     * (s1)_{k1-1} (s1+s2+k1-1)_{k2-1} ...
                       (s1+..+sr+k1+..+k_{r-1}-r+1)_{kr-1}
                     * N^(r-|s|-|k|),

with (x)_{-1} = 1/(x-1) and star Bernoulli numbers B*_k = (-1)^k B_k for the
weak tail over n1 >= ... >= nr >= N.  Vanishing odd Bernoulli numbers remove
exactly the factors that would otherwise put spurious poles off the true
polar set.  The j-th factor depends on k only through k_j and the prefix sum
k1+..+k_{j-1}, so the shells |k| = m come from a recursion over (depth,
prefix sum) rather than from the k-tuples one by one.

Analytic continuation splits the full sum by how many indices reach N:

    zeta(s) = zeta(s)_{<N} + sum_{j=1..r} zeta(s_1..s_j)_{>N-1} * zeta(s_{j+1}..s_r)_{<N},

and a weak chain n1 >= .. >= nr splits at N just as a strict one does,

    zeta*(s) = zeta*(s)_{<N} + sum_{j=1..r} zeta*(s_1..s_j)_{>=N} * zeta*(s_{j+1}..s_r)_{<N},

so only truncations and tails of one variant are ever needed, and no
cancellation between continued values occurs away from the polar set.  The
prefix tails s[:j] are the depth-j rows of one recursion for the tail of s.
The regularisation corrections of :func:`reg_via_tails` are shells of the
reversed-prefix tails.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from math import prod
from typing import Iterator, Sequence

import mpmath
from mpmath import mp
from mpmath.libmp import fone, from_int, fzero, mpc_abs, mpc_add, mpc_add_mpf, mpc_div, mpc_mul
from mpmath.libmp import mpc_mul_mpf, mpc_one, mpc_pow, mpc_zero, mpf_add, mpf_log
from mpmath.libmp import mpf_mul, mpf_pow_int

from .config import MIN_MAX_N, check_depth, max_n, memo, to_mpc, to_mpf
from .errors import (
    PolarPointError,
    PoleProximityError,
    PrecisionUnreachableError,
    TailNotConvergingError,
)
from .exact import bernoulli_ratios, compositions

POLE_TOL = 1e-12
K_CAP = 40


def working_dps(digits: int) -> int:
    return max(digits + 10, 20)


# -- polar set ---------------------------------------------------------------


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


def _factor_name(i: int) -> str:
    return {1: "s1", 2: "s1+s2"}.get(i, f"s1+..+s{i}")


def _is_polar_integer(i: int, c) -> bool:
    """Whether s1+..+si = c is a polar hyperplane: c = 1 for i = 1,
    c in {2, 1, 0, -2, -4, ...} for i = 2, c <= i for i >= 3."""
    if i == 2:
        return c in (2, 1, 0) or (c <= -2 and c % 2 == 0)
    return c == 1 if i == 1 else c <= i


def _pole_gap(x, c):
    """x - c; but None within POLE_TOL of the pole c."""
    gap = x - c
    return None if abs(gap) < POLE_TOL else gap


def polar_description(s: Sequence) -> str | None:
    """The polar hyperplane that s lies on, or None: for an all-exact s, a
    prefix sum equals a polar integer; otherwise it is within the pole
    tolerance of one."""
    exact = all(_is_exact(x) for x in s)
    prefix = Fraction(0) if exact else mp.mpc(0)
    for i, x in enumerate(s, start=1):
        if exact:
            prefix += Fraction(x)
            c, on = prefix, prefix.denominator == 1
        else:
            prefix += to_mpc(x)
            c = round(float(prefix.real))
            on = _pole_gap(prefix, c) is None
        if on and _is_polar_integer(i, c):
            where = f"{_factor_name(i)}={c}" if exact or i == 1 else f"on {_factor_name(i)}"
            return f"polar hyperplane {where}"
    return None


# -- truncations -------------------------------------------------------------


def nested_sums(
    s: Sequence, tops: Sequence[int], orders: Sequence[Sequence[int]] | None = None, star: bool = False
) -> tuple[list, list] | list[tuple[list, list]]:
    """Nested sums of prod_j n_j^-s_j log^k_j(n_j) at several tops, and of
    every suffix of s, from one sweep over n in O(depth) memory per order.

    Strict sums run over n1 > ... > nr > 0, star sums over n1 >= ... >= nr >= 1,
    and a top T bounds n1 < T.  At each n every level's running sum advances:
    level j adds n^-s_j log^k_j(n) times level j+1's sum below n (strict)
    or up to n (star).  With ``orders``, a block of order tuples (k_1..k_r)
    at the integer point s, the sums are real (mpf): each n computes log n
    and each weight n^-a log^k n once for the whole block, and orders that
    share a suffix share its running sum.  Without it s may be complex, with
    no log factors (mpc).  Each step is the mpmath call that the
    level-by-level recursion makes, at the ambient precision, so the sums
    are bit-for-bit that recursion's, whatever block an order sweeps in.

    Returns ``(at_tops, levels)`` per order (one pair without ``orders``):
    the sum over n1 < T for each T in ``tops``, and the sum of each suffix
    s[j:] below max(tops), ending with 1 for the empty suffix.
    """
    if min(tops) < 1:
        raise ValueError("n_top must be >= 1")
    prec, rnd = mp._prec_rounding
    real = orders is not None
    if real:
        zero, one, add, mul, make = fzero, fone, mpf_add, mpf_mul, mp.make_mpf
        chains = [tuple(zip(map(int, s), map(int, ks))) for ks in orders]
    else:
        zero, one, add, mul, make = mpc_zero, mpc_one, mpc_add, mpc_mul, mp.make_mpc
        chains = [tuple((-to_mpc(x))._mpc_ for x in s)]
    # one running sum per distinct suffix, each after the suffix it reads
    nodes: dict[tuple, int] = {}
    for chain in chains:
        for j in range(len(chain) - 1, -1, -1):
            nodes.setdefault(chain[j:], len(nodes))
    kinds = list(dict.fromkeys(suffix[0] for suffix in nodes))  # one weight per n each
    plan = [(i, kinds.index(suffix[0]), nodes.get(suffix[1:], -1)) for suffix, i in nodes.items()]
    # a star level reads its inner sum up to n, so inner sums advance
    # first; a strict level reads it below n, so outer sums do
    sweep = plan if star else plan[::-1]
    exps = list(dict.fromkeys(a for a, _ in kinds)) if real else []
    degrees = sorted({k for _, k in kinds if k}) if real else []

    def weights(n: int) -> list:
        x = from_int(n)
        if not real:
            return [mpc_pow((x, fzero), e, prec, rnd) for e in kinds]
        powers = {a: mpf_pow_int(x, -a, prec, rnd) for a in exps}
        if degrees:
            log_n = mpf_log(x, prec, rnd)
            logs = {k: mpf_pow_int(log_n, k, prec, rnd) for k in degrees}
        return [mpf_mul(powers[a], logs[k], prec, rnd) if k else powers[a] for a, k in kinds]

    acc = [zero] * len(plan)

    def value(suffix: tuple):
        return acc[nodes[suffix]] if suffix else one

    reached, n_from = {}, 1
    for top in sorted(set(tops)):
        for n in range(n_from, top):
            ws = weights(n)
            for i, slot, inner in sweep:
                w = ws[slot]
                acc[i] = add(acc[i], w if inner < 0 else mul(w, acc[inner], prec, rnd), prec, rnd)
        n_from = top
        reached[top] = [value(chain) for chain in chains]
    pairs = [
        ([make(reached[top][c]) for top in tops], [make(value(chain[j:])) for j in range(len(chain) + 1)])
        for c, chain in enumerate(chains)
    ]
    return pairs if real else pairs[0]


def zeta_truncated(s: Sequence, n_top: int, variant: str = "strict") -> mpmath.mpc:
    """Exact nested sum with n1 < n_top (strict or weak inner inequalities).

    One sweep of :func:`nested_sums`: O(n_top * depth) multiprecision
    operations in O(depth) memory.
    """
    _check_variant(variant)
    return nested_sums(s, (n_top,), star=variant == "star")[0][0]


# -- tails -------------------------------------------------------------------


class _TailShells:
    """Shells of the tail expansion of s and of each prefix s[:j], free of
    N, built one |k| at a time.

    Shell m sums the expansion terms over the k-tuples with |k| = m, less
    the one factor N^(r-|s|-m) that depends on N.  A tuple's next factor,
    B_k/k! (x)_(k-1) with x = x_j(p) = s_1+..+s_j + p - (j-1), depends only
    on the state (j, p) of the depth j and the prefix sum
    p = k_1+..+k_(j-1), so the shells come from one recursion,

        W_j(p') = sum_(p <= p')  W_(j-1)(p) B_(p'-p)/(p'-p)! (x_j(p))_(p'-p-1),

    from W_0 = 1 at p = 0: shell m of the prefix s[:j] is W_j(m), and of s
    itself W_r(m).  The same recursion on the factors' sizes gives its norm
    A_j(m), the sum of its terms' sizes, so shell m of s[:j] at N is
    W_j(m) N^(j-|s_1..s_j|-m) and its size is A_j(m) |N^(j-|s_1..s_j|-m)|.
    Each state keeps its running Pochhammer product as a raw libmp number,
    and each new shell advances it by one factor: building shell m costs
    about r (m+1) products.  A shell is built once, when first needed, so
    neither growing K nor moving N rebuilds it.

    A term whose chain meets a reciprocal factor 1/(x_j(p)-1) within the pole
    tolerance is left out of the sums.  Each state remembers the first such
    factor met by a path into it, in lexicographic order of the k-tuples, and
    shell m of s[:j] keeps that of the paths into W_j(m) as its pole.
    """

    def __init__(self, s: Sequence, variant: str) -> None:
        _check_variant(variant)
        self.star = variant == "star"
        self.ss = [to_mpc(x) for x in s]
        prefixes = [self.ss[:j] for j in range(len(self.ss) + 1)]  # totals[j]: |s[:j]|, as if alone
        self.totals = [mp.fsum(x.real for x in p) + 1j * mp.fsum(x.imag for x in p) for p in prefixes]
        prec, rnd = mp._prec_rounding
        self._heads = list(accumulate((x._mpc_ for x in self.ss), lambda a, b: mpc_add(a, b, prec, rnd)))
        self._states: list[list] = [[] for _ in self.ss]  # [j-1][p]: [x_j(p), its running product]
        # [j][p]: over the paths (k_1..k_j) of sum p, W_j(p), A_j(p), the first
        # path and the first path with a pole, each as (k-tuple, (j, p) of its
        # first pole or None)
        self._paths: list[list[tuple]] = [[(mpc_one, fone, ((), None), None)]] + [[] for _ in self.ss]
        self._ratios: list = []  # [k]: B_k/k! as a raw mpf, None where it vanishes
        # [j][m]: shell m of s[:j] as raw W_j(m), A_j(m) as an mpf, and the (j', p) of its pole
        self.rows: list[list[tuple]] = [[] for _ in self._paths]
        self._sizes: dict = {}  # (N, precision, m, j): shell m's size at N

    def value(self, n_from: int, k_order: int, depth: int) -> mpmath.mpc:
        """Shells |k| <= k_order of s[:depth] summed at N = n_from, once
        they are built."""
        value = mp.mpc(0)
        for m in range(k_order + 1):
            value += self._shell_at(n_from, m, depth)
        return value

    def estimate(self, n_from: int, k_order: int, depth: int) -> mpmath.mpf:
        """The first-omitted-shell estimate of s[:depth] at N = n_from, the
        larger size of shells K+1 and K+2; a TailNotConvergingError when the
        shells grow."""
        if n_from < 2:
            raise ValueError("tail expansions require N >= 2")
        self.grow(k_order + 2, depth)

        def larger(m: int) -> mpmath.mpf:
            return max(self._size_at(n_from, m, depth), self._size_at(n_from, m + 1, depth))

        estimate = larger(k_order + 1)
        if k_order >= 4 and estimate > larger(k_order - 1) > larger(k_order - 3):
            raise TailNotConvergingError(f"tail shells are growing at N={n_from}, K={k_order}")
        return estimate

    def grow(self, top: int, depth: int) -> None:
        """Build the shells up to |k| = top that are not built yet; a
        PoleProximityError for the first of s[:depth]'s with a pole."""
        while len(self._ratios) <= top:
            self._add_shell()
        for _, _, pole in self.rows[depth][: top + 1]:
            if pole is not None:
                j, p = pole
                shift = f"+{p}-{j}" if p else f"-{j}"
                raise PoleProximityError(f"reciprocal factor 1/({_factor_name(j)}{shift}) is singular")

    def shell(self, m: int) -> tuple[mpmath.mpc, tuple[int, int] | None]:
        """N-free shell m of s and the (j, p) of its pole, or None; the poles
        of the shells below it are not its own and are not refused."""
        while len(self._ratios) <= m:
            self._add_shell()
        value, _, pole = self.rows[-1][m]
        return mp.make_mpc(value), pole

    def _size_at(self, n_from: int, m: int, depth: int) -> mpmath.mpf:
        """Shell m of s[:depth] at N = n_from: its norm times
        |N^(depth-|s_1..s_depth|-m)|."""
        key = (n_from, mp.prec, m, depth)
        if key not in self._sizes:
            power = mp.power(n_from, (depth - self.totals[depth] - m).real)
            self._sizes[key] = self.rows[depth][m][1] * power
        return self._sizes[key]

    def _shell_at(self, n_from: int, m: int, depth: int) -> mpmath.mpc:
        """Shell m of s[:depth] at N = n_from: one product with its power of N."""
        power = mp.power(n_from, depth - self.totals[depth] - m)._mpc_
        return mp.make_mpc(mpc_mul(self.rows[depth][m][0], power, *mp._prec_rounding))

    def _add_shell(self) -> None:
        """Build shell m: each depth's states (j, p <= m) advance their
        products to k = m - p, and W_j(m), A_j(m) and the first paths into
        them are summed over p, the state (j, m) entering at k = 0."""
        m = len(self._ratios)
        prec, rnd = mp._prec_rounding
        ratio = bernoulli_ratios(m, self.star)[m]
        self._ratios.append(to_mpf(ratio)._mpf_ if ratio else None)
        if m:
            self._paths[0].append((mpc_zero, fzero, None, None))
        for j, states in enumerate(self._states, start=1):
            into = self._paths[j - 1]
            states.append(into[m][2] and self._state(j, m))  # None where no path reaches it
            weight, norm, first, pole = mpc_zero, fzero, None, None
            for p, state in enumerate(states):
                if state is None:
                    continue
                k = m - p
                x, run = state
                if k == 1:
                    run = state[1] = mpc_one
                elif k > 1:
                    run = state[1] = mpc_mul(run, mpc_add_mpf(x, from_int(k - 2), prec, rnd), prec, rnd)
                ratio = self._ratios[k]
                if ratio is None:
                    continue
                w_in, a_in, first_in, pole_in = into[p]
                # a k = 0 step on a singular state meets its pole: (x)_(-1) is None there
                path = (first_in[0] + (k,), first_in[1] or (None if run is not None else (j, p)))
                first = _earlier(first, path)
                pole = _earlier(pole, pole_in and (pole_in[0] + (k,), pole_in[1]))
                if path[1] is not None:
                    pole = _earlier(pole, path)
                if run is not None:
                    factor = mpc_mul_mpf(run, ratio, prec, rnd)
                    weight = mpc_add(weight, mpc_mul(w_in, factor, prec, rnd), prec, rnd)
                    norm = mpf_add(norm, mpf_mul(a_in, mpc_abs(factor, prec, rnd), prec, rnd), prec, rnd)
            self._paths[j].append((weight, norm, first, pole))
        for row, paths in zip(self.rows, self._paths):
            weight, norm, _, pole = paths[m]
            row.append((weight, mp.make_mpf(norm), pole and pole[1]))

    def _state(self, j: int, p: int) -> list:
        """State (j, p) at k = 0: x_j(p) and (x_j(p))_(-1) = 1/(x_j(p)-1),
        None within the pole tolerance."""
        prec, rnd = mp._prec_rounding
        x = mpc_add_mpf(self._heads[j - 1], from_int(p - j + 1), prec, rnd)
        gap = _pole_gap(mp.make_mpc(x), 1)
        return [x, None if gap is None else mpc_div(mpc_one, gap._mpc_, prec, rnd)]


def _earlier(a, b):
    """Of two (k-tuple, pole) paths, either of them None, the one whose tuple
    comes first."""
    return b if a is None or (b is not None and b[0] < a[0]) else a


def zeta_tail(
    s: Sequence, n_from: int, k_order: int, variant: str = "strict"
) -> tuple[mpmath.mpc, mpmath.mpf]:
    """Tail expansion value and first-omitted-shell estimate.

    Strict: sum over n1 > ... > nr > N; star: n1 >= ... >= nr >= N.
    Sums the expansion over multi-indices |k| <= k_order; the returned
    estimate is the larger size (sum of the terms' sizes) of shells K+1 and
    K+2.
    """
    shells = _TailShells(s, variant)
    estimate = shells.estimate(n_from, k_order, len(s))
    return shells.value(n_from, k_order, len(s)), estimate


def _tail_auto(
    s: Sequence, n_from: int, digits: int, variant: str
) -> tuple[mpmath.mpc, mpmath.mpf]:
    """Grow the tail order until the first omitted shell is below tolerance."""
    target = mp.mpf(10) ** (-(digits + 2))
    shells = _TailShells(s, variant)
    best = mp.inf
    for k_order in range(4, K_CAP + 1, 2):
        est = shells.estimate(n_from, k_order, len(s))
        if est < target:
            return shells.value(n_from, k_order, len(s)), est
        best = min(best, est)
    raise TailNotConvergingError(f"tail at N={n_from} stalls at estimate {mpmath.nstr(best)}")


# -- continued values --------------------------------------------------------

def _check_variant(variant: str) -> None:
    if variant not in ("strict", "star"):
        raise ValueError(f"unknown variant: {variant}")


def _exact_key(x):
    """Cache key of one argument: its exact value, never a rounded print."""
    if _is_exact(x):
        return x
    return type(x).__name__, getattr(x, "_mpf_", None) or getattr(x, "_mpc_", x)


@memo(
    key=lambda s, digits=12, variant="strict": (
        tuple(map(_exact_key, s)), digits, "strict" if variant == "star" and len(s) == 1 else variant, max_n()
    )
)
def zeta_value_with_error(
    s: Sequence, digits: int = 12, variant: str = "strict"
) -> tuple[mpmath.mpc, mpmath.mpf]:
    """Continued (star) multiple zeta value with a tail error estimate."""
    _check_variant(variant)
    r = len(s)
    check_depth(r)
    if r == 0:
        return mp.mpc(1), mp.zero
    desc = polar_description(s)
    if desc is not None:
        raise PolarPointError(desc)
    # at depth 1 the star value is the strict one
    return _continued_value(s, digits, "strict" if r == 1 else variant)


def zeta_value(s: Sequence, digits: int = 12, variant: str = "strict") -> mpmath.mpc:
    return zeta_value_with_error(s, digits, variant)[0]


def _continued_value(s: Sequence, digits: int, variant: str) -> tuple[mpmath.mpc, mpmath.mpf]:
    target = mp.mpf(10) ** (-(digits + 2))
    cap = max_n()
    dps = working_dps(digits)
    with mp.workdps(dps):
        tails = _TailShells(s, variant)
        for n_level, k_order in _planned_levels(s, tails, target, cap):
            level = _value_level(s, tails, n_level, k_order, target)
            if level is not None:
                total, err, scale = level
                # the addends can dwarf the value: redo this level with the
                # digits their cancellation costs, keeping the tail estimate
                lost = scale * mp.mpf(10) ** -dps / target
                if lost > 1:
                    tails = None  # free these shells before the finer ones are built
                    with mp.workdps(dps + int(mpmath.ceil(mpmath.log10(lost)))):
                        total = _value_level(s, _TailShells(s, variant), n_level, k_order, mp.inf)[0]
                return +total, err
        bounded = _integral_test_value(s, target, variant == "star")
        if bounded is not None:
            return bounded
        raise PrecisionUnreachableError(
            f"zeta value at {list(map(str, s))} did not reach "
            f"{digits} digits within N={cap}, K={K_CAP}"
        )


# Seconds per operation, timed over the values of perfbench's values pool on
# a 2-CPU Intel Xeon with mpmath's pure-Python backend (their ratios are what
# matter): one state's step in a shell build, the power of N that each
# evaluated shell takes, and one sweep term (one of the N (distinct
# exponents + 2r)).  The shared recursion builds shell m of every prefix
# in about r (m+1) steps.
SHELL_STEP_S, SHELL_EVAL_S, SWEEP_TERM_S = 8e-6, 40e-6, 10e-6


def _planned_levels(s: Sequence, tails: _TailShells, target, cap: int) -> list[tuple[int, int]]:
    """The levels (N, K) whose estimates the shell norms predict to pass,
    cheapest first.  A shell that meets a pole while they grow stops the
    growth of K and raises its PoleProximityError when no level is planned
    yet.

    N runs over 16 2^i up to the cap and K over 4, 6, .., K_CAP.
    Shell m of prefix j has size norm * N^(j-Re|s_1..s_j|-m) at N, so each
    prefix's estimate and growth test are known at every N once its shells
    are built.  Each suffix sum of the sweep is bounded by the product of
    its indices' one-index sums, each over the range its place in the chain
    allows, so a predicted level fails only at a rounding's edge.  A level
    costs its sweep and the evaluation of its shells; K grows while a level
    of some higher order, its shells extrapolated from the last ones and
    their building charged, is predicted to be cheaper than the best so far,
    and while no level is planned.
    """
    r = len(s)
    log_target = float(mpmath.log(target))
    ns = sorted({min(MIN_MAX_N << i, cap) for i in range(cap.bit_length())})
    sigmas = [float(to_mpc(x).real) for x in s]
    heads = [float(total.real) for total in tails.totals[1:]]
    distinct = len({to_mpc(x)._mpc_ for x in s})
    # per N: ln of the tails' threshold, the sweep's cost and each prefix's
    # ln suffix bound
    at = []
    for n in ns:
        # the suffix s[j:] sums over N > n_(j+1) > .. > n_r >= 1, so its index
        # i places down from the top runs over r-j-i .. N-1-i; a weak chain's
        # indices each run over 1 .. N-1
        bounds = [
            sum(
                _log_power_sum(sigma, *((1, n - 1) if tails.star else (r - j - i, n - 1 - i)))
                for i, sigma in enumerate(sigmas[j:])
            )
            for j in range(1, r + 1)
        ]
        n_from = n if tails.star else n - 1
        at.append((n, math.log(n_from), (n - 1) * (distinct + 2 * r) * SWEEP_TERM_S, bounds))
    logs: list[list[float]] = [[] for _ in s]  # [j-1]: ln(norm) of each built shell of s[:j]

    def log_norm(j: int, m: int) -> float:
        """ln(norm) of prefix j's shell m; past the built ones, geometric
        in m from the last two of the same parity."""
        top = len(logs[j]) - 1
        if m <= top:
            return logs[j][m]
        t = top - (m - top) % 2
        a, b = logs[j][t], logs[j][t - 2]
        return a + (m - t) // 2 * (a - b) if b > -math.inf else a

    def cheapest(k_order: int, best: float) -> tuple[float, int]:
        """The cheapest (cost, N) predicted to pass at order K and to cost
        less than ``best``: N = 0 when none is, -1 when no N costs less."""
        cost = r * (k_order + 3) * SHELL_EVAL_S
        cost += r * sum(range(len(logs[0]) + 1, k_order + 4)) * SHELL_STEP_S
        if cost + at[0][2] >= best:
            return math.inf, -1
        window = [[log_norm(j, m) for m in range(k_order - 3, k_order + 3)] for j in range(r)]
        for n, log_n, sweep, suffix_bounds in at:
            if cost + sweep >= best:
                break
            error = _predicted_error(window, heads, suffix_bounds, log_n, k_order)
            if error < log_target:
                return cost + sweep, n
        return math.inf, 0

    candidates, best = [], math.inf
    for k_order in range(4, K_CAP + 1, 2):
        try:
            for j in range(1, r + 1):
                tails.grow(k_order + 2, j)
        except PoleProximityError:
            if candidates:
                break
            raise
        for row, log_norms in zip(tails.rows[1:], logs):
            for _, norm, _ in row[len(log_norms) :]:
                log_norms.append(float(mpmath.log(norm)) if norm else -math.inf)
        cost, n_level = cheapest(k_order, best)
        if n_level > 0:
            candidates.append((cost, n_level, k_order))
            best = cost
        # grow while some higher order is predicted to be cheaper: look up to
        # the first that is, or the first whose shells alone cost more
        ahead = (cheapest(k, best)[1] for k in range(k_order + 2, K_CAP + 1, 2))
        if candidates and next((n for n in ahead if n), 0) <= 0:
            break
    return [(n_level, k_order) for _, n_level, k_order in sorted(candidates)]


def _predicted_error(window: list, heads: list, suffix_bounds: list, log_n: float, k_order: int) -> float:
    """ln of a level's error estimate at N predicted from the prefixes' ln
    norms of shells K-3..K+2 (``window``), or inf when a prefix's shells
    grow; ``heads`` are the prefixes' Re|s_1..s_j| and ``suffix_bounds`` the
    ln bounds of their suffix sums."""
    terms = []
    for j, (log_norms, head, bound) in enumerate(zip(window, heads, suffix_bounds), start=1):
        size = [a - m * log_n for m, a in enumerate(log_norms, start=k_order - 3)]
        estimate, last, older = max(size[4:]), max(size[2:4]), max(size[:2])
        if estimate > last > older:
            return math.inf
        terms.append(estimate + (j - head) * log_n + max(bound, 0.0))
    top = max(terms)
    if top == -math.inf:
        return top
    return top + math.log(sum(math.exp(t - top) for t in terms))


def _log_power_sum(sigma: float, low: int, high: int) -> float:
    """ln of a bound of sum_(low <= n <= high) n^-sigma: the larger end
    term plus the integral over [low, high]."""
    a, log_low, log_high = 1.0 - sigma, math.log(low), math.log(high)
    ends = -sigma * max(log_low, log_high) if sigma < 0 else -sigma * log_low
    if high == low:
        return ends
    if a == 0:
        area = math.log(log_high - log_low)
    elif a > 0:
        area = a * log_high + math.log(-math.expm1(a * (log_low - log_high))) - math.log(a)
    else:
        area = a * log_low + math.log(-math.expm1(a * (log_high - log_low))) - math.log(-a)
    top = max(ends, area)
    return top + math.log1p(math.exp(min(ends, area) - top))


def _value_level(s: Sequence, tails: _TailShells, n_level: int, k_order: int, target):
    """Truncation below N plus the prefix tails at order K: the value, its
    error estimate and the sum of the addends' sizes; None when the error
    estimate is not below ``target`` or a prefix's shells grow.
    Strict tails start past N - 1, weak ones at N.  A level that the shell
    norms fail evaluates no shell and sweeps nothing."""
    n_from = n_level if tails.star else n_level - 1
    try:
        ests = [tails.estimate(n_from, k_order, j) for j in range(1, len(s) + 1)]
    except TailNotConvergingError:
        return None
    # each estimate alone bounds the error below: sum shells and sweep only
    # when all pass
    if any(est >= target for est in ests):
        return None
    # the whole truncation and every suffix's, from one sweep
    total, *suffixes = nested_sums(s, (n_level,), star=tails.star)[1]
    err, scale = mp.zero, abs(total)
    for j, (est, suffix) in enumerate(zip(ests, suffixes), start=1):
        term = tails.value(n_from, k_order, j) * suffix
        total += term
        scale += abs(term)
        err += est * max(mp.one, abs(suffix))
    return (total, err, scale) if err < target else None


def _integral_test_value(s: Sequence, target, star: bool):
    """Truncation below N = MIN_MAX_N and the integral-test bound on its
    tails, when every Re(s_i) = sigma_i > 1 and the bound is below
    ``target``; else None.  Dropping the order of the positive sum over
    n1 > .. > nj >= N (or n1 >= .. >= nj >= N) bounds |tail(s[:j])| by
    prod_{i<=j} (N^-sigma_i + N^(1-sigma_i)/(sigma_i-1)).  It serves where
    (s)_k grows like |s|^k faster than any level's N^-k, as at a huge s.
    """
    sigmas = [to_mpc(x).real for x in s]
    if min(sigmas) <= 1:
        return None
    n = MIN_MAX_N
    total, *suffixes = nested_sums(s, (n,), star=star)[1]
    err, bound = mp.zero, mp.one
    for sigma, suffix in zip(sigmas, suffixes):
        bound *= mp.power(n, -sigma) + mp.power(n, 1 - sigma) / (sigma - 1)
        err += bound * max(mp.one, abs(suffix))
    return (+total, err) if err < target else None


def zeta_tail_via_values(
    s: Sequence, n_from: int, digits: int = 12, variant: str = "strict"
) -> mpmath.mpc:
    """Tail from continued values and truncations, no expansion involved.

    Partitions the full sum by how many indices reach the threshold:
    zeta = sum_j tail(s[:j]) * truncation(s[j:]), and solves for the tail
    of each prefix in turn, shallowest first: r values and r sweeps.  Serves
    as an independent route (and the fallback when the asymptotic tail
    cannot reach tolerance at small N).
    """
    _check_variant(variant)
    top = n_from + 1 if variant == "strict" else n_from
    tails = [mp.mpc(1)]
    for r in range(1, len(s) + 1):
        value = zeta_value(s[:r], digits + 4, variant)
        truncations = nested_sums(s[:r], (top,), star=variant == "star")[1]
        total = value - truncations[0]
        for j in range(1, r):
            total -= tails[j] * truncations[j]
        tails.append(total)
    return tails[-1]


# -- regularised continuation assembled from tails ----------------------------


def correction_tuples(prefix: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Tuples (k_1..k_i), k_j >= -1, with sum k_j = -sum(prefix), in
    lexicographic order: the compositions of i - sum(prefix), less 1 each."""
    i = len(prefix)
    for ks in compositions(i - sum(prefix), i):
        yield tuple(k - 1 for k in ks)


def correction_terms(prefix: Sequence[int]) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """The correction tuples of ``prefix`` with their coefficients
    prod_j B*_{k_j+1}/(k_j+1)!, where that is nonzero."""
    ratios = bernoulli_ratios(max(0, len(prefix) - sum(prefix)), True)
    for ks in correction_tuples(prefix):
        coeff = prod((ratios[k + 1] for k in ks), start=Fraction(1))
        if coeff:
            yield ks, coeff


def reg_correction_term(
    point: Sequence[int], s: Sequence, star: bool = False
) -> mpmath.mpc:
    """The Bernoulli/Pochhammer correction attached to a full-depth prefix.

    For the depth-i prefix (a_1..a_i) of an expansion point this is

        sum_{k_1..k_i >= -1, sum(k_j+a_j)=0}  prod_j Bst_{k_j+1}/(k_j+1)!
            * (s_i)_{k_i} (s_i+s_{i-1}+k_i)_{k_{i-1}} ...

    with star Bernoulli numbers for the plain variant and plain Bernoulli
    numbers for the star variant: the N-free shell i - sum(a) of the tail
    expansion of (s_i..s_1), with the other variant's Bernoulli numbers.
    """
    i, m = len(point), len(point) - sum(point)
    if m < 0:
        return mp.mpc(0)
    if i == 0:
        return mp.mpc(1)
    value, pole = _TailShells(s[::-1], "strict" if star else "star").shell(m)
    if pole is not None:  # its depth j in the reversed prefix is prefix depth i + 1 - j
        raise PoleProximityError(f"regularised correction factor at prefix depth {i + 1 - pole[0]} is singular")
    return value


def reg_via_tails(
    point: Sequence[int], s: Sequence, digits: int = 12, star: bool = False
) -> mpmath.mpc:
    """Regularised multiple zeta value at s near an integer point, assembled
    from continued values of lower depth and exact correction terms."""
    return reg_via_tails_with_scale(point, s, digits, star)[0]


def reg_via_tails_with_scale(
    point: Sequence[int], s: Sequence, digits: int = 12, star: bool = False
) -> tuple[mpmath.mpc, mpmath.mpf]:
    """:func:`reg_via_tails` and the scale of its rounding, the sum over its
    terms of |correction| max(1, |suffix value|): each suffix value is good
    to 10^-(digits+6) absolutely, and each product to 10^-(digits+10)."""
    point = tuple(int(a) for a in point)
    r = len(point)
    if len(s) != r:
        raise ValueError("argument depth mismatch")
    variant = "star" if star else "strict"
    with mp.workdps(working_dps(digits)):
        total, scale = mp.mpc(0), mp.zero
        for i in range(r + 1):
            corr = reg_correction_term(point[:i], s[:i], star=star)
            if corr == 0:
                continue
            suffix = zeta_value(list(s[i:]), digits + 4, variant)
            total += (-1) ** i * suffix * corr
            scale += abs(corr) * max(1, abs(suffix))
        return total, scale
