"""Executable verification of the expansion, inversion and stuffle identities.

Every check evaluates both sides of one identity instance numerically (or
exactly, where both sides are finite rational expressions) and reports the
absolute gap against a tolerance of 10^(2-digits) times the number of
right-hand-side terms.  Checks are deterministic given (identity, seed,
digits): all sampled points and offsets flow from one seeded generator, are
rounded to rationals, and are re-drawn until they keep every reciprocal
factor safely away from its pole.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, log10
from typing import Sequence

import mpmath
from mpmath import mp

from . import mzv, stieltjes
from .config import to_mpc, to_mpf
from .errors import TailNotConvergingError
from .stuffle import deduce_sequence, enumerate_stufflings, f_rational, inversion_sign
from .stieltjes import index_set

@dataclass(frozen=True)
class IdentityCheck:
    name: str
    params: dict
    lhs: mpmath.mpc
    rhs: mpmath.mpc
    abs_gap: mpmath.mpf
    tolerance: mpmath.mpf

    @property
    def passed(self) -> bool:
        return self.abs_gap <= self.tolerance

    def to_json_dict(self, digits: int = 12) -> dict:
        return {
            "name": self.name,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "lhs": _fmt_c(self.lhs, digits),
            "rhs": _fmt_c(self.rhs, digits),
            "abs_gap": mpmath.nstr(self.abs_gap, 3),
            "tolerance": mpmath.nstr(self.tolerance, 3),
            "passed": self.passed,
        }


def _fmt_c(z, digits: int) -> str:
    z = mp.mpc(z)
    if z.imag == 0:
        return mpmath.nstr(z.real, digits)
    return f"{mpmath.nstr(z.real, digits)}{'+' if z.imag >= 0 else '-'}{mpmath.nstr(abs(z.imag), digits)}j"


def _check(name, params, lhs, rhs, digits, n_terms) -> IdentityCheck:
    lhs, rhs = mp.mpc(lhs), mp.mpc(rhs)
    tolerance = mp.mpf(10) ** (2 - digits) * max(1, n_terms)
    return IdentityCheck(name, params, lhs, rhs, abs(lhs - rhs), tolerance)


# -- seeded sampling ---------------------------------------------------------


def _seeded_offsets(
    rng: random.Random, depth: int, lo: float = 0.03, hi: float = 0.1
) -> tuple[Fraction, ...]:
    """Rational offsets with every contiguous sum at least 1/200 in size."""
    while True:
        offs = tuple(
            Fraction(
                round(rng.choice((-1, 1)) * rng.uniform(lo, hi) * 10**4), 10**4
            )
            for _ in range(depth)
        )
        sums_ok = all(
            Fraction(1, 200) <= abs(sum(offs[u : v + 1])) <= Fraction(1, 2)
            for u in range(depth)
            for v in range(u, depth)
        )
        if depth == 0 or sums_ok:
            return offs


def _seeded_interior_point(rng: random.Random, depth: int, allow_complex: bool = True):
    """Point with every real part above 1.5 (interior of the product region)."""
    out = []
    for _ in range(depth):
        re = Fraction(round((1.6 + rng.uniform(0.0, 1.4)) * 100), 100)
        if allow_complex and rng.random() < 0.35:
            out.append(mp.mpc(float(re), round(rng.uniform(-0.5, 0.5), 2)))
        else:
            out.append(re)
    return tuple(out)


def _degree_for(offsets: Sequence[Fraction], digits: int, cap: int = 8) -> int:
    max_off = max((abs(float(x)) for x in offsets), default=0.0)
    if max_off == 0.0:
        return 0
    return min(cap, max(2, ceil((digits + 2) / -log10(max_off))))


# -- truncation/tail identities ------------------------------------------------


def _tail_value(s: Sequence, n_from: int, digits: int, variant: str) -> mpmath.mpc:
    """Tail via the asymptotic expansion, or value-minus-truncation when N is
    too small for the expansion to reach the tolerance."""
    try:
        value, _ = mzv._tail_auto(s, n_from, digits, variant)
        return value
    except TailNotConvergingError:
        return mzv.zeta_tail_via_values(s, n_from, digits, variant)


def check_comb_form(
    s: Sequence, n_level: int, variant: str, digits: int = 12
) -> IdentityCheck:
    """Truncation = alternating sum of reversed-prefix tails times suffixes.

    variant "strict_1": zeta(s)_{<N} against star tails >=N;
    variant "star_2":   zeta*(s)_{<=N} against strict tails >N;
    variant "cor":      the N-independent alternating-sum identity (RHS 0).
    """
    r = len(s)
    params = {"s": s, "N": n_level, "variant": variant}
    with mp.workdps(mzv.working_dps(digits + 6)):
        if variant in ("strict_1", "star_2"):
            strict = variant == "strict_1"
            sums = "strict" if strict else "star"
            lhs = mzv.zeta_truncated(s, n_level if strict else n_level + 1, sums)
            rhs = mp.mpc(0)
            for i in range(r + 1):
                rev = tuple(reversed(s[:i]))
                tail = _tail_value(rev, n_level, digits, "star" if strict else "strict")
                rhs += (-1) ** i * tail * mzv.zeta_value(s[i:], digits + 4, sums)
        elif variant == "cor":
            lhs = mp.mpc(0)
            for i in range(r + 1):
                rev = tuple(reversed(s[:i]))
                star = mzv.zeta_value(rev, digits + 4, "star")
                suffix = mzv.zeta_value(s[i:], digits + 4, "strict")
                lhs += (-1) ** i * star * suffix
            rhs = mp.mpc(0)
        else:
            raise ValueError(f"unknown comb-form variant: {variant}")
    label = {"strict_1": "comb-form-1", "star_2": "comb-form-2", "cor": "comb-form-cor"}[variant]
    return _check(label, params, lhs, rhs, digits, r + 1)


# -- expansion identities ------------------------------------------------------


def _reg_eval(center, s, digits: int, star: bool = False) -> mpmath.mpc:
    offsets = [to_mpc(x) - a for x, a in zip(s, center)]
    cap = 8 if len(center) <= 2 else 6
    degree = _degree_for([abs(o) for o in offsets], digits, cap)
    series = stieltjes.reg_series(center, degree, digits + 2, star=star)
    return stieltjes.eval_reg(series, s).value


def check_reg_exp(point: Sequence[int], offsets: Sequence, digits: int = 10) -> IdentityCheck:
    """Regularised value = alternating sum of continued values over the
    index set, divided by the reversed-prefix pole chains."""
    point = tuple(point)
    s = [a + o for a, o in zip(point, offsets)]
    iset = index_set(point)
    params = {"point": point, "s": tuple(s)}
    with mp.workdps(mzv.working_dps(digits + 6)):
        lhs = _reg_eval(point, s, digits)
        rhs = mp.mpc(0)
        for i in iset:
            chain = mp.mpc(1)
            for u in range(1, i + 1):
                chain *= sum(to_mpc(s[j]) for j in range(i - u, i)) - u
            rhs += (-1) ** i * mzv.zeta_value(s[i:], digits + 4) / chain
    return _check("reg-exp", params, lhs, rhs, digits, len(iset))


def check_inverse_exp(point: Sequence[int], offsets: Sequence, digits: int = 10) -> IdentityCheck:
    """Continued value = f_i-weighted sum of suffix regularised values."""
    point = tuple(point)
    s = [a + o for a, o in zip(point, offsets)]
    iset = index_set(point)
    params = {"point": point, "s": tuple(s)}
    with mp.workdps(mzv.working_dps(digits + 6)):
        lhs = mzv.zeta_value(s, digits + 4)
        rhs = mp.mpc(0)
        for i in iset:
            f_i = f_rational(iset, i)
            weight = f_i.evaluate([to_mpc(s[j]) - 1 for j in range(i)]) if i else 1
            rhs += inversion_sign(iset, i) * weight * _reg_eval(point[i:], s[i:], digits)
    return _check("inverse-exp", params, lhs, rhs, digits, len(iset))


def check_gen_reg_exp(
    point: Sequence[int], offsets: Sequence, digits: int = 10, star: bool = False
) -> IdentityCheck:
    """Regularised value against the Bernoulli/Pochhammer tail assembly,
    valid at arbitrary integer points (star variant per the weak sums)."""
    point = tuple(point)
    s = [a + o for a, o in zip(point, offsets)]
    params = {"point": point, "s": tuple(s), "star": star}
    with mp.workdps(mzv.working_dps(digits + 6)):
        lhs = _reg_eval(point, s, digits, star=star)
        rhs = mzv.reg_via_tails(point, s, digits + 2, star=star)
    name = "gen-reg-exp-star" if star else "gen-reg-exp"
    return _check(name, params, lhs, rhs, digits, len(point) + 1)


# -- origin limits -------------------------------------------------------------


def _ray_limit_correction(prefix: tuple[int, ...], direction: Sequence[Fraction]):
    """Exact limit along center + eps*direction of one correction block.

    Each Pochhammer factor restricts to (integer) + eps*(rational); factors
    with vanishing integer part contribute their eps slope and a power of
    eps.  A negative total eps power means the term-wise limit does not
    exist (not the case on the rays exercised here).
    """
    i = len(prefix)
    total = Fraction(0)
    for ks, coeff in mzv.correction_terms(prefix):
        eps_pow = 0
        int_part = 0
        slope = Fraction(0)
        for j in range(i, 0, -1):
            int_part += prefix[j - 1]
            slope += Fraction(direction[j - 1])
            k = ks[j - 1]
            base = int_part + sum(ks[j:])
            if k == -1:
                c = base - 1
                if c != 0:
                    coeff /= c
                elif slope != 0:
                    coeff /= slope
                    eps_pow -= 1
                else:
                    raise ZeroDivisionError("correction factor identically zero")
            else:
                for t in range(k):
                    c = base + t
                    if c != 0:
                        coeff *= c
                    elif slope != 0:
                        coeff *= slope
                        eps_pow += 1
                    else:
                        coeff = Fraction(0)
                        break
        if eps_pow < 0 and coeff != 0:
            raise ZeroDivisionError("term-wise pole along the chosen ray")
        if eps_pow == 0:
            total += coeff
    return total


def check_limits_at_origin(digits: int = 10) -> list[IdentityCheck]:
    """Directional limits of the depth-2 value at the origin: 5/12 and 1/3.

    The continued value is decomposed through the general expansion at
    (0, 0); the removable rational blocks are restricted to each axis
    symbolically (exact fractions) before taking eps -> 0, and only the
    regularised constants are numeric.
    """
    out = []
    with mp.workdps(mzv.working_dps(digits + 6)):
        g00 = stieltjes.stieltjes_constant((0, 0), (0, 0), digits + 2).value
        g0 = stieltjes.stieltjes_constant((0,), (0,), digits + 2).value
        for tag, direction, expect in (
            ("zeta(s,0)", (Fraction(1), Fraction(0)), Fraction(5, 12)),
            ("zeta(0,s)", (Fraction(0), Fraction(1)), Fraction(1, 3)),
        ):
            # zeta(s1,s2) = Reg_(0,0)(s) - sum_{i=1,2} (-1)^i zeta(suffix) corr_i
            corr1 = _ray_limit_correction((0,), direction[:1])
            corr2 = _ray_limit_correction((0, 0), direction)
            zeta_suffix = g0 + mp.mpf(1) / 2  # zeta(0) from Reg_(0): gamma_0^(0) + B_1*
            value = g00 + zeta_suffix * mp.mpf(corr1.numerator) / corr1.denominator
            value -= to_mpf(corr2)
            params = {"limit": tag, "expect": expect}
            out.append(_check("limits-origin", params, value, to_mpf(expect), digits, 3))
        # the same constants feed the closed values at the center
        out.append(_check("limits-origin", {"limit": "gamma00(0,0)"}, g00, 1, digits, 1))
        out.append(_check("limits-origin", {"limit": "gamma0(0)"}, g0, -1, digits, 1))
    return out


# -- stuffle product -----------------------------------------------------------


def check_reg_stuffle(
    a: Sequence[int],
    b: Sequence[int],
    s_off: Sequence,
    t_off: Sequence,
    digits: int = 10,
) -> IdentityCheck:
    """Product of two regularised values against the stuffling sum."""
    a, b = tuple(a), tuple(b)
    s = [x + o for x, o in zip(a, s_off)]
    t = [x + o for x, o in zip(b, t_off)]
    params = {"a": a, "b": b, "s": tuple(s), "t": tuple(t)}
    stuffs = enumerate_stufflings(len(a), len(b))
    with mp.workdps(mzv.working_dps(digits + 6)):
        lhs = _reg_eval(a, s, digits) * _reg_eval(b, t, digits)
        rhs = mp.mpc(0)
        for st in stuffs:
            center = deduce_sequence(a, b, st)
            args = deduce_sequence(tuple(s), tuple(t), st)
            rhs += _reg_eval(center, args, digits)
    return _check("reg-stuffle", params, lhs, rhs, digits, len(stuffs))


# -- unicity -------------------------------------------------------------------


def check_unicity(depth: int, seed: int, digits: int = 10) -> IdentityCheck:
    """Contrapositive well-definedness guard for the pole-chain decomposition.

    Draws a random nonzero tuple of low-degree polynomial coefficients,
    evaluates the decomposition sum at seeded points near the all-ones
    point, and requires that it is *not* identically small; abs_gap is the
    shortfall below the 1e-6 threshold (0 when the check passes).
    """
    rng = random.Random(seed * 1009 + depth)
    # h_i is a polynomial in (s_{i+1}..s_r): constant + linear terms
    h_polys = []
    for i in range(depth + 1):
        nvars = depth - i
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(nvars + 1)]
        h_polys.append(coeffs)
    if all(all(c == 0 for c in cs) for cs in h_polys):
        h_polys[-1][0] = Fraction(1)
    max_abs = mp.zero
    with mp.workdps(mzv.working_dps(digits)):
        for _ in range(10):
            offs = _seeded_offsets(rng, depth, 0.02, 0.12)
            s = [1 + o for o in offs]
            total = mp.mpc(0)
            for i, coeffs in enumerate(h_polys):
                h_val = mp.mpc(float(coeffs[0]))
                for j, c in enumerate(coeffs[1:]):
                    h_val += float(c) * to_mpc(s[i + j])
                chain = mp.mpc(1)
                for u in range(1, i + 1):
                    chain *= sum(to_mpc(s[j]) for j in range(u)) - u
                total += h_val / chain
            max_abs = max(max_abs, abs(total))
    threshold = mp.mpf("1e-6")
    gap = max(mp.zero, threshold - max_abs)
    params = {"depth": depth, "seed": seed, "max_abs": mpmath.nstr(max_abs, 6)}
    return IdentityCheck("unicity", params, max_abs, threshold, gap, mp.zero)


# -- identity families and the runner ------------------------------------------


def _comb_form_family(variant: str, seed: int, digits: int) -> list[IdentityCheck]:
    digits = max(digits, 12)
    rng = random.Random(seed * 7919 + sum(map(ord, variant)))
    out = []
    for depth in (1, 2, 3):
        points = [
            _seeded_interior_point(rng, depth, allow_complex=(k >= 3))
            for k in range(5)
        ]
        for s in points:
            for n_level in (2, 5, 10):
                if variant == "cor":
                    out.append(check_comb_form(s, 1, "cor", digits))
                    break  # N-independent
                out.append(check_comb_form(s, n_level, variant, digits))
    return out


def _offsets_for_point(rng: random.Random, point: tuple[int, ...]) -> tuple[Fraction, ...]:
    if len(point) <= 2:
        return _seeded_offsets(rng, len(point), 0.03, 0.1)
    # tighter offsets keep the series degree manageable at depth >= 3
    return _seeded_offsets(rng, len(point), 0.02, 0.04)


def _at_points(check, *points):
    # the power-series side is truncation-limited at the capped degree for
    # offsets of 0.03-0.1 per coordinate, so the tolerance schedule for these
    # families anchors at eight digits (the acceptance bound)
    return lambda rng, seed, digits: [
        check(point, _offsets_for_point(rng, point), min(digits, 8)) for point in points
    ]


def _reg_stuffle_family(rng: random.Random, seed: int, digits: int) -> list[IdentityCheck]:
    return [
        check_reg_stuffle(a, b, _offsets_for_point(rng, a), _offsets_for_point(rng, b), min(digits, 8))
        for a, b in (((1,), (1,)), ((1,), (2,)), ((), (2,)), ((1, 1), (2,)))
    ]


# name -> family(rng, seed, digits), in the order the families are listed and
# timed; each check is looked up by its module name when the family runs
_FAMILIES = {
    "comb-form-1": lambda rng, seed, digits: _comb_form_family("strict_1", seed, digits),
    "comb-form-2": lambda rng, seed, digits: _comb_form_family("star_2", seed, digits),
    "comb-form-cor": lambda rng, seed, digits: _comb_form_family("cor", seed, digits),
    "reg-exp": _at_points(lambda *a: check_reg_exp(*a), (1,), (1, 1), (2, 0), (1, 2), (2, 0, 1)),
    "inverse-exp": _at_points(
        lambda *a: check_inverse_exp(*a), (1,), (1, 1), (1, 2), (2, 0), (1, 1, 1), (2, 0, 1)
    ),
    "gen-reg-exp": _at_points(
        lambda *a: check_gen_reg_exp(*a), (1,), (0,), (-1,), (2, 0), (0, 0), (2, 0, 1)
    ),
    "gen-reg-exp-star": _at_points(lambda *a: check_gen_reg_exp(*a, star=True), (1,), (0,), (0, 0)),
    "reg-stuffle": _reg_stuffle_family,
    "limits-origin": lambda rng, seed, digits: check_limits_at_origin(digits),
    "unicity": lambda rng, seed, digits: [check_unicity(d, seed, digits) for d in (1, 2, 3)],
}
IDENTITY_NAMES = tuple(_FAMILIES)


def run_identity(name: str, seed: int = 42, digits: int = 10) -> list[IdentityCheck]:
    """Run the default instance family of one identity."""
    family = _FAMILIES.get(name)
    if family is None:
        raise ValueError(f"unknown identity: {name}")
    return family(random.Random(seed * 31337 + sum(map(ord, name))), seed, digits)


def verify(
    names: Sequence[str], seed: int = 42, digits: int = 10, jobs: int | None = None
) -> list[IdentityCheck]:
    """Run the given identity families and aggregate the checks in a fixed
    order (by identity name, then parameters).

    Parallel runs use worker *processes*: the multiprecision context is a
    process-wide global, so threads sharing it would trample each other's
    working precision (and pure-Python bignum work would not overlap anyway).
    """
    for name in names:
        if name not in IDENTITY_NAMES:
            raise ValueError(f"unknown identity: {name}")
    results: list[IdentityCheck] = []
    if jobs is not None and jobs > 1 and len(names) > 1:
        # imported here: the pool costs every CLI start otherwise
        from concurrent.futures import ProcessPoolExecutor

        # under fork the pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
            futures = {name: pool.submit(run_identity, name, seed, digits) for name in names}
            for name in names:
                results.extend(futures[name].result())
    else:
        for name in names:
            results.extend(run_identity(name, seed, digits))
    results.sort(key=lambda c: (c.name, sorted((k, str(v)) for k, v in c.params.items())))
    return results


def report(checks: Sequence[IdentityCheck], digits: int = 12) -> dict:
    return {
        "checks": [c.to_json_dict(digits) for c in checks],
        "summary": {
            "total": len(checks),
            "passed": sum(1 for c in checks if c.passed),
            "failed": sum(1 for c in checks if not c.passed),
        },
    }
