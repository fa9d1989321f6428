import random
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

import pytest
from mpmath import mp

from helpers import nested_central, richardson_partial, rising, zeta_partial_derivative
from mzeta import mzv, stieltjes
from mzeta.config import MIN_MAX_N, to_mpc, to_mpf
from mzeta.errors import (
    PolarPointError,
    PoleProximityError,
    PrecisionUnreachableError,
    TailNotConvergingError,
)
from mzeta.exact import bernoulli, bernoulli_ratios
from mzeta.mzv import (
    K_CAP,
    POLE_TOL,
    _tail_auto,
    nested_sums,
    polar_description,
    reg_via_tails,
    zeta_tail,
    zeta_tail_via_values,
    zeta_truncated,
    zeta_value,
    zeta_value_with_error,
)

ZETA3 = mp.mpf("1.2020569031595942853997382")

# values far smaller than their truncation and tails
CANCELLING = [
    ((Fraction(-5, 2), Fraction(-5, 2)), 30, "strict"),
    ((Fraction(1, 4), Fraction(-5, 2)), 30, "strict"),
    ((Fraction(-3, 4), Fraction(-5, 2)), 50, "strict"),
    ((Fraction(-3, 4), Fraction(-3, 2)), 50, "strict"),
    ((Fraction(-5, 2), Fraction(-5, 2), Fraction(3, 2)), 12, "strict"),
    ((Fraction(1, 2), mp.mpc(-2.5, -1), Fraction(-3, 2)), 12, "star"),
    ((Fraction(-5, 2), mp.mpc(4, 2), Fraction(-3, 2), Fraction(-5, 2)), 12, "strict"),
    ((Fraction(-3, 2), Fraction(-3, 2), Fraction(3, 2), mp.mpc(-2.5, 1)), 12, "strict"),
]


class TestTruncations:
    def test_single_lattice_point(self):
        assert zeta_truncated((3, 2), 3) == mp.mpf("0.125")

    def test_empty_sum(self):
        assert zeta_truncated((2,), 1) == 0

    def test_star_single_point(self):
        assert zeta_truncated((2, 2), 2, "star") == 1

    def test_depth_zero(self):
        assert zeta_truncated((), 5) == 1

    def test_star_counts_weak_chains(self):
        # N=3: (1,1), (2,1), (2,2)
        val = zeta_truncated((1, 1), 3, "star")
        assert abs(val - mp.mpf("1.75")) < 1e-15


class TestTails:
    def test_leading_term(self):
        value, _ = zeta_tail((2,), 10, 0)
        assert abs(value - mp.mpf("0.1")) < 1e-15

    def test_first_correction(self):
        value, _ = zeta_tail((2,), 10, 1)
        assert abs(value - mp.mpf("0.095")) < 1e-15

    def test_depth_one_against_zeta_oracle(self):
        with mp.workdps(30):
            value, est = zeta_tail((2,), 50, 8)
            truth = mp.zeta(2) - sum(mp.mpf(1) / n**2 for n in range(1, 51))
            assert abs(value - truth) <= 2 * est
            assert abs(value - truth) < 1e-14

    def test_depth_two_against_brute_force(self):
        s = (2.5, 2.0)
        n_from = 6
        with mp.workdps(30):
            value, est = zeta_tail(s, n_from, 14)
            m_stop = 200000
            inner = mp.mpf(0)
            brute = mp.mpf(0)
            for n1 in range(n_from + 1, m_stop):
                if n1 > n_from + 1:
                    inner += mp.power(n1 - 1, -2)
                brute += mp.power(n1, -mp.mpf("2.5")) * inner
            # brute truncation bound: inner sums are < 0.2, tail of n^-2.5
            brute_bound = mp.mpf("0.2") * mp.power(m_stop, -mp.mpf("1.5"))
            assert abs(value - brute) < est + 2 * brute_bound

    def test_star_variant_shifts_by_diagonal(self):
        # depth 1: star >= N equals strict > N-1
        v_star, _ = zeta_tail((2.5,), 10, 10, "star")
        v_strict, _ = zeta_tail((2.5,), 9, 10, "strict")
        assert abs(v_star - v_strict) < 1e-12

    def test_pole_proximity(self):
        with pytest.raises(PoleProximityError):
            zeta_tail((1.0 + 1e-14,), 10, 2)

    def test_not_converging_at_tiny_n(self):
        with pytest.raises(TailNotConvergingError):
            zeta_tail((2.0,), 2, 30)

    def test_partition_route_agrees_with_expansion(self):
        # two independent tail routes
        with mp.workdps(25):
            for variant in ("strict", "star"):
                a = zeta_tail((2.5, 1.8), 20, 14, variant)[0]
                b = zeta_tail_via_values((2.5, 1.8), 20, 14, variant)
                assert abs(a - b) < 1e-13


class TestValues:
    def test_zeta_zero(self):
        assert abs(zeta_value((0,), 12) + mp.mpf("0.5")) < 1e-12

    def test_zeta_two(self):
        with mp.workdps(25):
            assert abs(zeta_value((2,), 12) - mp.pi**2 / 6) < 1e-12

    def test_depth_one_classics(self):
        assert abs(zeta_value((-1,), 12) + mp.mpf(1) / 12) < 1e-12
        assert abs(zeta_value((-2,), 12)) < 1e-12
        # a truncation and a tail far larger than the value cancel: the
        # target 1e-32 still holds
        with mp.workdps(60):
            value = zeta_value((Fraction(-5, 2),), 30)
            assert abs(value - mp.zeta(mp.mpf(-2.5))) < mp.mpf(10) ** -32

    def test_euler_identity_point(self):
        assert abs(zeta_value((2, 1), 10) - ZETA3) < 1e-10

    def test_star_value(self):
        lhs = zeta_value((2, 1), 10, "star")
        rhs = zeta_value((2, 1), 12) + ZETA3
        assert abs(lhs - rhs) < 1e-9

    def test_depth_one_star_equals_strict(self):
        assert zeta_value((2.5,), 10, "star") == zeta_value((2.5,), 10, "strict")

    def test_polar_points_rejected(self):
        with pytest.raises(PolarPointError):
            zeta_value((1,), 10)
        with pytest.raises(PolarPointError):
            zeta_value((3, -1), 10)  # s1+s2 = 2
        with pytest.raises(PolarPointError):
            zeta_value((Fraction(1, 2), Fraction(1, 2)), 10)  # s1+s2 = 1
        with pytest.raises(PolarPointError):
            zeta_value((2, 2, -5), 10)  # s1+s2+s3 = -1 <= 3
        with pytest.raises(PolarPointError):
            zeta_value((1.0 + 1e-13,), 10)

    def test_depth_two_even_negative_sum_is_polar(self):
        with pytest.raises(PolarPointError):
            zeta_value((1.5, Fraction(-7, 2)), 10)  # sum -2
        # odd negative sums are fine at depth 2
        value = zeta_value((Fraction(3, 2), Fraction(-5, 2)), 10)
        assert mp.isfinite(value.real)

    def test_cache_keys_on_exact_arguments(self):
        # the two first arguments print alike at 15 digits but differ by 1e-18
        with mp.workdps(40):
            near = mp.mpf(3) + mp.mpf("1e-18")
        with mp.workdps(15):
            at_three = zeta_value((mp.mpf(3), 2), 25)
            got = zeta_value((near, 2), 25)
            zeta_value_with_error.cache.clear()
            fresh = zeta_value((near, 2), 25)
        with mp.workdps(30):
            assert got == fresh
            assert abs(got - at_three) > 1e-19

    @pytest.mark.parametrize("s, digits, variant", CANCELLING)
    def test_cancelling_addends_keep_the_digits(self, s, digits, variant):
        # truncation and tails far larger than the value: ten more digits
        # must agree with it to the requested ones
        with mp.workdps(digits + 30):
            value = zeta_value(s, digits, variant)
            finer = zeta_value(s, digits + 10, variant)
            assert abs(value - finer) <= mp.mpf(10) ** -digits * max(1, abs(finer))

    def test_internal_level_independence(self):
        for s in [(3, 2), (-1,), (0.5,)]:
            v1, e1 = zeta_value_with_error(s, 10)
            v2, e2 = zeta_value_with_error(s, 16)
            assert abs(v1 - v2) <= max(e1 + e2, mp.mpf(10) ** -10)

    def test_stuffle_of_values(self):
        rng = random.Random(42)
        with mp.workdps(25):
            for _ in range(20):
                s1 = mp.mpf(rng.uniform(1.2, 3.0))
                s2 = mp.mpf(rng.uniform(1.2, 3.0))
                lhs = zeta_value((s1,), 12) * zeta_value((s2,), 12)
                rhs = (
                    zeta_value((s1, s2), 12)
                    + zeta_value((s2, s1), 12)
                    + zeta_value((s1 + s2,), 12)
                )
                assert abs(lhs - rhs) < 1e-9


class TestTranslationFormulas:
    def test_strict_telescoping(self):
        # N^(1-s) = sum_k (s-1)_{k+1}/(k+1)! zeta(s+k)_{>N}
        s = mp.mpf("2.5")
        n_from = 20
        k_top = 10
        with mp.workdps(30):
            total = mp.mpf(0)
            for k in range(k_top + 1):
                tail, _ = zeta_tail((s + k,), n_from, 16)
                total += rising(s - 1, k + 1) / factorial(k + 1) * tail
            omitted = abs(
                rising(s - 1, k_top + 2)
                / factorial(k_top + 2)
                * zeta_tail((s + k_top + 1,), n_from, 16)[0]
            )
            assert abs(total - mp.power(n_from, 1 - s)) < 2 * omitted

    def test_star_telescoping_alternates(self):
        s = mp.mpf("2.5")
        n_from = 20
        k_top = 10
        with mp.workdps(30):
            total = mp.mpf(0)
            for k in range(k_top + 1):
                tail, _ = zeta_tail((s + k,), n_from, 16, "star")
                total += (-1) ** k * rising(s - 1, k + 1) / factorial(k + 1) * tail
            omitted = abs(
                rising(s - 1, k_top + 2)
                / factorial(k_top + 2)
                * zeta_tail((s + k_top + 1,), n_from, 16, "star")[0]
            )
            assert abs(total - mp.power(n_from, 1 - s)) < 2 * omitted


class TestTranslationMatrixPair:
    def test_triangular_inverse_of_translation_system(self):
        # The triangular system linking powers N^(1-s-j) to tails has the
        # explicit inverse with Bernoulli-weighted rising factorials:
        # A[i][j] = (s+i-1)_{j-i+1}/(j-i+1)!,  B[i][j] = (s+i)_{j-i-1} B_{j-i}/(j-i)!
        from mzeta.config import to_mpf
        from mzeta.exact import bernoulli as bern

        s = mp.mpf("2.7")
        size = 6
        with mp.workdps(30):
            A = [
                [
                    rising(s + i - 1, j - i + 1) / factorial(j - i + 1) if j >= i else mp.zero
                    for j in range(size)
                ]
                for i in range(size)
            ]
            B = [
                [
                    rising(s + i, j - i - 1) * to_mpf(bern(j - i)) / factorial(j - i)
                    if j >= i
                    else mp.zero
                    for j in range(size)
                ]
                for i in range(size)
            ]
            for i in range(size):
                for j in range(size):
                    entry = mp.fsum(A[i][k] * B[k][j] for k in range(size))
                    assert abs(entry - (1 if i == j else 0)) < 1e-25


class TestDerivatives:
    def test_zeroth_order_is_value(self):
        assert zeta_partial_derivative((3, 2), (0, 0), 10) == zeta_value((3, 2), 10)

    def test_first_derivative_at_two(self):
        with mp.workdps(25):
            expect = mp.zeta(2, derivative=1)
        assert abs(zeta_partial_derivative((2,), (1,), 12) - expect) < 1e-10

    def test_derivative_at_zero(self):
        with mp.workdps(25):
            expect = -mp.log(2 * mp.pi) / 2
        assert abs(zeta_partial_derivative((0,), (1,), 12) - expect) < 1e-10


class TestRegViaTails:
    def test_depth_one_at_one(self):
        s = mp.mpf("1.1")
        got = reg_via_tails((1,), (s,), 12)
        with mp.workdps(30):
            expect = mp.zeta(s) - 1 / (s - 1)
        assert abs(got - expect) < 1e-11

    def test_negative_point_correction(self):
        s = mp.mpf("-0.98")
        got = reg_via_tails((-1,), (s,), 12)
        expect = zeta_value((s,), 14) - s / 12
        assert abs(got - expect) < 1e-12

    def test_point_in_interior_is_plain_value(self):
        s = (mp.mpf("3.05"), mp.mpf("1.97"))
        assert abs(reg_via_tails((3, 2), s, 12) - zeta_value(s, 12)) < 1e-11

    def test_two_zero_point(self):
        s1, s2 = mp.mpf("0.04"), mp.mpf("-0.03")
        got = reg_via_tails((0, 0), (s1, s2), 12)
        expect = (
            zeta_value((s1, s2), 14)
            - zeta_value((s2,), 14) / 2
            + (s2 / (s1 + s2) + 3 + (s1 + s2 - 1) / (s2 - 1)) / 12
        )
        assert abs(got - expect) < 1e-11


def test_polar_description_exact_vs_numeric():
    assert polar_description((1,)) is not None
    assert polar_description((2,)) is None
    assert polar_description((Fraction(5, 2), Fraction(-1, 2))) is not None
    assert polar_description((2.0, 1.5)) is None
    assert polar_description(()) is None


# -- reference: the flat enumeration of the tail expansion -------------------
#
# Every k-tuple with |k| <= K+2 is enumerated in lexicographic order and its
# coefficient and chain product are rebuilt from scratch.  The shell
# recursion in mzv multiplies the same factors and adds the terms in another
# order: it must agree within 2^(20-prec) of the terms' sizes and raise the
# same exceptions.


def _flat_k_tuples(depth, total_cap):
    if depth == 0:
        yield ()
        return
    for head in range(total_cap + 1):
        for tail in _flat_k_tuples(depth - 1, total_cap - head):
            yield (head,) + tail


def _flat_chain_product(ss, ks):
    out = mp.mpc(1)
    pref_s = mp.mpc(0)
    pref_k = 0
    for j, k in enumerate(ks):
        pref_s += ss[j]
        x = pref_s + pref_k - j
        if k == 0:
            if abs(x - 1) < POLE_TOL:
                raise PoleProximityError("reciprocal factor is singular")
            out /= x - 1
        else:
            for t in range(k - 1):
                out *= x + t
        pref_k += k
    return out


def _flat_shells(s, n_from, top, variant="strict"):
    """Shells 0..top at N and the sums of their terms' sizes."""
    r = len(s)
    star = variant == "star"
    ss = [to_mpc(x) for x in s]
    total_s = mp.fsum(x.real for x in ss) + 1j * mp.fsum(x.imag for x in ss)
    powers = [mp.power(n_from, r - total_s - m) for m in range(top + 1)]
    shells = [mp.mpc(0)] * (top + 1)
    shells_abs = [mp.zero] * (top + 1)
    for ks in _flat_k_tuples(r, top):
        coeff = Fraction(1)
        skip = False
        for k in ks:
            b = bernoulli(k, star=star)
            if b == 0:
                skip = True
                break
            coeff *= b / factorial(k)
        if skip:
            continue
        term = _flat_chain_product(ss, ks)
        term *= mp.mpf(coeff.numerator) / coeff.denominator
        term *= powers[sum(ks)]
        shells[sum(ks)] += term
        shells_abs[sum(ks)] += abs(term)
    return shells, shells_abs


def _flat_zeta_tail(s, n_from, k_order, variant="strict"):
    """Value, estimate and the value's norm, the sum of its terms' sizes."""
    if n_from < 2:
        raise ValueError("tail expansions require N >= 2")
    if not s:
        return mp.mpc(1), mp.zero, mp.one
    shells, shells_abs = _flat_shells(s, n_from, k_order + 2, variant)
    estimate = max(shells_abs[k_order + 1], shells_abs[k_order + 2])
    if k_order >= 4:
        last = max(shells_abs[k_order - 1], shells_abs[k_order])
        older = max(shells_abs[k_order - 3], shells_abs[k_order - 2])
        if estimate > last > older:
            raise TailNotConvergingError("tail shells are growing")
    value = mp.mpc(0)
    for sh in shells[: k_order + 1]:
        value += sh
    return value, estimate, mp.fsum(shells_abs[: k_order + 1])


def _flat_tail_auto(s, n_from, digits, variant):
    target = mp.mpf(10) ** (-(digits + 2))
    for k_order in range(4, K_CAP + 1, 2):
        value, est, norm = _flat_zeta_tail(s, n_from, k_order, variant)
        if est < target:
            return value, est, norm
    raise TailNotConvergingError("tail stalls")


def _outcome(fn, *args):
    """The returned numbers or the exception type."""
    try:
        return fn(*args)
    except (PoleProximityError, TailNotConvergingError, ValueError) as exc:
        return type(exc)


def _assert_agrees(new, old, where):
    """A tail's (value, estimate) against the flat (value, estimate, norm):
    the same exception type, or both within 2^(20-prec) of their norms."""
    if isinstance(new, type) or isinstance(old, type):
        assert new == old, where
        return
    (value, est), (flat_value, flat_est, norm) = new, old
    assert abs(value - flat_value) <= mp.ldexp(norm, 20 - mp.prec), where
    assert abs(est - flat_est) <= mp.ldexp(flat_est, 20 - mp.prec), where


def _random_point(rng, depth):
    out = []
    for _ in range(depth):
        re = rng.choice([rng.uniform(-2.5, 4.0), rng.randint(-2, 4) + 0.5, rng.randint(2, 4)])
        if rng.random() < 0.3:
            out.append(mp.mpc(re, rng.uniform(-1.0, 1.0)))
        else:
            out.append(Fraction(re).limit_denominator(1000) if isinstance(re, float) else re)
    return tuple(out)


TAIL_GRID = [
    (depth, n_from, k_order, variant, dps)
    for depth in (1, 2, 3, 4, 5, 6)
    for n_from in (2, 5, 10, 20)
    # the flat enumeration has C(K+2+depth, depth) tuples
    for k_order in ((0, 1, 4, 14, 30) if depth <= 3 else (0, 1, 4, 8))
    for variant in ("strict", "star")
    for dps in (20, 30, 60)
]


class TestTailOracle:
    def test_zeta_tail_matches_flat_enumeration(self):
        rng = random.Random(20190212)
        cases = rng.sample(TAIL_GRID, 120)
        # pole proximity at the first and at a later factor, and a tail that
        # cannot converge at N=2
        cases_s = [_random_point(rng, depth) for depth, *_ in cases]
        cases += [(1, 10, 4, "strict", 30), (2, 10, 4, "star", 30), (1, 2, 30, "strict", 20)]
        cases_s += [(1 + mp.mpf(10) ** -14,), (Fraction(5, 2), Fraction(-1, 2)), (2,)]
        outcomes = set()
        for (depth, n_from, k_order, variant, dps), s in zip(cases, cases_s):
            with mp.workdps(dps):
                new = _outcome(zeta_tail, s, n_from, k_order, variant)
                old = _outcome(_flat_zeta_tail, s, n_from, k_order, variant)
                _assert_agrees(new, old, (s, n_from, k_order, variant, dps))
            outcomes.add(new if isinstance(new, type) else (tuple, depth > 3))
        assert outcomes == {(tuple, False), (tuple, True), PoleProximityError, TailNotConvergingError}

    def test_tail_auto_matches_flat_enumeration(self):
        rng = random.Random(5)
        cases = [
            ((Fraction(5, 2),), 2, "strict"),
            ((3, mp.mpc(2, 0.5)), 2, "star"),
            ((1 + mp.mpf(10) ** -14,), 10, "strict"),
        ]
        for _ in range(16):
            depth = rng.choice((1, 1, 2, 2, 3))
            n_from = rng.choice((2, 5, 10, 20) if depth < 3 else (10, 20))
            cases.append((_random_point(rng, depth), n_from, rng.choice(("strict", "star"))))
        outcomes = set()
        for s, n_from, variant in cases:
            with mp.workdps(rng.choice((20, 30))):
                new = _outcome(_tail_auto, s, n_from, 10, variant)
                old = _outcome(_flat_tail_auto, s, n_from, 10, variant)
                _assert_agrees(new, old, (s, n_from, variant))
            outcomes.add(new if isinstance(new, type) else tuple)
        assert outcomes == {tuple, PoleProximityError, TailNotConvergingError}

    def test_tail_auto_builds_each_shell_once(self, monkeypatch):
        built = []
        add_shell = mzv._TailShells._add_shell

        def counted(self):
            built.append(len(self.rows[-1]))
            add_shell(self)

        monkeypatch.setattr(mzv._TailShells, "_add_shell", counted)
        with mp.workdps(25):
            _, est = _tail_auto((Fraction(5, 2), Fraction(9, 5)), 20, 12, "strict")
            assert est < mp.mpf(10) ** -14
            assert 8 < len(built) and built == list(range(len(built)))
            # at N=2 the orders grow until the shells do
            built.clear()
            with pytest.raises(TailNotConvergingError):
                _tail_auto((Fraction(5, 2),), 2, 30, "strict")
            assert 8 < len(built) and built == list(range(len(built)))

    def test_pole_message_names_the_factor(self):
        with pytest.raises(PoleProximityError, match=r"1/\(s1-1\) is singular"):
            zeta_tail((1 + mp.mpf(10) ** -14, 2), 10, 4)
        with pytest.raises(PoleProximityError, match=r"1/\(s1\+s2\+2-2\) is singular"):
            zeta_tail((Fraction(1, 2), mp.mpf(-0.5) + mp.mpf(10) ** -14), 10, 4)

    def test_pole_is_the_first_in_tuple_order(self):
        # shell 2, the first with a pole, meets 1/(s1+s2+2-2) on k = (2, 0, 0)
        # and 1/(s1+..+s3+2-3) on (0, 2, 0), which comes first
        with pytest.raises(PoleProximityError, match=r"1/\(s1\+\.\.\+s3\+2-3\) is singular"):
            zeta_tail((Fraction(1, 2), mp.mpf(-0.5) + mp.mpf(10) ** -14, 1), 10, 4)


# -- reference: each visited level rebuilt from scratch ----------------------
#
# The value route once called zeta_tail afresh for every prefix at every
# level (N, K) of a doubling ladder.  Whatever levels the schedule now
# visits, each must return the same bits as that rebuilding level, or raise
# the same error, and the value must be the one its last passing level gives.


def _rebuilding_level(s, n_level, k_order, target, variant):
    star = variant == "star"
    n_from = n_level if star else n_level - 1
    try:
        tails = [zeta_tail(s[:j], n_from, k_order, variant) for j in range(1, len(s) + 1)]
    except TailNotConvergingError:
        return None
    if any(est >= target for _, est in tails):
        return None
    total, *suffixes = nested_sums(s, (n_level,), star=star)[1]
    err, scale = mp.zero, abs(total)
    for (tail, est), suffix in zip(tails, suffixes):
        term = tail * suffix
        total += term
        scale += abs(term)
        err += est * max(mp.one, abs(suffix))
    return (total, err, scale) if err < target else None


def _level_bits(level):
    """(total, err, scale) as raw tuples, or None."""
    return level and (level[0]._mpc_, level[1]._mpf_, level[2]._mpf_)


def _record_levels(monkeypatch):
    """Spy on mzv._value_level: the list it fills with (point, variant, N,
    K, target, precision, outcome bits or (error type, message)) per call."""
    visited = []
    value_level = mzv._value_level

    def level(point, tails, n_level, k_order, target):
        variant = "star" if tails.star else "strict"
        record = [tuple(point), variant, n_level, k_order, target, mp.prec]
        visited.append(record)
        try:
            out = value_level(point, tails, n_level, k_order, target)
        except PoleProximityError as exc:
            record.append((type(exc), str(exc)))
            raise
        record.append(_level_bits(out))
        return out

    monkeypatch.setattr(mzv, "_value_level", level)
    return visited


def _assert_levels_replay(visited):
    for point, variant, n_level, k_order, target, prec, outcome in visited:
        with mp.workprec(prec):
            try:
                old = _level_bits(_rebuilding_level(point, n_level, k_order, target, variant))
            except PoleProximityError as exc:
                old = (type(exc), str(exc))
        assert outcome == old, (point, variant, n_level, k_order)


# -- reference: the doubling ladder -------------------------------------------
#
# Before each value planned its level from the shell norms, it climbed a
# doubling ladder of levels (N, K) and took the first that passed.  The
# planned route must give the same values and refuse the same inputs.


def _ladder(cap):
    """The ladder's levels (N, K): N = 16, 32, .. up to the cap and K = 4,
    6, .. up to K_CAP, both ending there."""
    n_level, k_order = MIN_MAX_N, 4
    while True:
        yield n_level, k_order
        if n_level >= cap and k_order >= K_CAP:
            return
        n_level, k_order = min(n_level * 2, cap), min(k_order + 2, K_CAP)


def _ladder_value(s, digits, variant="strict"):
    """The continued value and its estimate at the first level of the ladder
    that passes, redone at the digits its addends' cancellation costs; then
    the integral test, or the refusal."""
    target = mp.mpf(10) ** (-(digits + 2))
    dps = mzv.working_dps(digits)
    with mp.workdps(dps):
        tails = mzv._TailShells(s, variant)
        for n_level, k_order in _ladder(mzv.max_n()):
            level = mzv._value_level(s, tails, n_level, k_order, target)
            if level is not None:
                total, err, scale = level
                lost = scale * mp.mpf(10) ** -dps / target
                if lost > 1:
                    with mp.workdps(dps + int(mp.ceil(mp.log10(lost)))):
                        total = mzv._value_level(s, mzv._TailShells(s, variant), n_level, k_order, mp.inf)[0]
                return +total, err
        bounded = mzv._integral_test_value(s, target, variant == "star")
        if bounded is None:
            raise PrecisionUnreachableError(f"no level of the ladder reaches {digits} digits")
        return bounded


def _route_outcome(route, s, digits, variant):
    """(mpc, the route's value), (PoleProximityError, its message) or
    (PrecisionUnreachableError, None)."""
    try:
        return mp.mpc, route(s, digits, variant)[0]
    except PoleProximityError as exc:
        return type(exc), str(exc)
    except PrecisionUnreachableError as exc:
        return type(exc), None


def _assert_same_outcome(got, expect, digits, where):
    """The same refusal, or values within 10^-digits of each other."""
    assert got[0] == expect[0], (where, got)
    if expect[0] is mp.mpc:
        with mp.workdps(digits + 20):
            assert abs(got[1] - expect[1]) <= mp.mpf(10) ** -digits * max(1, abs(expect[1])), where
    else:
        assert got == expect, where


def _value_replays(s, digits, monkeypatch, variant="strict"):
    """_continued_value's outcome, with every visited level replayed by the
    rebuilding level and the value traced back to its last passing one."""
    visited = _record_levels(monkeypatch)
    try:
        value, err = mzv._continued_value(s, digits, variant)
    except (PoleProximityError, PrecisionUnreachableError) as exc:
        monkeypatch.undo()
        _assert_levels_replay(visited)
        assert all(record[-1] is None for record in visited[:-1])
        return type(exc), str(exc)
    monkeypatch.undo()
    _assert_levels_replay(visited)
    # every level fails until one passes; a second pass may redo that one
    passed = [i for i, record in enumerate(visited) if record[-1] is not None]
    first, last = visited[passed[0]], visited[passed[-1]]
    assert passed[-1] <= passed[0] + 1 and last[2:4] == first[2:4]
    with mp.workprec(first[5]):
        expect = +mp.make_mpc(last[-1][0])
    assert (value._mpc_, err._mpf_) == (expect._mpc_, first[-1][1])
    return value._mpc_, err._mpf_


class TestValueLadderOracle:
    def test_seeded_points_match_the_rebuilding_ladder(self, monkeypatch):
        rng = random.Random(20190215)
        cases = []
        while len(cases) < 24:
            depth = rng.randint(1, 4)
            s = _random_point(rng, depth)
            if polar_description(s) is None:
                # the first 16 strict, then weak chains of depth >= 2
                if len(cases) < 16 or depth > 1:
                    variant = "star" if len(cases) >= 16 else "strict"
                    cases.append((s, (12, 30, 50)[len(cases) % 3] if depth < 4 else 12, variant))
        outcomes = set()
        for s, digits, variant in cases:
            outcome = _value_replays(s, digits, monkeypatch, variant)
            outcomes.add((variant, outcome[0] if isinstance(outcome[0], type) else tuple))
        assert {("strict", tuple), ("star", tuple)} <= outcomes

    @pytest.mark.parametrize("s, digits, variant", CANCELLING)
    def test_second_pass_matches_the_rebuilding_ladder(self, s, digits, variant, monkeypatch):
        # replay every level that the value visits, at the caller's
        # precision, on the ladder oracle and on the planned levels; one of
        # them takes the cancellation guard's second pass, on the ladder
        # always and under the plan but at (1/4, -5/2) and the three values
        # planned at N = 16, whose smaller N spares it; both give the value
        # to the digits asked for
        spared = CANCELLING.index((s, digits, variant)) in (1, 4, 5, 7)
        values = []
        for route in (_ladder_value, mzv._continued_value):
            visited = _record_levels(monkeypatch)
            values.append(route(s, digits, variant)[0])
            monkeypatch.undo()
            second_pass = any(record[4] == mp.inf for record in visited)
            assert second_pass == (route is _ladder_value or not spared)
            _assert_levels_replay(visited)
        _assert_same_outcome((mp.mpc, values[1]), (mp.mpc, values[0]), digits, s)

    def test_pole_proximity_fires_at_the_same_level(self, monkeypatch):
        for s in [(1 + mp.mpf(10) ** -14, 2), (Fraction(1, 2), mp.mpf(-0.5) + mp.mpf(10) ** -14)]:
            for variant in ("strict", "star"):
                new = _value_replays(s, 12, monkeypatch, variant)
                assert new[0] is PoleProximityError
                assert new == _route_outcome(_ladder_value, s, 12, variant)

    def test_each_shell_is_built_once_per_value(self, monkeypatch):
        s = (Fraction(-5, 2), Fraction(1, 3), Fraction(5, 2))
        values = []
        for route in (_ladder_value, mzv._continued_value):
            ladder_only = route is _ladder_value
            built, levels = {}, []
            add_shell, value_level = mzv._TailShells._add_shell, mzv._value_level

            def counted(self):
                built.setdefault(self, []).append(len(self.rows[-1]))
                add_shell(self)

            def level(s, tails, n_level, k_order, target):
                levels.append(k_order)
                return value_level(s, tails, n_level, k_order, target)

            monkeypatch.setattr(mzv._TailShells, "_add_shell", counted)
            monkeypatch.setattr(mzv, "_value_level", level)
            values.append(route(s, 30, "strict")[0])
            monkeypatch.undo()
            # one recursion for all three prefixes; the second pass of the
            # cancellation guard builds its own
            assert [len(tail.ss) for tail in built] == ([3, 3] if ladder_only else [3])
            assert len(levels) > 2 or not ladder_only
            for shells in built.values():
                assert shells == list(range(len(shells))) and len(shells) == max(levels) + 3
        _assert_same_outcome((mp.mpc, values[1]), (mp.mpc, values[0]), 30, s)

    @pytest.mark.parametrize("star", [False, True])
    def test_one_tail_recursion_per_pass(self, star, monkeypatch):
        # each value builds one _TailShells, and one more for the
        # cancellation guard's second pass
        made, passes = [], []
        init, value_level = mzv._TailShells.__init__, mzv._value_level

        def counted(self, s, variant):
            made.append((len(s), variant))
            init(self, s, variant)

        def level(s, tails, n_level, k_order, target):
            passes.append(target == mp.inf)
            return value_level(s, tails, n_level, k_order, target)

        monkeypatch.setattr(mzv._TailShells, "__init__", counted)
        monkeypatch.setattr(mzv, "_value_level", level)
        variant = "star" if star else "strict"
        seen = set()
        for s, digits in [
            ((Fraction(-5, 2), Fraction(-5, 2)), 30),
            ((Fraction(9, 4), Fraction(1, 2), mp.mpc(2.25, -1), Fraction(-3, 4)), 12),
            ((Fraction(1, 2), mp.mpc(-2.5, -1), Fraction(-3, 2)), 12),
            ((Fraction(3, 2), Fraction(5, 2), 2), 30),
        ]:
            made.clear()
            passes.clear()
            zeta_value_with_error.cache.clear()
            zeta_value_with_error(s, digits, variant)
            second = any(passes)
            assert made == [(len(s), variant)] * (2 if second else 1), s
            seen.add(second)
        assert seen == {False, True}


# prefix sums 1e-11 off a pole, exponents down to -12, and a level that
# passes at a fixed (N, K): the plan once gave up on these before it had a
# level, and the ladder then climbed to N = 32768
NEAR_POLAR = [
    ((Fraction(199999999999, 10**11), -12, 0, -9, Fraction(-11, 2), Fraction(5, 2)), (1024, 40)),
    ((-2, Fraction(299999999999, 10**11), -4, -10, 2, -3), (1024, 30)),
]


class TestNearPolarPlans:
    @pytest.mark.parametrize("variant", ["strict", "star"])
    @pytest.mark.parametrize("s, fixed", NEAR_POLAR)
    def test_first_planned_level_passes(self, s, fixed, variant, monkeypatch):
        visited = _record_levels(monkeypatch)
        value = mzv._continued_value(s, 12, variant)[0]
        monkeypatch.undo()
        assert visited[0][-1] is not None
        # the fixed level, redone at the digits its addends' cancellation costs
        target, dps = mp.mpf(10) ** -14, mzv.working_dps(12)
        with mp.workdps(dps):
            scale = mzv._value_level(s, mzv._TailShells(s, variant), *fixed, target)[2]
        with mp.workdps(dps + int(mp.ceil(mp.log10(scale * mp.mpf(10) ** -dps / target)))):
            expect = mzv._value_level(s, mzv._TailShells(s, variant), *fixed, mp.inf)[0]
        _assert_same_outcome((mp.mpc, value), (mp.mpc, expect), 12, (s, variant))

    def test_polar_grid_matches_the_ladder(self):
        # near-polar points of both variants: the planned route gives the
        # ladder oracle's values and refusals; exponents stay >= -8, where
        # the ladder does not climb far.  The values agree to 10 digits, not
        # 12: both routes round s at the working precision, and a prefix sum
        # 1e-11 off a pole magnifies that rounding about 1e11 times
        points = [p for p in _polar_grid(random.Random(11)) if polar_description(p) is None]
        points = [p for p in points if p and min(to_mpc(x).real for x in p) >= -8]
        kinds = set()
        for i, s in enumerate(points[::5]):
            variant = "star" if i % 2 and len(s) > 1 else "strict"
            expect = _route_outcome(_ladder_value, s, 12, variant)
            _assert_same_outcome(_route_outcome(mzv._continued_value, s, 12, variant), expect, 10, (s, variant))
            kinds.add((variant, expect[0]))
        assert kinds >= {("strict", mp.mpc), ("star", mp.mpc), ("strict", PoleProximityError), ("star", PoleProximityError)}


class TestShellNorms:
    def test_closed_form_size_matches_the_terms(self):
        # a shell's size at N is its norm times |N^(r-|s|-m)|: the sum of
        # its terms' sizes, up to the roundings of either sum
        rng = random.Random(20190216)
        checked = 0
        while checked < 12:
            s = _random_point(rng, rng.randint(1, 4))
            variant = rng.choice(("strict", "star"))
            with mp.workdps(rng.choice((20, 50))):
                tail = mzv._TailShells(s, variant)
                try:
                    tail.grow(20, len(s))
                except PoleProximityError:
                    continue
                for n_from in (2, 5, 16, 1024):
                    sizes = _flat_shells(s, n_from, 20, variant)[1]
                    for m, size in enumerate(sizes):
                        got = tail._size_at(n_from, m, len(s))
                        assert abs(got - size) <= mp.ldexp(size, 10 - mp.prec), (s, n_from, m)
            checked += 1

    def test_failing_level_evaluates_no_shell(self, monkeypatch):
        # levels whose estimates fail, including ones where an earlier
        # prefix's estimate passes, evaluate no shell and sweep nothing
        evaluated, swept = [], []
        shell_at = mzv._TailShells._shell_at

        def spy_shell(self, n_from, m, depth):
            evaluated.append(m)
            return shell_at(self, n_from, m, depth)

        def spy_sweep(*args, **kwargs):
            swept.append(args)
            return nested_sums(*args, **kwargs)

        monkeypatch.setattr(mzv._TailShells, "_shell_at", spy_shell)
        monkeypatch.setattr(mzv, "nested_sums", spy_sweep)
        failed = first_passes = 0
        points = [(Fraction(1, 4), mp.mpc(-1.5, 0.5)), (4, Fraction(1, 4), Fraction(-5, 2), 4), (Fraction(9, 2),)]
        for s in points:
            with mp.workdps(60):
                target = mp.mpf(10) ** -52
                tails = mzv._TailShells(s, "strict")
                for n_level, k_order in _ladder(mzv.max_n()):
                    evaluated.clear()
                    swept.clear()
                    if mzv._value_level(s, tails, n_level, k_order, target) is not None:
                        break
                    if not swept:
                        assert evaluated == [], (s, n_level, k_order)
                        failed += 1
                        first_passes += tails.estimate(n_level - 1, k_order, 1) < target
        assert failed > 5 and first_passes > 0

    def test_planned_level_passes_first(self, monkeypatch):
        # the values pool's shapes: the first planned level passes
        visited = _record_levels(monkeypatch)
        for s, digits in [
            ((Fraction(1, 4), mp.mpc(-1.5, 0.5)), 50),
            ((Fraction(9, 4), Fraction(1, 2), mp.mpc(2.25, -1), Fraction(-3, 4)), 12),
            ((mp.mpc(0.5, 30),), 30),
        ]:
            for variant in ("strict", "star") if len(s) > 1 else ("strict",):
                visited.clear()
                mzv._continued_value(s, digits, variant)
                assert visited[0][-1] is not None, (s, variant)


class TestClosedFormValues:
    # each value within 10^-digits of its closed form
    @pytest.mark.parametrize("digits", [12, 30, 50])
    def test_values_against_closed_forms(self, digits):
        with mp.workdps(digits + 20):
            cases = [((2,) * n, mp.pi ** (2 * n) / mp.factorial(2 * n + 1)) for n in range(1, 5)]
            cases += [((3, 1), mp.pi**4 / 360), ((2, 1), mp.zeta(3))]
            for x in (Fraction(-5, 2), Fraction(1, 2), 3, mp.mpc(0.5, 30), mp.mpc(-1.5, 2)):
                cases.append(((x,), mp.zeta(to_mpc(x))))
            for s, ref in cases:
                assert abs(zeta_value(s, digits) - ref) < mp.mpf(10) ** -digits, s


# -- one recursion for every prefix tail -------------------------------------


def _row_bits(row):
    return [(weight, norm._mpf_, pole) for weight, norm, pole in row]


class TestSharedRecursion:
    def test_prefix_rows_match_the_prefix_tails(self):
        # the depth-j rows of the tail of s are, bit for bit, the tail of
        # s[:j] built alone: shells, norms, poles, values and estimates
        rng = random.Random(20190218)
        points = [_random_point(rng, rng.randint(2, 6)) for _ in range(30)]
        points += [p for p in _polar_grid(random.Random(9)) if len(p) >= 2][::25]
        poles = 0
        for s in points:
            variant = rng.choice(("strict", "star"))
            with mp.workdps(rng.choice((20, 50))):
                shared = mzv._TailShells(s, variant)
                shared.shell(12)
                for j in range(1, len(s) + 1):
                    alone = mzv._TailShells(s[:j], variant)
                    alone.shell(12)
                    assert _row_bits(shared.rows[j]) == _row_bits(alone.rows[-1]), (s, j)
                    assert shared.totals[j]._mpc_ == alone.totals[-1]._mpc_
                    poles += any(pole for _, _, pole in alone.rows[-1])
                    if not any(pole for _, _, pole in alone.rows[-1][:11]):
                        for n_from in (5, 64):
                            assert shared.value(n_from, 8, j)._mpc_ == alone.value(n_from, 8, j)._mpc_
                            try:
                                est = alone.estimate(n_from, 8, j)
                            except TailNotConvergingError:
                                with pytest.raises(TailNotConvergingError):
                                    shared.estimate(n_from, 8, j)
                                continue
                            assert shared.estimate(n_from, 8, j)._mpf_ == est._mpf_
        assert poles > 5


# -- reference: star values as sums of strict values --------------------------
#
# A star value was once the sum of the strict values at digits + 2 over the
# 2^(r-1) merges of consecutive coordinates into blocks.  The direct route,
# one weak sweep and the weak prefix tails, must agree with it to the digits
# asked for and refuse what it refused, with the same message.


def _recursive_merge_patterns(r):
    """The partitions of (0..r-1) into consecutive blocks, as (start, stop)
    pairs, shortest first block first."""
    if r == 0:
        yield ()
        return
    for first_len in range(1, r + 1):
        for rest in _recursive_merge_patterns(r - first_len):
            shifted = tuple((a + first_len, b + first_len) for a, b in rest)
            yield ((0, first_len),) + shifted


def _merge_route(s, digits):
    """The star value and its error as the sum of the strict values at
    digits + 2 over the merges; the first merge to refuse raises."""
    value, err = mp.mpc(0), mp.zero
    with mp.workdps(mzv.working_dps(digits)):
        for pattern in _recursive_merge_patterns(len(s)):
            merged = [
                sum(Fraction(x) if isinstance(x, (int, Fraction)) else to_mpc(x) for x in s[a:b])
                for a, b in pattern
            ]
            v, e = zeta_value_with_error(merged, digits + 2, "strict")
            value += v
            err += e
    return value, err


def _is_continued(s):
    """Whether s lies outside the domain of convergence, where some
    Re(s_1+..+s_j) <= j."""
    heads = [sum(to_mpc(x).real for x in s[:j]) for j in range(1, len(s) + 1)]
    return any(head <= j for j, head in enumerate(heads, start=1))


class TestStarMergeOracle:
    def test_merges_are_the_block_partitions(self):
        for r in range(1, 8):
            patterns = list(_recursive_merge_patterns(r))
            assert len(set(patterns)) == len(patterns) == 2 ** (r - 1)
            assert all(p[0][0] == 0 and p[-1][1] == r and all(a[1] == b[0] for a, b in zip(p, p[1:])) for p in patterns)

    def test_direct_route_matches_the_merge_route(self):
        rng = random.Random(20190219)
        kinds, checked = set(), 0
        while checked < 15:
            depth = 2 + checked % 5
            digits = (12, 30, 50)[checked % 3] if depth <= 4 else (12, 30)[checked % 2]
            s = _random_point(rng, depth)
            if polar_description(s) is not None:
                continue
            with mp.workdps(digits + 20):
                try:
                    expect = _merge_route(s, digits)[0]
                except (PoleProximityError, PrecisionUnreachableError):
                    continue
                got = zeta_value(s, digits, "star")
                assert abs(got - expect) <= mp.mpf(10) ** -digits * max(1, abs(expect)), (s, digits)
            kinds.add("complex" if any(to_mpc(x).imag for x in s) else "real")
            kinds.add("continued" if _is_continued(s) else "convergent")
            checked += 1
        assert kinds == {"complex", "real", "continued", "convergent"}

    def test_refusals_match_the_merge_route(self):
        # near-polar weak chains of depth 2-6: the direct route refuses what
        # the merge route refused first, with the same message; the merge
        # route takes up to half a minute where an exponent is below -8
        points = [p for p in _polar_grid(random.Random(10)) if len(p) >= 2]
        points = [p for p in points if min(to_mpc(x).real for x in p) >= -8]
        refused = set()
        for s in points[::6]:
            outcomes = []
            for route in (lambda: _merge_route(s, 12), lambda: zeta_value_with_error(s, 12, "star")):
                try:
                    route()
                    outcomes.append(None)
                except (PolarPointError, PoleProximityError) as exc:
                    outcomes.append((type(exc), str(exc)))
                except PrecisionUnreachableError:
                    outcomes.append(PrecisionUnreachableError)
            assert outcomes[0] == outcomes[1], s
            refused.add(outcomes[0] and outcomes[0][0])
        assert refused == {None, PolarPointError, PoleProximityError}

    @pytest.mark.parametrize("digits", [12, 30, 50])
    def test_two_ones_closed_form(self, digits):
        # zeta*(2, {1}^n) = (n+1) zeta(n+2), within est_error
        for n in range(1, 6):
            with mp.workdps(digits + 20):
                value, est = zeta_value_with_error((2,) + (1,) * n, digits, "star")
                truth = (n + 1) * mp.zeta(n + 2)
                assert abs(value - truth) <= est, (n, digits)


# -- reference: the level-by-level running sums -------------------------------
#
# The two loops that nested_sums replaced: each level tabulates its running
# sums for every n below the top before the next level out reads them.  The
# one-sweep kernel must return bit-identical sums at every top and for every
# suffix.


def _levelwise_log_sum(point, order, n_top, star=False):
    r = len(point)
    if r == 0:
        return mp.one
    logs = [mp.zero] * n_top
    for n in range(2, n_top):
        logs[n] = mp.ln(n)
    prev = None
    acc = mp.zero
    for j in range(r - 1, -1, -1):
        a, k = point[j], order[j]
        acc = mp.zero
        cum = [mp.zero] * n_top if j > 0 else None
        for n in range(1, n_top):
            w = mp.power(n, -a)
            if k:
                w *= logs[n] ** k
            t = w * (prev[n] if prev is not None else mp.one)
            if cum is not None:
                if star:
                    acc += t
                    cum[n] = acc
                else:
                    cum[n] = acc
                    acc += t
            else:
                acc += t
        prev = cum
    return acc


def _levelwise_zeta_truncated(s, n_top, variant="strict"):
    r = len(s)
    if r == 0:
        return mp.mpc(1)
    star = variant == "star"
    ss = [to_mpc(x) for x in s]
    prev = None
    acc = mp.mpc(0)
    for j in range(r - 1, -1, -1):
        acc = mp.mpc(0)
        cum = [mp.mpc(0)] * n_top if j > 0 else None
        for n in range(1, n_top):
            t = mp.power(n, -ss[j])
            if prev is not None:
                t *= prev[n]
            if cum is not None:
                if star:
                    acc += t
                    cum[n] = acc
                else:
                    cum[n] = acc
                    acc += t
            else:
                acc += t
        prev = cum
    return acc


SUM_TOPS = (1, 2, 3, 17, 64, 65)


def _random_tops(rng):
    """One top, or several in any order, repeats allowed."""
    if rng.random() < 0.5:
        return (rng.choice(SUM_TOPS),)
    return tuple(rng.choice(SUM_TOPS) for _ in range(rng.randint(2, 4)))


def _random_exponent(rng):
    pick = rng.random()
    if pick < 0.35:
        return rng.randint(-3, 4)
    if pick < 0.55:
        return Fraction(rng.randint(-7, 9), 2)
    if pick < 0.7:
        return Fraction(rng.uniform(-3.0, 4.0)).limit_denominator(1000)
    return mp.mpc(rng.uniform(-3.0, 4.0), rng.uniform(-2.0, 2.0))


class TestNestedSumOracle:
    def test_real_sums_match_levelwise_recursion(self):
        rng = random.Random(20190213)
        for _ in range(600):
            depth = rng.randint(1, 4)
            point = tuple(rng.randint(-3, 4) for _ in range(depth))
            order = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(depth))
            tops, star = _random_tops(rng), rng.random() < 0.5
            with mp.workdps(rng.choice((15, 27, 45, 60))):
                at_tops, levels = mzv.nested_sums(point, tops, [order], star)[0]
                for top, got in zip(tops, at_tops):
                    want = _levelwise_log_sum(point, order, top, star)
                    assert got._mpf_ == want._mpf_, (point, order, top, star)
                for j, got in enumerate(levels):
                    want = _levelwise_log_sum(point[j:], order[j:], max(tops), star)
                    assert got._mpf_ == want._mpf_, (point, order, j, star)

    def test_block_sweeps_match_one_order_sweeps(self):
        # orders of one point share weights and suffix sums in a block: each
        # order's sums must be those of its own sweep, bit for bit
        rng = random.Random(20190215)
        for _ in range(150):
            depth = rng.randint(1, 4)
            point = tuple(rng.randint(-3, 4) for _ in range(depth))
            orders = [
                tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(depth))
                for _ in range(rng.randint(1, 12))
            ]
            tops, star = _random_tops(rng), rng.random() < 0.5
            with mp.workdps(rng.choice((15, 27, 45, 60))):
                block = mzv.nested_sums(point, tops, orders, star)
                assert len(block) == len(orders)
                for order, (at_tops, levels) in zip(orders, block):
                    alone_tops, alone_levels = mzv.nested_sums(point, tops, [order], star)[0]
                    assert [v._mpf_ for v in at_tops] == [v._mpf_ for v in alone_tops], (point, order)
                    assert [v._mpf_ for v in levels] == [v._mpf_ for v in alone_levels], (point, order)

    def test_complex_sums_match_levelwise_recursion(self):
        rng = random.Random(20190214)
        for _ in range(300):
            s = tuple(_random_exponent(rng) for _ in range(rng.randint(1, 4)))
            tops, variant = _random_tops(rng), rng.choice(("strict", "star"))
            with mp.workdps(rng.choice((15, 27, 45, 60))):
                at_tops, levels = mzv.nested_sums(s, tops, star=variant == "star")
                for top, got in zip(tops, at_tops):
                    want = _levelwise_zeta_truncated(s, top, variant)
                    assert got._mpc_ == want._mpc_, (s, top, variant)
                for j, got in enumerate(levels):
                    want = _levelwise_zeta_truncated(s[j:], max(tops), variant)
                    assert got._mpc_ == want._mpc_, (s, j, variant)

    def test_public_wrappers_are_one_sweep(self):
        with mp.workdps(30):
            point, order = (2, 0, -1), (1, 0, 2)
            for star in (False, True):
                got = stieltjes.truncated_log_sum(point, order, 40, star)
                assert got._mpf_ == _levelwise_log_sum(point, order, 40, star)._mpf_
            s = (Fraction(5, 2), mp.mpc(1, 2), 0)
            for variant in ("strict", "star"):
                got = zeta_truncated(s, 40, variant)
                assert got._mpc_ == _levelwise_zeta_truncated(s, 40, variant)._mpc_

    def test_tops_below_one_are_rejected(self):
        with pytest.raises(ValueError):
            mzv.nested_sums((2,), (5, 0))
        with pytest.raises(ValueError):
            stieltjes.truncated_log_sum((1,), (0,), 0)
        with pytest.raises(ValueError):
            zeta_truncated((2,), 0)


# -- the recursive generator that exact.compositions replaced, kept as the
# reference --------------------------------------------------------------------


def _recursive_correction_tuples(prefix):
    i = len(prefix)
    total = -sum(prefix)
    if total < -i:
        return

    def rec(pos, remaining):
        if pos == i:
            if remaining == 0:
                yield ()
            return
        slots_after = i - pos - 1
        for k in range(-1, remaining + slots_after + 1):
            for rest in rec(pos + 1, remaining - k):
                yield (k,) + rest

    yield from rec(0, total)


class TestEnumerationOracle:
    def test_correction_tuples_match_the_recursion(self):
        count = 0
        for depth in range(5):
            for prefix in product(range(-3, 4), repeat=depth):
                got = list(mzv.correction_tuples(prefix))
                assert got == list(_recursive_correction_tuples(prefix)), prefix
                count += 1
        assert count == sum(7**d for d in range(5))

    def test_deep_negative_prefix_is_enumerated_directly(self):
        # 26^6 candidates of a filtered product, 118,755 valid tuples
        assert sum(1 for _ in mzv.correction_tuples((-3,) * 6)) == comb(29, 5)


def test_richardson_partial_is_the_derivative_and_its_correction():
    with mp.workdps(30):
        center, h = [mp.mpf(2), mp.mpf(3)], mp.mpf(10) ** -3

        def fn(pt):
            return pt[0] ** 3 * mp.exp(pt[1])

        d_h = nested_central(fn, center, (1, 1), h)
        d_h2 = nested_central(fn, center, (1, 1), h / 2)
        deriv, err = richardson_partial(fn, center, (1, 1), h)
        assert deriv == (4 * d_h2 - d_h) / 3 and err == abs(d_h2 - d_h) / 3
        assert abs(deriv - 12 * mp.exp(3)) < 1e-9


# -- reference: the two-branch polar test ------------------------------------
#
# The polar test before the polar integers and the pole tolerance each had one
# home: an exact branch and a numeric branch, each with its own list of the
# hyperplanes.  polar_description must return the same strings.


def _two_branch_polar_description(s):
    r = len(s)
    if r == 0:
        return None
    if all(isinstance(x, (int, Fraction)) for x in s):
        prefix = Fraction(0)
        for i, x in enumerate(s, start=1):
            prefix += Fraction(x)
            if i == 1 and prefix == 1:
                return "polar hyperplane s1=1"
            if i == 2 and (prefix in (2, 1, 0) or (prefix <= -2 and prefix.denominator == 1 and prefix % 2 == 0)):
                return f"polar hyperplane s1+s2={prefix}"
            if i >= 3 and prefix.denominator == 1 and prefix <= i:
                return f"polar hyperplane s1+..+s{i}={prefix}"
        return None
    prefix_c = mp.mpc(0)
    for i, x in enumerate(s, start=1):
        prefix_c += to_mpc(x)
        if i == 1:
            if abs(prefix_c - 1) < POLE_TOL:
                return "polar hyperplane s1=1"
        elif i == 2:
            near = round(float(prefix_c.real))
            candidates = {2, 1, 0} | ({near} if near <= -2 and near % 2 == 0 else set())
            if any(abs(prefix_c - c) < POLE_TOL for c in candidates):
                return "polar hyperplane on s1+s2"
        else:
            near = round(float(prefix_c.real))
            if near <= i and abs(prefix_c - near) < POLE_TOL:
                return f"polar hyperplane on s1+..+s{i}"
    return None


def _as_kind(value, kind, imag):
    """``value`` (a Fraction) as an int, a Fraction, a float or an mpc."""
    if kind == "int" and value.denominator == 1:
        return int(value)
    if kind == "float":
        return float(value)
    if kind == "mpc":
        return mp.mpc(float(value), imag)
    return value


def _polar_grid(rng):
    """Points of depth 0-6 with one prefix sum put on, 1e-13 off or 1e-11
    off a polar integer (or a near miss), the other coordinates random."""
    offsets = (Fraction(0), Fraction(1, 10**13), -Fraction(1, 10**11), Fraction(1, 10**11))
    for depth in range(7):
        for _ in range(70):
            kinds = rng.choice(
                (["int"], ["frac"], ["float"], ["mpc"], ["int", "frac"], ["int", "mpc"], ["frac", "float", "mpc"])
            )
            i = rng.randint(1, depth) if depth else 0
            c = {1: rng.choice((1, 0, 2)), 2: rng.choice((2, 1, 0, -1, -2, -3, -4, 3))}.get(
                i, rng.choice((i, i - 1, i - 3, -2, i + 1))
            )
            target = c + rng.choice(offsets)
            point, total = [], Fraction(0)
            for j in range(1, depth + 1):
                value = target - total if j == i else Fraction(rng.randint(-12, 12), rng.choice((1, 2, 4)))
                imag = rng.choice((0.0, 0.0, 1e-13, 0.5))
                x = _as_kind(value, rng.choice(kinds), imag)
                point.append(x)
                total += Fraction(float(to_mpc(x).real)) if not isinstance(x, (int, Fraction)) else Fraction(x)
            yield tuple(point)


def test_polar_description_matches_the_two_branch_test():
    seen = set()
    for point in _polar_grid(random.Random(8)):
        got = polar_description(point)
        assert got == _two_branch_polar_description(point), point
        seen.add(got.split("=")[0].split(" on ")[-1] if got else None)
    # every hyperplane family, both forms of the message, and misses occur
    assert {None, "polar hyperplane s1", "polar hyperplane s1+s2", "s1+s2"} <= seen
    assert {"polar hyperplane s1+..+s3", "s1+..+s6"} <= seen


def test_correction_pole_message():
    with pytest.raises(PoleProximityError, match=r"^regularised correction factor at prefix depth 1 is singular$"):
        mzv.reg_correction_term((1,), (1 + mp.mpf(10) ** -14,))


# -- reference: the per-tuple correction loop ----------------------------------
#
# reg_correction_term once multiplied out the Pochhammer chain of every
# correction tuple on its own.  It now reads one shell of the tail expansion of
# the reversed prefix, whose recursion multiplies the same factors and adds
# the terms in another order: bit-identical at depth <= 1, within a few
# roundings of the terms' sizes deeper, and refusing the same poles.


def _flat_correction(point, s, star=False):
    """The correction and the sum of its terms' sizes, tuple by tuple."""
    i = len(point)
    ss = [to_mpc(x) for x in s]
    ratios = bernoulli_ratios(max(0, i - sum(point)), not star)
    total, size = mp.mpc(0), mp.zero
    for ks in mzv.correction_tuples(point):
        coeff = prod((ratios[k + 1] for k in ks), start=Fraction(1))
        if not coeff:
            continue
        chain = mp.mpc(1)
        pref_s = mp.mpc(0)
        pref_k = 0
        # factors run from j = i down to 1
        for j in range(i, 0, -1):
            pref_s += ss[j - 1]
            x = pref_s + pref_k
            k = ks[j - 1]
            if k == -1:
                if abs(x - 1) < POLE_TOL:
                    raise PoleProximityError(f"regularised correction factor at prefix depth {j} is singular")
                chain /= x - 1
            else:
                for t in range(k):
                    chain *= x + t
            pref_k += k
        term = to_mpf(coeff) * chain
        total += term
        size += abs(term)
    return total, size


def _correction_cases(rng, count):
    """Seeded (point, s, star, dps): s near the point, real or complex."""
    cases = [((), (), False, 20), ((), (), True, 40), ((3, 2), (Fraction(31, 10), 2.05), False, 20)]
    # s2 = 1 puts a pole in shells 0..2 of (s2, s1) but in no term of shell 3
    cases += [((-2, 1), (Fraction(-21, 10), 1), star, 20) for star in (False, True)]
    while len(cases) < count:
        depth = rng.randint(1, 4)
        point = tuple(rng.randint(-3, 3) for _ in range(depth))
        s = []
        for a in point:
            offset = Fraction(rng.randint(-40, 40), rng.choice((100, 1000)))
            x = a + offset
            if rng.random() < 0.3:
                x = mp.mpc(float(x), rng.uniform(-0.5, 0.5))
            s.append(x)
        cases.append((point, tuple(s), rng.random() < 0.5, rng.choice((20, 40, 60))))
    return cases


def test_correction_matches_the_per_tuple_loop():
    rng = random.Random(20190213)
    seen, poles = set(), 0
    for point, s, star, dps in _correction_cases(rng, 160):
        with mp.workdps(dps):
            try:
                expect, size = _flat_correction(point, s, star)
            except PoleProximityError:
                with pytest.raises(PoleProximityError):
                    mzv.reg_correction_term(point, s, star)
                poles += 1
                continue
            got = mzv.reg_correction_term(point, s, star)
            if len(point) <= 1:
                assert got._mpc_ == expect._mpc_, (point, s, star, dps)
            else:
                assert abs(got - expect) <= mp.ldexp(size, 20 - mp.prec), (point, s, star, dps)
        seen.add((len(point), len(point) - sum(point) < 0, star, any(isinstance(x, mp.mpc) for x in s)))
    # the empty prefix, a prefix past its last shell, both variants, complex s
    assert {(0, False, False, False), (0, False, True, False), (2, True, False, False)} <= seen
    assert {(d, False, star, True) for d in (1, 4) for star in (False, True)} <= seen
    assert poles


@pytest.mark.parametrize(
    "point, s",
    [
        ((1,), (1 + mp.mpf(10) ** -14,)),
        ((0, 2), (Fraction(3, 10), 1 + mp.mpf(10) ** -14)),
        ((1, 1), (Fraction(1, 2), Fraction(3, 2) + mp.mpf(10) ** -14)),
        ((1, 0, 1), (Fraction(5, 2), mp.mpc(0.75, -0.5) + mp.mpf(10) ** -14, mp.mpc(0.25, 0.5))),
    ],
)
@pytest.mark.parametrize("star", [False, True])
def test_correction_refuses_the_poles_of_the_per_tuple_loop(point, s, star):
    with mp.workdps(30):
        with pytest.raises(PoleProximityError) as old:
            _flat_correction(point, s, star)
        with pytest.raises(PoleProximityError) as new:
            mzv.reg_correction_term(point, s, star)
    assert str(new.value) == str(old.value)


def test_depth_above_the_cap_is_refused():
    with pytest.raises(ValueError, match=r"^depth 7 exceeds the cap 6$"):
        zeta_value_with_error((2,) * 7, 5)


# -- reference: the recursive partition route ---------------------------------
#
# zeta_tail_via_values once solved for the deepest tail and recursed into
# every shallower one, recomputing each 2^(r-1-j) times.  The one pass,
# shallowest first, must return bit-identical tails.


def _recursive_tail_via_values(s, n_from, digits, variant):
    r = len(s)
    if r == 0:
        return mp.mpc(1)
    top = n_from + 1 if variant == "strict" else n_from
    value = zeta_value(s, digits + 4, variant)
    truncations = mzv.nested_sums(s, (top,), star=variant == "star")[1]
    total = value - truncations[0]
    for j in range(1, r):
        total -= _recursive_tail_via_values(s[:j], n_from, digits, variant) * truncations[j]
    return total


class TestTailViaValuesOracle:
    def test_matches_the_recursion(self):
        rng = random.Random(11)
        cases = 0
        while cases < 24:
            depth = rng.randint(1, 3)
            s = _random_point(rng, depth)
            if polar_description(s) is not None:
                continue
            variant = rng.choice(("strict", "star"))
            n_from, digits = rng.choice((2, 5, 10)), rng.randint(10, 20)
            with mp.workdps(digits + 10):
                try:
                    got = zeta_tail_via_values(s, n_from, digits, variant)
                except (PolarPointError, PoleProximityError):
                    continue
                expect = _recursive_tail_via_values(s, n_from, digits, variant)
            assert got._mpc_ == expect._mpc_, (s, n_from, digits, variant)
            cases += 1

    def test_one_sweep_per_prefix(self, monkeypatch):
        s = (Fraction(5, 2), Fraction(3, 2), 2)
        for r in (1, 2, 3):
            zeta_tail_via_values(s[:r], 5, 10, "strict")  # the values are memoised
            calls = []

            def spy(*args, **kwargs):
                calls.append(args[0])
                return nested_sums(*args, **kwargs)

            monkeypatch.setattr(mzv, "nested_sums", spy)
            zeta_tail_via_values(s[:r], 5, 10, "strict")
            monkeypatch.undo()
            assert [len(p) for p in calls] == list(range(1, r + 1))
