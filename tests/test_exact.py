import random
import sys
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

import pytest
from hypothesis import given, strategies as st

import helpers
from helpers import pochhammer, rising, stirling_first
from mzeta import exact
from mzeta.exact import bernoulli, bernoulli_ratios, compositions


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def horner(coeffs, s):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


class TestBernoulli:
    @pytest.mark.parametrize(
        "n,star,expect",
        [
            (0, False, Fraction(1)),
            (1, True, Fraction(1, 2)),
            (2, False, Fraction(1, 6)),
            (1, False, Fraction(-1, 2)),
            (4, False, Fraction(-1, 30)),
            (12, False, Fraction(-691, 2730)),
        ],
    )
    def test_values(self, n, star, expect):
        assert bernoulli(n, star) == expect

    def test_defining_recurrence(self):
        # sum_{j=0}^{n} C(n+1, j) B_j = 0 for n >= 1
        for n in range(1, 40):
            assert sum(comb(n + 1, j) * bernoulli(j) for j in range(n + 1)) == 0

    def test_star_sign_relation(self):
        for n in range(61):
            assert bernoulli(n, star=True) == (-1) ** n * bernoulli(n)

    def test_odd_vanish(self):
        assert all(bernoulli(n) == 0 for n in range(3, 41, 2))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-1)


class TestStirlingFirst:
    @pytest.mark.parametrize("n,k,expect", [(0, 0, 1), (2, 1, -1), (3, 3, 1), (4, 2, 11)])
    def test_values(self, n, k, expect):
        assert stirling_first(n, k) == expect

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            stirling_first(2, 3)
        with pytest.raises(ValueError):
            stirling_first(3, -1)

    def test_recurrence(self):
        for n in range(12):
            for k in range(n + 2):
                lhs = stirling_first(n + 1, k) if k <= n + 1 else 0
                left = stirling_first(n, k - 1) if 1 <= k <= n + 1 else 0
                above = stirling_first(n, k) if k <= n else 0
                assert lhs == left - n * above

    def test_matches_pochhammer_coefficients(self):
        # (s)_n = sum_k (-1)^{n-k} s(n,k) s^k, oracle by direct product
        for n in range(21):
            coeffs = [Fraction(1)]
            for i in range(n):
                coeffs = poly_mul(coeffs, [Fraction(i), Fraction(1)])
            for k in range(n + 1):
                assert coeffs[k] == (-1) ** (n - k) * stirling_first(n, k)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(0).coeffs == (Fraction(1),)

    def test_degree_two(self):
        assert pochhammer(2).coeffs == (Fraction(0), Fraction(1), Fraction(1))

    def test_reciprocal_marker(self):
        marker = pochhammer(-1)
        assert marker.reciprocal and marker.coeffs == ()
        assert rising(Fraction(3), -1) == Fraction(1, 2)
        assert rising(3, -1) == Fraction(1, 2)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            pochhammer(-2)
        with pytest.raises(ValueError):
            rising(2.0, -3)

    def test_monic_of_right_degree(self):
        for k in range(1, 21):
            poly = pochhammer(k)
            assert poly.degree == k
            assert poly.coeffs[-1] == 1

    def test_shift_identity(self):
        # (s)_{n+1} = (s)_n * (s + n), exact polynomial identity
        for n in range(21):
            lhs = list(pochhammer(n + 1).coeffs)
            rhs = poly_mul(list(pochhammer(n).coeffs), [Fraction(n), Fraction(1)])
            assert lhs == rhs

    @given(st.integers(min_value=0, max_value=12), st.fractions())
    def test_numeric_agreement(self, k, s):
        assert horner(pochhammer(k).coeffs, s) == rising(s, k)


def test_rational_arithmetic_is_exact():
    rng = random.Random(42)
    for _ in range(1000):
        a = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
        c = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
        assert (a + c) - c == a


def test_tables_are_safe_under_concurrent_growth():
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=8) as pool:
        bern = list(pool.map(lambda n: bernoulli(2 * n), range(120)))
        stir = list(pool.map(lambda n: stirling_first(n, n // 2), range(2, 60)))
    assert bern == [bernoulli(2 * n) for n in range(120)]
    assert stir == [stirling_first(n, n // 2) for n in range(2, 60)]
    # a Stirling row read while other threads add rows: with threads switching
    # every microsecond, a scan of the live memo raised in about half of these
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            helpers._stirling_row.cache.clear()
            with ThreadPoolExecutor(max_workers=8) as pool:
                again = list(pool.map(lambda n: stirling_first(n, n // 2), range(2, 60)))
            assert again == stir
    finally:
        sys.setswitchinterval(interval)


# -- the locked append-only tables and the product loop that the memos
# replaced, kept as the reference ---------------------------------------------


def _old_bernoulli_table(n):
    table = [Fraction(1)]
    while len(table) <= n:
        m = len(table)
        acc = Fraction(0)
        for j, bj in enumerate(table):
            acc += comb(m + 1, j) * bj
        table.append(-acc / (m + 1))
    return table


def _old_stirling_table(n):
    table = [[1]]
    while len(table) <= n:
        m = len(table) - 1
        prev = table[-1]
        row = [0] * (m + 2)
        for j in range(m + 2):
            above = prev[j] if j <= m else 0
            left = prev[j - 1] if j >= 1 else 0
            row[j] = left - m * above
        table.append(row)
    return table


def _old_pochhammer_coeffs(k):
    coeffs = [Fraction(1)]
    for i in range(k):
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d] += i * c
            nxt[d + 1] += c
        coeffs = nxt
    return tuple(coeffs)


class TestTableOracle:
    def test_bernoulli_matches_the_append_only_loop(self):
        table = _old_bernoulli_table(120)
        for star in (False, True):
            old = [-b if star and n % 2 else b for n, b in enumerate(table)]
            ratios = [b / factorial(n) for n, b in enumerate(old)]
            for n in range(121):
                assert bernoulli(n, star) == old[n]
                got = bernoulli_ratios(n, star)
                assert type(got) is tuple and got == tuple(ratios[: n + 1])

    def test_stirling_and_pochhammer_match_the_old_loops(self):
        table = _old_stirling_table(60)
        for n in range(61):
            assert [stirling_first(n, k) for k in range(n + 1)] == table[n]
            poly = pochhammer(n)
            assert poly.coeffs == _old_pochhammer_coeffs(n)
            assert all(type(c) is Fraction for c in poly.coeffs)

    def test_cold_tables_fill_without_deep_recursion(self):
        memos = (bernoulli, exact._bernoulli_ratio, bernoulli_ratios, helpers._stirling_row)
        for fn in memos:
            fn.cache.clear()
        try:
            # von Staudt-Clausen: the denominator of B_300 is the product
            # of the primes p with (p - 1) | 300
            primes = [p for p in range(2, 302) if all(p % q for q in range(2, p))]
            assert bernoulli(300).denominator == prod(
                p for p in primes if 300 % (p - 1) == 0
            )
            assert len(bernoulli_ratios(300, True)) == 301
            # row 1100 lies above the default recursion limit
            assert stirling_first(1100, 550) != 0
            assert stirling_first(1100, 1099) == -comb(1100, 2)
        finally:
            for fn in memos:
                fn.cache.clear()

    def test_cold_stirling_row_memoises_only_the_rows_asked_for(self):
        helpers._stirling_row.cache.clear()
        try:
            assert stirling_first(1100, 550) != 0
            assert set(helpers._stirling_row.cache) == {1100}
            # a lower row starts from scratch, a higher one from row 1100
            assert stirling_first(40, 3) == _old_stirling_table(40)[40][3]
            assert stirling_first(1102, 1101) == -comb(1102, 2)
            assert set(helpers._stirling_row.cache) == {40, 1100, 1102}
        finally:
            helpers._stirling_row.cache.clear()


class TestCompositions:
    def test_matches_the_filtered_product(self):
        for parts in range(5):
            for n in range(-1, 7):
                expect = [t for t in product(range(max(n, 0) + 1), repeat=parts) if sum(t) == n]
                assert list(compositions(n, parts)) == expect

    def test_counts_by_stars_and_bars(self):
        assert sum(1 for _ in compositions(12, 5)) == comb(16, 4)
        assert list(compositions(3, 1)) == [(3,)]
