import random
from fractions import Fraction
from functools import partial

import mpmath
import pytest
from mpmath import mp

from mzeta.errors import InsufficientPrecisionError
from mzeta.config import to_mpf
from mzeta.partial_sums import (
    BasisTerm,
    em_slot_name,
    known_closed_form,
    schedule_n,
    sum_basis,
    sum_sequence,
)
from mzeta.scale import INF, Coeff, ScaleSeries
from mzeta.stieltjes import gamma_atom, resolve_atom, stieltjes_constant, truncated_log_sum

FR = Fraction


def exact_power_sum(p, n_top):
    return sum(FR(n) ** p for n in range(1, n_top))


class TestSumBasis:
    def test_count_of_integers(self):
        res = sum_basis(BasisTerm(0, 0), 0)
        assert res.precision == INF
        assert res.cell(-1, 0) == Coeff.rational(1)
        assert res.cell(0, 0) == Coeff.rational(-1)
        assert known_closed_form(em_slot_name(0, 0)) == 0

    def test_harmonic(self):
        res = sum_basis(BasisTerm(0, 1), 0)
        assert res.cell(0, 1) == Coeff.rational(1)
        assert res.cell(0, 0).is_zero
        assert res.precision == 0  # Euler's gamma is left to the caller

    def test_log_sum_stirling_shape(self):
        res = sum_basis(BasisTerm(1, 0), 0)
        assert res.cell(-1, 1) == Coeff.rational(1)
        assert res.cell(-1, 0) == Coeff.rational(-1)
        assert res.cell(0, 1) == Coeff.rational(FR(-1, 2))

    def test_boundary_polynomial_in_l_only(self):
        # at the boundary weight m=1 the divergent part is a pure L-polynomial
        for l in range(4):
            res = sum_basis(BasisTerm(l, 1), 0)
            assert all(m == 0 for (m, _), _ in res.terms)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_faulhaber_exactness(self, p):
        res = sum_basis(BasisTerm(0, -p), 0)
        assert res.precision == INF
        for n_top in range(1, 101):
            val = res.evaluate(FR(n_top), log_n=0)
            assert val == exact_power_sum(p, n_top)

    def test_correction_terms_extend_precision(self):
        res = sum_basis(BasisTerm(0, 1), 4)
        assert res.cell(1, 0) == Coeff.rational(FR(-1, 2))
        assert res.cell(2, 0) == Coeff.rational(FR(-1, 12))
        assert res.cell(3, 0).is_zero
        assert res.cell(4, 0) == Coeff.rational(FR(1, 120))


class TestSumSequence:
    def test_zero_sequence(self):
        res = sum_sequence(ScaleSeries.zero(), 0)
        assert res.is_zero
        assert res.precision == INF

    def test_sum_of_n(self):
        v = ScaleSeries.monomial(Coeff.rational(1), m=-1)
        res = sum_sequence(v, 0)
        assert res.precision == INF
        assert res.cell(-2, 0) == Coeff.rational(FR(1, 2))
        assert res.cell(-1, 0) == Coeff.rational(FR(-1, 2))
        assert res.cell(0, 0).is_zero

    def test_single_term_linearity(self):
        v = ScaleSeries.monomial(Coeff.rational(1), m=1)
        res = sum_sequence(v, 0)
        base = sum_basis(BasisTerm(0, 1), 0)
        assert res.terms == base.terms
        assert res.precision == base.precision

    def test_insufficient_precision_rejected(self):
        v = ScaleSeries.monomial(Coeff.rational(1), m=1, precision=0)
        with pytest.raises(InsufficientPrecisionError):
            sum_sequence(v, 0)

    def test_order_bound(self):
        # order of the partial sums >= min(0, ord(v) - 1)
        rng = random.Random(42)
        for _ in range(200):
            cells = {}
            for _ in range(rng.randint(1, 3)):
                m = rng.randint(-3, 4)
                cells[m] = (
                    Coeff.rational(FR(rng.randint(-5, 5), rng.randint(1, 3))),
                    rng.randint(0, 2),
                )
            v = ScaleSeries.make({(m, l): c for m, (c, l) in cells.items()}, INF)
            if v.is_zero:
                continue
            res = sum_sequence(v, 2)
            assert res.is_zero or res.order() >= min(0, v.order() - 1)


# (l, m) of the basis sums (log n)^l n^-m with a closed-form constant;
# (1,-1), (2,-1), (1,-3): the basis sum has a rational constant cell
CLOSED_FORM_CASES = [(0, 1), (1, 1), (2, 1), (1, 0), (1, 2), (0, 3), (1, -1), (2, -1), (1, -3)]


def _depth_one_closed_form(l, m):
    # g(m|l) is the basis sum's regularised constant plus its rational
    # constant cell
    offset = sum_basis(BasisTerm(l, m), 0).cell(0, 0).q
    return known_closed_form(em_slot_name(l, m)) + to_mpf(offset)


# (point, order, star, closed form at the ambient precision)
EST_ERROR_CASES = [
    *(
        ((m,), (l,), False, partial(_depth_one_closed_form, l, m))
        for l, m in CLOSED_FORM_CASES
    ),
    ((2, 1), (0, 0), False, lambda: mp.zeta(3)),
    ((3, 1), (0, 0), False, lambda: mp.pi**4 / 360),
    ((2, 2), (0, 0), False, lambda: mp.pi**4 / 120),
    ((2, 1), (0, 0), True, lambda: 2 * mp.zeta(3)),
    ((2, 2), (0, 0), True, lambda: mp.pi**4 / 120 + mp.pi**4 / 90),
    ((1, 1), (0, 0), False, lambda: (mp.euler**2 - mp.zeta(2)) / 2),
    ((1, 1), (0, 0), True, lambda: (mp.euler**2 + mp.zeta(2)) / 2),
]
EST_ERROR_IDS = [
    em_slot_name(k[0], p[0]) if len(p) == 1 else gamma_atom(p, k, star)
    for p, k, star, _ in EST_ERROR_CASES
]


class TestResolveConstant:
    def test_euler(self):
        value = resolve_atom("g(1|0)", 15)
        assert abs(value - mp.mpf("0.577215664901533")) < 1e-14

    def test_half_log_two_pi(self):
        value = resolve_atom("g(0|1)", 12)
        with mp.workdps(25):
            assert abs(value - mp.log(2 * mp.pi) / 2) < 1e-12

    def test_zeta2_offset_convention(self):
        value = resolve_atom("g(2|0)", 12)
        assert abs(value - mp.mpf("1.644934066848226")) < 1e-12

    def test_exact_slots_are_zero(self):
        # sum_{n<N} 1 = N - 1 and sum_{n<N} n^3 = N^4/4 - N^3/2 + N^2/4
        # exactly: the constant is the rational cell, nothing is left over
        assert resolve_atom("g(0|0)", 10) == -1
        assert resolve_atom("g(-3|0)", 10) == 0
        for l, m in [(0, 0), (0, -3)]:
            assert known_closed_form(em_slot_name(l, m)) == 0

    @pytest.mark.parametrize(
        "l, m", CLOSED_FORM_CASES, ids=[em_slot_name(l, m) for l, m in CLOSED_FORM_CASES]
    )
    def test_against_closed_forms(self, l, m):
        # g(m|l) is the basis sum's regularised constant plus its rational
        # constant cell
        with mp.workdps(30):
            offset = sum_basis(BasisTerm(l, m), 0).cell(0, 0).q
            expected = known_closed_form(em_slot_name(l, m)) + to_mpf(offset)
            assert abs(resolve_atom(gamma_atom((m,), (l,)), 13) - expected) < 1e-12

    @pytest.mark.parametrize("digits", [12, 30, 50])
    @pytest.mark.parametrize("point, order, star, closed_form", EST_ERROR_CASES, ids=EST_ERROR_IDS)
    def test_est_error_bounds_the_true_error(self, point, order, star, closed_form, digits):
        # small N and a high correction order make 50 digits cheap; the
        # reported est_error is never below the error against the closed form
        v = stieltjes_constant(point, order, digits, star=star)
        with mp.workdps(digits + 20):
            error = abs(v.value - closed_form())
        assert error < mp.mpf(10) ** -digits
        assert error <= v.est_error

    def test_stieltjes_metadata(self):
        with mp.workdps(25):
            assert abs(known_closed_form(em_slot_name(2, 1)) - mpmath.stieltjes(2)) < 1e-20

    def test_convergence_rate(self):
        # residual after subtracting the A=2 divergent part decays by a
        # factor >= 1.5 per doubling of N
        for l, m in [(0, 1), (1, 1), (1, 0)]:
            table = sum_basis(BasisTerm(l, m), 2).drop_constant_cell()
            with mp.workdps(30):
                const = resolve_atom(gamma_atom((m,), (l,)), 20)
                residuals = []
                for e in range(10, 17):
                    n_top = 2**e
                    u = truncated_log_sum((m,), (l,), n_top)
                    approx = table.evaluate(mp.mpf(n_top), log_n=mp.ln(n_top))
                    residuals.append(abs(u - approx - const))
            for a, b in zip(residuals, residuals[1:]):
                assert b < a / mp.mpf("1.5")


def test_schedule_is_deterministic(monkeypatch):
    # N near the digit count and at least 64, at most half the cap
    monkeypatch.delenv("MZETA_MAX_N", raising=False)
    digits = (1, 12, 50, 64, 65, 128, 129)
    assert [schedule_n(d) for d in digits] == [64, 64, 64, 64, 128, 128, 256]
    monkeypatch.setenv("MZETA_MAX_N", "16")
    assert schedule_n(50) == 8
