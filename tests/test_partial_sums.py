import random
from fractions import Fraction
from functools import partial

import mpmath
import pytest
from mpmath import mp

from helpers import symbolic_points
from mzeta import stieltjes
from mzeta.config import to_mpf
from mzeta.errors import InsufficientPrecisionError
from mzeta.exact import bernoulli_ratios
from mzeta.partial_sums import (
    BasisTerm,
    _antiderivative,
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


# -- oracles: the Fraction kernels that the integer rows replaced -----------


def _fraction_derivative(cells):
    out = {}
    for (m, l), c in cells.items():
        if l:
            key = (m + 1, l - 1)
            out[key] = out.get(key, FR(0)) + l * c
        key = (m + 1, l)
        out[key] = out.get(key, FR(0)) - m * c
    return {k: v for k, v in out.items() if v}


def _oracle_sum_basis(l, m, precision):
    f = {(m, l): FR(1)}
    cells = dict(_antiderivative(l, m))
    for k, c in f.items():
        cells[k] = cells.get(k, FR(0)) - c / 2
    h = _fraction_derivative(f)
    j = 1
    while h and m + 2 * j - 1 <= precision:
        b = bernoulli_ratios(2 * j)[-1]
        for k, c in h.items():
            cells[k] = cells.get(k, FR(0)) + b * c
        h = _fraction_derivative(_fraction_derivative(h))
        j += 1
    exact = not h
    if l == 0 and m <= 0:
        adjust = -sum(cells.values())
        if adjust:
            cells[(0, 0)] = cells.get((0, 0), FR(0)) + adjust
        exact = True
    return ScaleSeries.make(
        {k: Coeff.rational(c) for k, c in cells.items()},
        INF if exact and precision >= 0 else precision,
    )


def _oracle_sum_sequence(v, precision):
    # one Coeff.scale and one Coeff.__add__ per (input cell, basis cell)
    cells = {}
    exact = v.precision == INF
    for (m, l), coeff in v.terms:
        base = _oracle_sum_basis(l, m, precision)
        exact = exact and base.precision == INF
        for k, b in base.terms:
            c = coeff.scale(b.q)
            cells[k] = cells[k] + c if k in cells else c
    return ScaleSeries.make(cells, INF if exact else precision)


def _assert_same_series(got, want):
    assert got.precision == want.precision
    assert got.terms == want.terms
    for (_, got_c), (_, want_c) in zip(got.terms, want.terms):
        # == takes an int for the Fraction it equals; the reprs tell them apart
        assert repr(got_c) == repr(want_c)


class TestIntegerKernelOracle:
    def test_sum_basis_matches_fraction_kernel(self):
        for l in range(6):
            for m in range(-4, 7):
                for precision in (0, 4, 8, 14, 20, 38):
                    got = sum_basis(BasisTerm(l, m), precision)
                    _assert_same_series(got, _oracle_sum_basis(l, m, precision))

    @pytest.mark.parametrize("star", [False, True], ids=["strict", "star"])
    def test_sum_sequence_matches_per_cell_loop(self, star):
        # the shifted inner series asymptotic_expansion feeds sum_sequence at
        # the points of the symbolic digest (tests/test_scale.py)
        with_atoms = 0
        for point, order in symbolic_points():
            for prec in (0, 4, 8, 14, 20):
                inner = stieltjes.asymptotic_expansion(point[1:], order[1:], prec + 1 - point[0], star)
                v = inner.shift(order[0], point[0])
                with_atoms += bool(v.atoms())
                _assert_same_series(sum_sequence(v, prec), _oracle_sum_sequence(v, prec))
        assert with_atoms > 100

    def test_cells_that_cancel_are_dropped(self):
        # the (1, 0) cell is -1/2 * 1 from H_N and -1 * (-1/2) from sum n^-2,
        # for the rational part and for the atom weight alike
        v = ScaleSeries.make(
            {
                (1, 0): Coeff(FR(1), (("g(1|0)", FR(2)),)),
                (2, 0): Coeff(FR(-1, 2), (("g(1|0)", FR(-1)),)),
            },
            INF,
        )
        got = sum_sequence(v, 4)
        _assert_same_series(got, _oracle_sum_sequence(v, 4))
        assert got.cell(1, 0).is_zero
        assert not got.cell(2, 0).is_zero

    def test_exact_input(self):
        v = ScaleSeries.make({(-1, 0): Coeff.rational(FR(2, 3)), (-3, 0): Coeff.atom("g(2|0)", FR(-5, 7))}, INF)
        got = sum_sequence(v, 0)
        assert got.precision == INF
        _assert_same_series(got, _oracle_sum_sequence(v, 0))


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
