import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

from mzeta.errors import ConstantNotDeterminedError, UnresolvedConstantError
from mzeta.scale import INF, Coeff, ScaleSeries


def mono(q, l=0, m=0, precision=INF):
    return ScaleSeries.monomial(Coeff.rational(Fraction(q)), l=l, m=m, precision=precision)


def random_series(rng, precision=6, max_abs_m=4, max_deg=3):
    rows = {}
    for _ in range(rng.randint(1, 4)):
        m = rng.randint(-max_abs_m, max_abs_m)
        rows[m] = [
            Coeff.rational(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
            for _ in range(rng.randint(1, max_deg + 1))
        ]
    cells = {(m, l): c for m, row in rows.items() for l, c in enumerate(row)}
    return ScaleSeries.make(cells, precision)


class TestOperations:
    def test_additive_inverse_gives_zero(self):
        f = mono(1, m=-1)
        assert (f - f).is_zero
        assert (f - f).order() == math.inf

    def test_add_takes_min_precision(self):
        f = mono(1, l=1, precision=2)
        g = mono(1, m=1, precision=1)
        h = f + g
        assert h.precision == 1
        assert h.cell(0, 1) == Coeff.rational(1)
        assert h.cell(1, 0) == Coeff.rational(1)

    def test_termwise_addition(self):
        f = mono(2, m=-1) + mono(3, l=1)
        g = mono(1, m=-1)
        h = f + g
        assert h.cell(-1, 0) == Coeff.rational(3)
        assert h.cell(0, 1) == Coeff.rational(3)

    def test_mul_exponents_add(self):
        assert (mono(1, m=-1) * mono(1, m=2)).cell(1, 0) == Coeff.rational(1)

    def test_mul_log_powers_add(self):
        h = mono(1, l=1) * mono(1, l=1)
        assert h.cell(0, 2) == Coeff.rational(1)
        assert h.cell(0, 1).is_zero

    def test_hand_expansion(self):
        one = ScaleSeries.one(precision=2)
        lx = mono(1, l=1, m=1, precision=2)
        prod = (one + lx) * (one - lx)
        assert prod.cell(0, 0) == Coeff.rational(1)
        assert prod.cell(1, 1).is_zero
        assert prod.cell(2, 2) == Coeff.rational(-1)

    def test_constant_term_cases(self):
        f = mono(1, m=-1) - ScaleSeries.one()
        assert f.constant_term() == Fraction(-1)
        g = mono(3, l=2, m=1, precision=1)
        assert g.constant_term() == 0
        with pytest.raises(ConstantNotDeterminedError):
            mono(1, precision=-1).constant_term()

    def test_unresolved_constant_errors_and_resolves(self):
        f = mono(1, l=1) + ScaleSeries.monomial(Coeff.atom("g(1|0)"))
        with pytest.raises(UnresolvedConstantError):
            f.constant_term()
        assert f.constant_term({"g(1|0)": 0.5}) == 0.5

    def test_order(self):
        assert (mono(1, m=-1) - ScaleSeries.one()).order() == -1
        assert ScaleSeries.zero().order() == math.inf
        assert mono(1, l=3, m=2, precision=5).order() == 2


class TestRingAxioms:
    def test_axioms_on_seeded_triples(self):
        rng = random.Random(42)
        for _ in range(500):
            f, g, h = (random_series(rng) for _ in range(3))
            assert (f + g).terms == (g + f).terms
            assert ((f + g) + h).terms == (f + (g + h)).terms
            assert (f * g).terms == (g * f).terms
            fg_h = (f * g) * h
            f_gh = f * (g * h)
            assert fg_h.terms == f_gh.terms
            assert fg_h.precision == f_gh.precision
            # distributivity within the common window: cancellation in g+h
            # can legitimately leave one route knowing more cells
            lhs = f * (g + h)
            rhs = f * g + f * h
            window = min(lhs.precision, rhs.precision)
            assert lhs.truncated(window).terms == rhs.truncated(window).terms

    def test_order_multiplicative(self):
        rng = random.Random(7)
        for _ in range(200):
            f, g = random_series(rng), random_series(rng)
            if f.is_zero or g.is_zero:
                continue
            assert (f * g).order() == f.order() + g.order()


def test_float_evaluation_matches_termwise():
    rng = random.Random(3)
    for n in (10, 100, 1000):
        for _ in range(20):
            f = random_series(rng)
            direct = f.evaluate(float(n))
            termwise = 0.0
            count = 0
            for (m, l), c in f.terms:
                termwise += float(c.rational_part()) * math.log(n) ** l * n ** (-m)
                count += 1
            scale = max(abs(termwise), 1.0)
            assert abs(direct - termwise) <= scale * count * 1e-12


def test_json_round_trip():
    f = mono(1, l=2, m=-1) + mono(Fraction(3, 7), m=2, precision=4)
    f = f + ScaleSeries.monomial(Coeff.atom("g(1|0)", Fraction(1, 3)))
    data = f.to_json_dict()
    assert data["min_order"] == -1
    assert data["precision"] == 4
    back = ScaleSeries.from_json_dict(data)
    assert back.terms == f.terms
    assert back.precision == 4


def test_json_rows_are_dense_in_l():
    f = mono(1) + mono(2, l=2)
    data = f.to_json_dict()
    assert data["terms"] == {"0": ["1", "0", "2"]}
    back = ScaleSeries.from_json_dict(data)
    assert back.terms == f.terms
    assert back.to_json_dict() == data


def test_json_schema_of_plain_series():
    f = mono(Fraction(1, 2), m=-2) - mono(Fraction(1, 2), m=-1)
    data = f.to_json_dict()
    assert data == {
        "min_order": -2,
        "precision": None,
        "terms": {"-2": ["1/2"], "-1": ["-1/2"]},
    }


def test_evaluate_runs_dense_horner_in_l():
    # the zero L^1 coefficient takes part: a sparse Horner rounds otherwise
    c0, c2, m = Fraction(1, 3), Fraction(-5, 7), 2
    f = mono(c0, m=m) + mono(c2, l=2, m=m)
    with mp.workdps(30):
        n = mp.mpf(17)
        log_n = mp.ln(n)
        got = f.evaluate(n, log_n=log_n)
        dense = ((c2 * log_n + 0) * log_n + c0) * n**-m
        sparse = (c2 * log_n**2 + c0) * n**-m
    assert got._mpf_ == dense._mpf_
    assert sparse._mpf_ != dense._mpf_


def test_high_precision_evaluate_uses_mpf():
    f = mono(1, m=3)
    with mp.workdps(40):
        val = f.evaluate(mp.mpf(7))
        assert abs(val - mp.mpf(7) ** -3) < mp.mpf(10) ** -35
