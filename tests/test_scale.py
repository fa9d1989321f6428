import hashlib
import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

from mzeta import stieltjes
from mzeta.errors import UnresolvedConstantError
from mzeta.partial_sums import abs_cell_magnitude
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

    # shift is the product by an exact monomial L**l X**m
    def test_mul_exponents_add(self):
        h = mono(1, m=-1, precision=3).shift(0, 2)
        assert h.cell(1, 0) == Coeff.rational(1)
        assert h.precision == 5

    def test_mul_log_powers_add(self):
        h = mono(1, l=1).shift(1, 0)
        assert h.cell(0, 2) == Coeff.rational(1)
        assert h.cell(0, 1).is_zero

    def test_constant_term_cases(self):
        f = mono(1, m=-1) - ScaleSeries.one()
        assert f.cell(0, 0) == Coeff.rational(-1)
        atom = Coeff.atom("g(1|0)")
        assert f.with_constant_cell(atom).cell(0, 0) == atom
        assert f.drop_constant_cell().terms == mono(1, m=-1).terms
        g = mono(3, l=2, m=1, precision=1)
        assert g.cell(0, 0).is_zero
        # below precision 0 the constant cell is outside the known window
        assert mono(1, precision=-1).is_zero
        assert mono(1, precision=-1).with_constant_cell(atom).is_zero

    def test_unresolved_constant_errors_and_resolves(self):
        c = Coeff.rational(Fraction(1, 4)) + Coeff.atom("g(1|0)")
        f = mono(1, l=1) + ScaleSeries.monomial(c)
        with pytest.raises(UnresolvedConstantError):
            c.resolve()
        with pytest.raises(UnresolvedConstantError):
            c.resolve({"g(2|0)": 0.5})
        with pytest.raises(UnresolvedConstantError):
            f.evaluate(2.0)
        assert c.resolve({"g(1|0)": 0.5}) == 0.75
        assert f.evaluate(1.0, log_n=0.0, values={"g(1|0)": 0.5}) == 0.75

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
            assert (f - g).terms == (f + (-g)).terms
            assert ((f - g) + g).terms == f.terms
            assert (f - f).is_zero

    def test_order_multiplicative(self):
        # order(f * L**l X**m) = order(f) + m
        rng = random.Random(7)
        for _ in range(200):
            f = random_series(rng)
            if f.is_zero:
                continue
            l, m = rng.randint(0, 2), rng.randint(-3, 3)
            assert f.shift(l, m).order() == f.order() + m


def test_float_evaluation_matches_termwise():
    rng = random.Random(3)
    for n in (10, 100, 1000):
        for _ in range(20):
            f = random_series(rng)
            direct = f.evaluate(float(n))
            termwise = 0.0
            count = 0
            for (m, l), c in f.terms:
                termwise += float(c.q) * math.log(n) ** l * n ** (-m)
                count += 1
            scale = max(abs(termwise), 1.0)
            assert abs(direct - termwise) <= scale * count * 1e-12


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


# sha256 of the records below, computed with the Q[atoms] implementation that
# preceded the linear forms and re-recorded when exact star expansions kept
# their infinite precision (only the precision field of the ten exact records
# at point (-1,), order (0,), star moved): any change to the symbolic layer's
# cells or to the order of its float operations changes it
SYMBOLIC_DIGEST = "64fed5473ac3bc684c028cd0930923e46602c468fd76234cccd05f76ef1f9a2e"


def _symbolic_records(n_pairs=40, seed=6):
    rng = random.Random(seed)
    for _ in range(n_pairs):
        depth = rng.randint(1, 3)
        point = tuple(rng.randint(-2, 3) for _ in range(depth))
        order = tuple(rng.randint(0, 2) for _ in range(depth))
        for star in (False, True):
            for prec in (0, 4, 8, 14, 20):
                e = stieltjes.asymptotic_expansion(point, order, prec, star)
                cells = tuple(
                    (m, l, str(c.q), tuple((a, str(w)) for a, w in c.weights))
                    for (m, l), c in e.terms
                )
                with mp.workdps(30):
                    # full-precision atom values, so that every reordering
                    # of a coefficient's additions can round differently
                    vals = {
                        a: mp.mpf(random.Random(f"{seed}:{a}").getrandbits(mp.prec)) * 6 / 2**mp.prec - 3
                        for a in sorted(e.atoms())
                    }
                    # per cell: in the sum at N = 64 a high-m cell's rounding vanishes
                    resolved = tuple(c.resolve(vals)._mpf_ for _, c in e.terms if c.weights)
                    evaluated = tuple(
                        e.evaluate(mp.mpf(n), log_n=mp.ln(n), values=vals)._mpf_ for n in (64, 128)
                    )
                mags = tuple(abs_cell_magnitude(e, q, 64) for q in sorted({m for (m, _), _ in e.terms}))
                cuts = tuple(stieltjes._first_small_cutoff(e, 64, t) for t in (1e-6, 1e-14))
                yield (point, order, star, prec, e.precision, cells, resolved, evaluated, mags, cuts)


def test_symbolic_layer_digest():
    h = hashlib.sha256()
    for record in _symbolic_records():
        h.update(repr(record).encode())
    assert h.hexdigest() == SYMBOLIC_DIGEST
