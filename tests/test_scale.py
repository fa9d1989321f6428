import hashlib
import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

from helpers import evaluate, resolve, symbolic_points
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
            resolve(c)
        with pytest.raises(UnresolvedConstantError):
            resolve(c, {"g(2|0)": 0.5})
        with pytest.raises(UnresolvedConstantError):
            evaluate(f, 2.0)
        assert resolve(c, {"g(1|0)": 0.5}) == 0.75
        assert evaluate(f, 1.0, log_n=0.0, values={"g(1|0)": 0.5}) == 0.75

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
            direct = evaluate(f, float(n))
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
        got = mp.make_mpf(f.evaluate([17], {}, *mp._prec_rounding)[0])
        dense = ((c2 * log_n + 0) * log_n + c0) * n**-m
        sparse = (c2 * log_n**2 + c0) * n**-m
    assert got._mpf_ == dense._mpf_
    assert sparse._mpf_ != dense._mpf_


def test_high_precision_evaluate_uses_mpf():
    f = mono(1, m=3)
    with mp.workdps(40):
        val = mp.make_mpf(f.evaluate([7], {}, *mp._prec_rounding)[0])
        assert abs(val - mp.mpf(7) ** -3) < mp.mpf(10) ** -35


# -- the raw evaluator against the generic Horner ------------------------------


def _atom_values(series, seed):
    """Full-precision atom values: every reordering of a coefficient's
    additions can round differently."""
    return {
        a: mp.mpf(random.Random(f"{seed}:{a}").getrandbits(mp.prec)) * 6 / 2**mp.prec - 3
        for a in sorted(series.atoms())
    }


def _assert_matches_generic(series, tops, vals):
    raw = {a: v._mpf_ for a, v in vals.items()}
    got = series.evaluate(tops, raw, *mp._prec_rounding)
    want = [evaluate(series, mp.mpf(n), log_n=mp.ln(n), values=vals) for n in tops]
    # the generic Horner returns the int 0 for a series with no cells
    assert got == [mp.mpf(w)._mpf_ for w in want], (series, tops)


class TestRawEvaluator:
    def test_truncated_expansions_match_the_generic_horner(self):
        rng = random.Random(23)
        for point, order in symbolic_points():
            for star in (False, True):
                e = stieltjes.asymptotic_expansion(point, order, 14, star)
                dps = rng.choice((25, 40, 60, 90, 120))
                with mp.workdps(dps):
                    vals = _atom_values(e, dps)
                    target = 10.0 ** -(dps // 2)
                    cut = stieltjes._first_small_cutoff(e, 64, target)
                    for series in (e, e.drop_constant_cell(), e.truncated(4 if cut is None else cut)):
                        _assert_matches_generic(series, (64, 128), vals)

    def test_interior_zero_cells_and_negative_m(self):
        c = Coeff.rational(Fraction(2, 3)) + Coeff.atom("g(1|0)", Fraction(-5, 7)) + Coeff.atom("g(2|1)", 3)
        f = (
            ScaleSeries.monomial(c, l=3, m=-2)
            + mono(Fraction(1, 9), m=-2)
            + mono(Fraction(-4, 11), l=2, m=-1)
            + ScaleSeries.monomial(Coeff.atom("g(1|0)"), l=1, m=3)
        )
        with mp.workdps(50):
            vals = {"g(1|0)": mp.euler, "g(2|1)": -mp.zeta(2, derivative=1)}
            _assert_matches_generic(f, (17, 64, 1000), vals)

    def test_exact_series(self):
        f = stieltjes.asymptotic_expansion((0, -1), (0, 0), 3).drop_constant_cell()
        assert f.precision == INF
        with mp.workdps(30):
            _assert_matches_generic(f, (64, 128), {"g(-1|0)": mp.mpf(-1) / 12})
            _assert_matches_generic(ScaleSeries.zero(), (64, 128), {})

    def test_missing_atom_is_unresolved(self):
        f = mono(1, l=1) + ScaleSeries.monomial(Coeff.atom("g(1|0)") + Coeff.atom("g(2|0)"), m=1)
        with mp.workdps(30):
            with pytest.raises(UnresolvedConstantError, match="g\\(2\\|0\\)"):
                f.evaluate((64,), {"g(1|0)": mp.euler._mpf_}, *mp._prec_rounding)
            with pytest.raises(UnresolvedConstantError):
                f.evaluate((64,), {}, *mp._prec_rounding)


# sha256 of the records below, computed with the Q[atoms] implementation that
# preceded the linear forms and re-recorded when exact star expansions kept
# their infinite precision (only the precision field of the ten exact records
# at point (-1,), order (0,), star moved): any change to the symbolic layer's
# cells or to the order of its float operations changes it
SYMBOLIC_DIGEST = "64fed5473ac3bc684c028cd0930923e46602c468fd76234cccd05f76ef1f9a2e"


def _symbolic_records(seed=6):
    for point, order in symbolic_points(seed=seed):
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
                    raw = {a: v._mpf_ for a, v in vals.items()}
                    resolved = tuple(c.resolve(raw, *mp._prec_rounding) for _, c in e.terms if c.weights)
                    evaluated = tuple(e.evaluate((64, 128), raw, *mp._prec_rounding))
                mags = tuple(abs_cell_magnitude(e, q, 64) for q in sorted({m for (m, _), _ in e.terms}))
                cuts = tuple(stieltjes._first_small_cutoff(e, 64, t) for t in (1e-6, 1e-14))
                yield (point, order, star, prec, e.precision, cells, resolved, evaluated, mags, cuts)


def test_symbolic_layer_digest():
    h = hashlib.sha256()
    for record in _symbolic_records():
        h.update(repr(record).encode())
    assert h.hexdigest() == SYMBOLIC_DIGEST
