import json
from fractions import Fraction

import pytest
from mpmath import mp

from helpers import zeta_partial_derivative
from mzeta import harness, mzv, stieltjes

FR = Fraction


class TestCombForm:
    @pytest.mark.parametrize("n_level", [2, 5, 10])
    def test_strict_form_depth_two(self, n_level):
        c = harness.check_comb_form((2.5, 1.8), n_level, "strict_1", 12)
        assert c.passed and c.abs_gap < 1e-10

    def test_star_form_depth_three(self):
        c = harness.check_comb_form((2.2, 1.9, 1.7), 5, "star_2", 12)
        assert c.passed and c.abs_gap < 1e-9

    def test_corollary_depth_one_exact(self):
        c = harness.check_comb_form((2.5,), 1, "cor", 12)
        assert c.abs_gap == 0

    def test_complex_point(self):
        c = harness.check_comb_form((mp.mpc(2.1, 0.3), 1.8), 5, "strict_1", 12)
        assert c.passed


class TestRegExp:
    def test_two_zero_closed_form(self):
        # Reg_(2,0)(s) = zeta(s1,s2) + 1/((s2-1)(s1+s2-2)) cross-checked
        offs = (FR(1, 20), FR(3, 100))
        c = harness.check_reg_exp((2, 0), offs, 8)
        assert c.passed
        s1, s2 = 2 + offs[0], offs[1]
        with mp.workdps(25):
            direct = mzv.zeta_value((s1, s2), 12) + 1 / (
                (mp.mpf(float(s2)) - 1) * (mp.mpf(float(s1 + s2)) - 2)
            )
            assert abs(c.lhs - direct) < 1e-7

    def test_all_ones_points(self):
        for point in [(1,), (1, 1)]:
            offs = tuple(FR(x, 100) for x in ((5,), (5, -3))[len(point) - 1])
            c = harness.check_reg_exp(point, offs, 9)
            assert c.passed

    def test_halving_offsets_does_not_blow_up(self):
        offs = (FR(6, 100), FR(-4, 100))
        c1 = harness.check_reg_exp((1, 1), offs, 8)
        c2 = harness.check_reg_exp((1, 1), tuple(o / 2 for o in offs), 8)
        assert c2.abs_gap <= c1.abs_gap + c1.tolerance
        g1 = harness.check_gen_reg_exp((0, 0), offs, 8)
        g2 = harness.check_gen_reg_exp((0, 0), tuple(o / 2 for o in offs), 8)
        assert g2.abs_gap <= g1.abs_gap + g1.tolerance


class TestInverseExp:
    def test_worked_depth_three_point(self):
        offs = (FR(3, 100), FR(5, 100), FR(4, 100))
        c = harness.check_inverse_exp((2, 0, 1), offs, 7)
        assert c.passed

    def test_matches_explicit_closed_form(self):
        # depth-3 closed form with the (s1+2s2+s3-4) numerator
        s = (mp.mpf("2.03"), mp.mpf("0.05"), mp.mpf("1.04"))
        with mp.workdps(30):
            reg = mzv.reg_via_tails((2, 0, 1), s, 14)
            reg1 = mzv.reg_via_tails((1,), (s[2],), 14)
            num = s[0] + 2 * s[1] + s[2] - 4
            den = (s[1] - 1) * (s[0] + s[1] - 2) * (s[1] + s[2] - 2) * (s[0] + s[1] + s[2] - 3)
            expect = reg - reg1 / ((s[1] - 1) * (s[0] + s[1] - 2)) - num / den
            got = mzv.zeta_value(s, 14)
            assert abs(got - expect) < 1e-12

    def test_all_ones_reduces_to_plain_expansion(self):
        offs = (FR(4, 100), FR(-5, 100))
        c = harness.check_inverse_exp((1, 1), offs, 9)
        assert c.passed

    def test_round_trip_of_expansion_pair(self):
        # rebuild the continued value from inverse-exp where each suffix
        # regularised value is itself out of reg-exp's right-hand side
        point = (2, 0)
        offs = (FR(4, 100), FR(6, 100))
        s = [a + o for a, o in zip(point, offs)]
        iset = stieltjes.index_set(point)
        with mp.workdps(30):
            total = mp.mpc(0)
            for i in iset:
                from mzeta.stuffle import f_rational

                weight = (
                    f_rational(iset, i).evaluate([mzv.to_mpc(x) - 1 for x in s[:i]])
                    if i
                    else 1
                )
                sign = (-1) ** (i - len([j for j in iset if 1 <= j <= i]))
                suffix_point = point[i:]
                suffix_s = s[i:]
                inner = mp.mpc(0)
                for j in stieltjes.index_set(suffix_point):
                    chain = mp.mpc(1)
                    for u in range(1, j + 1):
                        chain *= sum(mzv.to_mpc(suffix_s[t]) for t in range(j - u, j)) - u
                    inner += (-1) ** j * mzv.zeta_value(suffix_s[j:], 14) / chain
                total += sign * weight * inner
            direct = mzv.zeta_value(s, 14)
            assert abs(total - direct) < 1e-11


class TestGenRegExp:
    @pytest.mark.parametrize(
        "point,offs",
        [
            ((1,), (FR(3, 100),)),
            ((0,), (FR(-4, 100),)),
            ((-1,), (FR(2, 100),)),
            ((0, 0), (FR(4, 100), FR(-3, 100))),
        ],
    )
    def test_instances(self, point, offs):
        c = harness.check_gen_reg_exp(point, offs, 9)
        assert c.passed

    def test_star_variant(self):
        c = harness.check_gen_reg_exp((0,), (FR(3, 100),), 9, star=True)
        assert c.passed
        c = harness.check_gen_reg_exp((0, 0), (FR(3, 100), FR(-2, 100)), 8, star=True)
        assert c.passed

    def test_negative_point_taylor_relation(self):
        # D^k zeta(-1) = (-1)^k gamma_k^(-1) for k >= 2 but not k = 0, 1
        with mp.workdps(30):
            for k, agrees in [(0, False), (1, False), (2, True), (3, True)]:
                g = stieltjes.stieltjes_constant((-1,), (k,), 10).value
                d = zeta_partial_derivative((-1,), (k,), 10)
                gap = abs((-1) ** k * g - d)
                assert (gap < 1e-6) == agrees

    def test_negative_point_stirling_corrections(self):
        # Taylor coefficients of the continued value at -n carry a
        # Stirling-weighted Bernoulli correction for k <= n
        from math import factorial

        from helpers import stirling_first
        from mzeta.exact import bernoulli

        with mp.workdps(30):
            for n in (1, 2):
                b_corr = bernoulli(n + 1, star=True) / factorial(n + 1)
                for k in range(n + 1):
                    g = stieltjes.stieltjes_constant((-n,), (k,), 10).value
                    d = zeta_partial_derivative((-n,), (k,), 10)
                    taylor = d / factorial(k)
                    expect = (-1) ** k * g / factorial(k) + stirling_first(
                        n + 1, k + 1
                    ) * b_corr
                    assert abs(taylor - expect) < 1e-6
        # in particular the order-0 constant at -1 vanishes
        assert abs(stieltjes.stieltjes_constant((-1,), (0,), 12).value) < 1e-12


class TestLimitsAndStuffle:
    def test_origin_limits(self):
        checks = harness.check_limits_at_origin(10)
        assert all(c.passed for c in checks)
        by_tag = {c.params["limit"]: c for c in checks}
        assert abs(by_tag["zeta(s,0)"].rhs - FR(5, 12)) < 1e-15
        assert abs(by_tag["zeta(0,s)"].rhs - FR(1, 3)) < 1e-15

    def test_reg_stuffle_instances(self):
        c = harness.check_reg_stuffle((1,), (1,), (FR(4, 100),), (FR(-5, 100),), 9)
        assert c.passed
        c = harness.check_reg_stuffle((1,), (2,), (FR(5, 100),), (FR(4, 100),), 8)
        assert c.passed

    def test_reg_stuffle_degenerate_side(self):
        c = harness.check_reg_stuffle((), (2,), (), (FR(3, 100),), 10)
        assert c.abs_gap < 1e-12

    def test_unicity(self):
        for depth in (1, 2, 3):
            for seed in (1, 2, 42):
                assert harness.check_unicity(depth, seed).passed


class TestRunner:
    def test_unknown_identity_rejected(self):
        with pytest.raises(ValueError):
            harness.verify(["no-such-identity"])

    def test_deterministic_families(self):
        a = harness.run_identity("unicity", seed=42, digits=10)
        b = harness.run_identity("unicity", seed=42, digits=10)
        assert json.dumps([c.to_json_dict() for c in a], sort_keys=True) == json.dumps(
            [c.to_json_dict() for c in b], sort_keys=True
        )

    def test_report_shape(self):
        checks = harness.run_identity("limits-origin", seed=42, digits=9)
        rep = harness.report(checks)
        assert rep["summary"]["total"] == len(checks)
        assert rep["summary"]["failed"] == 0
        assert all("lhs" in c and "rhs" in c for c in rep["checks"])

    def test_parallel_equals_serial(self):
        serial = harness.verify(["unicity", "limits-origin"], seed=42, digits=9, jobs=1)
        parallel = harness.verify(["unicity", "limits-origin"], seed=42, digits=9, jobs=2)
        assert [c.to_json_dict() for c in serial] == [c.to_json_dict() for c in parallel]

    def test_pool_is_capped_at_the_family_count(self, monkeypatch):
        # under fork the pool starts every worker at the first submit, so a
        # huge --jobs must not reach it; the fake pool runs tasks inline
        import concurrent.futures

        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(harness, "run_identity", lambda name, seed, digits: [])
        assert harness.verify(["unicity", "limits-origin"], jobs=100_000) == []
        assert harness.verify(list(harness.IDENTITY_NAMES), jobs=3) == []
        assert sizes == [2, 3]
