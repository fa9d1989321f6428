"""Acceptance criteria, one test per criterion with a printed verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines as
they complete; tolerances and runtime budgets are fixed here, not tuned.
"""

import random
import time
from fractions import Fraction

from mpmath import mp

from helpers import zeta_partial_derivative
from mzeta import harness, mzv, stieltjes
from mzeta.cli import main as cli_main
from mzeta.stuffle import (
    RatFunc,
    deduce_sequence,
    enumerate_stufflings,
    f_rational,
    matrix_A,
    matrix_A_inverse,
    matrix_product,
    reciprocal_suffix_chain,
)

FR = Fraction


def record(num: int, description: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {description}{tail}", flush=True)
    assert ok, f"criterion {num} failed: {description}{tail}"


def test_criterion_01_half_log_two_pi(capsys):
    start = time.time()
    code = cli_main(["stieltjes", "--point", "0", "--order", "1", "--digits", "12"])
    out = capsys.readouterr().out
    elapsed = time.time() - start
    value = mp.mpf(out.splitlines()[0])
    gap = abs(value - mp.mpf("0.918938533205"))
    ok = code == 0 and gap < 1e-10 and elapsed < 10
    record(1, "gamma_1^(0) = log(2 pi)/2 via the CLI", ok, f"gap {float(gap):.2e}, {elapsed:.1f}s")


def test_criterion_02_values_and_derivatives_at_zero():
    with mp.workdps(30):
        g0 = stieltjes.stieltjes_constant((0,), (0,), 12).value
        z0 = mzv.zeta_value((0,), 12)
        ok_values = abs(g0 + 1) < 1e-10 and abs(z0 + mp.mpf("0.5")) < 1e-10
        g1 = stieltjes.stieltjes_constant((0,), (1,), 12).value
        g2 = stieltjes.stieltjes_constant((0,), (2,), 12).value
        d1 = zeta_partial_derivative((0,), (1,), 10)
        d2 = zeta_partial_derivative((0,), (2,), 10)
        ok_derivs = abs(d1 + g1) < 1e-6 and abs(d2 - g2) < 1e-6
    record(
        2,
        "gamma_0^(0) = -1, zeta(0) = -1/2, and D^k zeta(0) = (-1)^k gamma_k^(0)",
        ok_values and ok_derivs,
    )


def test_criterion_03_origin_limits():
    start = time.time()
    checks = harness.check_limits_at_origin(10)
    elapsed = time.time() - start
    by_tag = {c.params["limit"]: c for c in checks}
    ok = (
        by_tag["zeta(s,0)"].abs_gap < 1e-8
        and by_tag["zeta(0,s)"].abs_gap < 1e-8
        and elapsed < 30
    )
    record(3, "lim zeta(s,0) = 5/12 and lim zeta(0,s) = 1/3", ok, f"{elapsed:.1f}s")


def test_criterion_04_regularised_stuffle_instance():
    with mp.workdps(30):
        gamma = stieltjes.stieltjes_constant((1,), (0,), 14)
        g00 = stieltjes.stieltjes_constant((1, 1), (0, 0), 14)
        assert g00.method == "extrapolation"
        zeta2 = mzv.zeta_value((2,), 14)
        residual = abs(gamma.value**2 - 2 * g00.value - zeta2)
    record(4, "gamma^2 - 2 gamma_00 - zeta(2) = 0", residual < 1e-8, f"residual {float(residual):.2e}")


def test_criterion_05_exact_matrix_inverse():
    start = time.time()
    rng = random.Random(42)
    count = 0
    for r in range(0, 5):
        for bits in range(1, 2 ** (r + 1)):
            iset = tuple(i for i in range(r + 1) if bits >> i & 1)
            if not iset:
                continue
            prod_m = matrix_product(matrix_A(iset, r), matrix_A_inverse(iset, r), iset)
            points = [
                tuple(FR(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(r))
                for _ in range(5)
            ]
            for a in iset:
                for b in iset:
                    expect = RatFunc.one(r) if a == b else RatFunc.zero(r)
                    assert prod_m[(a, b)].eq_exact(expect)
                    for x in points:
                        assert prod_m[(a, b)].evaluate(x) == (1 if a == b else 0)
            count += 1
    elapsed = time.time() - start
    record(5, "A * A^-1 = I exactly for every I, r <= 4", elapsed < 60, f"{count} index sets, {elapsed:.1f}s")


def test_criterion_06_worked_inversion_coefficient():
    f3 = f_rational((0, 2, 3), 3)
    expect = RatFunc(
        3,
        (
            (FR(1), ((0, 1, 0), (0, 1, 1), (1, 1, 1))),
            (FR(1), ((0, 1, 0), (1, 1, 0), (1, 1, 1))),
        ),
    )  # = (X1 + 2 X2 + X3) / (X2 (X1+X2) (X2+X3) (X1+X2+X3))
    ok = f3.eq_exact(expect)
    if ok:
        num, den = f3.as_fraction()
        scale = num[(1, 0, 0)]
        ok = num == {(1, 0, 0): scale, (0, 1, 0): 2 * scale, (0, 0, 1): scale}
    record(6, "f_3 for I = {0,2,3} equals the worked rational function", ok)


def test_criterion_07_shuffle_identity():
    rng = random.Random(42)
    ok = True
    for p in range(4):
        for q in range(4):
            shuffles = enumerate_stufflings(p, q, shuffle_only=True)
            for _ in range(5):
                xs = tuple(FR(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(p))
                ys = tuple(FR(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(q))
                lhs = reciprocal_suffix_chain(p, nvars=p).evaluate(xs)
                lhs *= reciprocal_suffix_chain(q, nvars=q).evaluate(ys)
                chain = reciprocal_suffix_chain(p + q, nvars=p + q)
                rhs = sum(chain.evaluate(deduce_sequence(xs, ys, st)) for st in shuffles)
                ok = ok and lhs == rhs
    record(7, "shuffle identity holds exactly for p, q <= 3", ok)


def test_criterion_08_combinatorial_formulas():
    checks = harness.run_identity("comb-form-1", seed=42, digits=12)
    checks += harness.run_identity("comb-form-2", seed=42, digits=12)
    worst = max(float(c.abs_gap) for c in checks)
    ok = all(c.abs_gap < 1e-9 for c in checks)
    cor = harness.check_comb_form((2.5,), 1, "cor", 12)
    ok = ok and cor.abs_gap == 0
    record(
        8,
        "truncation identities within 1e-9 (r <= 3, N in {2,5,10}); depth-1 corollary exact",
        ok,
        f"{len(checks)} checks, worst gap {worst:.2e}",
    )


def test_criterion_09_laurent_reconstruction():
    rng = random.Random(42)
    with mp.workdps(30):
        r1 = stieltjes.reg_series((1,), 4, 14)
        r2 = stieltjes.reg_series((1, 1), 4, 14)
        worst = mp.zero
        for _ in range(3):
            while True:
                offs = [
                    rng.choice((-1, 1)) * mp.mpf(rng.randint(300, 500)) / 10**4
                    for _ in range(2)
                ]
                if mp.mpf("0.01") < abs(offs[0] + offs[1]) < mp.mpf("0.05"):
                    break
            s1, s2 = 1 + offs[0], 1 + offs[1]
            rebuilt = (
                1 / ((s1 - 1) * (s1 + s2 - 2))
                + stieltjes.eval_reg(r1, (s2,)).value / (s1 - 1)
                + stieltjes.eval_reg(r2, (s1, s2)).value
            )
            direct = mzv.zeta_value((s1, s2), 14)
            worst = max(worst, abs(rebuilt - direct))
    record(
        9,
        "zeta(s1,s2) near (1,1) rebuilt from the three expansion blocks",
        worst < 1e-6,
        f"worst gap {float(worst):.2e}",
    )


def test_criterion_10_general_expansion_instances():
    rng = random.Random(42)
    with mp.workdps(30):
        results = {}

        def offs(depth, lo=3, hi=5):
            return [rng.choice((-1, 1)) * mp.mpf(rng.randint(lo * 100, hi * 100)) / 10**4 for _ in range(depth)]

        # point (-1): Reg(s) = zeta(s) - s/12
        (d,) = offs(1)
        s = -1 + d
        lhs = stieltjes.eval_reg(stieltjes.reg_series((-1,), 6, 12), (s,)).value
        rhs = mzv.zeta_value((s,), 14) - s / 12
        results["(-1)"] = abs(lhs - rhs)

        # point (2,0): Reg(s) = zeta(s) + 1/((s2-1)(s1+s2-2))
        d = offs(2)
        s = (2 + d[0], d[1])
        lhs = stieltjes.eval_reg(stieltjes.reg_series((2, 0), 6, 12), s).value
        rhs = mzv.zeta_value(s, 14) + 1 / ((s[1] - 1) * (s[0] + s[1] - 2))
        results["(2,0)"] = abs(lhs - rhs)

        # point (0,0): Reg(s) = zeta(s) - zeta(s2)/2 + rational blocks
        d = offs(2)
        s = (d[0], d[1])
        lhs = stieltjes.eval_reg(stieltjes.reg_series((0, 0), 6, 12), s).value
        rhs = (
            mzv.zeta_value(s, 14)
            - mzv.zeta_value((s[1],), 14) / 2
            + (s[1] / (s[0] + s[1]) + 3 + (s[0] + s[1] - 1) / (s[1] - 1)) / 12
        )
        results["(0,0)"] = abs(lhs - rhs)

        # point (2,0,1): Reg(s) = zeta(s) + zeta(s3)/((s2-1)(s1+s2-2))
        #                         - 1/((s3-1)(s2+s3-2)(s1+s2+s3-3))
        d = offs(3, 2, 4)
        s = (2 + d[0], d[1], 1 + d[2])
        lhs = stieltjes.eval_reg(stieltjes.reg_series((2, 0, 1), 6, 12), s).value
        rhs = (
            mzv.zeta_value(s, 14)
            + mzv.zeta_value((s[2],), 14) / ((s[1] - 1) * (s[0] + s[1] - 2))
            - 1 / ((s[2] - 1) * (s[1] + s[2] - 2) * (s[0] + s[1] + s[2] - 3))
        )
        results["(2,0,1)"] = abs(lhs - rhs)

    worst = max(results.values())
    record(
        10,
        "regularised values match the worked closed forms at (-1), (2,0), (0,0), (2,0,1)",
        all(v < 1e-6 for v in results.values()),
        "; ".join(f"{k}: {float(v):.2e}" for k, v in results.items()),
    )


def test_criterion_11_full_verification_run():
    start = time.time()
    checks = harness.verify(list(harness.IDENTITY_NAMES), seed=42, digits=10, jobs=4)
    elapsed = time.time() - start
    rep = harness.report(checks)
    ok = rep["summary"]["failed"] == 0 and elapsed < 600
    record(
        11,
        "verify-all passes under the default seed within ten minutes",
        ok,
        f"{rep['summary']['total']} checks, {elapsed:.0f}s",
    )
