import os
import subprocess
import sys
from fractions import Fraction
from itertools import pairwise, product
from math import factorial, prod
from pathlib import Path

import mpmath
import pytest
from mpmath import mp

from helpers import resolve, zeta_partial_derivative
from mzeta import mzv, stieltjes
from mzeta.config import DEPTH_CAP, to_mpf
from mzeta.scale import Coeff
from mzeta.stieltjes import (
    as_point,
    asymptotic_expansion,
    eval_reg,
    gamma_atom,
    in_closure,
    in_U,
    index_set,
    iter_orders,
    parse_gamma_atom,
    reg_series,
    resolve_atom,
    stieltjes_constant,
    truncated_log_sum,
)

EULER = mp.mpf("0.5772156649015328606065121")
HALF_LOG_2PI = mp.mpf("0.9189385332046727417803297")
ZETA2 = mp.mpf("1.6449340668482264364724152")
GAMMA00 = mp.mpf("-0.6558780715202538810770195")  # (euler^2 - zeta(2))/2


class TestPredicates:
    def test_domain_membership(self):
        assert in_U((2,)) and not in_U((1,))
        assert in_closure((1,)) and not in_closure((0,))
        assert in_U((3, 2)) and not in_U((2, 0))
        assert in_closure((2, 0)) and in_closure((1, 1))

    def test_index_set(self):
        assert index_set((2, 0, 1)) == (0, 2, 3)
        assert index_set((1, 1)) == (0, 1, 2)
        assert index_set((2,)) == (0,)
        assert index_set(()) == (0,)

    def test_atom_names_round_trip(self):
        name = gamma_atom((2, 0, 1), (1, 0, 2), star=True)
        assert parse_gamma_atom(name) == ((2, 0, 1), (1, 0, 2), True)


class TestTruncatedLogSum:
    def test_harmonic_prefix(self):
        with mp.workdps(25):
            assert abs(truncated_log_sum((1,), (0,), 4) - mp.mpf(11) / 6) < 1e-24

    def test_double_sum_single_point(self):
        assert truncated_log_sum((1, 1), (0, 0), 3) == mp.mpf("0.5")

    def test_log_weight(self):
        with mp.workdps(25):
            assert abs(truncated_log_sum((0,), (1,), 4) - mp.log(6)) < 1e-24

    def test_star_single_lattice_point(self):
        assert truncated_log_sum((2, 2), (0, 0), 2, star=True) == 1

    def test_star_weak_inequalities(self):
        # N=3 star: pairs (1,1),(2,1),(2,2) at point (1,1)
        expect = mp.mpf(1) + mp.mpf(1) / 2 + mp.mpf(1) / 4
        assert abs(truncated_log_sum((1, 1), (0, 0), 3, star=True) - expect) < 1e-15

    def test_depth_zero(self):
        assert truncated_log_sum((), (), 10) == 1


class TestAsymptoticExpansion:
    def test_harmonic_shape(self):
        e = asymptotic_expansion((1,), (0,), 0)
        assert e.cell(0, 1) == Coeff.rational(1)
        assert e.cell(0, 0) == Coeff.atom(gamma_atom((1,), (0,)))

    def test_depth_two_all_ones(self):
        e = asymptotic_expansion((1, 1), (0, 0), 0)
        assert e.cell(0, 2) == Coeff.rational(Fraction(1, 2))
        assert e.cell(0, 1) == Coeff.atom(gamma_atom((1,), (0,)))
        assert e.cell(0, 0) == Coeff.atom(gamma_atom((1, 1), (0, 0)))

    def test_convergent_point_is_constant_only(self):
        e = asymptotic_expansion((2,), (0,), 0)
        assert {m for (m, _), _ in e.terms} == {0}
        assert e.cell(0, 0) == Coeff.atom(gamma_atom((2,), (0,)))

    def test_exact_counting_expansion(self):
        # (N-1)(N-2)/2 once the depth-1 constant is resolved
        e = asymptotic_expansion((0, 0), (0, 0), 1)
        vals = {gamma_atom((0,), (0,)): Fraction(-1)}
        assert e.cell(-2, 0) == Coeff.rational(Fraction(1, 2))
        assert resolve(e.cell(-1, 0), vals) == Fraction(-3, 2)

    def test_boundary_points_have_nonnegative_order(self):
        for depth in (1, 2, 3):
            for point in product(range(-3, 4), repeat=depth):
                if not in_closure(point) or in_U(point):
                    continue
                e = asymptotic_expansion(point, (0,) * depth, 1)
                assert e.order() >= 0

    def test_order_bound_general_points(self):
        # ord >= min(0, a1-1, ..., a1+..+ar-r)
        for point in [(-1,), (0, 0), (-1, 2), (1, -2)]:
            depth = len(point)
            e = asymptotic_expansion(point, (0,) * depth, 1)
            prefix = 0
            bound = 0
            for i, a in enumerate(point, start=1):
                prefix += a
                bound = min(bound, prefix - i)
            assert e.order() >= bound


def _assembly_meets_its_estimate(point, order, digits, ref, star=False):
    got = stieltjes_constant(point, order, digits, star=star, method="closed_form_assembly")
    with mp.workdps(digits + 20):
        assert abs(got.value - ref) <= got.est_error <= mp.mpf(10) ** -digits, (got.value, got.est_error)


class TestStieltjesConstant:
    def test_euler(self):
        v = stieltjes_constant((1,), (0,), 12)
        assert abs(v.value - EULER) < 1e-11
        assert v.method == "extrapolation"

    def test_origin_value(self):
        v = stieltjes_constant((0,), (0,), 12)
        assert abs(v.value - (-1)) < 1e-12

    def test_half_log_2pi(self):
        v = stieltjes_constant((0,), (1,), 12)
        assert abs(v.value - HALF_LOG_2PI) < 1e-11

    def test_depth_two_all_ones(self):
        v = stieltjes_constant((1, 1), (0, 0), 10)
        assert abs(v.value - GAMMA00) < 1e-10

    def test_depth_zero_convention(self):
        v = stieltjes_constant((), (), 10)
        assert v.value == 1

    def test_points_deeper_than_the_cap_are_rejected(self):
        assert as_point([1] * DEPTH_CAP) == (1,) * DEPTH_CAP
        with pytest.raises(ValueError, match=f"depth {DEPTH_CAP + 1} exceeds the cap"):
            as_point([1] * (DEPTH_CAP + 1))

    @pytest.mark.parametrize("method", ["extrapolation", "closed_form_assembly"])
    @pytest.mark.parametrize(
        "point, order, message",
        [
            ((3, 2), (1,), "point and order must have equal depth"),
            ((1,), (1, 0), "point and order must have equal depth"),
            ((2,), (-1,), "order entries must be >= 0"),
            ((3, 2), (0, -1), "order entries must be >= 0"),
        ],
    )
    def test_bad_shapes_and_orders_are_refused(self, method, point, order, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            stieltjes_constant(point, order, 8, method=method)

    def test_sums_and_expansions_refuse_bad_shapes_and_orders(self):
        for fn in (lambda p, k: truncated_log_sum(p, k, 10), lambda p, k: asymptotic_expansion(p, k, 2)):
            with pytest.raises(ValueError, match="equal depth"):
                fn((3, 2), (1,))
            with pytest.raises(ValueError, match=">= 0"):
                fn((2,), (-1,))

    def test_doubling_stability(self):
        from mzeta.stieltjes import _constant_by_extrapolation

        for point, order in [
            ((1,), (0,)),
            ((1,), (1,)),
            ((0,), (0,)),
            ((0,), (1,)),
            ((1, 1), (0, 0)),
            ((0, 0), (0, 0)),
        ]:
            v1, e1 = _constant_by_extrapolation(point, order, False, 10)
            v2, _ = _constant_by_extrapolation(point, order, False, 14)
            assert abs(v1 - v2) <= max(e1, mp.mpf(10) ** -10)

    @pytest.mark.parametrize("k", [0, 1])
    def test_constant_past_the_first_probe_sums_one_level(self, monkeypatch, k):
        # at a = 10 the X-order 8 probe lies below the first cell past the
        # constant, X^9: the ladder starts past it, and N stays schedule_n
        n_top = stieltjes.schedule_n(30)
        tops = []
        sweep = mzv.nested_sums

        def spy(s, sum_tops, *args, **kwargs):
            tops.append(list(sum_tops))
            return sweep(s, sum_tops, *args, **kwargs)

        monkeypatch.delenv("MZETA_MAX_N", raising=False)
        monkeypatch.setattr(mzv, "nested_sums", spy)
        stieltjes_constant((10,), (k,), 30)
        assert tops and all(t == [n_top, 2 * n_top] for t in tops)

    @pytest.mark.parametrize("point, first", [((10,), 14), ((10**6,), 10**6 + 4), ((10**6, -5), 10**6 - 2)])
    def test_probe_ladder_starts_at_the_least_prefix_excess(self, monkeypatch, point, first):
        # no cell of order >= 1 lies below the least prefix excess: the first
        # probe is the first X-order 8 + 6j at or above it, and places the cut
        probes = []
        expand = stieltjes.asymptotic_expansion

        def spy(pt, order, precision, star=False):
            if pt == point:
                probes.append(precision)
            return expand(pt, order, precision, star)

        monkeypatch.setattr(stieltjes, "asymptotic_expansion", spy)
        stieltjes_constant(point, (0,) * len(point), 12)
        assert probes == [first]

    def test_convergent_point_consistency(self):
        # at interior points the constants are signed derivatives of the
        # continued values (finite-difference oracle)
        with mp.workdps(30):
            v = stieltjes_constant((2,), (1,), 10)
            d = zeta_partial_derivative((2,), (1,), 10)
            assert abs(v.value - (-d)) < 1e-6
            v = stieltjes_constant((3, 2), (0, 0), 10)
            z = mzv.zeta_value((3, 2), 12)
            assert abs(v.value - z) < 1e-9
            v = stieltjes_constant((3, 2), (1, 0), 8)
            d = zeta_partial_derivative((3, 2), (1, 0), 8)
            assert abs(v.value - (-d)) < 1e-6

    def test_star_plain_depth1_agreement(self):
        for point, order in [((1,), (0,)), ((2,), (0,)), ((1,), (1,)), ((0,), (1,)), ((-1,), (0,))]:
            plain = stieltjes_constant(point, order, 10)
            star = stieltjes_constant(point, order, 10, star=True)
            assert abs(plain.value - star.value) < 1e-9

    def test_classical_constants(self):
        import mpmath

        with mp.workdps(25):
            for k in (1, 2, 3):
                v = stieltjes_constant((1,), (k,), 11)
                assert abs(v.value - mpmath.stieltjes(k)) < 1e-10

    def test_star_depth_two_closed_form(self):
        # weak double harmonic sums symmetrize to (H^2 + H^(2))/2, so the
        # constant is (euler^2 + zeta(2))/2
        v = stieltjes_constant((1, 1), (0, 0), 10, star=True)
        with mp.workdps(25):
            expect = (mp.euler**2 + mp.zeta(2)) / 2
        assert abs(v.value - expect) < 1e-10

    def test_star_plain_origin_weak_top_offset(self):
        # the single depth-1 exception: counting with a weak top bound
        # shifts the constant by exactly one
        plain = stieltjes_constant((0,), (0,), 10)
        star = stieltjes_constant((0,), (0,), 10, star=True)
        assert abs(star.value - plain.value - 1) < 1e-10

    def test_closed_form_assembly_agrees(self):
        ex = stieltjes_constant((1, 1), (0, 0), 10)
        cf = stieltjes_constant((1, 1), (0, 0), 8, method="closed_form_assembly")
        assert abs(ex.value - cf.value) < 1e-6
        ex = stieltjes_constant((2,), (1,), 10)
        cf = stieltjes_constant((2,), (1,), 8, method="closed_form_assembly")
        assert abs(ex.value - cf.value) < 1e-6

    @pytest.mark.parametrize(
        "point, digits, closed_form",
        [
            ((0,), 20, lambda: -mp.one),
            ((1, 1), 30, lambda: (mp.euler**2 - mp.zeta(2)) / 2),
            # at 50 digits: 7 nodes, each 1e-8 clear of the pole at s1 = 1
            ((1,), 50, lambda: +mp.euler),
        ],
    )
    def test_order_zero_assembly_meets_the_digits(self, point, digits, closed_form):
        order = (0,) * len(point)
        with mp.workdps(digits + 20):
            _assembly_meets_its_estimate(point, order, digits, closed_form())

    def test_est_error_has_a_rounding_floor(self):
        # u_N and u_2N agree to the last bit here: the N/2N gap alone was 0
        got = stieltjes_constant((40,), (3,), 30)
        with mp.workdps(90):
            err = abs(got.value + mp.zeta(40, derivative=3))  # g(40|3) = -zeta^(3)(40)
            assert 0 < err <= got.est_error <= mp.mpf(10) ** -30

    @pytest.mark.parametrize("method", ["extrapolation", "closed_form_assembly"])
    @pytest.mark.parametrize("point, order", [((3, 2), (1, 0)), ((2,), (0,))])
    def test_values_are_real(self, method, point, order):
        assert isinstance(stieltjes_constant(point, order, 8, method=method).value, mpmath.mpf)

    @pytest.mark.parametrize(
        "point, star",
        [(p, s) for p in [(0,), (-2,), (0, 0), (0, -1), (1, -2), (-2, -2)] for s in (False, True)]
        + [((1, 0), True)],
    )
    def test_polynomial_sums_give_their_exact_constant(self, monkeypatch, point, star):
        # a nested sum that is a polynomial P(N) has the constant P(0); its
        # exact expansion gives it with no sweep (gs(1,0|0,0) = N is one,
        # g(1,0|0,0) = N - 1 - H_(N-1) is not)
        deg = sum(1 - a for a in point)
        xs = range(1, deg + 2)
        ys = [_brute_force_sum(point, n, star) for n in xs]
        expected = sum(
            y * prod(Fraction(-x_j, x - x_j) for x_j in xs if x_j != x) for x, y in zip(xs, ys)
        )
        sweeps = []
        monkeypatch.setattr(mzv, "nested_sums", lambda *a, **k: sweeps.append(a))
        v = stieltjes_constant(point, (0,) * len(point), 30, star)
        assert (v.est_error, sweeps) == (0, [])
        with mp.workdps(40):
            assert abs(v.value - expected) < mp.mpf(10) ** -32
            assert resolve_atom(gamma_atom(point, (0,) * len(point), star), 30) == v.value


def _brute_force_sum(point, n_top, star):
    """u_N over every index tuple, in exact rationals."""
    holds = (lambda a, b: a >= b) if star else (lambda a, b: a > b)
    return sum(
        prod((Fraction(n) ** -a for n, a in zip(ns, point)), start=Fraction(1))
        for ns in product(range(1, n_top + star), repeat=len(point))
        if all(holds(a, b) for a, b in pairwise(ns))
    )


class TestAssembly:
    """The Cauchy grid of closed_form_assembly, against closed forms and the
    extrapolation route: true error <= est_error <= 10^-digits."""

    def test_second_derivative_of_zeta_at_three(self):
        # was 6.3e-10 off: gs(3|2) = zeta''(3)
        with mp.workdps(40):
            ref = mp.zeta(3, derivative=2)
        _assembly_meets_its_estimate((3,), (2,), 12, ref, star=True)

    @pytest.mark.parametrize(
        "point, order, digits",
        [
            ((1, 2), (0, 1), 12),  # exited 4: its samples kept s1 = 1
            ((1, 1), (1, 0), 30),
            ((2, 1), (1, 1), 20),  # was 1.6e-11 off
        ],
    )
    def test_agrees_with_extrapolation(self, point, order, digits):
        ref = stieltjes_constant(point, order, digits + 5).value
        _assembly_meets_its_estimate(point, order, digits, ref)

    def test_depth_two_taylor_block(self):
        orders = list(iter_orders(2, 2))
        for ks, (ref, _) in zip(orders, stieltjes._constants_by_extrapolation((2, 1), orders, False, 35)):
            _assembly_meets_its_estimate((2, 1), ks, 30, ref)

    def test_depth_six_samples_keep_off_the_poles(self, monkeypatch):
        # every contiguous sum s_i+..+s_j of a sample stays 100 POLE_TOL off
        # its value at the point, where the point's own poles lie
        point = (1,) * DEPTH_CAP
        samples = []

        def spy(pt, s, digits, star=False):
            samples.append(s)
            return mp.mpc(1), mp.one

        monkeypatch.setattr(mzv, "reg_via_tails_with_scale", spy)
        stieltjes_constant(point, (0,) * len(point), 12, method="closed_form_assembly")
        assert len(samples) == 2 ** (len(point) - 1)  # conjugate nodes share one
        for s in samples:
            for i in range(len(s)):
                for j in range(i + 1, len(s) + 1):
                    assert abs(mp.fsum(s[i:j]) - sum(point[i:j])) >= 100 * mzv.POLE_TOL


class TestRegSeries:
    def test_center_one_degree_zero(self):
        series = reg_series((1,), 0, 12)
        assert set(series.coefficients) == {(0,)}
        assert abs(series.coefficients[(0,)] - EULER) < 1e-11

    def test_center_two_taylor_of_zeta(self):
        series = reg_series((2,), 1, 12)
        with mp.workdps(25):
            assert abs(series.coefficients[(0,)] - mp.zeta(2)) < 1e-11
            assert abs(series.coefficients[(1,)] - mp.zeta(2, derivative=1)) < 1e-10
        # and the constant itself carries the sign convention
        g1 = stieltjes_constant((2,), (1,), 12)
        with mp.workdps(25):
            assert abs(g1.value - (-mp.zeta(2, derivative=1))) < 1e-10

    def test_depth_zero(self):
        series = reg_series((), 3, 10)
        assert series.coefficients == {(): 1}
        assert eval_reg(series, ()).value == 1

    def test_eval_at_center(self):
        series = reg_series((1,), 2, 12)
        assert abs(eval_reg(series, (1,)).value - EULER) < 1e-11
        series2 = reg_series((1, 1), 1, 10)
        assert abs(eval_reg(series2, (1, 1)).value - GAMMA00) < 1e-9

    def test_eval_near_center_matches_continuation(self):
        # zeta(1.1) - 1/(s-1), high-degree series
        series = reg_series((1,), 12, 14)
        got = eval_reg(series, (mp.mpf("1.1"),)).value
        with mp.workdps(30):
            expect = mp.zeta(mp.mpf("1.1")) - 10
        assert abs(got - expect) < 1e-9

    def test_eval_at_complex_offset(self):
        series = reg_series((1,), 8, 12)
        s = mp.mpc("1.02", "0.05")
        got = eval_reg(series, (s,)).value
        with mp.workdps(30):
            expect = mp.zeta(s) - 1 / (s - 1)
        assert abs(got - expect) < 1e-9

    def test_divergence_warning_outside_radius(self):
        # offsets with |d1|+|d2| > 1 cross the nearest pole set of the
        # depth-2 regularised function; shells stop decreasing
        series = reg_series((1, 1), 6, 8)
        with pytest.warns(RuntimeWarning):
            eval_reg(series, (mp.mpf("2.2"), mp.mpf("1.0")))

    def test_iter_orders_counts(self):
        assert len(list(iter_orders(3, 4))) == 35
        assert list(iter_orders(0, 5)) == [()]


def _clear_constant_memos():
    for fn in (reg_series, asymptotic_expansion):
        fn.cache.clear()
    stieltjes._atom_cache.clear()


class TestTaylorBlocks:
    @pytest.mark.parametrize("center, degree, digits, star", [((1, 1), 8, 10, False), ((2, 1), 8, 12, True)])
    def test_block_matches_constants_order_by_order(self, center, degree, digits, star):
        _clear_constant_memos()
        block = reg_series(center, degree, digits, star).coefficients
        _clear_constant_memos()
        for ks in iter_orders(len(center), degree):
            gamma = stieltjes_constant(center, ks, digits, star).value
            weight = to_mpf(Fraction((-1) ** sum(ks), prod(factorial(k) for k in ks)))
            assert block[ks]._mpf_ == (weight * gamma)._mpf_, ks

    def test_first_level_sweeps_once_per_group(self, monkeypatch):
        center, degree, digits, star = (2, 1), 6, 12, True
        n_top = stieltjes.schedule_n(digits)
        target = 0.25 * 10.0 ** (-(digits + 2))
        groups = {}
        for ks in iter_orders(len(center), degree):
            level = stieltjes._level(center, ks, star, n_top, target)
            if stieltjes._exact_constant(center, ks, star) is None and level is not None:
                groups.setdefault(digits + level[1], []).append(ks)  # the working dps
        assert len(groups) > 1 and max(map(len, groups.values())) > 1
        sweeps = []
        sweep = mzv.nested_sums

        def spy(s, tops, *args, **kwargs):
            sweeps.append((tuple(s), list(tops), [tuple(ks) for ks in args[0]], mp.dps))
            return sweep(s, tops, *args, **kwargs)

        _clear_constant_memos()
        monkeypatch.setattr(mzv, "nested_sums", spy)
        reg_series(center, degree, digits, star)
        first_tops = [n_top + 1, 2 * n_top + 1]  # a star sum includes its top index
        first = [(orders, dps) for s, tops, orders, dps in sweeps if s == center and tops == first_tops]
        assert sorted(first) == sorted((orders, dps) for dps, orders in groups.items())


class TestCaches:
    def test_list_and_tuple_arguments_share_one_expansion(self):
        from_lists = asymptotic_expansion([2, 1], [1, 0], 3)
        from_tuples = asymptotic_expansion((2, 1), (1, 0), 3)
        assert from_tuples is from_lists
        assert asymptotic_expansion.cache[((2, 1), (1, 0), 3, False)] is from_lists

    def test_atoms_resolve_in_the_same_order_in_every_process(self):
        # gs(3,1|1,0) resolves gs(1|0) at 32 digits on the way; resolved
        # first, the deeper atom lets the 23-digit request for gs(1|0) reuse
        # that value, whatever the string hashing of the process
        script = (
            "from mzeta import mzv\n"
            "from mzeta.cli import main\n"
            "sweeps = []\n"
            "sweep = mzv.nested_sums\n"
            "mzv.nested_sums = lambda *a, **k: sweeps.append(a) or sweep(*a, **k)\n"
            "main(['stieltjes', '--point=0,3,1', '--order=0,1,0', '--digits=12', '--star'])\n"
            "print('sweeps', len(sweeps))\n"
        )
        src = str(Path(stieltjes.__file__).resolve().parents[1])
        outputs = []
        for seed in ("0", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=300, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        lines = outputs[0].splitlines()
        assert lines[0] == "-2.23763729976" and lines[-1] == "sweeps 3"

    def test_atom_reuses_more_digits_and_recomputes_for_more(self):
        name = "g(3|1)"
        stieltjes._atom_cache.pop(name, None)
        v20 = resolve_atom(name, 20)
        assert resolve_atom(name, 12) is v20
        v30 = resolve_atom(name, 30)
        assert v30 is not v20
        assert resolve_atom(name, 25) is v30
        with mp.workdps(40):
            assert abs(v30 - v20) < 1e-20


# -- the recursive order enumeration and the hand-rolled prefix-sum loops
# that exact.compositions and one accumulate list replaced ---------------------


def _recursive_iter_orders(depth, degree):
    if depth == 0:
        yield ()
        return
    for head in range(degree + 1):
        for tail in _recursive_iter_orders(depth - 1, degree - head):
            yield (head,) + tail


def _looped_predicates(point):
    acc, strict, closed, iset = 0, True, True, [0]
    for i, a in enumerate(point, start=1):
        acc += a
        strict, closed = strict and acc > i, closed and acc >= i
        if acc == i:
            iset.append(i)
    return strict, closed, tuple(iset)


class TestEnumerationOracle:
    def test_iter_orders_matches_the_recursion(self):
        for depth in range(7):
            for degree in range(9):
                got = list(iter_orders(depth, degree))
                assert got == list(_recursive_iter_orders(depth, degree)), (depth, degree)

    def test_prefix_predicates_match_the_loops(self):
        for depth in range(5):
            for point in product(range(-2, 4), repeat=depth):
                got = (in_U(point), in_closure(point), index_set(point))
                assert got == _looped_predicates(point), point
