import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mzeta.stieltjes import in_closure
from mzeta.stuffle import (
    RatFunc,
    Stuffling,
    _zigzag_extensions,
    b_rational,
    deduce_sequence,
    enumerate_stufflings,
    f_rational,
    inversion_sign,
    matrix_A,
    matrix_A_inverse,
    matrix_product,
    reciprocal_suffix_chain,
)

FR = Fraction


def delannoy(p, q):
    # stuffling-count oracle: D(p,q) = D(p-1,q) + D(p,q-1) + D(p-1,q-1)
    table = {}
    for a in range(p + 1):
        for b in range(q + 1):
            if a == 0 or b == 0:
                table[(a, b)] = 1
            else:
                table[(a, b)] = table[(a - 1, b)] + table[(a, b - 1)] + table[(a - 1, b - 1)]
    return table[(p, q)]


def seeded_positive_rationals(rng, n):
    return tuple(FR(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(n))


class TestStufflings:
    def test_depth_two_euler_terms(self):
        sts = enumerate_stufflings(1, 1)
        assert sts == [
            Stuffling(1, (1,), (1,)),
            Stuffling(2, (1,), (2,)),
            Stuffling(2, (2,), (1,)),
        ]

    def test_empty_side(self):
        sts = enumerate_stufflings(0, 3)
        assert sts == [Stuffling(3, (), (1, 2, 3))]

    @pytest.mark.parametrize("p,q", list(product(range(5), repeat=2)))
    def test_counts_match_recurrence_oracle(self, p, q):
        assert len(enumerate_stufflings(p, q)) == delannoy(p, q)

    def test_shuffles_are_disjoint_and_counted(self):
        shuffles = enumerate_stufflings(2, 1, shuffle_only=True)
        assert len(shuffles) == 3
        assert all(st.is_shuffle and st.r == 3 for st in shuffles)

    def test_structural_invariants(self):
        for p, q in product(range(4), repeat=2):
            for st_ in enumerate_stufflings(p, q):
                assert len(st_.A) == p and len(st_.B) == q
                assert set(st_.A) | set(st_.B) == set(range(1, st_.r + 1))
                assert max(p, q) <= st_.r <= p + q


class TestDeduceSequence:
    def test_merge_adds(self):
        assert deduce_sequence((3,), (4,), Stuffling(1, (1,), (1,))) == (7,)

    def test_disjoint_keeps_order(self):
        assert deduce_sequence((3,), (4,), Stuffling(2, (1,), (2,))) == (3, 4)
        assert deduce_sequence((3,), (4,), Stuffling(2, (2,), (1,))) == (4, 3)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            deduce_sequence((3, 5), (4,), Stuffling(1, (1,), (1,)))

    @given(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))
    @settings(max_examples=20, deadline=None)
    def test_closure_preserved(self, p, q):
        # deduced sequences of closure points stay in the closure
        points_p = [pt for pt in product(range(0, 3), repeat=p) if in_closure(pt)]
        points_q = [pt for pt in product(range(0, 3), repeat=q) if in_closure(pt)]
        for a in points_p:
            for b in points_q:
                for st_ in enumerate_stufflings(p, q):
                    assert in_closure(deduce_sequence(a, b, st_))


class TestMatrices:
    def test_matrix_entries_depth_one(self):
        A = matrix_A((0, 1), 1)
        assert A[(0, 0)].eq_exact(RatFunc.one(1))
        assert A[(0, 1)].evaluate((FR(5),)) == FR(1, 5)
        assert A[(1, 0)].is_zero_exact

    def test_suffix_product_entry(self):
        A = matrix_A((0, 1, 2), 2)
        # a_{0,2} = 1/((X1+X2) X2)
        x = (FR(2), FR(3))
        assert A[(0, 2)].evaluate(x) == 1 / ((x[0] + x[1]) * x[1])

    def test_inverse_depth_one_sign(self):
        Ainv = matrix_A_inverse((0, 1), 1)
        assert Ainv[(0, 1)].evaluate((FR(5),)) == FR(-1, 5)
        assert Ainv[(1, 1)].eq_exact(RatFunc.one(1))

    def test_inverse_at_rational_point(self):
        I = (0, 2, 3)
        A, Ainv = matrix_A(I, 3), matrix_A_inverse(I, 3)
        P = matrix_product(A, Ainv, I)
        x = (FR(1, 2), FR(1, 3), FR(1, 5))
        for a in I:
            for b in I:
                assert P[(a, b)].evaluate(x) == (1 if a == b else 0)

    def test_exact_inverse_all_subsets(self):
        rng = random.Random(42)
        for r in range(0, 5):
            for bits in range(1, 2 ** (r + 1)):
                iset = tuple(i for i in range(r + 1) if bits >> i & 1)
                if not iset:
                    continue
                A, Ainv = matrix_A(iset, r), matrix_A_inverse(iset, r)
                P = matrix_product(A, Ainv, iset)
                points = [seeded_positive_rationals(rng, r) for _ in range(5)]
                for a in iset:
                    for b in iset:
                        expect = RatFunc.one(r) if a == b else RatFunc.zero(r)
                        assert P[(a, b)].eq_exact(expect)
                        for x in points:
                            assert P[(a, b)].evaluate(x) == (1 if a == b else 0)


class TestZigzagIntegrals:
    def test_point_region(self):
        assert b_rational((0, 1), 1, 1).eq_exact(RatFunc.one(1))

    def test_single_variable(self):
        assert b_rational((0, 1), 0, 1).evaluate((FR(7),)) == FR(1, 7)

    def test_worked_example_exact(self):
        # zigzag t1 > t2, t2 < t3 for I = {0, 2, 3}
        f3 = f_rational((0, 2, 3), 3)
        expected_num = lambda x: x[0] + 2 * x[1] + x[2]
        expected_den = lambda x: x[1] * (x[0] + x[1]) * (x[1] + x[2]) * (x[0] + x[1] + x[2])
        for x in [(FR(1), FR(2), FR(3)), (FR(1, 2), FR(1, 3), FR(1, 5))]:
            assert f3.evaluate(x) == expected_num(x) / expected_den(x)

    def test_f_zero_is_one(self):
        assert f_rational((0, 2, 3), 0).eq_exact(RatFunc.one(0))

    def test_f_requires_membership(self):
        with pytest.raises(ValueError):
            f_rational((0, 2, 3), 1)

    def test_all_ones_single_extension(self):
        # increasing chain: reciprocal product of prefix sums
        for i in (1, 2, 3):
            f_i = f_rational(tuple(range(i + 1)), i)
            x = seeded_positive_rationals(random.Random(i), i)
            expect = FR(1)
            acc = FR(0)
            for j in range(i):
                acc += x[j]
                expect /= acc
            assert f_i.evaluate(x) == expect

    def test_monte_carlo_oracle(self):
        # B_{0,j} integrals vs vectorized Monte-Carlo, 3 sigma
        rng = np.random.default_rng(42)
        cases = [
            ((0, 1, 2), 2, (1.5, 2.0)),
            ((0, 2, 3), 3, (1.0, 2.0, 1.5)),
            ((0, 1, 3), 3, (2.0, 1.0, 3.0)),
        ]
        n_samples = 10**6
        for iset, j, exps in cases:
            t = rng.random((n_samples, j))
            mask = np.ones(n_samples, dtype=bool)
            for m in range(1, j):
                if m in iset:
                    mask &= t[:, m - 1] < t[:, m]
                else:
                    mask &= t[:, m - 1] > t[:, m]
            integrand = np.prod(t ** (np.array(exps) - 1), axis=1)
            vals = integrand * mask
            estimate = vals.mean()
            sigma = vals.std(ddof=1) / n_samples**0.5
            exact = float(b_rational(iset, 0, j).evaluate(tuple(FR(e).limit_denominator() for e in exps)))
            assert abs(estimate - exact) < 3 * sigma + 1e-9


def _dfs_zigzag_extensions(positions, descents):
    # reference: depth-first search over the constraint graph, smallest
    # available position first
    greater = {pos: set() for pos in positions}  # pos -> smaller
    for m, down in descents.items():
        if down:
            greater[m].add(m + 1)
        else:
            greater[m + 1].add(m)
    indeg = {pos: 0 for pos in positions}
    for smaller in greater.values():
        for s in smaller:
            indeg[s] += 1
    chosen = []

    def rec():
        if len(chosen) == len(positions):
            yield tuple(chosen)
            return
        for pos in positions:
            if indeg[pos] == 0 and pos not in chosen:
                chosen.append(pos)
                for s in greater[pos]:
                    indeg[s] -= 1
                yield from rec()
                for s in greater[pos]:
                    indeg[s] += 1
                chosen.pop()

    yield from rec()


def _zigzag_cases(max_j):
    """Every (I, i, j) with i < j <= max_j; only I's interior part matters."""
    for j in range(1, max_j + 1):
        for i in range(j):
            interior = range(i + 1, j)
            for size in range(len(interior) + 1):
                for iset in combinations(interior, size):
                    yield (0, *iset), i, j


class TestZigzagExtensionOracle:
    def test_extensions_match_the_depth_first_search(self):
        count = 0
        for I, i, j in _zigzag_cases(7):
            positions = list(range(i + 1, j + 1))
            descents = {m: (m not in I) for m in range(i + 1, j)}
            expect = list(_dfs_zigzag_extensions(positions, descents))
            assert list(_zigzag_extensions(positions, descents)) == expect
            count += 1
        assert count == sum(2**j - 1 for j in range(1, 8))

    def test_b_rational_terms_match_the_depth_first_search(self):
        for I, i, j in _zigzag_cases(6):
            positions = list(range(i + 1, j + 1))
            descents = {m: (m not in I) for m in range(i + 1, j)}
            total = RatFunc.zero(j)
            for ext in _dfs_zigzag_extensions(positions, descents):
                forms, acc = [], [0] * j
                for pos in reversed(ext):
                    acc[pos - 1] += 1
                    forms.append(tuple(acc))
                total = total + RatFunc.reciprocal_chain(forms, j)
            assert b_rational(I, i, j).terms == total.terms


class TestShuffleIdentity:
    @pytest.mark.parametrize("p,q", [(p, q) for p in range(4) for q in range(4)])
    def test_holds_exactly(self, p, q):
        rng = random.Random(1000 + 10 * p + q)
        shuffles = enumerate_stufflings(p, q, shuffle_only=True)
        for _ in range(5):
            xs = seeded_positive_rationals(rng, p)
            ys = seeded_positive_rationals(rng, q)
            lhs = reciprocal_suffix_chain(p, nvars=p).evaluate(xs) * reciprocal_suffix_chain(
                q, nvars=q
            ).evaluate(ys)
            rhs = FR(0)
            chain = reciprocal_suffix_chain(p + q, nvars=p + q)
            for st_ in shuffles:
                rhs += chain.evaluate(deduce_sequence(xs, ys, st_))
            assert lhs == rhs


class TestBijection:
    def closure_points(self, depth):
        return [pt for pt in product(range(0, 3), repeat=depth) if in_closure(pt)]

    def build_E(self, a, b):
        out = []
        p, q = len(a), len(b)
        prefix_a = [i for i in range(p + 1) if sum(a[:i]) == i]
        prefix_b = [j for j in range(q + 1) if sum(b[:j]) == j]
        for i in prefix_a:
            for j in prefix_b:
                for sh in enumerate_stufflings(i, j, shuffle_only=True):
                    for st_ in enumerate_stufflings(p - i, q - j):
                        out.append((i, j, sh, st_))
        return out

    def build_F(self, a, b):
        out = []
        for st_ in enumerate_stufflings(len(a), len(b)):
            c = deduce_sequence(a, b, st_)
            for k in range(st_.r + 1):
                if sum(c[:k]) == k:
                    out.append((st_, k))
        return out

    def phi(self, quad):
        i, j, sh, st_ = quad
        shift = i + j
        merged = Stuffling(
            shift + st_.r,
            tuple(sorted(sh.A + tuple(x + shift for x in st_.A))),
            tuple(sorted(sh.B + tuple(x + shift for x in st_.B))),
        )
        return (merged, shift)

    def test_bijection_small_points(self):
        for dp in range(0, 3):
            for dq in range(0, 3):
                for a in self.closure_points(dp):
                    for b in self.closure_points(dq):
                        E = self.build_E(a, b)
                        F = self.build_F(a, b)
                        images = [self.phi(e) for e in E]
                        assert len(set(images)) == len(images)  # injective
                        assert set(images) == set(F)
                        assert len(E) == len(F)


def test_ratfunc_json_shape():
    f3 = f_rational((0, 2, 3), 3)
    data = f3.to_json_dict()
    assert set(data) == {"nvars", "num", "den"}
    assert data["nvars"] == 3
    assert all(set(t) == {"coef", "powers"} for t in data["num"] + data["den"])
    # numerator of the worked example is X1 + 2 X2 + X3 (up to common scale)
    monomials = {tuple(t["powers"]): FR(t["coef"]) for t in data["num"]}
    base = monomials[(1, 0, 0)]
    assert monomials[(0, 1, 0)] == 2 * base
    assert monomials[(0, 0, 1)] == base


def test_inversion_sign_counts_the_index_set_up_to_i():
    assert inversion_sign((0, 1, 2), 2) == 1
    assert inversion_sign((0, 2), 2) == -1
    for iset in ((0,), (0, 1), (0, 2, 3), (0, 1, 3, 4)):
        for i in iset:
            assert inversion_sign(iset, i) == (-1) ** (i - len([j for j in iset if 1 <= j <= i]))
