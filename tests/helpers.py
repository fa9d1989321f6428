"""Helpers shared by the test modules: a finite-difference derivative
oracle and the seeded points of the symbolic-layer digest."""

import random
from typing import Sequence

import mpmath
from mpmath import mp

from mzeta.config import to_mpc
from mzeta.mzv import richardson_partial, working_dps, zeta_value


def zeta_partial_derivative(
    s: Sequence, order: Sequence[int], digits: int = 12
) -> mpmath.mpc:
    """Mixed partial derivative via central differences, Richardson once."""
    order = tuple(int(k) for k in order)
    if len(order) != len(s):
        raise ValueError("order and argument depth mismatch")
    k_total = sum(order)
    if k_total == 0:
        return zeta_value(s, digits)
    inner_digits = digits + 2 * k_total + 6
    with mp.workdps(working_dps(inner_digits)):
        h = mp.mpf(10) ** (-mp.mpf(digits) / 3)
        center = [to_mpc(x) for x in s]

        def fn(pt):
            return zeta_value(pt, inner_digits)

        return richardson_partial(fn, center, order, h)[0]


def symbolic_points(n_pairs=40, seed=6):
    """(point, order) pairs at depth 1-3, points in -2..3, orders in 0..2."""
    rng = random.Random(seed)
    for _ in range(n_pairs):
        depth = rng.randint(1, 3)
        point = tuple(rng.randint(-2, 3) for _ in range(depth))
        order = tuple(rng.randint(0, 2) for _ in range(depth))
        yield point, order
