"""The oracle against values worked by hand.

Run from the repository root: python3 -m pytest perfbench/test_oracle.py
"""

import random

import gen
import oracle

RUNNING = oracle.linear_quiver(3, ["a*b"])
A3 = oracle.linear_quiver(3)
A4 = oracle.linear_quiver(4, ["a*b", "b*c"])


def test_cartan_of_the_running_example():
    # nonzero paths: e1, a | e2, b | e3; the path ab is zero
    assert oracle.cartan(RUNNING) == [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    assert oracle.cartan_inverse(RUNNING) == [[1, -1, 1], [0, 1, -1],
                                              [0, 0, 1]]


def test_cartan_without_relations():
    assert oracle.cartan(A3) == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    assert oracle.cartan_inverse(A3) == [[1, -1, 0], [0, 1, -1], [0, 0, 1]]


def test_euler_form_by_hand():
    cinv = oracle.cartan_inverse(RUNNING)
    # <P_i, Y> = dim Y_i, and P_1 = 12
    assert oracle.euler_form(cinv, (1, 1, 0), (0, 3, 5)) == 0
    assert oracle.euler_form(cinv, (0, 1, 1), (0, 3, 5)) == 3
    # 0 -> P_3 -> P_2 -> P_1 -> S_1 -> 0: Ext^2(S_1, S_3) = k, all else 0
    assert oracle.euler_form(cinv, (1, 0, 0), (0, 0, 1)) == 1
    # T = 12 + 23 + 1 is rigid with dim End(T) = 5
    assert oracle.euler_form(cinv, (2, 2, 1), (2, 2, 1)) == 5


def test_intervals():
    assert oracle.intervals(RUNNING) == [(0, 0), (0, 1), (1, 1), (1, 2),
                                         (2, 2)]
    assert len(oracle.intervals(A3)) == 6
    assert len(oracle.intervals(A4)) == 7


def test_roots():
    # all three algebras are derived equivalent to A_n: n(n+1)/2 roots
    assert len(oracle.roots(oracle.cartan_inverse(RUNNING))) == 6
    assert len(oracle.roots(oracle.cartan_inverse(A3))) == 6
    assert len(oracle.roots(oracle.cartan_inverse(A4))) == 10


def test_class_of_the_complex_w():
    # W = (23 -> 12) in degrees -1, 0: H^-1 = S_3, H^0 = S_1
    x = oracle.complex_class({"-1": [0, 0, 1], "0": [1, 0, 0]}, 3)
    assert x == (1, 0, -1)
    assert oracle.euler_form(oracle.cartan_inverse(RUNNING), x, x) == 1


def test_random_bases_keep_the_relations():
    rng = random.Random(0)
    alg = gen.RUNNING_F3
    for _ in range(20):
        m = gen.interval_sum(alg, "m", [(0, 1), (1, 2)], rng)
        assert m.dims == (1, 2, 1)
        a, b = m.action["a"], m.action["b"]
        ba = [[sum(b[i][k] * a[k][j] for k in range(2)) % 3
               for j in range(1)] for i in range(1)]
        assert ba == [[0]]
        assert any(a[i][0] for i in range(2)) and any(b[0])


def test_random_modules_use_every_interval_once():
    for seed in range(5):
        mods = gen.random_modules(gen.A4_DA, random.Random(seed))
        parts = [s for m in mods for s in m.summands]
        assert parts == oracle.intervals(gen.A4_DA.quiver)
        assert all(len(m.summands) in (1, 2) for m in mods)
