"""Knitting ind A from the projectives with tau^-1 = Tr D, against the scan
of every action (rep.scan_indecomposable_modules) as the oracle."""

import random
from importlib import resources

import pytest

from tiltlab import cli, knitting, rep
from tiltlab.algebra import build_algebra, make_quiver

from helpers import random_change_of_basis
from test_golden import GOLDEN, run_case


def _linear_arrows(n):
    return [("abcd"[i], i + 1, i + 2) for i in range(n - 1)]


def _linear(n, relations, p):
    q = make_quiver(range(1, n + 1), _linear_arrows(n))
    return build_algebra(q, relations, p)


def _two_cycle():
    q = make_quiver([1, 2], [("a", 1, 2), ("b", 2, 1)])
    return build_algebra(q, ["a*b", "b*a"], p=2)


def _kronecker():
    q = make_quiver([1, 2], [("a", 1, 2), ("b", 1, 2)])
    return build_algebra(q, [], p=2)


# (arrows, relations, p, scan bound): the scan runs one past the largest
# indecomposable, except on the path algebras of A5 and D4, where that
# takes 9 to 14 s
ALGEBRAS = [
    (_linear_arrows(n), relations, p, bound)
    for n, relations, p, bound in [
        (2, [], 2, 3), (2, [], 3, 3),
        (3, [], 2, 4), (3, [], 3, 4), (3, ["a*b"], 2, 3), (3, ["a*b"], 3, 3),
        (4, [], 2, 5), (4, ["a*b*c"], 2, 4), (4, ["a*b"], 3, 4),
        (4, ["b*c"], 3, 4), (4, ["a*b", "b*c"], 2, 3),
        (5, [], 2, 5), (5, ["b*c"], 2, 4), (5, ["a*b", "c*d"], 2, 4),
        (5, ["a*b*c*d"], 2, 5), (5, ["a*b", "b*c", "c*d"], 3, 3)]
] + [
    ([("a", 1, 2), ("b", 3, 2)], [], 2, 4),
    ([("a", 2, 1), ("b", 2, 3)], [], 3, 4),
    ([("a", 1, 4), ("b", 2, 4), ("c", 3, 4)], [], 2, 5),
    ([("a", 1, 2), ("b", 1, 3), ("c", 2, 4), ("d", 3, 4)], ["a*c - b*d"], 2,
     5),
]


@pytest.mark.parametrize("arrows,relations,p,scan_bound", ALGEBRAS)
def test_knitting_matches_the_scan(arrows, relations, p, scan_bound):
    def build():
        vertices = sorted({v for _, s, t in arrows for v in (s, t)})
        return build_algebra(make_quiver(vertices, arrows), relations, p)

    alg = build()
    knitted = knitting.knit_indecomposables(alg, 8)
    assert knitted is not None
    certified, mods = rep.is_representation_finite(alg, 8)
    assert certified
    assert [m.encode() for m in mods] == [m.encode() for m in knitted]
    scanned = rep.scan_indecomposable_modules(build(), scan_bound)
    assert [m.dim_vector() for m in knitted] == [
        m.dim_vector() for m in scanned]
    for k, s in zip(knitted, scanned):
        assert rep.is_indecomposable(k)
        assert rep.is_isomorphic(k, rep.check_module(
            alg, s.dims, s.action)) is not None


@pytest.mark.parametrize("build,bound", [(_kronecker, 2), (_two_cycle, 3)])
def test_unknittable_algebras_fall_back_to_the_scan(build, bound,
                                                    monkeypatch):
    alg = build()
    assert knitting.knit_indecomposables(alg, bound) is None
    calls = []
    scan = rep.scan_indecomposable_modules

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(rep, "scan_indecomposable_modules", counted)
    flag, mods = rep.is_representation_finite(alg, bound)
    assert len(calls) == 1
    expected = scan(build(), bound)
    assert [m.encode() for m in mods] == [m.encode() for m in expected]
    assert flag == (max(m.total_dim for m in expected) < bound)


@pytest.mark.parametrize("build", [
    _kronecker, _two_cycle, lambda: _linear(3, ["a*b"], 2),
    lambda: _linear(4, [], 3)])
def test_tau_inverse_of_an_injective_is_zero(build):
    alg = build()
    for v in alg.quiver.vertices:
        assert knitting.tau_inverse(rep.injective(alg, v)).is_zero()


def test_tau_inverse_on_the_running_example():
    # the AR quiver of kQ/(a*b): S3 -> S2 -> S1 along tau^-1, P1 = I2 and
    # P2 = I3 are projective-injective
    alg = _linear(3, ["a*b"], 2)
    s1, s2, s3 = (rep.simple(alg, v) for v in (1, 2, 3))
    assert rep.is_isomorphic(knitting.tau_inverse(s3), s2) is not None
    assert rep.is_isomorphic(knitting.tau_inverse(s2), s1) is not None
    for v in (1, 2):
        assert knitting.tau_inverse(rep.projective(alg, v)).is_zero()


def test_enumeration_is_memoized_and_fresh(monkeypatch):
    alg = _linear(3, ["a*b"], 2)
    first = rep.enumerate_indecomposable_modules(alg, 4)
    # a second knitting would call None
    monkeypatch.setattr(knitting, "knit_indecomposables", None)
    first.clear()
    second = rep.enumerate_indecomposable_modules(alg, 4)
    assert len(second) == 5
    assert rep.is_representation_finite(alg, 4) == (True, second)


def test_running_example_over_f3_at_dim_bound_six(monkeypatch):
    monkeypatch.setattr(rep, "scan_indecomposable_modules", None)
    alg = _linear(3, ["a*b"], 3)
    flag, mods = rep.is_representation_finite(alg, 6)
    assert flag
    assert [m.dim_vector() for m in mods] == [
        (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (1, 1, 0)]


@pytest.mark.parametrize("argv", [
    ["derived-indec"], ["hearts"],
    ["filtration", "--module", "12", "--method", "lo"]])
def test_cli_commands_never_scan(argv, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(rep, "scan_indecomposable_modules",
                        lambda *args: calls.append(args))
    bundled = str(resources.files("tiltlab").joinpath("data/running.tilt"))
    assert cli.main([argv[0], bundled, *argv[1:]]) == 0
    capsys.readouterr()
    assert calls == []


def _moved_representatives(monkeypatch, seed):
    """Every enumerated module under a random change of basis."""
    enumerate_modules = rep.enumerate_indecomposable_modules
    rng = random.Random(seed)

    def moved(*args):
        return [random_change_of_basis(rng.randint, m)
                for m in enumerate_modules(*args)]

    monkeypatch.setattr(rep, "enumerate_indecomposable_modules", moved)


# over F_2 an interval module has one representative; F_3 moves it
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["derived-indec", "hearts",
                                  "filtration-lo-12", "derived-indec-f3"])
def test_golden_output_ignores_the_representatives(name, seed, monkeypatch):
    _moved_representatives(monkeypatch, seed)
    code, stdout = run_case(name)
    assert code == 0
    assert stdout == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("argv", [
    ["hearts"], ["filtration", "--module", "12", "--method", "lo"]])
def test_f3_output_ignores_the_representatives(argv, seed, monkeypatch,
                                               capsys):
    bundled = str(resources.files("tiltlab").joinpath("data/running.tilt"))
    argv = [argv[0], bundled, *argv[1:], "--field", "3", "--format",
            "machine"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    _moved_representatives(monkeypatch, seed)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected
