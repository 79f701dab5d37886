"""The axis locator for plus/minus symmetric models: its zeros against the
quadtree's, its cost, the zeros the axis leaves to the quadtree, its bracket
solve, and a 50-digit mpmath reference that shares no code with it."""

import math

import mpmath
import numpy as np
import pytest

import pfzeros.diagram as diagram_mod
import pfzeros.zeros as zeros_mod
from pfzeros import (
    ModelSpec,
    PhaseSpec,
    Rectangle,
    find_zeros_on_axis,
    find_zeros_region,
    finite_volume,
    lee_yang_hypotheses,
    symmetric_pair_perturbation,
)
from pfzeros.diagram import _close_brackets
from pfzeros.zeros import _axis_re, _ExpSum

from conftest import lee_yang_model, two_phase_model

BOX = Rectangle(-0.05, 0.05, 0.0, 1.0)


def _seeded(seed):
    """The criterion-10 setup: symmetric seeds, L=10, d=2, tau=2."""
    up, un = symmetric_pair_perturbation(seed)
    return finite_volume(lee_yang_model(), L=10, d=2, tau=2.0, perturbation=[up, un])


def _twisted(b):
    """exp(+-(w + i b w^2)): reflection symmetric, W real on the axis; the
    zeros 2 N w (1 + i b w) = i pi (2j+1) leave the axis in mirror pairs
    above Im w = 1/(2b), where a double zero sits when that is a solution."""
    return ModelSpec(
        phases=(
            PhaseSpec("plus", 1, (0j, 1 + 0j, 1j * b)),
            PhaseSpec("minus", 1, (0j, -1 + 0j, -1j * b)),
        ),
        domain=Rectangle(-1.0, 1.0, -1.0, 1.0),
        coordinate_map="exponential",
    )


@pytest.mark.parametrize("seed", range(20))
def test_axis_zeros_equal_the_quadtrees(seed):
    fvm = _seeded(seed)
    found = find_zeros_on_axis(fvm, BOX)
    located = find_zeros_region(fvm, BOX)
    assert found.quadtree_located == 0
    assert found.axis_sign_changes == found.box_winding == len(located) == 32
    assert [w.multiplicity for w in found.zeros.zeros] == [w.multiplicity for w in located.zeros]
    assert np.abs(found.zeros.points() - located.points()).max() <= 1e-14
    assert all(w.z.real == 0.0 and w.residual <= 1e-10 for w in found.zeros.zeros)


def test_axis_search_evaluates_few_points(kernel_counts):
    fvm = _seeded(4)
    assert find_zeros_on_axis(fvm, BOX).quadtree_located == 0
    assert kernel_counts["contours"] == 1 and kernel_counts["splits"] == 0
    on_axis = kernel_counts["points"]
    kernel_counts.clear()
    find_zeros_region(fvm, BOX)
    # most of the quadtree's points are its Newton polish
    assert on_axis <= 4000
    assert 5 * on_axis < kernel_counts["points"]


def test_the_axis_search_calls_the_kernel_on_batches(kernel_counts):
    # 31,785 roots at L=316: the samples, the bracket steps and the
    # alpha-test each take _BATCH points per kernel call
    up, un = symmetric_pair_perturbation(7)
    fvm = finite_volume(lee_yang_model(), L=316, d=2, tau=2.0, perturbation=[up, un])
    found = find_zeros_on_axis(fvm, BOX)
    assert found.axis_sign_changes == len(found.zeros) == 31_785
    assert kernel_counts["largest_call"] <= zeros_mod._BATCH + 1


def _one_winding(fvm, box, monkeypatch):
    """find_zeros_on_axis, asserting that it winds one closed contour."""
    windings = []
    wind = zeros_mod._winding
    monkeypatch.setattr(zeros_mod, "_winding", lambda *a: windings.append(1) or wind(*a))
    found = find_zeros_on_axis(fvm, box)
    assert len(windings) == 1
    return found


@pytest.mark.parametrize(
    "fvm, box",
    [
        # q1 != q2: Re W changes sign on the axis where |Im W| is 1
        (finite_volume(two_phase_model(q1=1, q2=2), L=100, d=1, tau=1.0),
         Rectangle(-0.1, 0.1, 0.0, 0.2)),
        (_seeded(4), Rectangle(0.01, 0.05, 0.0, 1.0)),
    ],
    ids=["not_real_on_axis", "beside_the_axis"],
)
def test_axis_locator_falls_back_to_the_quadtree(fvm, box, monkeypatch):
    # no axis root is a candidate, so the quadtree locates every zero,
    # starting from the box winding already counted
    found = _one_winding(fvm, box, monkeypatch)
    assert found.quadtree_located == len(found.zeros)
    assert found.zeros == find_zeros_region(fvm, box)
    assert found.box_winding == found.zeros.total_multiplicity()


@pytest.mark.parametrize(
    "fvm, box, located, cap",
    [
        # two zeros on the axis, four in mirror pairs at Im w = 1/2
        (finite_volume(_twisted(1.0), L=10, d=1, tau=1.0), Rectangle(-0.9, 0.9, 0.0, 0.9), 4, None),
        # a double zero at w = i pi/10, which Re W touches without a sign change
        (finite_volume(_twisted(10 / (2 * math.pi)), L=10, d=1, tau=1.0),
         Rectangle(-0.1, 0.1, 0.2, 0.4), 1, None),
        # brackets left open after 2 steps: five ends have 2 beta of 1.7e-12
        # to 5.6e-11 (residuals 1.7e-10 to 5.6e-9) and are kept; the other
        # 27, with 2 beta of 2.1e-10 to 3.7e-9, are left to the quadtree
        (_seeded(4), BOX, 27, 2),
    ],
    ids=["off_axis_pairs", "double_zero", "open_brackets"],
)
def test_axis_locator_keeps_the_axis_roots(fvm, box, located, cap, monkeypatch):
    # the quadtree locates only the zeros that the kept axis roots leave out
    if cap is not None:
        close = diagram_mod._close_brackets
        monkeypatch.setattr(zeros_mod, "_close_brackets", lambda *a: close(*a, max_steps=cap))
    found = _one_winding(fvm, box, monkeypatch)
    assert found.quadtree_located == located
    assert found.box_winding == found.zeros.total_multiplicity()
    want = find_zeros_region(fvm, box)
    assert [w.multiplicity for w in found.zeros.zeros] == [w.multiplicity for w in want.zeros]
    kept = len(found.zeros) - located
    assert sum(w.z.real == 0.0 for w in found.zeros.zeros) >= kept
    # a kept end of a bracket left open lies within its 2 beta <= 1e-10 of
    # the quadtree's zero; every other zero is the quadtree's to 1e-14
    gap = np.abs(found.zeros.points() - want.points())
    ends = gap > 1e-14
    assert ends.sum() == (kept if cap else 0)
    assert gap.max() <= 1e-10 and (found.zeros.points().real[ends] == 0.0).all()


def test_twisted_models_meet_the_hypotheses():
    # so their searches are what the lee-yang workflow would take
    for b in (1.0, 10 / (2 * math.pi)):
        assert lee_yang_hypotheses(finite_volume(_twisted(b), L=10, d=1, tau=1.0), 0, 1) <= 1e-10


def test_axis_solve_stops_at_its_cap_or_an_exact_zero():
    es = _ExpSum.from_fvm(_seeded(4))
    y = np.linspace(0.04, 0.06, 3)  # the zero near 3 pi/200 lies in the first half
    f = _axis_re(es, y)
    assert f[0] * f[1] < 0.0

    def re_w(t, _):
        return _axis_re(es, t)

    (end,), (closed,) = _close_brackets(re_w, y[:1], y[1:2], f[:1], f[1:2], max_steps=2)
    assert not closed and y[0] < end < y[1]
    (root,), (closed,) = _close_brackets(re_w, y[:1], y[1:2], f[:1], f[1:2])
    assert closed and abs(root - 3 * math.pi / 200) <= 1e-8
    # an end that is an exact zero closes its bracket with no step
    t, closed = _close_brackets(re_w, [0.1], [0.2], [0.0], [1.0], max_steps=0)
    assert t.tolist() == [0.1] and closed.tolist() == [True]


def test_axis_zeros_against_a_50_digit_reference():
    fvm = _seeded(7)
    found = find_zeros_on_axis(fvm, BOX)
    assert found.quadtree_located == 0

    def horner(coeffs, w):
        acc = mpmath.mpc(0)
        for c in reversed(coeffs):
            acc = acc * w + mpmath.mpc(c)
        return acc

    with mpmath.workdps(50):
        eps = mpmath.exp(-mpmath.mpf(fvm.tau) * fvm.L)
        terms = [(phase.degeneracy, phase.exponent, u)
                 for phase, u in zip(fvm.base.phases, fvm.perturbations)]

        def partition_function(w):
            return sum(q * mpmath.exp(fvm.N * (horner(p, w) + eps * horner(u, w)))
                       for q, p, u in terms)

        for w in found.zeros.zeros:
            root = mpmath.findroot(partition_function, mpmath.mpc(w.z.real, w.z.imag))
            assert abs(complex(root) - w.z) <= 1e-13
