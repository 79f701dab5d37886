"""The seeded locator: its zeros against the quadtree's and the closed form,
the zeros its seeds miss, its certificate, its cost, and a 50-digit mpmath
reference that shares no code with it."""

import math
import random

import mpmath
import numpy as np
import pytest

import pfzeros.zeros as zeros_mod
from pfzeros import (
    ContourDegeneracyError,
    ModelSpec,
    PhaseSpec,
    Rectangle,
    find_zeros_region,
    find_zeros_seeded,
    finite_volume,
    predict_two_phase,
    random_perturbation,
    trace_curve,
)
from pfzeros.zeros import _ExpSum, _kept

from conftest import two_phase_model

BOX = Rectangle(-0.1, 0.1, 0.0, 0.2)
SPEC = two_phase_model(q1=1, q2=2)
CURVE = trace_curve(SPEC, 0, 1, 0j, step=0.01, max_steps=30)


def _predicted(L, d):
    """The two-phase zeros of the bare model along its whole curve."""
    return predict_two_phase(SPEC, 0, 1, CURVE, L=L, d=d).points()


def _perturbed(L, d, seed, **kwargs):
    pert = None if seed is None else random_perturbation(SPEC, seed, degree=3)
    return finite_volume(SPEC, L=L, d=d, tau=1.0, perturbation=pert, **kwargs)


def _closed_form(N, count):
    """W = e^{Nz} + 2 e^{-Nz} vanishes at (ln 2 + i pi (2k+1)) / (2N)."""
    return np.array([complex(math.log(2), math.pi * (2 * k + 1)) / (2 * N) for k in range(count)])


def _double_zero():
    """(e^{Nz} - 1)^2 = e^{2Nz} + 2 e^{N(z + i pi)} + 1 for odd N: double
    zeros at 2 pi i k / N."""
    return ModelSpec(
        phases=(
            PhaseSpec("a", 1, (0j, 2 + 0j)),
            PhaseSpec("b", 2, (1j * math.pi, 1 + 0j)),
            PhaseSpec("c", 1, (0j,)),
        ),
        domain=Rectangle(-1.2, 1.2, -1.2, 1.2),
    )


def _same_zeros(a, b):
    assert [w.multiplicity for w in a.zeros] == [w.multiplicity for w in b.zeros]
    assert np.abs(a.points() - b.points()).max(initial=0.0) <= 1e-14


# L=10 keeps e^{-tau L} perturbations visible at N = L^d = 1e2, 1e3, 1e4
@pytest.mark.parametrize("seed", [None, *range(10)], ids=lambda s: f"perturb{s}")
@pytest.mark.parametrize("d", [2, 3, 4])
def test_seeded_zeros_equal_the_quadtrees(d, seed):
    fvm = _perturbed(10, d, seed)
    found = find_zeros_seeded(fvm, BOX, _predicted(10, d))
    located = find_zeros_region(fvm, BOX)
    assert found.quadtree_located == 0
    assert found.box_winding == len(found.zeros) == located.total_multiplicity()
    _same_zeros(found.zeros, located)
    assert all(w.residual <= 1e-10 for w in found.zeros.zeros)


@pytest.mark.parametrize("N", [100, 1000, 10000])
def test_unperturbed_zeros_sit_at_the_closed_form(N):
    found = find_zeros_seeded(_perturbed(N, 1, None), BOX, _predicted(N, 1))
    assert found.quadtree_located == 0
    pts = found.zeros.points()
    assert np.abs(pts - _closed_form(N, len(pts))).max() <= 1e-12
    assert len(pts) == math.floor((0.2 * 2 * N / math.pi - 1) / 2) + 1


def _box_edge_at(dy):
    """The N=100 box cut dy above the third zero: it keeps that zero for
    dy > 0 and loses it for dy < 0."""
    return Rectangle(-0.1, 0.1, 0.0, _closed_form(100, 3)[2].imag + dy)


@pytest.mark.parametrize(
    "fvm, box, seeds, located",
    [
        # the first zero has no seed
        (_perturbed(100, 1, None), BOX, _closed_form(100, 6)[1:], 1),
        # in place of the first zero's seed, one that polishes to no zero
        (_perturbed(100, 1, None), BOX, np.r_[_closed_form(100, 6)[1:], 1.0 + 1.0j], 1),
        # Newton from a seed at a double zero runs out of steps about 1e-8
        # from it, where the alpha-test does not certify it
        (finite_volume(_double_zero(), L=11, d=1, tau=1.0), Rectangle(-0.1, 0.1, 0.3, 1.0),
         [2j * math.pi / 11], 1),
        # two seeds beside the double zero, neither of which is certified
        (finite_volume(_double_zero(), L=11, d=1, tau=1.0), Rectangle(-0.1, 0.1, 0.3, 1.0),
         [2j * math.pi / 11 + 1e-3, 2j * math.pi / 11 - 1e-3j], 1),
    ],
    ids=["seed_dropped", "spurious_far_seed", "double_zero", "double_zero_two_seeds"],
)
def test_seeded_locator_falls_back_to_the_quadtree(fvm, box, seeds, located, monkeypatch):
    # the quadtree locates only the zeros that the kept seeds leave out
    found = find_zeros_seeded(fvm, box, seeds)
    assert found.quadtree_located == located
    _same_zeros(found.zeros, find_zeros_region(fvm, box))
    assert found.box_winding == found.zeros.total_multiplicity()
    # the quadtree starts from the box winding already counted
    windings = []
    wind = zeros_mod._winding
    monkeypatch.setattr(zeros_mod, "_winding", lambda *a: windings.append(1) or wind(*a))
    find_zeros_seeded(fvm, box, seeds)
    assert len(windings) == 1


def test_polish_reports_a_point_that_ran_out_of_newton_steps(monkeypatch):
    # near the double zero rounding leaves Newton stepping about 1e-8 from
    # it; the point meets the residual and comes back polished
    fvm = finite_volume(_double_zero(), L=11, d=1, tau=1.0)
    es = _ExpSum.from_fvm(fvm)
    steps = []
    newton_step = _ExpSum.newton_step
    monkeypatch.setattr(
        _ExpSum, "newton_step", lambda self, z: steps.append(1) or newton_step(self, z)
    )
    zero = 2j * math.pi / 11
    z, (why,) = zeros_mod._polish(es, [zero])
    monkeypatch.undo()
    res, alpha, _ = zeros_mod._alpha_beta(es, z, 1.0 / 11)
    assert why is None and len(steps) == 80
    assert res[0] <= 1e-10 and 1e-12 < abs(z[0] - zero) < 1e-6
    # the alpha-test, not the step count, rejects it (alpha = 14.9)
    box = Rectangle(-0.1, 0.1, 0.3, 1.0)
    assert alpha[0] > 1.0
    assert _kept(es, box, z, 1.0 / 11)[0].size == 0
    # a quadtree terminal cell still takes it; the circle counts it twice
    (w,) = find_zeros_region(fvm, box).zeros
    assert w.multiplicity == 2 and abs(w.z - zero) < 1e-6


@pytest.mark.parametrize("dy, count", [(1e-9, 3), (-1e-9, 2)])
def test_a_zero_1e_9_from_the_box_edge_is_counted_by_the_box(dy, count):
    # its 2 beta disc is about 1e-16 wide, so the certificate decides it
    fvm = _perturbed(100, 1, None)
    found = find_zeros_seeded(fvm, _box_edge_at(dy), _closed_form(100, 6))
    assert found.quadtree_located == 0 and found.box_winding == count
    _same_zeros(found.zeros, find_zeros_region(fvm, _box_edge_at(dy)))


def test_a_zero_on_the_box_edge_is_a_typed_error():
    fvm = _perturbed(100, 1, None)
    box = Rectangle(-0.1, _closed_form(100, 1)[0].real, 0.0, 0.2)
    with pytest.raises(ContourDegeneracyError):
        find_zeros_seeded(fvm, box, _closed_form(100, 6))
    with pytest.raises(ContourDegeneracyError):
        find_zeros_region(fvm, box)


@pytest.mark.parametrize(
    "offsets, box, tol, kept",
    [
        # points 1e-6 off a zero pass the alpha-test with 2 beta ~ 2e-6 ...
        ([1e-6], Rectangle(-0.1, 0.1, 0.0, 0.2), math.inf, [0]),
        # ... which must lie inside the box
        ([1e-6], Rectangle(-0.1, 0.0034657359 + 2e-6, 0.0, 0.2), math.inf, []),
        # ... and not meet the disc of a point kept before it
        ([1e-6, -1e-6], Rectangle(-0.1, 0.1, 0.0, 0.2), math.inf, [0]),
        # a point far from any zero fails the alpha-test
        ([0.01], Rectangle(-0.1, 0.1, 0.0, 0.2), math.inf, []),
        # a candidate whose zero is not proven within 1e-10 is not kept
        ([1e-6], Rectangle(-0.1, 0.1, 0.0, 0.2), 1e-10, []),
    ],
    ids=["certified", "disc_leaves_box", "discs_meet", "far_point", "two_beta"],
)
def test_certificate_rejects_what_it_cannot_prove(monkeypatch, offsets, box, tol, kept):
    es = _ExpSum.from_fvm(_perturbed(100, 1, None))
    z = _closed_form(100, 1)[0] + np.array(offsets)
    # 2 beta is about 2e-6 this far off the zero: with no bound on it the
    # other rules decide
    monkeypatch.setattr(zeros_mod, "_LOCATE_TOL", tol)
    keep, rad, _ = _kept(es, box, z, 1.0 / 100)
    assert keep.tolist() == kept
    assert np.all((1e-6 < rad) & (rad < 3e-6))


def test_a_split_moves_its_cross_off_a_kept_disc():
    # the first zero lies 1e-4 left of the first split's cross x = xm, which
    # winds fine there but would cut a kept disc of radius 2e-4 about it
    es = _ExpSum.from_fvm(_perturbed(100, 1, None))
    zero = _closed_form(100, 1)[0]
    xm = zero.real + 1e-4
    box = Rectangle(xm - 0.01, xm + 0.01, 0.0, 0.05)
    cell = zeros_mod._root(box, zeros_mod._box_winding(es, box))
    kept = (np.array([zero]), np.array([2e-4]), np.array([0]))
    for discs, fx in ((None, 0.5), (kept, 0.53125)):
        rect, wind, _ = zeros_mod._split(es, cell, discs)
        assert rect[0, 1] == box.re_lo + fx * box.width
        assert wind.tolist() == [1, 0, 1, 0]


def test_a_kept_disc_skips_only_the_line_it_meets():
    # the disc of the test above meets the cross's line x = xm, not y = ym,
    # so the retry keeps ym at the next fraction, (0.53125, 0.5)
    es = _ExpSum.from_fvm(_perturbed(100, 1, None))
    zero = _closed_form(100, 1)[0]
    box = Rectangle(zero.real + 1e-4 - 0.01, zero.real + 1e-4 + 0.01, 0.0, 0.05)
    kept = (np.array([zero]), np.array([2e-4]), np.array([0]))
    rect, _, _ = zeros_mod._split(es, zeros_mod._root(box, zeros_mod._box_winding(es, box)), kept)
    assert rect[0, 1] == box.re_lo + 0.53125 * box.width
    assert rect[0, 3] == box.im_lo + 0.5 * box.height


def test_seeded_zeros_against_a_50_digit_reference():
    fvm = _perturbed(10, 3, 7, xi_strength=0.3)
    found = find_zeros_seeded(fvm, BOX, _predicted(10, 3))
    assert found.quadtree_located == 0 and len(found.zeros) == 64

    def horner(coeffs, z):
        acc = mpmath.mpc(0)
        for c in reversed(coeffs):
            acc = acc * z + mpmath.mpc(c)
        return acc

    with mpmath.workdps(50):
        eps = mpmath.exp(-mpmath.mpf(fvm.tau) * fvm.L)
        terms = [(phase.degeneracy, phase.exponent, u)
                 for phase, u in zip(fvm.base.phases, fvm.perturbations)]

        def partition_function(z):
            return sum(q * mpmath.exp(fvm.N * (horner(p, z) + eps * horner(u, z)))
                       for q, p, u in terms)

        for w in found.zeros.zeros[::7]:
            # secant from two starts well inside the zero's basin
            start = mpmath.mpc(w.z.real, w.z.imag)
            root = mpmath.findroot(partition_function, (start, start + 1e-9))
            assert abs(complex(root) - w.z) <= 1e-13


def _far_zeros(k):
    """z_k of _closed_form at N=1e7 to 50 digits, k = 604,700..604,799."""
    with mpmath.workdps(50):
        return [complex((mpmath.log(2) + 1j * mpmath.pi * (2 * j + 1)) / (2 * 10**7)) for j in k]


FAR_SEEDS = np.array(_far_zeros(range(604_700, 604_800)))
FAR_BOX = Rectangle(-1e-6, 1e-6, FAR_SEEDS[10].imag - 1e-7, FAR_SEEDS[60].imag + 1e-7)


def _far_checks(zs):
    # each zero within 1e-10 of its closed form, though the rounding of W
    # leaves some residuals above 1e-10
    assert len(zs) == 51 and (zs.multiplicity == 1).all()
    assert np.abs(zs.points() - FAR_SEEDS[10:61]).max() <= 1e-10
    assert zs.residual.max() > 1e-10


def test_seeded_zeros_at_n_1e7_are_certified_by_distance():
    fvm = finite_volume(SPEC, L=10**7, d=1, tau=1.0)
    found = find_zeros_seeded(fvm, FAR_BOX, FAR_SEEDS)
    assert found.quadtree_located == 0 and found.box_winding == 51
    _far_checks(found.zeros)


def test_seedless_zeros_at_n_1e7_are_certified_by_distance():
    fvm = finite_volume(SPEC, L=10**7, d=1, tau=1.0)
    located = find_zeros_region(fvm, FAR_BOX)
    _far_checks(located)
    _same_zeros(located, find_zeros_seeded(fvm, FAR_BOX, FAR_SEEDS).zeros)


def test_seeded_search_winds_one_contour_and_few_points(kernel_counts):
    # the locate-two-phase compare: N=1e4, seeded perturbation, --theta 0.3
    fvm = _perturbed(10000, 1, random.Random(1).randrange(2**31), xi_strength=0.3)
    found = find_zeros_seeded(fvm, BOX, _predicted(10000, 1))
    assert found.quadtree_located == 0 and len(found.zeros) == 637
    assert kernel_counts["contours"] == 1 and kernel_counts["splits"] == 0
    assert kernel_counts["points"] <= 17 * len(found.zeros)


def test_the_seeded_locator_measures_each_candidate_once(kernel_counts):
    # the compare box at N=1e4 from all 1,910 predictions along the curve:
    # Newton takes no residual, and _kept takes residual, alpha and beta
    # from one derivatives call per candidate (2,751 points measured)
    found = find_zeros_seeded(_perturbed(10000, 1, 7), BOX, _predicted(10000, 1))
    assert len(found.zeros) == 637 and found.quadtree_located == 0
    assert kernel_counts["points"] <= 2_800


def test_the_seeded_locator_calls_the_kernel_on_batches(kernel_counts):
    # 12,732 seeds are polished and alpha-tested, _BATCH points per call
    found = find_zeros_seeded(_perturbed(200_000, 1, 7), BOX, _predicted(200_000, 1))
    assert len(found.zeros) == 12_732 and found.quadtree_located == 0
    assert kernel_counts["largest_call"] <= zeros_mod._BATCH + 1
