import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pfzeros.zeros as zeros_mod
from pfzeros import (
    ContourDegeneracyError,
    DomainError,
    ModelSpec,
    PhaseSpec,
    Rectangle,
    ValidationError,
    Zero,
    ZeroSet,
    eval_logZ_normalized,
    find_zeros_region,
    finite_volume,
    random_perturbation,
    winding_number,
)
from pfzeros.cli import zeros_csv
from pfzeros.zeros import _ExpSum

from conftest import three_phase_model, two_phase_model


def axis_zeros(N, q_ratio=1.0, im_max=0.2, im_min=0.0):
    """Closed-form zeros of q1 e^{Nz} + q2 e^{-Nz}: solve e^{2Nz} = -q2/q1."""
    out = []
    x = math.log(q_ratio) / (2 * N)
    k = 0
    while True:
        y = math.pi * (2 * k + 1) / (2 * N)
        if y > im_max:
            break
        if y >= im_min:
            out.append(complex(x, y))
        k += 1
    return out


def test_eval_normalized_values(m2):
    fvm = finite_volume(m2, L=100, d=1, tau=1.0)
    assert eval_logZ_normalized(fvm, 0j) == pytest.approx(2.0 + 0j, abs=1e-14)
    w = eval_logZ_normalized(fvm, 1j * math.pi / 200)
    assert abs(w) <= 1e-13
    w = eval_logZ_normalized(fvm, 0.1 + 0j)
    assert w == pytest.approx(1.0 + math.exp(-20), abs=1e-12)


def test_eval_normalized_outside_domain(m2):
    fvm = finite_volume(m2, L=10, d=1, tau=1.0)
    with pytest.raises(DomainError):
        eval_logZ_normalized(fvm, 5 + 5j)


def test_eval_normalized_is_the_finders_residual(m2):
    # both normalize by the finite-volume maximum, which a perturbation moves
    # away from the infinite-volume one
    pert = random_perturbation(m2, 5)
    fvm = finite_volume(m2, L=20, d=1, tau=0.1, perturbation=pert, xi_strength=0.5)
    zs = find_zeros_region(fvm, Rectangle(-0.3, 0.3, 0.0, 0.6))
    assert len(zs.zeros) >= 3
    for w in zs.zeros:
        assert abs(eval_logZ_normalized(fvm, w.z)) == w.residual


def test_winding_counts(m2):
    fvm = finite_volume(m2, L=100, d=1, tau=1.0)
    assert winding_number(fvm, (1j * math.pi / 200, 0.005)) == 1
    assert winding_number(fvm, (0.05 + 0j, 0.01)) == 0
    assert winding_number(fvm, Rectangle(-0.1, 0.1, 0.0, 0.2)) == 6


def test_winding_polyline_triangle(m2):
    fvm = finite_volume(m2, L=100, d=1, tau=1.0)
    z0 = 1j * math.pi / 200
    tri = [z0 + 0.004, z0 + 0.004j, z0 - 0.004 - 0.004j]
    assert winding_number(fvm, tri) == 1


def test_find_zeros_m2_closed_form(m2):
    fvm = finite_volume(m2, L=100, d=1, tau=1.0)
    zs = find_zeros_region(fvm, Rectangle(-0.1, 0.1, 0.0, 0.2))
    expected = axis_zeros(100)
    assert len(zs) == len(expected) == 6
    for got, want in zip(sorted(zs.points(), key=lambda z: z.imag), expected):
        assert abs(got - want) <= 1e-10
    assert all(w.multiplicity == 1 for w in zs.zeros)
    assert all(w.residual <= 1e-10 for w in zs.zeros)
    assert zs.total_multiplicity() == 6


def test_find_zeros_respects_degeneracy_shift():
    m = two_phase_model(q1=1, q2=2)
    fvm = finite_volume(m, L=100, d=1, tau=1.0)
    zs = find_zeros_region(fvm, Rectangle(-0.1, 0.1, 0.0, 0.2))
    expected = axis_zeros(100, q_ratio=2.0)
    assert len(zs) == 6
    for got, want in zip(sorted(zs.points(), key=lambda z: z.imag), expected):
        assert abs(got - want) <= 1e-10
        assert got.real == pytest.approx(math.log(2) / 200, abs=1e-10)


def test_find_zeros_empty_off_axis(m2):
    fvm = finite_volume(m2, L=100, d=1, tau=1.0)
    zs = find_zeros_region(fvm, Rectangle(0.05, 0.1, 0.0, 0.05))
    assert len(zs) == 0


def test_find_zeros_box_must_be_inside_domain(m2):
    fvm = finite_volume(m2, L=10, d=1, tau=1.0)
    with pytest.raises(ValidationError):
        find_zeros_region(fvm, Rectangle(-5, 5, -5, 5))


def test_winding_contour_must_be_inside_domain(m2):
    fvm = finite_volume(m2, L=10, d=1, tau=1.0)
    with pytest.raises(ValidationError):
        winding_number(fvm, (0j, 2.0))
    # it reaches Im z = 1.2002 between samples of the circle
    with pytest.raises(ValidationError):
        winding_number(fvm, (0.2002j, 1.0))


def test_find_zeros_conjugation_symmetry(m2):
    # all-real exponent coefficients: the zero set is closed under conjugation
    fvm = finite_volume(m2, L=50, d=1, tau=1.0)
    zs = find_zeros_region(fvm, Rectangle(-0.1, 0.1, -0.2, 0.2))
    pts = zs.points()
    for z in pts:
        assert np.min(np.abs(pts - z.conjugate())) <= 1e-10


def test_find_zeros_spacing_law(m2):
    fvm = finite_volume(m2, L=100, d=1, tau=1.0)
    zs = find_zeros_region(fvm, Rectangle(-0.05, 0.05, 0.0, 0.3))
    ys = np.sort(zs.points().imag)
    assert np.abs(np.diff(ys) - math.pi / 100).max() <= 1e-10


def test_find_zeros_rerun_deterministic(m2):
    fvm = finite_volume(m2, L=100, d=1, tau=1.0)
    box = Rectangle(-0.1, 0.1, 0.0, 0.2)
    # the CSV text the CLI writes, compared character for character
    assert zeros_csv(find_zeros_region(fvm, box)) == zeros_csv(find_zeros_region(fvm, box))


def test_find_zeros_perturbed_stays_close(m2):
    # perturbations enter at scale e^{-tau L}; zeros move by at most about that
    from pfzeros import random_perturbation

    seeds = random_perturbation(m2, seed=3)
    fvm = finite_volume(m2, L=10, d=2, tau=2.0, perturbation=seeds)
    zs = find_zeros_region(fvm, Rectangle(-0.1, 0.1, 0.0, 0.2))
    expected = axis_zeros(100)
    assert len(zs) == len(expected)
    for got, want in zip(sorted(zs.points(), key=lambda z: z.imag), expected):
        assert abs(got - want) <= 10 * math.exp(-20)


def test_winding_argument_principle_consistency(m2):
    # total multiplicity inside any box equals the boundary winding, exactly
    fvm = finite_volume(m2, L=30, d=1, tau=1.0)
    box = Rectangle(-0.11, 0.13, -0.07, 0.31)
    zs = find_zeros_region(fvm, box)
    assert zs.total_multiplicity() == winding_number(fvm, box)


def _double_zero_model():
    """W = e^{2z} - 2 e^z + 1 = (e^z - 1)^2: double zeros at 2 pi i k."""
    return ModelSpec(
        phases=(
            PhaseSpec("a", 1, (0j, 2 + 0j)),
            PhaseSpec("b", 2, (1j * math.pi, 1 + 0j)),
            PhaseSpec("c", 1, (0j,)),
        ),
        domain=Rectangle(-2.0, 2.0, -2.0, 8.0),
    )


def test_find_zeros_double_zeros_split_by_rounding():
    # double zeros at 0 and 2 pi i. Rounding splits the one at 0 across a
    # cell edge into two winding-1 cells; the merged candidates must still
    # be counted as one zero of multiplicity 2.
    fvm = finite_volume(_double_zero_model(), L=1, d=1, tau=1.0)
    zs = find_zeros_region(fvm, Rectangle(-1.0, 1.1, -1.0, 7.0))
    assert [w.multiplicity for w in zs.zeros] == [2, 2]
    # a double root is resolved to about sqrt(machine epsilon)
    for w, want in zip(sorted(zs.zeros, key=lambda w: w.z.imag), (0j, 2j * math.pi)):
        assert abs(w.z - want) <= 1e-7


def test_find_zeros_windings_per_zero(m2, monkeypatch):
    # winding-1 cells stop as soon as Newton stays inside them, and the
    # contours of one quadtree depth are wound in a few shared kernel calls
    contours, kernel_calls, polishes = [], [], []
    windings = zeros_mod._windings
    value = zeros_mod._ExpSum.value_normalized
    polish = zeros_mod._polish

    def counted_windings(totals):
        contours.append(len(totals))
        return windings(totals)

    def counted_value(self, z):
        kernel_calls.append(1)
        return value(self, z)

    def counted_polish(*args, **kwargs):
        polishes.append(1)  # each polish evaluates one residual
        return polish(*args, **kwargs)

    monkeypatch.setattr(zeros_mod, "_windings", counted_windings)
    monkeypatch.setattr(zeros_mod._ExpSum, "value_normalized", counted_value)
    monkeypatch.setattr(zeros_mod, "_polish", counted_polish)
    fvm = finite_volume(m2, L=1000, d=1, tau=1.0)
    zs = find_zeros_region(fvm, Rectangle(-0.1, 0.1, 0.0, 0.2))
    assert len(zs) == len(axis_zeros(1000)) == 64
    assert sum(contours) <= 8 * len(zs)
    assert len(kernel_calls) - len(polishes) <= 60


@pytest.mark.parametrize("batch", [3, 5, 8, 13])
def test_increments_do_not_depend_on_the_chunks_or_the_batch(m2_q12, monkeypatch, batch):
    # batches of a few pieces hold parts of paths and of their cuts; the
    # circles 1e-6 and 1e-4 off the zeros at |z_0| are cut finely near them
    es = _ExpSum.from_fvm(finite_volume(m2_q12, L=100, d=1, tau=1.0))
    r0 = abs(complex(math.log(2), math.pi)) / 200
    circles = ([0j, 0.01, 0.02j, 0j], [r0 * (1 + 1e-6), 0.05, 0.03, r0 * (1 - 1e-4)])
    alone = [zeros_mod._increments(es, zeros_mod._circles([c], [r]))[0][0] for c, r in zip(*circles)]
    monkeypatch.setattr(zeros_mod, "_BATCH", batch)
    got, why = zeros_mod._increments(es, zeros_mod._circles(*circles))
    assert why == [None] * 4
    assert np.allclose(got, alone, rtol=0, atol=1e-12)
    assert zeros_mod._windings(got) == [2, 4, 2, 0]


def test_find_zeros_on_the_three_phase_disc_evaluates_few_points(kernel_counts):
    # the three-phase find-zeros invocation: N=1e4 on [-rho, rho]^2 with
    # rho = 25 log N / N; 45,683 points measured
    N = 10000
    rho = 25 * math.log(N) / N
    fvm = finite_volume(three_phase_model(), L=N, d=1, tau=1.0)
    zs = find_zeros_region(fvm, Rectangle(-rho, rho, -rho, rho))
    assert len(zs) == zs.total_multiplicity() == 209
    assert kernel_counts["points"] <= 92_000


def test_a_retry_skips_the_line_that_failed(kernel_counts, monkeypatch):
    # the root cell's cross at (0.5, 0.5) runs along Im z = 0, which holds
    # 64 zeros, so its horizontal half-edges fail; the next fraction,
    # (0.53125, 0.5), keeps that line and is skipped. 35,378 points
    # measured, where re-winding it took 45,683.
    fractions = []
    cross = zeros_mod._cross

    def recorded(rect, f):
        fractions.extend(map(tuple, zeros_mod._SPLIT_FRACTIONS[f].tolist()))
        return cross(rect, f)

    monkeypatch.setattr(zeros_mod, "_cross", recorded)
    N = 10000
    rho = 25 * math.log(N) / N
    fvm = finite_volume(three_phase_model(), L=N, d=1, tau=1.0)
    zs = find_zeros_region(fvm, Rectangle(-rho, rho, -rho, rho))
    assert len(zs) == zs.total_multiplicity() == 209
    assert fractions[:2] == [(0.5, 0.5), (0.5, 0.53125)]
    assert kernel_counts["contours"] == 1225
    assert kernel_counts["points"] <= 36_000


def test_a_side_beside_a_double_zero_winds_two_or_names_the_box():
    # the right side passes 1e-9 from the double zero 2 pi i inside the
    # cell; a phase sampled at a node count read a winding of 1 here
    es = _ExpSum.from_fvm(finite_volume(_double_zero_model(), L=1, d=1, tau=1.0))
    cell = Rectangle(-0.0156, 1e-9, 6.25, 6.3125)
    try:
        wind = zeros_mod._box_winding(es, cell)[0]
    except ContourDegeneracyError as err:
        assert err.contour == cell and str(cell) in str(err)
    else:
        assert wind == 2


def test_constant_exponents_wind_nothing():
    model = ModelSpec(
        phases=(PhaseSpec("a", 1, (0j,)), PhaseSpec("b", 2, (1j,))),
        domain=Rectangle(-1.0, 1.0, -1.0, 1.0),
    )
    fvm = finite_volume(model, L=10, d=1, tau=1.0)
    assert winding_number(fvm, Rectangle(-0.5, 0.5, -0.5, 0.5)) == winding_number(fvm, (0j, 0.3)) == 0
    assert len(find_zeros_region(fvm, Rectangle(-0.5, 0.5, -0.5, 0.5))) == 0


_Z0 = complex(math.log(2), math.pi) / 20000  # a zero of e^{Nz} + 2 e^{-Nz} at N=1e4


@pytest.mark.parametrize(
    "contour",
    [
        (_Z0 - 0.01, 0.01),  # a circle from the zero
        (_Z0 + 0.003j, 0.003),  # a circle through the zero three quarters along it
        Rectangle(-0.01, 0.01, _Z0.imag, 0.05),  # a box whose bottom side crosses the zero
    ],
    ids=["circle_start", "circle", "box_side"],
)
def test_a_contour_through_a_zero_raises(m2_q12, contour):
    fvm = finite_volume(m2_q12, L=10000, d=1, tau=1.0)
    with pytest.raises(ContourDegeneracyError) as err:
        winding_number(fvm, contour)
    assert err.value.contour == contour


@pytest.mark.parametrize("N, count", [(10**8, 6_366_198), (10**10, 636_619_772)])
def test_the_two_phase_box_winds_its_closed_form_count_at_large_n(m2_q12, kernel_counts, N, count):
    # the zeros (ln 2 + i pi (2k + 1)) / (2N) with 0 < Im z < 0.2
    assert count == math.floor((0.4 * N / math.pi - 1) / 2) + 1
    fvm = finite_volume(m2_q12, L=N, d=1, tau=1.0)
    assert winding_number(fvm, Rectangle(-0.1, 0.1, 0.0, 0.2)) == count
    assert kernel_counts["points"] <= 900  # 360 and 444 measured


def test_the_compare_box_winds_in_few_points(m2_q12, kernel_counts):
    # the locate-two-phase compare box at N=1e6; 282 points measured
    fvm = finite_volume(m2_q12, L=10**6, d=1, tau=1.0, perturbation=random_perturbation(m2_q12, seed=7))
    assert winding_number(fvm, Rectangle(-0.1, 0.1, 0.0, 0.2)) == 63_662
    assert kernel_counts["points"] <= 1000


def test_find_zeros_polishes_once_per_level(m2, monkeypatch):
    # one batched Newton polish per quadtree depth, taking the same steps as
    # polishing cell by cell did (349 point-steps for these 64 zeros)
    levels, polishes, steps = [1], [], []
    split = zeros_mod._split
    polish = zeros_mod._polish
    newton_step = zeros_mod._ExpSum.newton_step

    def counted_split(*args, **kwargs):
        levels.append(1)
        return split(*args, **kwargs)

    def counted_polish(*args, **kwargs):
        polishes.append(1)
        return polish(*args, **kwargs)

    def counted_newton_step(self, z):
        steps.append(np.size(z))
        return newton_step(self, z)

    monkeypatch.setattr(zeros_mod, "_split", counted_split)
    monkeypatch.setattr(zeros_mod, "_polish", counted_polish)
    monkeypatch.setattr(zeros_mod._ExpSum, "newton_step", counted_newton_step)
    fvm = finite_volume(m2, L=1000, d=1, tau=1.0)
    zs = find_zeros_region(fvm, Rectangle(-0.1, 0.1, 0.0, 0.2))
    assert len(zs) == 64
    assert len(polishes) <= len(levels)
    assert sum(steps) == 349


def _perturbed_expsum():
    m = two_phase_model(q1=1, q2=2)
    fvm = finite_volume(m, L=5, d=2, tau=1.0, perturbation=random_perturbation(m, seed=3))
    return _ExpSum.from_fvm(fvm)


_EXPSUMS = {
    "two_phase": _ExpSum.from_fvm(finite_volume(two_phase_model(), L=50, d=1, tau=1.0)),
    "three_phase": _ExpSum.from_fvm(finite_volume(three_phase_model(), L=60, d=1, tau=1.0)),
    "perturbed": _perturbed_expsum(),
    # five terms: numpy's sum would reduce a lone point's terms pairwise
    "five_terms": _ExpSum(
        [1.0, 2.0, 0.5, 1.5, 3.0],
        [[0j, 30 + 5j], [1j, -30 + 2j], [0.2j, 20j], [0.5, -25j], [0.1 + 0.3j, 10 - 10j]],
    ),
}
_points = st.lists(st.builds(complex, st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)), min_size=1, max_size=24)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_EXPSUMS)), pts=_points)
def test_kernel_and_polish_bits_do_not_depend_on_the_batch(name, pts):
    es = _EXPSUMS[name]
    z = np.array(pts)
    assert es.value_normalized(z).tolist() == [complex(es.value_normalized(w)) for w in z]
    with np.errstate(all="ignore"):  # a start may run off to infinity
        got = zeros_mod._polish(es, z)
        alone = [zeros_mod._polish(es, [w]) for w in z]
    np.testing.assert_array_equal(got[0], [a[0][0] for a in alone])
    assert got[1] == [a[1][0] for a in alone]


def test_contour_errors_name_their_contour(m2, monkeypatch):
    fvm = finite_volume(m2, L=100, d=1, tau=1.0)
    # the zero i pi/200 sits on the box's lower-left corner
    box = Rectangle(0.0, 0.1, math.pi / 200, 0.2)
    with pytest.raises(ContourDegeneracyError, match="Rectangle") as err:
        find_zeros_region(fvm, box)
    assert err.value.contour == box
    circle = (1j * math.pi / 200 - 0.003, 0.003)  # through the zero
    with pytest.raises(ContourDegeneracyError) as err:
        winding_number(fvm, circle)
    assert err.value.contour == circle
    monkeypatch.setattr(zeros_mod, "_windings", lambda totals: ["no count"])
    with pytest.raises(ContourDegeneracyError) as err:
        zeros_mod._multiplicity(zeros_mod._ExpSum.from_fvm(fvm), 0.01j, 1e-4)
    assert err.value.contour == (0.01j, 1e-4)


def _build(rows, box, L, d):
    """ZeroSet.build of Zero rows."""
    cols = [[getattr(w, f) for w in rows] for f in ("z", "multiplicity", "residual", "method")]
    return ZeroSet.build(*cols, box, L, d)


def test_zeroset_order_ignores_ulp_noise_in_real_part():
    x = math.log(2) / 2e4
    low = Zero(complex(x + 1e-17, 0.1), 1, 0.0, "t")
    high = Zero(complex(x, 0.2), 1, 0.0, "t")
    box = Rectangle(-1, 1, -1, 1)
    for given in ([low, high], [high, low]):
        assert _build(given, box, 1, 1).zeros == (low, high)


def test_zeroset_dedups_non_adjacent_pairs():
    # p and r are 2.2e-13 apart but q sorts between them by (re, im)
    p = Zero(0j, 1, 0.0, "t")
    q = Zero(complex(1e-13, 1.0), 1, 0.0, "t")
    r = Zero(complex(2e-13, 1e-13), 1, 0.0, "t")
    zs = _build([p, q, r], Rectangle(-1, 2, -1, 2), 1, 1)
    assert zs.zeros == (p, q)


def test_neighbours_match_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(0, 60))
        # clustered on a coarse lattice so many pairs sit near the tolerance
        pts = 0.3 * (rng.integers(0, 8, n) + 1j * rng.integers(0, 8, n))
        pts = pts + 0.5 * (rng.random(n) + 1j * rng.random(n))
        want = {}
        for i in range(n):
            close = [j for j in range(n) if j != i and abs(pts[i] - pts[j]) <= 0.4]
            if close:
                want[i] = close
        got = {i: sorted(js) for i, js in zeros_mod._neighbours(pts, 0.4).items()}
        assert got == want
