"""The multiple-point disc located from the asymptote seeds: its zeros against
the quadtree's, a missed seed, random sums, its cost, and a 50-digit mpmath
reference on G that shares no code with it."""

import itertools
import math

import mpmath
import numpy as np
import pytest

import pfzeros.zeros as zeros_mod
from pfzeros import Rectangle, find_multiple_point, predict_multipoint
from pfzeros.zeros import _alpha_beta, _ExpSum, _locate, _multipoint_seeds, _polish

from conftest import three_phase_model

M3 = three_phase_model()
MP = find_multiple_point(M3, (0, 1, 2), 0.05 + 0.05j)


def _disc(N, monkeypatch=None, seeds=None):
    """predict_multipoint on the cube-root model at the benchmark's disc,
    rho_L = 25 log N / N, with the seeds replaced by seeds(seeds) if given."""
    if seeds is not None:
        found = zeros_mod._multipoint_seeds
        monkeypatch.setattr(zeros_mod, "_multipoint_seeds", lambda *a: seeds(found(*a)))
    return predict_multipoint(M3, MP, L=N, d=1, rho_L=25 * math.log(N) / N)


@pytest.mark.parametrize("N", [100, 1000, 10000, 100000])
def test_seeded_disc_equals_the_quadtree(N, monkeypatch):
    seeded = _disc(N)
    assert seeded.quadtree_located == 0
    # without seeds the quadtree locates every zero of the box
    quadtree = _disc(N, monkeypatch, lambda s: s[:0])
    assert quadtree.quadtree_located >= len(quadtree)
    assert [w.multiplicity for w in seeded.zeros] == [w.multiplicity for w in quadtree.zeros]
    assert len(seeded) == len(quadtree) > 90
    assert np.abs(seeded.points() - quadtree.points()).max() <= 1e-14
    assert all(w.residual <= 1e-10 for w in seeded.zeros)


def test_a_dropped_seed_leaves_one_zero_to_the_quadtree(monkeypatch, kernel_counts):
    # the benchmark's disc: the quadtree descends only into the cells whose
    # winding the 208 kept zeros leave unaccounted for
    seeded = _disc(10000)
    windings = []
    wind = zeros_mod._winding
    monkeypatch.setattr(zeros_mod, "_winding", lambda *a: windings.append(1) or wind(*a))
    kernel_counts.clear()
    dropped = _disc(10000, monkeypatch, lambda s: s[1:])
    assert dropped.quadtree_located == 1 and len(windings) == 1
    # the whole-box quadtree evaluates 45,710 points
    assert kernel_counts["points"] <= 4_300
    quadtree = _disc(10000, monkeypatch, lambda s: s[:0])
    for other in (seeded, quadtree):
        assert [w.multiplicity for w in dropped.zeros] == [w.multiplicity for w in other.zeros]
        assert np.abs(dropped.points() - other.points()).max() <= 1e-14


def _random_sum(rng):
    """3-5 terms with random degeneracies 1-4 and phases, and derivatives
    v_k at angles 2 pi (k + u_k)/K, |u_k| <= 1/4, of moduli 0.75-1.25: a
    jittered regular K-gon, strictly convex as at a multiple point."""
    k = int(rng.integers(3, 6))
    theta = 2.0 * math.pi * (np.arange(k) + rng.uniform(-0.25, 0.25, k)) / k
    vs = rng.uniform(0.75, 1.25, k) * np.exp(1j * theta)
    return rng.integers(1, 5, k).astype(float), rng.uniform(0.0, 2.0 * math.pi, k), vs


def _uniform_sum(rng):
    """3-5 terms as in _random_sum with derivatives at uniform random angles
    on the unit circle, where two can nearly coincide: their seeds may miss
    zeros."""
    k = int(rng.integers(3, 6))
    vs = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, k))
    return rng.integers(1, 5, k).astype(float), rng.uniform(0.0, 2.0 * math.pi, k), vs


def _sums():
    """60 random sums: 30 jittered regular K-gons, then 30 at uniform angles."""
    rng = np.random.default_rng(2024)
    for draw in range(60):
        yield _random_sum(rng) if draw < 30 else _uniform_sum(rng)


def test_random_sums_are_certified_from_their_seeds():
    R = 150.0
    box = Rectangle(-R, R, -R, R)
    counts, located = [], 0
    for draw, (qs, phis, vs) in enumerate(_sums()):
        es = _ExpSum.from_multipoint(qs, phis, vs)
        wound = zeros_mod._box_winding(es, box)
        z, _ = _polish(es, _multipoint_seeds(qs, phis, vs, R))
        (got, mult, _), k = _locate(es, box, wound, z, 1.0)
        assert mult.sum() == wound[0]
        if draw < 30:
            # the seeds of a jittered regular K-gon account for every zero
            assert k == 0 and got.size == wound[0]
            counts.append(wound[0])
            continue
        # the seedless quadtree's zeros, matched one to one; 1e-14 is taken
        # relative to |zf|, as both polishes stop within a few ulps of it
        (want, want_mult, _), _ = _locate(es, box, wound, (), 1.0)
        nearest = np.abs(got[:, None] - want[None, :]).argmin(axis=1)
        assert sorted(nearest.tolist()) == list(range(want.size))
        assert np.all(np.abs(got - want[nearest]) <= 1e-14 * np.maximum(1.0, np.abs(want[nearest])))
        assert mult.tolist() == want_mult[nearest].tolist()
        located += k
    assert min(counts) > 20 and located > 0


def test_a_seed_still_stepping_after_80_newton_steps_is_kept(monkeypatch):
    # uniform draw 43: |v_b - v_e| = 0.095 leaves Newton from seed 43
    # stepping a few ulps at |zf| = 60, above the stop, after its 80 steps;
    # it meets the residual and the alpha-test certifies it, so the seeds
    # account for every zero
    qs, phis, vs = next(itertools.islice(_sums(), 43, None))
    R = 150.0
    box = Rectangle(-R, R, -R, R)
    es = _ExpSum.from_multipoint(qs, phis, vs)
    seeds = _multipoint_seeds(qs, phis, vs, R)
    steps = []
    newton_step = _ExpSum.newton_step
    monkeypatch.setattr(
        _ExpSum, "newton_step", lambda self, z: steps.append(1) or newton_step(self, z)
    )
    (z,), (why,) = _polish(es, seeds[43:44])
    monkeypatch.undo()
    (res,), _, _ = _alpha_beta(es, np.array([z]), 1.0)
    num, den = es.newton_step(z)
    assert len(steps) == 80 and abs(num / den) > 4.0 * np.spacing(abs(z)) > 1e-16 * (1 + abs(z))
    assert why is None and res <= 1e-10
    wound = zeros_mod._box_winding(es, box)
    z, _ = _polish(es, seeds)
    keep, _, _ = zeros_mod._kept(es, box, z, 1.0)
    assert 43 in keep.tolist()
    (found, _, _), k = _locate(es, box, wound, z, 1.0)
    assert k == 0 and found.size == wound[0] == 135


def _reference_G(model, mp, N, scale):
    """G(zf) = sum_m q_m exp(N P_m(z_M) + P_m'(z_M) zf) at 50 digits, from
    the model's exponent coefficients, times exp(-scale). exp(N Re P_m(z_M))
    is the same for every phase of the multiple point and dropped too."""
    def horner(coeffs, z):
        acc = mpmath.mpc(0)
        for c in reversed(coeffs):
            acc = acc * z + mpmath.mpc(c)
        return acc

    zm = mpmath.mpc(mp.z.real, mp.z.imag)
    terms = []
    for k in mp.stable_set:
        phase = model.phases[k]
        p = phase.exponent
        dp = [j * p[j] for j in range(1, len(p))]
        terms.append((phase.degeneracy, 1j * N * horner(p, zm).imag, horner(dp, zm)))
    return lambda zf: sum(q * mpmath.exp(c + v * zf - scale) for q, c, v in terms)


def test_disc_zeros_against_a_50_digit_reference():
    N = 10000
    zs = _disc(N)
    assert zs.quadtree_located == 0 and len(zs) == 189
    with mpmath.workdps(50):
        for w in zs.zeros[::10]:
            zf = (w.z - MP.z) * N
            # scaled so that the largest term at the zero is of order one
            G = _reference_G(M3, MP, N, max((v * zf).real for v in MP.v_values.values()))
            start = mpmath.mpc(zf.real, zf.imag)
            root = mpmath.findroot(G, (start, start + 1e-9))
            assert abs(complex(root) - zf) <= 1e-13
            assert abs(MP.z + complex(root) / N - w.z) <= 1e-17


def test_seeded_disc_winds_one_contour_and_few_points(kernel_counts):
    # the three-phase multipoint invocation: N=1e4, --rho-scale 25
    zs = _disc(10000)
    assert zs.quadtree_located == 0 and len(zs) == 189
    assert kernel_counts["contours"] == 1 and kernel_counts["splits"] == 0
    assert kernel_counts["points"] <= 12 * len(zs)
