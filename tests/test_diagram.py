import cmath
import math

import numpy as np
import pytest

from pfzeros import (
    ModelSpec,
    NoConvergenceError,
    PhaseSpec,
    Rectangle,
    SingularityError,
    SpuriousRootError,
    ValidationError,
    build_phase_diagram,
    check_assumption_A,
    find_coexistence_point,
    find_multiple_point,
    stability,
    trace_curve,
)
import pfzeros.diagram as diagram_mod
from pfzeros.diagram import TOL_CURVE, _coexistence_points, _project_onto_level, _scan_mesh
from pfzeros.model import _pair_gap

from conftest import OMEGA, collinear_model, three_phase_model, two_phase_model


def parabola_model():
    # Re z^2 = 0 on the two diagonals Im z = +-Re z
    return ModelSpec(
        phases=(PhaseSpec("quad", 1, (0j, 0j, 1 + 0j)), PhaseSpec("flat", 1, (0j,))),
        domain=Rectangle(-1, 1, -1, 1),
    )


def hyperbola_model():
    # Re z^2 = -1/2 on the hyperbola y^2 - x^2 = 1/2, which leaves the domain
    # through its top and bottom edges
    return ModelSpec(
        phases=(PhaseSpec("quad", 1, (0j, 0j, 1 + 0j)), PhaseSpec("flat", 1, (-0.5 + 0j,))),
        domain=Rectangle(-1, 1, -1, 1),
    )


def test_find_coexistence_point_lands_on_axis(m2):
    z = find_coexistence_point(m2, 0, 1, 0.3 + 0.7j)
    assert abs(z.real) <= 1e-12
    assert z.imag == pytest.approx(0.7, abs=1e-12)


def test_find_coexistence_point_linear_ray(m3):
    # oracle: the (0,1) tie set solves Re((1 - omega) z) = 0
    seed = 0.26 - 0.42j
    z = find_coexistence_point(m3, 0, 1, seed)
    assert abs(((1 - OMEGA) * z).real) <= 1e-12
    assert abs(z - seed) < 0.2


def test_find_coexistence_point_no_root_nearby():
    wide = two_phase_model(half=6.0)
    with pytest.raises(NoConvergenceError):
        find_coexistence_point(wide, 0, 1, 5.0 + 0j)


def test_seed_scan_equals_per_seed_solves(m3):
    mesh, re_p, cell, _ = _scan_mesh(m3, (41, 41))
    for m, n in ((0, 1), (0, 2), (1, 2)):
        h, _ = _pair_gap(m3, m, n)
        sgn = np.signbit(h(mesh).real)
        flip_h = zip(*np.nonzero(sgn[:, 1:] != sgn[:, :-1]))
        flip_v = zip(*np.nonzero(sgn[1:, :] != sgn[:-1, :]))
        seeds = [0.5 * (mesh[i, j] + mesh[i, j + 1]) for i, j in flip_h]
        seeds += [0.5 * (mesh[i, j] + mesh[i + 1, j]) for i, j in flip_v]
        expected = []
        for seed in seeds:
            try:
                z = find_coexistence_point(m3, m, n, seed, radius=cell)
            except NoConvergenceError:
                continue
            if m3.domain.contains(z):
                expected.append(z)
        got = _coexistence_points(m3, m, n, mesh, re_p, cell)
        assert expected and got == expected


@pytest.mark.parametrize(
    "model", [three_phase_model(), three_phase_model(qs=(1, 2, 3), shift=0.1 + 0.05j)]
)
def test_trace_seeds_are_the_points_the_scalar_rules_keep(model):
    # the level-set lines run on past the triple point, where the third
    # phase dominates, so the rules drop part of every pair's points
    mesh, re_p, cell, _ = _scan_mesh(model, (201, 201))
    eps = diagram_mod.EPS_MULTIPOINT
    for m, n in ((0, 1), (0, 2), (1, 2)):
        points = _coexistence_points(model, m, n, mesh, re_p, cell)
        want = [
            z for z in points
            if {m, n} <= stability(model, z, eps_list=(TOL_CURVE,)).eps_stable_sets[TOL_CURVE]
            and diagram_mod._third_phase(model, (m, n), z, eps) is None
        ]
        assert 0 < len(want) < len(points)
        assert diagram_mod._trace_seeds(model, m, n, points).tolist() == want


def _counted_brackets(monkeypatch, **kwargs):
    """Patch the bracket solver to count its steps per call (calls of f)."""
    steps = []
    close = diagram_mod._close_brackets

    def counted(f, *args):
        steps.append(0)

        def g(t, k):
            steps[-1] += 1
            return f(t, k)

        return close(g, *args, **kwargs)

    monkeypatch.setattr(diagram_mod, "_close_brackets", counted)
    return steps


def test_seed_brackets_at_roots_near_0_close_in_few_steps(m3, monkeypatch):
    # pair (1,2) has roots at Im z ~ 1e-18, which closing to 4 ulps of their
    # own coordinate took 56 steps
    steps = _counted_brackets(monkeypatch)
    mesh, re_p, cell, _ = _scan_mesh(m3, (201, 201))
    points = _coexistence_points(m3, 1, 2, mesh, re_p, cell)
    assert len(points) == 202 and steps == [9]


def test_a_seed_bracket_open_at_the_cap_is_warned_about(m3, monkeypatch):
    _counted_brackets(monkeypatch, max_steps=0)
    with pytest.warns(UserWarning, match=r"\(0,1\) root from the seed \(0\.3\+0\.1j\)"):
        with pytest.raises(NoConvergenceError):
            find_coexistence_point(m3, 0, 1, 0.3 + 0.1j)


def test_seed_scans_drop_roots_outside_the_domain():
    m = hyperbola_model()
    pd = build_phase_diagram(m)
    assert len(pd.curves) == 2
    for curve in pd.curves:
        assert m.domain.contains(curve.points()).all()
    samples = check_assumption_A(m).pair_samples[(0, 1)]
    assert samples and m.domain.contains(np.array(samples)).all()


def test_trace_m2_stays_on_axis(m2):
    curve = trace_curve(m2, 0, 1, 0j, step=0.01, max_steps=100)
    pts = curve.points()
    assert np.abs(pts.real).max() <= 1e-9
    assert curve.arc_length == pytest.approx(2.0, abs=1e-6)
    assert abs(pts[0] + 1j) < 0.02 and abs(pts[-1] - 1j) < 0.02
    assert curve.start.kind == "max_steps" and curve.end.kind == "max_steps"
    # consecutive samples are one step apart in arc length
    ts = np.array([s.t for s in curve.samples])
    assert np.allclose(np.diff(ts), 0.01)


def test_trace_m2_exits_domain(m2):
    curve = trace_curve(m2, 0, 1, 0j, step=0.01, max_steps=1000)
    assert curve.start.kind == "domain_boundary"
    assert curve.end.kind == "domain_boundary"
    assert abs(curve.points()[-1].imag) > 1.15  # reached the box edge


def test_trace_tangent_orthogonal_to_gradient(m3):
    z0 = find_coexistence_point(m3, 0, 1, 0.26 - 0.42j)
    curve = trace_curve(m3, 0, 1, z0, step=0.005, max_steps=40)
    for s in curve.samples:
        g = s.v_m - s.v_n  # gradient of Re(P_m - P_n) is conj(g)
        tangent = 1j * g.conjugate() / abs(g)
        grad = g.conjugate()
        dot = tangent.real * grad.real + tangent.imag * grad.imag
        assert abs(dot) <= 1e-8


def test_trace_parabola_stays_on_diagonals():
    m = parabola_model()
    a = 0.5 / math.sqrt(2.0)
    curve = trace_curve(m, 0, 1, complex(a, a), step=0.01, max_steps=60)
    pts = curve.points()
    assert np.abs(np.abs(pts.real) - np.abs(pts.imag)).max() <= 1e-9


def test_trace_two_phase_purity(m3):
    z0 = find_coexistence_point(m3, 0, 1, 0.26 - 0.42j)
    curve = trace_curve(m3, 0, 1, z0, step=0.005, max_steps=120)
    for s in curve.samples[:: max(1, len(curve.samples) // 20)]:
        rep = stability(m3, s.z, eps_list=[1e-9])
        assert {0, 1} <= rep.eps_stable_sets[1e-9]
    # every sample sits on the level set of the exponent gap
    gaps = [
        abs((m3.phases[0].log_weight(s.z) - m3.phases[1].log_weight(s.z)).real)
        for s in curve.samples
    ]
    assert max(gaps) <= 1e-9


def test_trace_third_phase_handoff(m3):
    z0 = find_coexistence_point(m3, 0, 1, 0.26 - 0.42j)
    curve = trace_curve(m3, 0, 1, z0, step=0.005, max_steps=400)
    kinds = {curve.start.kind, curve.end.kind}
    assert "multiple_point" in kinds
    assert "domain_boundary" in kinds
    term = curve.start if curve.start.kind == "multiple_point" else curve.end
    assert term.mp_triple == (0, 1, 2)
    assert abs(term.mp_seed) < 0.01  # fired close to the triple tie at 0


def test_trace_reversal_reproduces_samples(m2):
    c1 = trace_curve(m2, 0, 1, 0j, step=0.01, max_steps=30)
    far = c1.samples[-1].z
    c2 = trace_curve(m2, 0, 1, far, step=0.01, max_steps=60)
    p1, p2 = c1.points(), c2.points()
    directed = np.abs(p1[:, None] - p2[None, :]).min(axis=1).max()
    assert directed <= 0.01


def test_trace_rejects_non_coexistence_start(m2):
    with pytest.raises(ValidationError):
        trace_curve(m2, 0, 1, 0.5 + 0j, step=0.01, max_steps=10)


@pytest.mark.parametrize(
    "zs, target, what",
    [
        # Re z^2 = 0.5 has no gradient to follow at 0
        ([0.3 + 0.6j, 0j], 0.5, "vanishing"),
        # Re z^2 = -1 is never reached along the real axis; the stalled
        # point comes before the gradient-free one
        ([0.4 + 0.2j, 0.5 + 0j, 0j], -1.0, "stalled"),
    ],
)
def test_projection_raises_the_first_error(zs, target, what):
    h, dh = _pair_gap(parabola_model(), 0, 1)
    with pytest.raises(NoConvergenceError, match=what) as got:
        for z in zs:
            _project_onto_level(h, dh, z, target=target)
    # both failing points lie on the real axis, where Newton keeps them
    assert got.value.last_iterate.imag == 0.0


def test_find_multiple_point_symmetric(m3):
    mp = find_multiple_point(m3, (0, 1, 2), 0.1 + 0.1j)
    assert abs(mp.z) <= 1e-12
    assert mp.stable_set == (0, 1, 2)
    for k in range(3):
        assert cmath.isclose(mp.v_values[k], OMEGA**k, rel_tol=1e-12)


def test_find_multiple_point_translation_covariance():
    shift = 0.25 + 0.1j
    m = three_phase_model(shift=shift)
    mp = find_multiple_point(m, (0, 1, 2), 0.4 + 0.3j)
    assert abs(mp.z - shift) <= 1e-10


def test_find_multiple_point_collinear_fails():
    with pytest.raises((SingularityError, SpuriousRootError)):
        find_multiple_point(collinear_model(), (0, 1, 2), 0.1 + 0.1j)


def test_build_phase_diagram_m2(m2):
    pd = build_phase_diagram(m2, grid=(21, 21))
    assert len(pd.curves) == 1
    assert pd.multiple_points == []
    pts = pd.curves[0].points()
    assert np.abs(pts.real).max() <= 1e-9


def test_build_phase_diagram_m3(m3):
    pd = build_phase_diagram(m3, grid=(21, 21))
    assert len(pd.multiple_points) == 1
    mp = pd.multiple_points[0]
    assert abs(mp.z) <= 1e-10
    assert len(mp.incident_arcs) == 3
    assert pd.min_tangent_angle == pytest.approx(2 * math.pi / 3, abs=1e-6)
    assert pd.diagnostics == []


def test_build_phase_diagram_empty_coexistence():
    m = ModelSpec(
        phases=(PhaseSpec("a", 1, (0j,)), PhaseSpec("b", 1, (10 + 0j, 1 + 0j))),
        domain=Rectangle(-1, 1, -1, 1),
    )
    pd = build_phase_diagram(m, grid=(9, 9))
    assert pd.curves == []
    assert pd.multiple_points == []
