import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfzeros import (
    ModelSpec,
    NoConvergenceError,
    PhaseSpec,
    Rectangle,
    SingularityError,
    SpuriousRootError,
    ValidationError,
    build_phase_diagram,
    find_coexistence_point,
    find_multiple_point,
    finite_volume,
    random_perturbation,
    stability,
    trace_curve,
)
from pfzeros.diagram import _project_onto_level, _project_onto_level_array
from pfzeros.model import _pair_gap

from conftest import OMEGA, collinear_model, three_phase_model, two_phase_model


def parabola_model():
    # Re z^2 = 0 on the two diagonals Im z = +-Re z
    return ModelSpec(
        phases=(PhaseSpec("quad", 1, (0j, 0j, 1 + 0j)), PhaseSpec("flat", 1, (0j,))),
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


_coeff = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(st.lists(_coeff, min_size=1, max_size=4), min_size=2, max_size=2),
    zs=st.lists(st.complex_numbers(max_magnitude=1.0), min_size=1, max_size=8),
    target=st.floats(0.01, 0.5) | st.floats(-0.5, -0.01),
    seed=st.integers(0, 2**31),
)
def test_array_projection_equals_scalar_projection(coeffs, zs, target, seed):
    model = ModelSpec(
        phases=tuple(PhaseSpec(f"p{k}", 1, tuple(c)) for k, c in enumerate(coeffs)),
        domain=Rectangle(-1, 1, -1, 1),
    )
    fvm = finite_volume(model, L=2, d=1, tau=1.0, perturbation=random_perturbation(model, seed))
    for source in (model, fvm):
        h, dh = _pair_gap(source, 0, 1)
        for tol in (1e-12, 1e-13):
            try:
                want = [_project_onto_level(h, dh, z, target=target, tol=tol) for z in zs]
            except NoConvergenceError as exc:
                with pytest.raises(NoConvergenceError) as got:
                    _project_onto_level_array(h, dh, zs, target=target, tol=tol)
                assert str(got.value) == str(exc)
                assert np.array_equal([got.value.last_iterate], [exc.last_iterate], equal_nan=True)
            else:
                assert _project_onto_level_array(h, dh, zs, target=target, tol=tol).tolist() == want


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
def test_array_projection_raises_the_first_scalar_error(zs, target, what):
    h, dh = _pair_gap(parabola_model(), 0, 1)
    with pytest.raises(NoConvergenceError) as want:
        for z in zs:
            _project_onto_level(h, dh, z, target=target)
    with pytest.raises(NoConvergenceError, match=what) as got:
        _project_onto_level_array(h, dh, zs, target=target)
    assert str(got.value) == str(want.value)
    assert got.value.last_iterate == want.value.last_iterate


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
