import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pfzeros as pfz
from pfzeros import (
    ModelSpec,
    PhaseSpec,
    Rectangle,
    ValidationError,
    check_assumption_A,
    eval_log_zeta,
    eval_v,
    finite_volume,
    stability,
    xi_normalized,
)
from pfzeros.model import _BATCH, _grid_pairs, _pair_gap, in_coexistence_strip, in_two_phase_region

from conftest import OMEGA, collinear_model, three_phase_model, two_phase_model


def test_eval_log_zeta_reads_off_polynomial(m2, m3):
    assert eval_log_zeta(m2, 0, 1.0) == 1 + 0j
    # exp at i pi is -1 exactly up to floating exp
    val = eval_log_zeta(m2, 0, 1j * math.pi)
    assert cmath.isclose(cmath.exp(val), -1.0, abs_tol=1e-15)
    assert cmath.isclose(eval_log_zeta(m3, 1, 1.0), OMEGA, rel_tol=1e-15)


def test_eval_v_is_exact_derivative(m2, m3):
    assert eval_v(m2, 0, 0.3 + 0.7j) == 1 + 0j
    assert eval_v(m2, 1, -2.0 + 1j) == -1 + 0j
    assert cmath.isclose(eval_v(m3, 2, 0j), OMEGA**2, rel_tol=1e-15)


def test_invalid_phase_index_rejected(m2):
    with pytest.raises(ValidationError):
        eval_log_zeta(m2, 5, 0.0)
    with pytest.raises(ValidationError):
        eval_v(m2, -1, 0.0)


def test_nonfinite_point_rejected(m2):
    with pytest.raises(ValidationError):
        eval_log_zeta(m2, 0, complex("nan"))


def test_stability_two_phase(m2):
    rep = stability(m2, 0.5, eps_list=[0.1])
    assert rep.stable_set == {0}
    rep = stability(m2, 1j)
    assert rep.stable_set == {0, 1}
    rep = stability(m2, -0.25 + 0.1j)
    assert rep.stable_set == {1}


def test_stability_three_phase_symmetric(m3):
    assert stability(m3, 0j).stable_set == {0, 1, 2}


def test_stability_outside_domain(m2):
    with pytest.raises(pfz.DomainError):
        stability(m2, 10 + 0j)


def test_stability_shift_invariance(m3):
    # adding a common constant to every exponent must not change any set
    shifted = ModelSpec(
        phases=tuple(
            PhaseSpec(p.name, p.degeneracy, ((p.exponent[0] + (2.5 - 1j)),) + p.exponent[1:])
            for p in m3.phases
        ),
        domain=m3.domain,
    )
    for z in (0j, 0.3 + 0.1j, -0.2 - 0.4j):
        a = stability(m3, z, eps_list=[0.05, 0.4])
        b = stability(shifted, z, eps_list=[0.05, 0.4])
        assert a.stable_set == b.stable_set
        assert a.eps_stable_sets == b.eps_stable_sets
        assert b.log_max == pytest.approx(a.log_max + 2.5)
        for q in ({0, 1}, {0, 2}, {1, 2}):
            assert in_two_phase_region(m3, z, 0.3, q) == in_two_phase_region(shifted, z, 0.3, q)
        assert in_coexistence_strip(m3, z, 0.1) == in_coexistence_strip(shifted, z, 0.1)


def test_array_predicates_match_scalar_calls(m3):
    mesh = m3.domain.grid(41, 41)
    strip = in_coexistence_strip(m3, mesh, 0.1)
    assert strip.shape == mesh.shape and strip.any() and not strip.all()
    for idx, z in np.ndenumerate(mesh):
        assert strip[idx] == in_coexistence_strip(m3, complex(z), 0.1)
    for q in ((0, 1), (0, 2), (1, 2), (0, 1, 2)):
        region = in_two_phase_region(m3, mesh, 0.3, q)
        assert region.shape == mesh.shape and region.any() and not region.all()
        for idx, z in np.ndenumerate(mesh):
            assert region[idx] == in_two_phase_region(m3, complex(z), 0.3, q)


_coeff = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(st.lists(_coeff, min_size=1, max_size=5), min_size=2, max_size=4),
    zs=st.lists(st.complex_numbers(max_magnitude=1.0), min_size=1, max_size=6),
    seed=st.integers(0, 2**31),
)
def test_pair_gap_is_the_difference_of_log_weights(coeffs, zs, seed):
    model = ModelSpec(
        phases=tuple(PhaseSpec(f"p{k}", 1, tuple(c)) for k, c in enumerate(coeffs)),
        domain=Rectangle(-1, 1, -1, 1),
    )
    fvm = finite_volume(model, L=2, d=1, tau=1.0, perturbation=pfz.random_perturbation(model, seed))
    polyder = np.polynomial.polynomial.polyder
    for p in model.phases:
        assert p.derivative == tuple(polyder(np.array(p.exponent)))
    for c, dc in zip(fvm.exponents, fvm.derivatives):
        assert dc == tuple(polyder(np.array(c)))
    points = [complex(z) for z in zs] + [np.array(zs, dtype=complex)]
    for m in range(model.r):
        for n in range(model.r):
            if m == n:
                continue
            h, dh = _pair_gap(model, m, n)
            h_L, dh_L = _pair_gap(fvm, m, n)
            pm, pn = model.phases[m], model.phases[n]
            for z in points:
                assert np.all(h(z) == pm.log_weight(z) - pn.log_weight(z))
                assert np.all(dh(z) == pm.log_weight_deriv(z) - pn.log_weight_deriv(z))
                assert np.all(h_L(z) == fvm.log_weight_L(m, z) - fvm.log_weight_L(n, z))
                assert np.all(
                    dh_L(z) == fvm.log_weight_L_deriv(m, z) - fvm.log_weight_L_deriv(n, z)
                )


def test_m2_stable_sets_partition_plane(m2):
    for x in np.linspace(-1.1, 1.1, 13):
        rep = stability(m2, complex(x, 0.37))
        if x > 1e-9:
            assert rep.stable_set == {0}
        elif x < -1e-9:
            assert rep.stable_set == {1}
        else:
            assert rep.stable_set == {0, 1}


def test_check_assumption_A_m3(m3):
    rep = check_assumption_A(m3, grid=(21, 21))
    # oracle: |1 - exp(2 pi i/3)| = sqrt(3), computed independently
    sqrt3 = abs(1 - cmath.exp(2j * cmath.pi / 3))
    assert rep.alpha_estimate == pytest.approx(sqrt3, abs=1e-9)
    assert rep.positivity_ok
    assert rep.violations == []
    assert len(rep.convexity_results) == 1
    z_mp, ok, margin = rep.convexity_results[0]
    assert ok and margin > 0
    assert abs(z_mp) < 1e-9
    # cross-check: |det| of the derivative Vandermonde equals prod of gaps
    prod = sqrt3**3
    vs = [eval_v(m3, k, z_mp) for k in range(3)]
    det = np.abs(np.linalg.det(np.array([[v**l for v in vs] for l in range(3)])))
    assert det == pytest.approx(prod, rel=1e-12)


def test_check_assumption_A_collinear_flags_A4():
    rep = check_assumption_A(collinear_model(), grid=(21, 21))
    assert any(v.assumption == "A4" for v in rep.violations)


def test_check_assumption_A_m2_no_multiple_points(m2):
    rep = check_assumption_A(m2, grid=(13, 13))
    assert rep.positivity_ok
    assert rep.convexity_results == []
    assert rep.alpha_estimate == pytest.approx(2.0, abs=1e-9)


def test_finite_volume_zero_perturbation_is_exact(m2):
    fvm = finite_volume(m2, L=10, d=1, tau=2.0)
    for z in (0.1 + 0.2j, -0.3j):
        assert fvm.log_weight_L(0, z) == m2.phases[0].log_weight(z)
        assert fvm.log_weight_L(1, z) == m2.phases[1].log_weight(z)


def test_finite_volume_constant_seed(m2):
    fvm = finite_volume(m2, L=10, d=1, tau=2.0, perturbation=[(1 + 0j,), (0j,)])
    z = 0.4 - 0.2j
    assert fvm.log_weight_L(0, z) == pytest.approx(z + math.exp(-20), abs=1e-18)


def test_finite_volume_seed_rescaled_to_unit_sup(m2):
    # sup over the domain grid of |5 z| is 5*1.2*sqrt(2) at a corner
    fvm = finite_volume(m2, L=10, d=1, tau=2.0, perturbation=[(0j, 5 + 0j), (0j,)])
    mesh = m2.domain.grid(101, 101)
    u = np.abs(fvm.perturbations[0][1] * mesh)
    assert u.max() == pytest.approx(1.0, abs=1e-12)


def test_finite_volume_validation(m2):
    with pytest.raises(ValidationError):
        finite_volume(m2, L=0, d=1, tau=1.0)
    with pytest.raises(ValidationError):
        finite_volume(m2, L=5, d=1, tau=-1.0)
    with pytest.raises(ValidationError):
        finite_volume(m2, L=5, d=1, tau=1.0, perturbation=[(0j,)])


def test_xi_bound_on_grid(m3):
    # |Xi * zeta^{-N}| <= theta * N * e^{-tau L} * r * sum q, checked on a grid
    theta, L, tau = 0.5, 10, 2.0
    fvm = finite_volume(m3, L=L, d=1, tau=tau, xi_strength=theta)
    bound = theta * fvm.N * math.exp(-tau * L) * m3.r * sum(m3.degeneracies)
    mesh = m3.domain.grid(21, 21)
    vals = np.abs(xi_normalized(fvm, mesh))
    assert vals.max() <= bound * (1 + 1e-12)


def test_model_file_round_trip(tmp_path, m3):
    path = tmp_path / "m3.json"
    path.write_text(json.dumps(pfz.model_to_dict(m3)))
    back = pfz.load_model(path)
    assert back == m3


def test_model_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        pfz.load_model(bad)
    with pytest.raises(ValidationError):
        pfz.model_from_dict({"phases": [{"name": "a", "q": 1, "coeffs": [0.0]}]})


def test_model_invariants():
    with pytest.raises(ValidationError):
        ModelSpec(phases=(PhaseSpec("a", 1, (0j,)),), domain=Rectangle(-1, 1, -1, 1))
    with pytest.raises(ValidationError):
        two_phase_model(q1=0)
    with pytest.raises(ValidationError):
        Rectangle(1, -1, 0, 1)


def test_symmetric_pair_perturbation_reflection():
    up, un = pfz.symmetric_pair_perturbation(seed=7, degree=3)
    rng = np.random.default_rng(11)
    for _ in range(20):
        w = complex(rng.normal(), rng.normal())
        lhs = sum(c * w**j for j, c in enumerate(up))
        rhs = sum(c * (-w.conjugate()) ** j for j, c in enumerate(un)).conjugate()
        assert cmath.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)


def test_three_phase_shifted_model_places_tie_at_shift():
    m = three_phase_model(shift=0.25 + 0.1j)
    assert stability(m, 0.25 + 0.1j).stable_set == {0, 1, 2}


def test_grid_pairs_taken_in_batches_hold_every_close_pair():
    # more query points than one batch; the brute force takes 1,000 rows
    # of the distance matrix at a time
    rng = np.random.default_rng(2)
    a = rng.random(_BATCH + 1808) + 1j * rng.random(_BATCH + 1808)
    b = rng.random(1500) + 1j * rng.random(1500)
    r = 0.01
    i, j = _grid_pairs(a, b, r)
    got = set(zip(i.tolist(), j.tolist()))
    assert len(got) == i.size
    want = set()
    for s in range(0, a.size, 1000):
        ii, jj = np.nonzero(np.abs(a[s : s + 1000, None] - b) <= r)
        want.update(zip((ii + s).tolist(), jj.tolist()))
    assert {(p, q) for p, q in got if abs(a[p] - b[q]) <= r} == want
