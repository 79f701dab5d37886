import cmath
import math
import warnings

import numpy as np
import pytest

from pfzeros import (
    DomainError,
    ModelSpec,
    NoConvergenceError,
    PhaseSpec,
    Rectangle,
    ResolutionError,
    ValidationError,
    Zero,
    ZeroSet,
    asymptote_lines,
    covering_check,
    degeneracy_audit,
    delta_L,
    density_convergence,
    eval_v,
    find_coexistence_point,
    find_multiple_point,
    find_zeros_region,
    finite_volume,
    match_zeros,
    predict_multipoint,
    predict_two_phase,
    random_perturbation,
    trace_curve,
)

from conftest import OMEGA, three_phase_model, two_phase_model
from test_zeros import axis_zeros


def quadruple_model():
    return ModelSpec(
        phases=tuple(PhaseSpec(f"p{m}", 1, (0j, 1j**m)) for m in range(4)),
        domain=Rectangle(-1, 1, -1, 1),
    )


def m2_curve(model, N, span=0.25):
    v_gap = 2.0
    step = min(0.005, math.pi / (2 * N * v_gap))
    return trace_curve(model, 0, 1, 0j, step=step, max_steps=int(span / step))


@pytest.mark.parametrize("L, d", [(0, 1), (10, 0), (10, -1)])
def test_volume_functions_reject_nonpositive_L_and_d(m2, m3, L, d):
    curve = m2_curve(m2, 100)
    mp = find_multiple_point(m3, (0, 1, 2), 0.05 + 0.05j)
    with pytest.raises(ValidationError):
        predict_two_phase(m2, 0, 1, curve, L=L, d=d)
    with pytest.raises(ValidationError):
        predict_multipoint(m3, mp, L=L, d=d, rho_L=0.1)
    with pytest.raises(ValidationError):
        covering_check(m3, m3.domain, L=L, d=d, omega_L=1.0, gamma_L=0.1, rho_L=0.1)
    with pytest.raises(ValidationError):
        density_convergence(m2, 0, 1, 0j, [0.1], [L], d)


def test_predict_two_phase_symmetric(m2):
    curve = m2_curve(m2, 100)
    zs = predict_two_phase(m2, 0, 1, curve, L=100, d=1)
    got = sorted((z for z in zs.points() if 0 <= z.imag <= 0.2), key=lambda z: z.imag)
    want = axis_zeros(100)
    assert len(got) == len(want) == 6
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-10
    assert all(w.method == "two_phase_eq" for w in zs.zeros)


def test_predict_two_phase_degeneracy_shift():
    m = two_phase_model(q1=1, q2=2)
    curve = m2_curve(m, 100)
    zs = predict_two_phase(m, 0, 1, curve, L=100, d=1)
    got = sorted((z for z in zs.points() if 0 <= z.imag <= 0.2), key=lambda z: z.imag)
    want = axis_zeros(100, q_ratio=2.0)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-10


def test_predict_two_phase_empty_on_small_segment(m2):
    curve = trace_curve(m2, 0, 1, 0j, step=0.005, max_steps=20)  # spans +-0.1
    zs = predict_two_phase(m2, 0, 1, curve, L=10, d=1)
    assert all(not (0 <= z.imag <= 0.1) for z in zs.points())


def test_predict_two_phase_sparse_curve_rejected(m2):
    curve = trace_curve(m2, 0, 1, 0j, step=0.01, max_steps=20)
    with pytest.raises(ResolutionError):
        predict_two_phase(m2, 0, 1, curve, L=1000, d=1)


def test_predict_two_phase_from_fvm_matches_brute(m2):
    seeds = random_perturbation(m2, seed=42)
    fvm = finite_volume(m2, L=10, d=2, tau=2.0, perturbation=seeds, xi_strength=0.5)
    curve = m2_curve(m2, 100)
    predicted = predict_two_phase(fvm, 0, 1, curve)
    located = find_zeros_region(fvm, Rectangle(-0.1, 0.1, 0.0, 0.2))
    pred_in = [z for z in predicted.points() if 0 <= z.imag <= 0.2]
    assert len(pred_in) == len(located)
    for z in located.points():
        assert min(abs(z - p) for p in pred_in) <= 1e-9


def _horner(coeffs, z):
    acc = 0j * z + coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def reference_predict_two_phase(source, m, n, curve, N, tol=1e-10):
    """The scalar two-phase predictor: every sample projected on its own and
    every crossing bisected on its own. Returns (z, residual) per crossing."""
    cm, cn = source.exponents[m], source.exponents[n]
    dm, dn = source.derivatives[m], source.derivatives[n]
    q = source.degeneracies
    target_mod = math.log(q[n] / q[m]) / N

    def h(z):
        return _horner(cm, z) - _horner(cn, z)

    def project(z, tol=1e-13):
        for _ in range(12):
            r = h(z).real - target_mod
            if abs(r) <= tol:
                return z
            g = _horner(dm, z) - _horner(dn, z)
            g2 = (g * g.conjugate()).real
            if g2 < 1e-24:
                raise NoConvergenceError("vanishing exponent-gap gradient during projection", z)
            z = z - r * g.conjugate() / g2
        if abs(h(z).real - target_mod) <= 100 * tol:
            return z
        raise NoConvergenceError("projection onto the coexistence level set stalled", z)

    shifted = [project(s.z) for s in curve.samples]
    theta = [N * h(z).imag for z in shifted]
    found = []
    emitted = set()
    for k in range(len(shifted) - 1):
        ta, tb = theta[k], theta[k + 1]
        if abs(tb - ta) >= math.pi:
            raise ResolutionError(
                f"phase advances by {abs(tb - ta):.3f} between samples "
                f"t={curve.samples[k].t:.6g} and t={curve.samples[k + 1].t:.6g}; "
                "trace the curve with a smaller step"
            )
        lo, hi = (ta, tb) if ta <= tb else (tb, ta)
        j0 = math.ceil((lo - math.pi) / (2.0 * math.pi) - 1e-12)
        j1 = math.floor((hi - math.pi) / (2.0 * math.pi) + 1e-12)
        for j in range(j0, j1 + 1):
            tgt = math.pi + 2.0 * math.pi * j
            if j in emitted or not (min(ta, tb) <= tgt <= max(ta, tb)):
                continue
            emitted.add(j)
            sa, sb, fa = 0.0, 1.0, ta - tgt
            for _ in range(200):
                sm = 0.5 * (sa + sb)
                z_hit = project(shifted[k] + sm * (shifted[k + 1] - shifted[k]))
                fm = N * h(z_hit).imag - tgt
                if abs(fm) <= tol:
                    break
                if fa * fm <= 0.0:
                    sb = sm
                else:
                    sa, fa = sm, fm
            else:
                raise NoConvergenceError("phase bisection stalled", z_hit)
            resid = abs(N * h(z_hit).imag - tgt) + N * abs(h(z_hit).real - target_mod)
            found.append((z_hit, resid))
    return found


def curved_model():
    """A degeneracy-weighted pair with quadratic and cubic exponents."""
    return ModelSpec(
        phases=(
            PhaseSpec("a", 1, (0.3j, 1 + 0.2j, 0.37 - 0.11j)),
            PhaseSpec("b", 3, (0.1 + 0j, -0.9 + 0.13j, -0.21 + 0.05j, 0.07j)),
        ),
        domain=Rectangle(-1, 1, -1, 1),
    )


def curved_curve(model):
    z0 = find_coexistence_point(model, 0, 1, 0.05 + 0j)
    return trace_curve(model, 0, 1, z0, step=2e-3, max_steps=300)


def _by_position(pairs):
    return sorted(pairs, key=lambda p: (p[0].real, p[0].imag))


@pytest.mark.parametrize("case", ["q12", "perturbed", "curved"])
def test_predict_two_phase_equals_scalar_reference(case):
    q12 = two_phase_model(q1=1, q2=2)
    if case == "q12":
        source, curve, N = q12, m2_curve(q12, 10**4, span=0.1), 10**4
    elif case == "perturbed":
        source = finite_volume(q12, L=300, d=1, tau=0.02, perturbation=random_perturbation(q12, 7))
        curve, N = m2_curve(q12, 300), 300
    else:
        source = curved_model()
        curve, N = curved_curve(source), 200
    want = reference_predict_two_phase(source, 0, 1, curve, N)
    got = predict_two_phase(source, 0, 1, curve, L=N, d=1)
    assert len(want) > 40
    assert _by_position((w.z, w.residual) for w in got.zeros) == _by_position(want)


def test_trace_samples_carry_exact_log_derivatives():
    model = curved_model()
    curve = curved_curve(model)
    for s in curve.samples:
        assert s.v_m == eval_v(model, 0, s.z) and s.v_n == eval_v(model, 1, s.z)


def test_predict_two_phase_resolution_error_names_the_reference_gap():
    model = curved_model()
    curve = curved_curve(model)
    with pytest.raises(ResolutionError) as want:
        reference_predict_two_phase(model, 0, 1, curve, 700)
    with pytest.raises(ResolutionError) as got:
        predict_two_phase(model, 0, 1, curve, L=700, d=1)
    assert str(got.value) == str(want.value)
    assert "t=0.414 and t=0.416" in str(got.value)  # a gap well inside the curve


def test_predict_two_phase_wrong_pair(m2):
    curve = m2_curve(m2, 10)
    with pytest.raises(ValidationError):
        predict_two_phase(m2, 0, 0, curve, L=10, d=1)


# ---------------------------------------------------------------------------
# Multiple-point predictions


def series_G(z):
    """Independent oracle: sum_m exp(omega^m z) = 3 sum_j z^{3j}/(3j)!."""
    total = np.zeros_like(np.asarray(z, dtype=complex))
    term = np.ones_like(total)
    total += term
    for j in range(1, 40):
        term = term * z**3 / ((3 * j - 2) * (3 * j - 1) * (3 * j))
        total += term
    return 3.0 * total


def test_predict_multipoint_small_disc_empty(m3):
    mp = find_multiple_point(m3, (0, 1, 2), 0.05 + 0.02j)
    with pytest.warns(UserWarning):
        zs = predict_multipoint(m3, mp, L=1000, d=1, rho_L=0.5 / 1000)
    assert len(zs) == 0
    # oracle: series winding on |zf| = 0.5 is zero
    s = np.linspace(0, 1, 4001)
    vals = series_G(0.5 * np.exp(2j * np.pi * s))
    total = np.unwrap(np.angle(vals))
    assert round((total[-1] - total[0]) / (2 * np.pi)) == 0


def test_predict_multipoint_count_matches_series_winding(m3):
    mp = find_multiple_point(m3, (0, 1, 2), 0.05 + 0.02j)
    N = 1000
    zs = predict_multipoint(m3, mp, L=N, d=1, rho_L=10.0 / N)
    s = np.linspace(0, 1, 20001)
    vals = series_G(10.0 * np.exp(2j * np.pi * s))
    total = np.unwrap(np.angle(vals))
    wind = round(float(total[-1] - total[0]) / (2 * np.pi))
    count_in_disc = sum(w.multiplicity for w in zs.zeros if abs(w.z - mp.z) * N <= 10.0)
    assert count_in_disc == wind
    assert wind > 0


def test_predict_multipoint_rotation_symmetry(m3):
    mp = find_multiple_point(m3, (0, 1, 2), 0.05 + 0.02j)
    N = 1000
    with pytest.warns(UserWarning, match="rescaled disc is small"):
        zs = predict_multipoint(m3, mp, L=N, d=1, rho_L=8.0 / N)
    zf = (zs.points() - mp.z) * N
    for z in zf:
        rotated = z * OMEGA
        if abs(rotated) <= 8.0 - 1e-9:
            assert np.min(np.abs(zf - rotated)) <= 1e-6


def test_predict_multipoint_with_phase_offsets():
    # constant imaginary exponent terms leave stability untouched but give
    # each phase a volume-dependent phase offset the prediction must track
    shift = 0.1 + 0.05j
    offs = (0.3j, 1.1j, -0.7j)
    m = ModelSpec(
        phases=tuple(
            PhaseSpec(f"p{k}", 1, (offs[k] - (OMEGA**k) * shift, OMEGA**k))
            for k in range(3)
        ),
        domain=Rectangle(-1, 1, -1, 1),
    )
    N = 500
    rho = math.log(N) / N
    mp = find_multiple_point(m, (0, 1, 2), shift + 0.02j)
    assert abs(mp.z - shift) <= 1e-10
    fvm = finite_volume(m, L=N, d=1, tau=1.0)
    box = Rectangle(shift.real - rho, shift.real + rho, shift.imag - rho, shift.imag + rho)
    located = find_zeros_region(fvm, box)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        predicted = predict_multipoint(m, mp, L=N, d=1, rho_L=1.2 * rho)
    loc = [z for z in located.points() if abs(z - mp.z) <= rho]
    assert len(loc) > 0
    bound = 5.0 * N ** (-4.0 / 3.0)
    for z in loc:
        assert np.min(np.abs(predicted.points() - z)) <= bound


def test_predict_multipoint_matches_brute_force(m3):
    # correspondence at the volume scale: each located zero sits within
    # N^{-(1+1/3)} (plus Taylor slack) of a predicted solution
    N = 1000
    rho = math.log(N) / N
    mp = find_multiple_point(m3, (0, 1, 2), 0.05 + 0.02j)
    fvm = finite_volume(m3, L=N, d=1, tau=1.0)
    box = Rectangle(-rho, rho, -rho, rho)
    located = find_zeros_region(fvm, box)
    with pytest.warns(UserWarning, match="rescaled disc is small"):
        predicted = predict_multipoint(m3, mp, L=N, d=1, rho_L=rho)
    loc = [z for z in located.points() if abs(z - mp.z) <= rho]
    assert len(loc) > 0
    bound = 5.0 * N ** (-4.0 / 3.0)
    for z in loc:
        assert np.min(np.abs(predicted.points() - z)) <= bound


# ---------------------------------------------------------------------------
# Asymptotes


def test_asymptotes_symmetric_degeneracies(m3):
    mp = find_multiple_point(m3, (0, 1, 2), 0.05 + 0.02j)
    lines = asymptote_lines(m3, mp)
    assert len(lines) == 3
    for ln in lines:
        assert abs(ln.origin_offset) <= 1e-14
        assert ln.shift_magnitude == 0.0
        assert abs(abs(ln.direction) - 1.0) <= 1e-14
    # directions are perpendicular to the sides of the conjugate triangle
    for ln in lines:
        a, b = ln.side
        side_vec = (m3.phases[a].log_weight_deriv(0j).conjugate()
                    - m3.phases[b].log_weight_deriv(0j).conjugate())
        dot = (ln.direction * side_vec.conjugate()).real
        assert abs(dot) <= 1e-12


def test_asymptotes_degeneracy_shifts():
    m = three_phase_model(qs=(1, 1, 2))
    mp = find_multiple_point(m, (0, 1, 2), 0.05 + 0.02j)
    lines = asymptote_lines(m, mp)
    sqrt3 = math.sqrt(3.0)
    shifts = sorted(abs(ln.shift_magnitude) for ln in lines)
    assert shifts[0] == pytest.approx(0.0, abs=1e-14)
    assert shifts[1] == pytest.approx(math.log(2) / sqrt3, abs=1e-10)
    assert shifts[2] == pytest.approx(math.log(2) / sqrt3, abs=1e-10)
    for ln in lines:
        assert abs(ln.origin_offset) == pytest.approx(abs(ln.shift_magnitude), abs=1e-12)


def test_asymptotes_quadruple_point():
    m = quadruple_model()
    mp = find_multiple_point(m, (0, 1, 2), 0.04 + 0.03j)
    assert mp.stable_set == (0, 1, 2, 3)
    lines = asymptote_lines(m, mp)
    assert len(lines) == 4
    diagonals = {cmath.exp(1j * math.pi * (2 * k + 1) / 4) for k in range(4)}
    for ln in lines:
        assert min(abs(ln.direction - d) for d in diagonals) <= 1e-12
        assert abs(ln.origin_offset) <= 1e-14


def test_asymptotes_refuse_collinear_derivatives():
    from pfzeros import ConvexityError, MultiplePoint

    mp = MultiplePoint(z=0j, stable_set=(0, 1, 2), v_values={0: -1 + 0j, 1: 0j, 2: 1 + 0j})
    with pytest.raises(ConvexityError):
        asymptote_lines(three_phase_model(), mp)


def test_asymptote_distance_helper():
    ln_dir = 1j  # vertical ray from 1+0j upward
    from pfzeros import AsymptoteLine

    ln = AsymptoteLine(side=(0, 1), origin_offset=1 + 0j, direction=ln_dir, shift_magnitude=0.0)
    assert ln.distance_to(1 + 5j) == pytest.approx(0.0, abs=1e-15)
    assert ln.distance_to(2 + 3j) == pytest.approx(1.0, abs=1e-15)
    assert ln.distance_to(1 - 2j) == pytest.approx(2.0, abs=1e-15)


# ---------------------------------------------------------------------------
# Tolerance function and matching


def test_delta_L_inner_branch(m2):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val = delta_L(m2, 0.001j, L=100, d=1, gamma_L=1 / 200, tau=0.1, kappa=1.0, Q=(0, 1))
    assert val == pytest.approx(math.exp(-10), rel=1e-12)


def test_delta_L_outer_branch(m2):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val = delta_L(m2, 0.018 + 0j, L=100, d=1, gamma_L=0.05, tau=0.1, kappa=1.0, Q=(0, 1))
    assert val == pytest.approx(100 * math.exp(-2.5), rel=1e-12)


def test_delta_L_excluded_third_phase(m3):
    z = -0.01 * OMEGA  # on the (0,1) ray, third phase within gamma/2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DomainError):
            delta_L(m3, z, L=100, d=1, gamma_L=0.05, tau=0.1, kappa=1.0, Q=(0, 1))


def test_delta_L_warns_on_bad_gamma(m2):
    with pytest.warns(UserWarning):
        delta_L(m2, 0.001j, L=100, d=1, gamma_L=1 / 200, tau=0.1, kappa=1.0, Q=(0, 1))


def test_match_zeros_identical(m2):
    fvm = finite_volume(m2, L=100, d=1, tau=1.0)
    zs = find_zeros_region(fvm, Rectangle(-0.1, 0.1, 0.0, 0.2))
    rep = match_zeros(zs, zs, tolerances=1e-12)
    assert rep.ok
    assert rep.max_distance == 0.0
    assert rep.min_located_spacing == pytest.approx(math.pi / 100, abs=1e-10)


def test_match_zeros_extra_predicted(m2):
    fvm = finite_volume(m2, L=100, d=1, tau=1.0)
    zs = find_zeros_region(fvm, Rectangle(-0.1, 0.1, 0.0, 0.2))
    extra = ZeroSet.build(
        list(zs.zeros) + [Zero(0.5 + 0.5j, 1, 0.0, "two_phase_eq")], zs.region, zs.L, zs.d
    )
    rep = match_zeros(extra, zs, tolerances=1e-10)
    assert len(rep.unmatched_predicted) == 1
    assert rep.unmatched_located == []
    assert extra.zeros[rep.unmatched_predicted[0]].z == 0.5 + 0.5j


def test_match_zeros_empty_predicted(m2):
    fvm = finite_volume(m2, L=100, d=1, tau=1.0)
    zs = find_zeros_region(fvm, Rectangle(-0.1, 0.1, 0.0, 0.2))
    empty = ZeroSet.build([], zs.region, zs.L, zs.d)
    rep = match_zeros(empty, zs, tolerances=[1.0])
    assert rep.pairs == []
    assert len(rep.unmatched_located) == 6


def test_degeneracy_audit_clean(m2):
    fvm = finite_volume(m2, L=100, d=1, tau=1.0)
    zs = find_zeros_region(fvm, Rectangle(-0.1, 0.1, 0.0, 0.2))
    rep = degeneracy_audit(fvm, zs, region_Q=(0, 1))
    assert rep.ok
    assert all(e.multiplicity == 1 for e in rep.entries)


def test_degeneracy_audit_flags_single_phase_zero(m2):
    fvm = finite_volume(m2, L=100, d=1, tau=1.0)
    fake = ZeroSet.build(
        [Zero(0.5 + 0j, 1, 0.0, "brute_force")], Rectangle(-1, 1, -1, 1), 100, 1
    )
    rep = degeneracy_audit(fvm, fake)
    assert not rep.ok
    assert any("single-phase" in v for v in rep.violations)
