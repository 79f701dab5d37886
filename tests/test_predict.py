import cmath
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pfzeros.model as model_mod
import pfzeros.zeros as zeros_mod
from pfzeros import (
    DomainError,
    ModelSpec,
    NoConvergenceError,
    PhaseSpec,
    Rectangle,
    ValidationError,
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
from pfzeros.model import almost_stable_set, in_coexistence_strip

from conftest import OMEGA, three_phase_model, two_phase_model
from test_zeros import _build, axis_zeros


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
        covering_check(m3, L=L, d=d, omega_L=1.0, gamma_L=0.1, rho_L=0.1)
    with pytest.raises(ValidationError):
        density_convergence(m2, 0, 1, 0j, [0.1], [L], d)


def test_predict_two_phase_symmetric(m2):
    curve = m2_curve(m2, 100)
    zs = predict_two_phase(m2, 0, 1, curve, L=100, d=1)
    got = sorted((z for z in zs.z if 0 <= z.imag <= 0.2), key=lambda z: z.imag)
    want = axis_zeros(100)
    assert len(got) == len(want) == 6
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-10
    assert (zs.method == "two_phase_eq").all()


def test_predict_two_phase_degeneracy_shift():
    m = two_phase_model(q1=1, q2=2)
    curve = m2_curve(m, 100)
    zs = predict_two_phase(m, 0, 1, curve, L=100, d=1)
    got = sorted((z for z in zs.z if 0 <= z.imag <= 0.2), key=lambda z: z.imag)
    want = axis_zeros(100, q_ratio=2.0)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-10


def test_predict_two_phase_empty_on_small_segment(m2):
    curve = trace_curve(m2, 0, 1, 0j, step=0.005, max_steps=20)  # spans +-0.1
    zs = predict_two_phase(m2, 0, 1, curve, L=10, d=1)
    assert all(not (0 <= z.imag <= 0.1) for z in zs.z)


def test_predict_two_phase_sparse_curve_solved(m2):
    # theta advances by 20, more than 6 pi, between these samples
    curve = trace_curve(m2, 0, 1, 0j, step=0.01, max_steps=20)
    zs = predict_two_phase(m2, 0, 1, curve, L=1000, d=1)
    got = sorted((z for z in zs.z if 0 <= z.imag <= 0.2), key=lambda z: z.imag)
    want = axis_zeros(1000)
    assert len(got) == len(want) == 64
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-10


def test_predict_two_phase_either_orientation():
    # for the pair (1, 0) theta falls along the (0, 1) samples
    m = two_phase_model(q1=1, q2=2)
    curve = m2_curve(m, 100)
    fwd = predict_two_phase(m, 0, 1, curve, L=100, d=1).z
    bwd = predict_two_phase(m, 1, 0, curve, L=100, d=1).z
    assert len(fwd) == len(bwd) > 10
    assert np.abs(fwd - bwd).max() <= 1e-14


def test_predict_two_phase_rejects_non_monotone_samples(m2):
    curve = m2_curve(m2, 100)
    s = curve.samples
    bent = replace(curve, samples=s[:10] + [s[5]] + s[10:])
    with pytest.raises(ValidationError, match=f"t={s[5].t:.6g}, z="):
        predict_two_phase(m2, 0, 1, bent, L=100, d=1)


def test_predict_two_phase_from_fvm_matches_brute(m2):
    seeds = random_perturbation(m2, seed=42)
    fvm = finite_volume(m2, L=10, d=2, tau=2.0, perturbation=seeds, xi_strength=0.5)
    curve = m2_curve(m2, 100)
    predicted = predict_two_phase(fvm, 0, 1, curve)
    located = find_zeros_region(fvm, Rectangle(-0.1, 0.1, 0.0, 0.2))
    pred_in = [z for z in predicted.z if 0 <= z.imag <= 0.2]
    assert len(pred_in) == len(located)
    for z in located.z:
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
            raise ValueError(
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


def assert_matches_reference(source, got, want, N, tol=1e-10):
    """The Newton zeros solve N h(z) = log(q_n/q_m) + i pi (2j+1) to tol and
    lie one-to-one within the reference bisection's own stopping error,
    tol / (N |h'(z)|) from each side, of the reference zeros."""
    cm, cn = source.exponents[0], source.exponents[1]
    dm, dn = source.derivatives[0], source.derivatives[1]
    q = source.degeneracies
    ref = np.array([z for z, _ in want])
    assert len(got) == len(ref)
    nearest = set()
    for z in got.z.tolist():
        hz = _horner(cm, z) - _horner(cn, z)
        j = round((N * hz.imag / math.pi - 1) / 2)
        c_j = complex(math.log(q[1] / q[0]), math.pi * (2 * j + 1)) / N
        assert abs(N * (hz - c_j)) <= tol
        dist = np.abs(ref - z)
        k = int(dist.argmin())
        assert dist[k] <= 2 * tol / (N * abs(_horner(dm, z) - _horner(dn, z)))
        nearest.add(k)
    assert len(nearest) == len(ref)


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
    assert_matches_reference(source, got, want, N)


def test_trace_samples_carry_exact_log_derivatives():
    model = curved_model()
    curve = curved_curve(model)
    for s in curve.samples:
        assert s.v_m == eval_v(model, 0, s.z) and s.v_n == eval_v(model, 1, s.z)


def test_predict_two_phase_coarse_curve_matches_fine_reference():
    # at N=700 theta advances by more than pi per step on part of
    # curved_curve, so the reference bisection needs a trace ten times finer
    model = curved_model()
    z0 = find_coexistence_point(model, 0, 1, 0.05 + 0j)
    fine = trace_curve(model, 0, 1, z0, step=2e-4, max_steps=3000)
    want = reference_predict_two_phase(model, 0, 1, fine, 700)
    got = predict_two_phase(model, 0, 1, curved_curve(model), L=700, d=1)
    assert len(want) > 100
    assert_matches_reference(model, got, want, 700)


def test_predict_two_phase_newton_cap_carries_its_iterate(monkeypatch):
    # with a stop of 0 the rounding floor of N h keeps some zeros unconverged
    model = curved_model()
    curve = curved_curve(model)
    zs = predict_two_phase(model, 0, 1, curve, L=200, d=1).z
    monkeypatch.setattr(zeros_mod, "_TWO_PHASE_TOL", 0.0)
    with pytest.raises(NoConvergenceError, match="in 50 steps") as exc:
        predict_two_phase(model, 0, 1, curve, L=200, d=1)
    assert np.abs(zs - exc.value.last_iterate).min() <= 1e-12


def test_predict_two_phase_at_n_1e7_meets_the_closed_form():
    # |N c_j| is about 4e6 here, where a stop at |N(h - c_j)| <= 1e-10 lies
    # below the rounding of N h; the stop at 8 ulps of |N c_j| converges
    N = 10**7
    model = two_phase_model(q1=1, q2=2)
    box = Rectangle(-0.01, 0.01, 0.199, 0.2)
    curve = trace_curve(model, 0, 1, 0.1995j, step=5e-4, max_steps=2)
    zs = predict_two_phase(model, 0, 1, curve, L=N, d=1).within(box)
    k = np.arange(
        math.ceil((0.199 * 2 * N / math.pi - 1) / 2), math.floor((0.2 * 2 * N / math.pi - 1) / 2) + 1
    )
    want = (math.log(2) + 1j * math.pi * (2 * k + 1)) / (2 * N)
    assert len(zs) == k.size > 3000
    assert np.abs(zs.z - want).max() <= 1e-12


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
    count_in_disc = zs.multiplicity[np.abs(zs.z - mp.z) * N <= 10.0].sum()
    assert count_in_disc == wind
    assert wind > 0


def test_predict_multipoint_rotation_symmetry(m3):
    mp = find_multiple_point(m3, (0, 1, 2), 0.05 + 0.02j)
    N = 1000
    with pytest.warns(UserWarning, match="rescaled disc is small"):
        zs = predict_multipoint(m3, mp, L=N, d=1, rho_L=8.0 / N)
    zf = (zs.z - mp.z) * N
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
    loc = [z for z in located.z if abs(z - mp.z) <= rho]
    assert len(loc) > 0
    bound = 5.0 * N ** (-4.0 / 3.0)
    for z in loc:
        assert np.min(np.abs(predicted.z - z)) <= bound


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
    loc = [z for z in located.z if abs(z - mp.z) <= rho]
    assert len(loc) > 0
    bound = 5.0 * N ** (-4.0 / 3.0)
    for z in loc:
        assert np.min(np.abs(predicted.z - z)) <= bound


def test_predict_multipoint_polish_stops_at_a_few_ulps(m3, monkeypatch):
    # the rescaled zeros reach |zf| of about 230, where an iterate that has
    # settled can keep stepping by an ulp; such a start must stop there rather
    # than run all 80 polishing steps (which takes 225 kernel calls here)
    calls = []
    newton_step = zeros_mod._ExpSum.newton_step
    monkeypatch.setattr(zeros_mod._ExpSum, "newton_step",
                        lambda es, z: calls.append(z.size) or newton_step(es, z))
    N = 10000
    mp = find_multiple_point(m3, (0, 1, 2), 0.05 + 0.05j)
    zs = predict_multipoint(m3, mp, L=N, d=1, rho_L=25 * math.log(N) / N)
    assert len(zs) > 100
    assert len(calls) <= 110


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


def test_delta_L_array_equals_scalar_calls(m2):
    # the inner core, the outer shell and a point outside the region, many times over
    pts = [0.001j, 0.018 + 0j, 0.5 + 0.1j] * 7
    args = dict(L=100, d=1, gamma_L=0.05, tau=0.1, kappa=1.0, Q=(0, 1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = delta_L(m2, np.array(pts), **args)
    assert [str(w.message) for w in caught] == [
        "gamma_L=0.05 fails the growth condition at L=100 (N*gamma_L/log L = 1.09 <= 4)"
    ]
    want = []
    for z in pts:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                want.append(delta_L(m2, z, **args))
            except DomainError:
                want.append(math.nan)
    np.testing.assert_array_equal(got, want)
    assert got[:2].tolist() == [math.exp(-10), 100 * math.exp(-2.5)]
    assert np.isnan(got[2::3]).all()


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
    rows = [*zip(zs.z, zs.multiplicity, zs.residual, zs.method), (0.5 + 0.5j, 1, 0.0, "two_phase_eq")]
    extra = _build(rows, zs.region, zs.L, zs.d)
    rep = match_zeros(extra, zs, tolerances=1e-10)
    assert len(rep.unmatched_predicted) == 1
    assert rep.unmatched_located.size == 0
    assert extra.z[rep.unmatched_predicted[0]] == 0.5 + 0.5j


def test_match_zeros_empty_predicted(m2):
    fvm = finite_volume(m2, L=100, d=1, tau=1.0)
    zs = find_zeros_region(fvm, Rectangle(-0.1, 0.1, 0.0, 0.2))
    empty = _build([], zs.region, zs.L, zs.d)
    rep = match_zeros(empty, zs, tolerances=[1.0])
    assert rep.i.size == 0
    assert len(rep.unmatched_located) == 6


def _cubic_match_zeros(predicted, located, tolerances, c_match=10.0):
    """The matching as it was before the grid: one argmin over the full
    distance matrix per pair, and the n x n minimum spacing."""
    np_, nl = len(predicted), len(located)
    tol = np.asarray(tolerances, dtype=float)
    tol = np.zeros(np_) if np_ == 0 else np.broadcast_to(tol, (np_,))
    pp, ll = predicted.z, located.z
    pairs = []
    if np_ and nl:
        dist = np.abs(pp[:, None] - ll[None, :])
        work = dist.copy()
        for _ in range(min(np_, nl)):
            i, j = np.unravel_index(np.argmin(work), work.shape)
            pairs.append((int(i), int(j), float(dist[i, j]), float(tol[i])))
            work[i, :] = np.inf
            work[:, j] = np.inf
        pairs.sort()
    unmatched_p = sorted(set(range(np_)) - {p[0] for p in pairs})
    unmatched_l = sorted(set(range(nl)) - {p[1] for p in pairs})
    violations = [p for p in pairs if p[2] > c_match * p[3]]
    return pairs, unmatched_p, unmatched_l, violations, _brute_min_spacing(ll)


def _brute_min_spacing(pts):
    if len(pts) < 2:
        return math.inf
    d = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(d, np.inf)
    return float(d.min())


def _raw_zero_set(pts):
    """A ZeroSet holding exactly these points, duplicates included."""
    n = len(pts)
    z = np.array(pts, dtype=complex).reshape(-1)
    ones, box = np.ones(n, dtype=int), Rectangle(-4, 4, -4, 4)
    return ZeroSet(z, ones, np.zeros(n), np.full(n, "t", dtype=object), box, 1, 1, 1)


# half-integer lattice points give exact distance ties and duplicates
_lattice = st.builds(lambda x, y: complex(x, y) / 2, st.integers(-2, 2), st.integers(-2, 2))
_scattered = st.builds(complex, st.floats(-3, 3), st.floats(-3, 3))
_point_sets = st.one_of(
    st.lists(_lattice, max_size=30), st.lists(st.one_of(_lattice, _scattered), max_size=40)
)


@settings(max_examples=200, deadline=None)
@given(pp=_point_sets, ll=_point_sets, tols=st.lists(st.floats(0.0, 1.0), min_size=40, max_size=40))
def test_match_zeros_equals_cubic_reference(pp, ll, tols):
    predicted, located = _raw_zero_set(pp), _raw_zero_set(ll)
    tolerances = tols[: len(pp)]
    rep = match_zeros(predicted, located, tolerances, c_match=0.5)
    want = _cubic_match_zeros(predicted, located, tolerances, c_match=0.5)
    pairs = list(zip(*(c.tolist() for c in (rep.i, rep.j, rep.distance, rep.tol))))
    got = (
        pairs,
        rep.unmatched_predicted.tolist(),
        rep.unmatched_located.tolist(),
        [pairs[k] for k in rep.violations],
        rep.min_located_spacing,
    )
    assert got == want
    assert predicted.min_spacing() == _brute_min_spacing(predicted.z)


@pytest.mark.parametrize("batch", [1, 7, 64])
def test_min_spacing_block_by_block_equals_brute_force(monkeypatch, batch):
    # the closest pair may lie in any block of query points, or across two
    rng = np.random.default_rng(batch)
    pts = np.concatenate([rng.random(200) + 1j * rng.random(200), [0.3 + 0.3j, 0.3 + 0.3j + 1e-9]])
    monkeypatch.setattr(model_mod, "_BATCH", batch)
    for zs in (_raw_zero_set(pts), _raw_zero_set(pts[::-1]), _raw_zero_set(pts[:200])):
        assert zs.min_spacing() == _brute_min_spacing(zs.z)


def test_match_zeros_memory_at_scale():
    # the zeros of compare at N=5e4: 3,183 of them, matched one-to-one
    rng = np.random.default_rng(8)
    pts = rng.random(3183) * 0.2 + 1j * rng.random(3183) * 0.2
    predicted = _raw_zero_set(pts)
    located = _raw_zero_set(rng.permutation(pts + 1e-15 * rng.standard_normal(3183)))
    tracemalloc.start()
    try:
        rep = match_zeros(predicted, located, 1e-14)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.i.size == 3183
    assert peak < 5e6


def test_degeneracy_audit_clean(m2):
    fvm = finite_volume(m2, L=100, d=1, tau=1.0)
    zs = find_zeros_region(fvm, Rectangle(-0.1, 0.1, 0.0, 0.2))
    rep = degeneracy_audit(fvm, zs, region_Q=(0, 1))
    assert rep.ok
    assert (rep.multiplicity == 1).all()


def test_degeneracy_audit_flags_single_phase_zero(m2):
    fvm = finite_volume(m2, L=100, d=1, tau=1.0)
    fake = _build([(0.5 + 0j, 1, 0.0, "brute_force")], Rectangle(-1, 1, -1, 1), 100, 1)
    rep = degeneracy_audit(fvm, fake)
    assert not rep.ok
    assert rep.violations.tolist() == [0] and rep.isolated.tolist() == [0]


def _per_zero_degeneracy_audit(fvm, located, region_Q=None, omega_L=None):
    """The audit as it was, one zero at a time: each zero's almost-stable
    set, multiplicity check and isolated phase (None for none), and the
    indices of the zeros that violate either."""
    if omega_L is None:
        omega_L = math.log(fvm.N)
    eps_q = fvm.kappa / fvm.L
    eps_single = omega_L / fvm.N
    entries, violations = [], []
    for k, (z, mult) in enumerate(zip(located.z.tolist(), located.multiplicity.tolist())):
        q_set = tuple(sorted(almost_stable_set(fvm.base, z, eps_q)))
        bound = len(q_set) - 1
        if region_Q is not None:
            bound = min(bound, len(tuple(region_Q)) - 1)
        mult_ok = mult <= max(bound, 0)
        isolated = None
        if not in_coexistence_strip(fvm.base, z, eps_single):
            isolated = int(np.argmax(np.real(fvm.base.log_weights(z))))
        entries.append((z, mult, q_set, mult_ok, isolated))
        if not mult_ok or isolated is not None:
            violations.append(k)
    return entries, violations


@pytest.mark.parametrize("case", ["two_phase", "three_phase_disc", "scattered", "scattered_in_a_pair_region"])
def test_degeneracy_audit_equals_the_per_zero_loop(case):
    if case == "two_phase":
        fvm = finite_volume(two_phase_model(q1=1, q2=2), L=100, d=1, tau=1.0)
        zs, args = find_zeros_region(fvm, Rectangle(-0.1, 0.1, 0.0, 0.2)), ((0, 1),)
    elif case == "three_phase_disc":
        fvm = finite_volume(three_phase_model(), L=1000, d=1, tau=1.0)
        zs, args = find_zeros_region(fvm, Rectangle(-0.01, 0.01, -0.01, 0.01)), ((0, 1, 2),)
    else:
        # points on and off the phase boundaries, with multiplicities that
        # break the bound, audited with and without a region
        fvm = finite_volume(three_phase_model(), L=10, d=1, tau=1.0)
        rng = np.random.default_rng(3)
        z = np.concatenate([rng.uniform(-1, 1, 200) + 1j * rng.uniform(-1, 1, 200),
                            rng.uniform(0, 1, 100) * (-1 + 0j), [0j, 1e-3, 0.5j]])
        zs = _build(list(zip(z, rng.integers(1, 4, z.size), [0.0] * z.size, ["t"] * z.size)),
                    fvm.domain, fvm.L, fvm.d)
        args = (None, 0.3) if case == "scattered" else ((0, 1),)
    rep = degeneracy_audit(fvm, zs, *args)
    entries, violations = _per_zero_degeneracy_audit(fvm, zs, *args)
    stable = [tuple(np.flatnonzero(col).tolist()) for col in rep.stable.T]
    isolated = [None if k < 0 else k for k in rep.isolated.tolist()]
    got = list(zip(rep.z.tolist(), rep.multiplicity.tolist(), stable, rep.mult_ok.tolist(), isolated))
    assert got == entries
    assert rep.violations.tolist() == violations
    assert rep.ok == (not violations)
    assert not case.startswith("scattered") or len(violations) > 100
