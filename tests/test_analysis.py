import dataclasses
import math

import pytest

from pfzeros import (
    DomainError,
    HypothesisViolationError,
    ModelSpec,
    PhaseSpec,
    Rectangle,
    SingularityError,
    ValidationError,
    covering_check,
    find_multiple_points,
    find_zeros_region,
    finite_volume,
    lee_yang_hypotheses,
    lee_yang_report,
    random_perturbation,
    symmetric_pair_perturbation,
    vandermonde_report,
)
from pfzeros.model import in_coexistence_strip, in_two_phase_region

from conftest import lee_yang_model, three_phase_model


def test_vandermonde_two_phase(m2):
    fvm = finite_volume(m2, L=10, d=1, tau=1.0)
    rep = vandermonde_report(fvm, (0, 1), 0.01 + 0.02j)
    assert rep.b_values[0] == 1 + 0j and rep.b_values[1] == -1 + 0j
    assert rep.det_abs == pytest.approx(2.0, rel=1e-12)
    assert rep.det_pairwise == pytest.approx(2.0, rel=1e-12)
    inv_sqrt2 = 1 / math.sqrt(2)
    assert rep.inverse_norm == pytest.approx(inv_sqrt2, abs=1e-10)
    assert rep.inverse_bound == pytest.approx(inv_sqrt2, abs=1e-10)
    assert rep.bound_ok


def test_vandermonde_three_phase_det(m3):
    fvm = finite_volume(m3, L=10, d=1, tau=1.0)
    rep = vandermonde_report(fvm, (0, 1, 2), 0j)
    assert rep.det_abs == pytest.approx(math.sqrt(3) ** 3, rel=1e-12)
    assert rep.det_rel_err <= 1e-8
    assert rep.bound_ok


def test_vandermonde_strict_inequality_with_perturbation(m3):
    seeds = random_perturbation(m3, seed=9, degree=2)
    fvm = finite_volume(m3, L=10, d=1, tau=1.0, perturbation=seeds)
    rep = vandermonde_report(fvm, (0, 1, 2), 0j)
    assert rep.bound_ok
    assert rep.inverse_norm < rep.inverse_bound * (1 - 1e-9)


def test_vandermonde_near_singular():
    m = ModelSpec(
        phases=(PhaseSpec("a", 1, (0j, 1 + 0j)), PhaseSpec("b", 1, (0.05 + 0j, 1 + 0j))),
        domain=Rectangle(-1, 1, -1, 1),
    )
    fvm = finite_volume(m, L=5, d=1, tau=1.0)
    with pytest.raises(SingularityError):
        vandermonde_report(fvm, (0, 1), 0j)


def test_vandermonde_domain_error(m2):
    fvm = finite_volume(m2, L=100, d=1, tau=1.0)
    with pytest.raises(DomainError):
        vandermonde_report(fvm, (0, 1), 0.5 + 0j)


# ---------------------------------------------------------------------------
# Symmetric-model audit


def test_lee_yang_unperturbed(mly):
    fvm = finite_volume(mly, L=100, d=1, tau=0.2)
    zeros = find_zeros_region(fvm, Rectangle(-0.05, 0.05, 0.0, 1.0))
    rep = lee_yang_report(fvm, zeros, lee_yang_hypotheses(fvm, 0, 1))
    assert rep.max_abs_re <= 1e-12
    assert rep.count_unit_segment == 32  # odd multiples of pi/200 up to 1
    assert rep.on_axis


def test_lee_yang_symmetric_perturbation(mly):
    up, un = symmetric_pair_perturbation(seed=21)
    fvm = finite_volume(mly, L=10, d=2, tau=2.0, perturbation=[up, un])
    zeros = find_zeros_region(fvm, Rectangle(-0.05, 0.05, 0.0, 0.5))
    rep = lee_yang_report(fvm, zeros, lee_yang_hypotheses(fvm, 0, 1))
    assert rep.max_abs_re <= 10 * math.exp(-20)
    assert rep.on_axis


def test_lee_yang_refuses_asymmetric_degeneracies():
    m = lee_yang_model(q=1)
    bad = ModelSpec(
        phases=(m.phases[0], PhaseSpec("minus", 2, m.phases[1].exponent)),
        domain=m.domain,
        coordinate_map="exponential",
    )
    fvm = finite_volume(bad, L=10, d=1, tau=1.0)
    zeros = find_zeros_region(fvm, Rectangle(-0.05, 0.05, 0.0, 0.5))
    with pytest.raises(HypothesisViolationError):
        lee_yang_report(fvm, zeros, lee_yang_hypotheses(fvm, 0, 1))


def test_lee_yang_refuses_asymmetric_weights():
    m = ModelSpec(
        phases=(PhaseSpec("plus", 1, (0j, 1 + 0j)), PhaseSpec("minus", 1, (0.2j, -1 + 0j))),
        domain=Rectangle(-1, 1, -1, 1),
        coordinate_map="exponential",
    )
    fvm = finite_volume(m, L=10, d=1, tau=1.0)
    zeros = find_zeros_region(fvm, Rectangle(-0.05, 0.05, 0.0, 0.5))
    with pytest.raises(HypothesisViolationError):
        lee_yang_report(fvm, zeros, lee_yang_hypotheses(fvm, 0, 1))


def test_lee_yang_refuses_asymmetric_seeds(mly):
    seeds = random_perturbation(mly, seed=4)
    fvm = finite_volume(mly, L=10, d=1, tau=2.0, perturbation=seeds)
    zeros = find_zeros_region(fvm, Rectangle(-0.05, 0.05, 0.0, 0.5))
    with pytest.raises(HypothesisViolationError):
        lee_yang_report(fvm, zeros, lee_yang_hypotheses(fvm, 0, 1))


# ---------------------------------------------------------------------------
# Covering


def test_covering_two_phase_model(m2):
    N = 1000
    ln = math.log(N)
    rep = covering_check(
        m2, L=N, d=1, omega_L=ln, gamma_L=5 * ln / N, rho_L=ln / N, grid=(21, 21)
    )
    assert rep.covered
    assert rep.in_strip > 0


def test_covering_three_phase_defaults(m3):
    N = 1000
    ln = math.log(N)
    rep = covering_check(
        m3, L=N, d=1, omega_L=ln, gamma_L=5 * ln / N, rho_L=ln / N, grid=(41, 41)
    )
    assert rep.covered
    assert rep.chi_empirical < ln / N / (5 * ln / N) + 1e-9


def test_covering_rho_zero_uncovers_multiple_point(m3):
    N = 1000
    ln = math.log(N)
    rep = covering_check(
        m3, L=N, d=1, omega_L=ln, gamma_L=5 * ln / N, rho_L=0.0, grid=(41, 41)
    )
    assert not rep.covered
    assert all(abs(z) <= 0.05 for z in rep.uncovered)
    assert any(abs(z) <= 1e-12 for z in rep.uncovered)


def covering_reference(model, N, omega_L, gamma_L, rho_L, grid, multiple_points):
    """The covering check as a loop over the model domain's grid points with
    the scalar predicates: (checked, in_strip, uncovered, required_rho)."""
    pairs = [(m, n) for m in range(model.r) for n in range(m + 1, model.r)]
    checked = in_strip = 0
    uncovered, required_rho = [], 0.0
    for z in model.domain.grid(*grid).ravel():
        z = complex(z)
        checked += 1
        if not in_coexistence_strip(model, z, omega_L / N):
            continue
        in_strip += 1
        if any(in_two_phase_region(model, z, gamma_L, q) for q in pairs):
            continue
        dist = min((abs(z - mp.z) for mp in multiple_points), default=math.inf)
        required_rho = max(required_rho, dist)
        if dist >= rho_L:
            uncovered.append(z)
    return checked, in_strip, uncovered, required_rho


@pytest.mark.parametrize(
    "model, domain, rho_scale",
    [
        (three_phase_model(), Rectangle(-1, 1, -1, 1), 1.0),
        (three_phase_model(), Rectangle(-1, 1, -1, 1), 0.0),
        (three_phase_model(qs=(1, 2, 1), shift=0.1 + 0.05j), Rectangle(-0.6, 1.4, -0.55, 1.45), 0.5),
    ],
)
def test_covering_check_matches_point_loop(model, domain, rho_scale):
    model = dataclasses.replace(model, domain=domain)  # checked on its own domain
    N = 1000
    ln = math.log(N)
    scales = dict(omega_L=ln, gamma_L=5 * ln / N, rho_L=rho_scale * ln / N, grid=(41, 41))
    mps = find_multiple_points(model, (41, 41))
    rep = covering_check(model, L=N, d=1, **scales)
    want = covering_reference(model, N, multiple_points=mps, **scales)
    assert (rep.checked, rep.in_strip, rep.uncovered, rep.required_rho) == want


def test_covering_validates_scales(m3):
    with pytest.raises(ValidationError):
        covering_check(m3, L=10, d=1, omega_L=10.0, gamma_L=0.01, rho_L=0.1)
