import math
import tracemalloc

import pytest

import pfzeros.zeros as zeros_mod

from pfzeros import (
    ContourDegeneracyError,
    CoverageError,
    ModelSpec,
    PhaseSpec,
    Rectangle,
    density_convergence,
    empirical_density,
    find_zeros_region,
    finite_volume,
    theoretical_density,
)
from pfzeros.cli import main

from test_cli import write_model


def test_theoretical_density_values(m2, m3):
    assert theoretical_density(m2, 0, 1, 0.3j) == pytest.approx(1 / math.pi, rel=1e-14)
    assert theoretical_density(m3, 0, 1, 0j) == pytest.approx(
        math.sqrt(3) / (2 * math.pi), rel=1e-14
    )
    lopsided = ModelSpec(
        phases=(PhaseSpec("a", 1, (0j, 2 + 0j)), PhaseSpec("b", 1, (0j, -1 + 0j))),
        domain=Rectangle(-1, 1, -1, 1),
    )
    assert theoretical_density(lopsided, 0, 1, 0j) == pytest.approx(
        3 / (2 * math.pi), rel=1e-14
    )


def test_theoretical_density_scale_covariance():
    lam = 2.0
    m = ModelSpec(
        phases=(PhaseSpec("a", 1, (0j, lam)), PhaseSpec("b", 1, (0j, -lam))),
        domain=Rectangle(-1, 1, -1, 1),
    )
    assert theoretical_density(m, 0, 1, 0.1j) == pytest.approx(lam / math.pi, rel=1e-14)


def test_empirical_density_m2_counts(m2):
    # oracle: odd multiples of pi/2000 inside |z| < 0.1, both signs: 64 points
    fvm = finite_volume(m2, L=1000, d=1, tau=1.0)
    zs = find_zeros_region(fvm, Rectangle(-0.105, 0.105, -0.105, 0.105))
    sample = empirical_density(zs, 0j, 0.1, 1000, 1, model=m2, pair=(0, 1))
    assert sample.count == 64
    assert sample.empirical == pytest.approx(0.32, abs=1e-12)
    assert abs(sample.empirical - 1 / math.pi) <= 0.002


def test_empirical_density_warns_below_spacing(m2):
    fvm = finite_volume(m2, L=1000, d=1, tau=1.0)
    zs = find_zeros_region(fvm, Rectangle(-0.02, 0.02, -0.02, 0.02))
    with pytest.warns(UserWarning):
        sample = empirical_density(zs, 0j, math.pi / 2000 * 0.9, 1000, 1)
    assert sample.count == 0
    assert sample.warned


def test_empirical_density_coverage_error(m2):
    fvm = finite_volume(m2, L=100, d=1, tau=1.0)
    zs = find_zeros_region(fvm, Rectangle(-0.1, 0.1, 0.0, 0.2))
    with pytest.raises(CoverageError):
        empirical_density(zs, 0j, 0.05, 100, 1)


def test_density_convergence_table(m2):
    rows = density_convergence(m2, 0, 1, 0j, eps_list=[0.1], L_list=[200, 1000], d=1)
    assert len(rows) == 2
    by_L = {r.L: r for r in rows}
    assert by_L[1000].count == 64
    assert by_L[1000].abs_error == pytest.approx(abs(0.32 - 1 / math.pi), abs=1e-12)
    for r in rows:
        assert r.abs_error <= r.envelope


def _closed_form_count(N, radius):
    """Zeros (ln 2 + i pi (2k+1)) / (2N) of e^{Nz} + 2 e^{-Nz} strictly
    inside |z| < radius, counted in plain Python."""
    kmax = int(2 * N * radius / math.pi) + 1
    return sum(
        abs(complex(math.log(2), math.pi * (2 * k + 1)) / (2 * N)) < radius
        for k in range(-kmax - 1, kmax + 1)
    )


@pytest.mark.parametrize("N", [1000, 10000])
def test_density_counts_equal_the_closed_form(m2_q12, N):
    (row,) = density_convergence(m2_q12, 0, 1, 0j, eps_list=[0.1], L_list=[N], d=1)
    assert row.count == _closed_form_count(N, 0.1) > 60


def test_a_density_circle_through_a_zero_is_a_typed_error(m2_q12, tmp_path, capsys):
    # zeros k = 0 and k = -1 both lie on the circle |z| = |z_0|
    radius = abs(complex(math.log(2), math.pi) / 200)
    with pytest.raises(ContourDegeneracyError):
        density_convergence(m2_q12, 0, 1, 0j, eps_list=[radius], L_list=[100], d=1)
    argv = ["density", write_model(tmp_path, m2_q12), "--pair", "0,1", "--at", "0,0",
            "--eps-list", repr(radius), "--L-list", "100", "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_density_winds_one_circle_and_locates_nothing(m2_q12, kernel_counts):
    # the locate-two-phase density invocation at N=1e4
    (row,) = density_convergence(m2_q12, 0, 1, 0j, eps_list=[0.1], L_list=[10000], d=1)
    assert row.count == 636
    assert kernel_counts["contours"] == 1 and kernel_counts["splits"] == 0
    assert kernel_counts["polished"] == 0
    assert kernel_counts["points"] <= 400  # 201 measured


def test_density_counts_past_a_million_nodes_in_flat_memory(m2_q12, kernel_counts):
    N, eps = 10**7, 0.015
    tracemalloc.start()
    try:
        (row,) = density_convergence(m2_q12, 0, 1, 0j, eps_list=[eps], L_list=[N], d=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the zeros (log 2 + i pi (2k + 1)) / (2N) of e^{Nz} + 2 e^{-Nz}
    K = int(eps * N / math.pi) + 1
    closed = sum(abs(complex(math.log(2), math.pi * (2 * k + 1))) < 2 * N * eps for k in range(-K, K))
    assert row.count == closed == 95_492
    assert peak < 20e6
    assert kernel_counts["largest_call"] <= zeros_mod._BATCH + 1


def test_density_at_ten_million_counts_the_closed_form_in_few_points(m2_q12, kernel_counts):
    # the two crossings of the coexistence line cost O(log N) pieces each
    N, eps = 10**7, 0.1
    (row,) = density_convergence(m2_q12, 0, 1, 0j, eps_list=[eps], L_list=[N], d=1)
    # the odd m with |ln 2 + i pi m| < 2 N eps, as _closed_form_count counts them
    x = math.sqrt((2 * N * eps) ** 2 - math.log(2) ** 2) / math.pi
    assert row.count == 2 * math.ceil((x - 1) / 2) == 636_620
    assert kernel_counts["points"] <= 720  # 357 measured


def test_density_convergence_warns_on_tiny_disc(m2):
    with pytest.warns(UserWarning):
        rows = density_convergence(m2, 0, 1, 0j, eps_list=[0.05], L_list=[10], d=1)
    assert rows[0].warned


def test_density_positivity_floor(m3):
    # limiting density along any coexistence ray is at least alpha/(2 pi)
    from pfzeros import check_assumption_A, find_coexistence_point

    alpha = check_assumption_A(m3, grid=(13, 13)).alpha_estimate
    z = find_coexistence_point(m3, 0, 1, 0.26 - 0.42j)
    assert theoretical_density(m3, 0, 1, z) >= alpha / (2 * math.pi) - 1e-12
