"""Acceptance suite: every criterion at its stated tolerance, one printed
PASS/FAIL line per criterion (run with -s to see them)."""

import json
import math
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

import pfzeros
from pfzeros import (
    Rectangle,
    ZeroSet,
    asymptote_lines,
    build_phase_diagram,
    covering_check,
    degeneracy_audit,
    empirical_density,
    find_multiple_point,
    find_zeros_region,
    finite_volume,
    lee_yang_hypotheses,
    lee_yang_report,
    match_zeros,
    predict_multipoint,
    predict_two_phase,
    random_perturbation,
    symmetric_pair_perturbation,
    trace_curve,
    vandermonde_report,
    winding_number,
)
from pfzeros.cli import main as cli_main

from conftest import lee_yang_model, three_phase_model, two_phase_model


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"[criterion {num:>2}] FAIL: {desc}")
        raise
    print(f"[criterion {num:>2}] PASS: {desc}")


BOX = Rectangle(-0.1, 0.1, 0.0, 0.2)


def axis_zeros(N, q_ratio=1.0, im_max=0.2):
    out = []
    k = 0
    while True:
        y = math.pi * (2 * k + 1) / (2 * N)
        if y > im_max:
            return out
        out.append(complex(math.log(q_ratio) / (2 * N), y))
        k += 1


def m2_prediction(model, N, span=0.3):
    step = min(0.005, math.pi / (2 * N * 2.0))
    curve = trace_curve(model, 0, 1, 0j, step=step, max_steps=int(math.ceil(span / step)))
    return predict_two_phase(model, 0, 1, curve, L=N, d=1).within(BOX)


@pytest.fixture(scope="module")
def m2():
    return two_phase_model()


@pytest.fixture(scope="module")
def m3():
    return three_phase_model()


@pytest.fixture(scope="module")
def located_m2(m2):
    return {
        N: find_zeros_region(finite_volume(m2, N, 1, tau=1.0), BOX) for N in (10, 100, 1000)
    }


@pytest.fixture(scope="module")
def m3_multipoint_data(m3):
    N = 1000
    rho = math.log(N) / N
    mp = find_multiple_point(m3, (0, 1, 2), 0.05 + 0.02j)
    fvm = finite_volume(m3, N, 1, tau=1.0)
    box = Rectangle(-rho, rho, -rho, rho)
    located = find_zeros_region(fvm, box)
    keep = np.array([abs(z - mp.z) <= rho for z in located.z.tolist()], dtype=bool)
    cols = (located.z, located.multiplicity, located.residual, located.method)
    in_disc = ZeroSet.build(*(c[keep] for c in cols), box, N, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        predicted = predict_multipoint(m3, mp, N, 1, rho + 10.0 * N ** (-4.0 / 3.0))
    return {"N": N, "rho": rho, "mp": mp, "fvm": fvm, "located": in_disc, "predicted": predicted}


def test_criterion_1_two_phase_exactness(m2, located_m2):
    with criterion(1, "two-phase zeros exact for N in {10,100,1000}"):
        for N in (10, 100, 1000):
            want = axis_zeros(N)
            got = located_m2[N]
            assert len(got) == len(want)
            for g, w in zip(sorted(got.z, key=lambda z: z.imag), want):
                assert abs(g - w) <= 1e-10
            predicted = m2_prediction(m2, N)
            assert len(predicted) == len(want)
            for g, w in zip(sorted(predicted.z, key=lambda z: z.imag), want):
                assert abs(g - w) <= 1e-10
            rep = match_zeros(predicted, got, tolerances=1e-10, c_match=1.0)
            assert rep.ok
            assert rep.max_distance <= 1e-10


def test_criterion_2_degeneracy_shift():
    with criterion(2, "q=(1,2) shifts Re to ln2/200, Im unchanged"):
        m = two_phase_model(q1=1, q2=2)
        fvm = finite_volume(m, 100, 1, tau=1.0)
        zs = find_zeros_region(fvm, BOX)
        want = axis_zeros(100, q_ratio=2.0)
        assert len(zs) == len(want)
        for g, w in zip(sorted(zs.z, key=lambda z: z.imag), want):
            assert abs(g.real - math.log(2) / 200) <= 1e-10
            assert abs(g.imag - w.imag) <= 1e-10


def test_criterion_3_perturbation_robustness(m2):
    with criterion(3, "5 random perturbations: zeros within 10 e^{-20} of predictions"):
        predicted = m2_prediction(m2, 100)
        for seed in range(5):
            fvm = finite_volume(
                m2,
                L=10,
                d=2,
                tau=2.0,
                perturbation=random_perturbation(m2, seed),
                xi_strength=0.5,
            )
            located = find_zeros_region(fvm, BOX)
            rep = match_zeros(predicted, located, tolerances=math.exp(-20), c_match=10.0)
            assert rep.unmatched_located.size == rep.unmatched_predicted.size == 0
            assert rep.violations.size == 0
            assert rep.max_distance <= 10 * math.exp(-20)
            assert rep.min_located_spacing >= 0.5 * math.pi / fvm.N


def test_criterion_4_density(m2):
    with criterion(4, "zero density 0.32 vs 1/pi at N=1000; refined at N=10000"):
        for N, eps, tol in ((1000, 0.1, 0.002), (10000, 0.05, 0.01 / math.pi)):
            half = 1.05 * eps
            box = Rectangle(-half, half, -half, half)
            zs = find_zeros_region(finite_volume(m2, N, 1, tau=1.0), box)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sample = empirical_density(zs, 0j, eps, N, 1, model=m2, pair=(0, 1))
            assert sample.theoretical == pytest.approx(1 / math.pi, rel=1e-12)
            if N == 1000:
                assert sample.count == 64
                assert sample.empirical == pytest.approx(0.32, abs=1e-12)
            assert sample.abs_error <= tol


def test_criterion_5_multiple_point(m3_multipoint_data):
    with criterion(5, "rescaled-equation solutions match brute force near z_M"):
        data = m3_multipoint_data
        N, rho = data["N"], data["rho"]
        located, predicted = data["located"], data["predicted"]
        wind = winding_number(data["fvm"], (data["mp"].z, rho))
        assert located.total_multiplicity() == wind
        assert wind > 0
        rep = match_zeros(predicted, located, tolerances=5.0 * N ** (-4.0 / 3.0), c_match=1.0)
        assert rep.unmatched_located.size == 0
        assert rep.violations.size == 0
        assert rep.max_distance <= 5.0 * N ** (-4.0 / 3.0)


def test_criterion_6_asymptotes():
    with criterion(6, "distant rescaled zeros track the shifted half-lines"):
        N = 1000
        rho = math.log(N) / N
        m = three_phase_model(qs=(1, 1, 2))
        mp = find_multiple_point(m, (0, 1, 2), 0.05 + 0.02j)
        lines = asymptote_lines(m, mp)
        shifts = sorted(abs(ln.shift_magnitude) for ln in lines)
        assert shifts[0] <= 1e-14
        for s in shifts[1:]:
            assert abs(s - math.log(2) / math.sqrt(3)) <= 1e-10
        fvm = finite_volume(m, N, 1, tau=1.0)
        box = Rectangle(-rho, rho, -rho, rho)
        located = find_zeros_region(fvm, box)
        in_annulus = [
            (z - mp.z) * N
            for z in located.z
            if 5.0 <= abs(z - mp.z) * N <= N * rho
        ]
        assert in_annulus
        for zf in in_annulus:
            assert min(ln.distance_to(zf) for ln in lines) <= 0.1


def test_criterion_7_degeneracy_bound(m2, located_m2, m3_multipoint_data):
    with criterion(7, "multiplicity bounds and single-phase exclusion"):
        for N in (10, 100, 1000):
            fvm = finite_volume(m2, N, 1, tau=1.0)
            rep = degeneracy_audit(fvm, located_m2[N], region_Q=(0, 1))
            assert rep.ok
            assert (rep.multiplicity == 1).all()
        rep = degeneracy_audit(
            m3_multipoint_data["fvm"], m3_multipoint_data["located"], region_Q=(0, 1, 2)
        )
        assert rep.ok
        assert (rep.multiplicity <= 2).all()
        assert (rep.isolated == -1).all()


def test_criterion_8_curve_tracer(m2, m3):
    with criterion(8, "tracer hugs the axis; triple arcs meet at 2 pi/3"):
        curve = trace_curve(m2, 0, 1, 0j, step=0.01, max_steps=100)
        pts = curve.points()
        assert np.abs(pts.real).max() <= 1e-9
        assert abs(curve.arc_length - 2.0) <= 1e-6
        pd = build_phase_diagram(m3, grid=(21, 21))
        assert len(pd.multiple_points) == 1
        assert len(pd.multiple_points[0].incident_arcs) == 3
        assert abs(pd.min_tangent_angle - 2 * math.pi / 3) <= 1e-6


def test_criterion_9_vandermonde(m2, m3):
    with criterion(9, "power-matrix inverse bound: tight 2x2, strict 3x3"):
        fvm2 = finite_volume(m2, 10, 1, tau=1.0)
        rep2 = vandermonde_report(fvm2, (0, 1), 0.01j)
        inv_sqrt2 = 1 / math.sqrt(2)
        assert abs(rep2.inverse_norm - inv_sqrt2) <= 1e-10
        assert abs(rep2.inverse_bound - inv_sqrt2) <= 1e-10
        assert rep2.det_rel_err <= 1e-8
        fvm3 = finite_volume(
            m3, 10, 1, tau=1.0, perturbation=random_perturbation(m3, 9, degree=2)
        )
        rep3 = vandermonde_report(fvm3, (0, 1, 2), 0j)
        assert rep3.det_rel_err <= 1e-8
        assert rep3.inverse_norm < rep3.inverse_bound
        assert rep3.bound_ok


def test_criterion_10_local_lee_yang():
    with criterion(10, "20 symmetric perturbations keep zeros on the axis"):
        mly = lee_yang_model()
        box = Rectangle(-0.05, 0.05, 0.0, 1.0)
        expected_count = math.floor(100 / math.pi)
        for seed in range(20):
            up, un = symmetric_pair_perturbation(seed)
            fvm = finite_volume(mly, L=10, d=2, tau=2.0, perturbation=[up, un])
            zs = find_zeros_region(fvm, box)
            rep = lee_yang_report(fvm, zs, lee_yang_hypotheses(fvm, 0, 1))
            assert rep.max_abs_re <= 10 * math.exp(-20)
            assert abs(rep.count_unit_segment - expected_count) <= 1


def test_criterion_11_covering(m3):
    with criterion(11, "strip covered by shells and discs; rho=0 exposes z_M"):
        N = 1000
        ln_n = math.log(N)
        rep = covering_check(
            m3, L=N, d=1,
            omega_L=ln_n, gamma_L=5 * ln_n / N, rho_L=ln_n / N, grid=(41, 41),
        )
        assert rep.covered
        rep0 = covering_check(
            m3, L=N, d=1,
            omega_L=ln_n, gamma_L=5 * ln_n / N, rho_L=0.0, grid=(41, 41),
        )
        assert not rep0.covered
        assert all(abs(z) <= 0.05 for z in rep0.uncovered)
        assert any(abs(z) <= 1e-12 for z in rep0.uncovered)


def test_criterion_12_determinism(tmp_path, m2):
    with criterion(12, "two identical reruns emit byte-identical CSVs"):
        model_path = tmp_path / "m2.json"
        model_path.write_text(json.dumps(pfzeros.model_to_dict(m2)))
        m3_path = tmp_path / "m3.json"
        m3_path.write_text(json.dumps(pfzeros.model_to_dict(three_phase_model())))
        outs = []
        for tag in ("run1", "run2"):
            out = tmp_path / tag
            rc = cli_main(
                [
                    "compare", str(model_path),
                    "--pair", "0,1", "--L", "100", "--box=-0.1,0.1,0.0,0.2",
                    "--out-dir", str(out),
                ]
            )
            assert rc == 0
            rc = cli_main(
                [
                    "multipoint", str(m3_path),
                    "--triple", "0,1,2", "--L", "1000",
                    "--out-dir", str(out),
                ]
            )
            assert rc == 0
            rc = cli_main(
                [
                    "density", str(model_path),
                    "--pair", "0,1", "--at", "0,0", "--eps-list", "0.1",
                    "--L-list", "200", "--out-dir", str(out),
                ]
            )
            assert rc == 0
            outs.append(out)
        names = [
            "predicted.csv", "located.csv", "match_report.txt",
            "zeros_multipoint_L1000d1.csv", "multipoint.txt", "density.csv",
        ]
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
