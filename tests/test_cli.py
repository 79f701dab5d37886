import json
import math

import pytest

import pfzeros
from pfzeros import Rectangle, ValidationError, find_zeros_region, finite_volume
from pfzeros.cli import main, read_zeros_csv
from pfzeros.render import emit_svg

from conftest import lee_yang_model, three_phase_model, two_phase_model


def write_model(tmp_path, model, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(pfzeros.model_to_dict(model)))
    return str(path)


def test_cli_missing_model_file(tmp_path, capsys):
    rc = main(["check-assumptions", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_cli_inverted_box_rejected(tmp_path, capsys):
    mp = write_model(tmp_path, two_phase_model())
    rc = main(
        ["find-zeros", mp, "--L", "10", "--box=0.1,-0.1,0,0.2", "--out-dir", str(tmp_path)]
    )
    assert rc == 1


def test_cli_zero_on_contour_is_numerical_failure(tmp_path, capsys):
    mp = write_model(tmp_path, two_phase_model())
    edge = repr(math.pi / 200)
    rc = main(
        [
            "find-zeros",
            mp,
            "--L",
            "100",
            f"--box=-0.05,0.05,{edge},0.1",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


def test_cli_find_zeros_and_round_trip(tmp_path, capsys):
    mp = write_model(tmp_path, two_phase_model())
    out = tmp_path / "out"
    rc = main(
        ["find-zeros", mp, "--L", "100", "--box=-0.1,0.1,0.0,0.2", "--out-dir", str(out)]
    )
    assert rc == 0
    csv_path = out / "zeros_brute_L100d1.csv"
    assert csv_path.exists()
    back = read_zeros_csv(csv_path)
    m2 = two_phase_model()
    zs = find_zeros_region(finite_volume(m2, 100, 1, tau=1.0), Rectangle(-0.1, 0.1, 0.0, 0.2))
    assert len(back) == len(zs.zeros) == 6
    for a, b in zip(back, zs.zeros):
        assert a.z == b.z  # 17 significant digits round-trip exactly
        assert a.residual == b.residual
        assert a.multiplicity == b.multiplicity


@pytest.mark.parametrize(
    "model, argv",
    [
        ("two", ["predict-zeros", "--pair", "0,1", "--L", "0", "--box=-0.1,0.1,0,0.2"]),
        ("two", ["predict-zeros", "--pair", "0,1", "--L", "100", "--d", "-1", "--box=-0.1,0.1,0,0.2"]),
        ("two", ["density", "--pair", "0,1", "--at", "0,0", "--eps-list", "0.1", "--L-list", "0"]),
        ("three", ["covering", "--L", "0"]),
        ("three", ["covering", "--L", "1"]),
        ("three", ["multipoint", "--triple", "0,1,2", "--L", "0"]),
        ("lee-yang", ["lee-yang", "--L", "10", "--minus", "5", "--box=-0.05,0.05,0,1",
                      "--symmetric-seed", "3"]),
        ("two", ["trace-diagram", "--grid", "1"]),
        ("two_q12", ["find-zeros", "--L", "10", "--box=-0.1,0.1,0,0.2", "--max-depth", "-1"]),
        ("two_q12", ["compare", "--pair", "0,1", "--L", "10", "--box=-0.1,0.1,0,0.2",
                     "--max-depth", "-1"]),
    ],
)
def test_cli_out_of_range_input_exits_1(tmp_path, capsys, model, argv):
    models = {
        "two": two_phase_model(),
        "two_q12": two_phase_model(q1=1, q2=2),
        "three": three_phase_model(),
        "lee-yang": lee_yang_model(),
    }
    out = tmp_path / "out"
    rc = main([argv[0], write_model(tmp_path, models[model]), *argv[1:], "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_read_zeros_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "zeros.csv"
    path.write_text("re,im\n0.1,0.2\n")
    with pytest.raises(ValidationError, match="zeros.csv"):
        read_zeros_csv(path)


def test_cli_compare_workflow(tmp_path):
    mp = write_model(tmp_path, two_phase_model())
    out = tmp_path / "cmp"
    rc = main(
        [
            "compare",
            mp,
            "--pair",
            "0,1",
            "--L",
            "100",
            "--box=-0.1,0.1,0.0,0.2",
            "--out-dir",
            str(out),
            "--emit-svg",
        ]
    )
    assert rc == 0
    report = (out / "match_report.txt").read_text()
    assert "pairs: 6" in report
    assert "unmatched_predicted: 0" in report
    assert "violations: 0" in report
    svg = (out / "compare.svg").read_text()
    assert svg.count("<circle") == 12  # predicted and located markers overlap
    assert svg.startswith("<svg")


def test_cli_determinism_across_reruns(tmp_path):
    mp = write_model(tmp_path, two_phase_model())
    outs = []
    for tag in ("run1", "run2"):
        out = tmp_path / tag
        rc = main(
            [
                "compare",
                mp,
                "--pair",
                "0,1",
                "--L",
                "100",
                "--box=-0.1,0.1,0.0,0.2",
                "--out-dir",
                str(out),
            ]
        )
        assert rc == 0
        outs.append(out)
    for name in ("predicted.csv", "located.csv", "match_report.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_cli_trace_diagram_m3(tmp_path):
    mp = write_model(tmp_path, three_phase_model())
    out = tmp_path / "pd"
    rc = main(["trace-diagram", mp, "--grid", "21", "--out-dir", str(out), "--emit-svg"])
    assert rc == 0
    text = (out / "diagram.txt").read_text()
    assert "multiple_points: 1" in text
    assert (out / "curve_0.csv").exists()
    svg = (out / "diagram.svg").read_text()
    assert svg.count("<path") == 3
    assert svg.count('<rect x="') >= 2  # frame plus the multiple-point marker


def test_cli_predict_zeros(tmp_path):
    mp = write_model(tmp_path, two_phase_model())
    out = tmp_path / "pred"
    rc = main(
        [
            "predict-zeros",
            mp,
            "--pair",
            "0,1",
            "--L",
            "100",
            "--box=-0.1,0.1,0.0,0.2",
            "--out-dir",
            str(out),
        ]
    )
    assert rc == 0
    back = read_zeros_csv(out / "zeros_two_phase_L100d1.csv")
    assert len(back) == 6
    assert all(w.method == "two_phase_eq" for w in back)


def test_cli_check_assumptions(tmp_path):
    mp = write_model(tmp_path, three_phase_model())
    out = tmp_path / "chk"
    rc = main(["check-assumptions", mp, "--grid", "21", "--out-dir", str(out)])
    assert rc == 0
    text = (out / "assumptions.txt").read_text()
    assert "ok: True" in text
    alpha = float(text.split("alpha_estimate: ")[1].split("\n")[0])
    assert alpha == pytest.approx(math.sqrt(3), abs=1e-9)


def test_cli_density(tmp_path):
    mp = write_model(tmp_path, two_phase_model())
    out = tmp_path / "dens"
    rc = main(
        [
            "density",
            mp,
            "--pair",
            "0,1",
            "--at",
            "0,0",
            "--eps-list",
            "0.1",
            "--L-list",
            "200",
            "--out-dir",
            str(out),
        ]
    )
    assert rc == 0
    lines = (out / "density.csv").read_text().strip().splitlines()
    assert lines[0] == "epsilon,L,N,count,empirical,theoretical,abs_error"
    assert len(lines) == 2


def test_cli_multipoint_and_asymptotes(tmp_path):
    mp = write_model(tmp_path, three_phase_model(qs=(1, 1, 2)))
    out = tmp_path / "mp"
    rc = main(
        [
            "multipoint",
            mp,
            "--triple",
            "0,1,2",
            "--L",
            "1000",
            "--out-dir",
            str(out),
        ]
    )
    assert rc == 0
    text = (out / "multipoint.txt").read_text()
    sols = int(text.split("solutions: ")[1].split("\n")[0])
    wind = int(text.split("disc_winding: ")[1].split("\n")[0])
    assert sols == wind

    rc = main(["asymptotes", mp, "--triple", "0,1,2", "--out-dir", str(out)])
    assert rc == 0
    rows = (out / "asymptotes.csv").read_text().strip().splitlines()
    assert len(rows) == 4
    shifts = sorted(abs(float(r.split(",")[-1])) for r in rows[1:])
    assert shifts[-1] == pytest.approx(math.log(2) / math.sqrt(3), abs=1e-10)


def test_cli_lee_yang(tmp_path):
    mp = write_model(tmp_path, lee_yang_model())
    out = tmp_path / "ly"
    rc = main(
        [
            "lee-yang",
            mp,
            "--L",
            "100",
            "--tau",
            "0.2",
            "--box=-0.05,0.05,0.0,1.0",
            "--out-dir",
            str(out),
        ]
    )
    assert rc == 0
    text = (out / "lee_yang.txt").read_text()
    assert "on_axis: True" in text
    assert "count_unit_segment: 32" in text


def test_cli_covering(tmp_path):
    mp = write_model(tmp_path, three_phase_model())
    out = tmp_path / "cov"
    rc = main(["covering", mp, "--L", "1000", "--out-dir", str(out)])
    assert rc == 0
    assert "covered: True" in (out / "covering.txt").read_text()
    rc = main(["covering", mp, "--L", "1000", "--rho-scale", "0", "--out-dir", str(out)])
    assert rc == 0
    assert "covered: False" in (out / "covering.txt").read_text()
    rows = (out / "uncovered.csv").read_text().strip().splitlines()
    assert rows[0] == "re_z,im_z"
    assert len(rows) >= 2  # the multiple point itself is left uncovered


def test_emit_svg_empty_inputs():
    svg = emit_svg(None, [], Rectangle(-1, 1, -1, 1))
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "<circle" not in svg and "<path" not in svg


def test_emit_svg_counts(m2):
    from pfzeros import build_phase_diagram

    pd = build_phase_diagram(m2, grid=(15, 15))
    zs = find_zeros_region(finite_volume(m2, 100, 1, tau=1.0), Rectangle(-0.1, 0.1, 0.0, 0.2))
    svg = emit_svg(pd, [zs], m2.domain)
    assert svg.count("<path") == 1
    assert svg.count("<circle") == 6
