import json
import math
import re

import numpy as np
import pytest

import pfzeros
from pfzeros import Rectangle, ValidationError, find_zeros_region, finite_volume
from pfzeros.cli import main, read_zeros_csv, zeros_csv
from pfzeros.render import emit_svg

from conftest import lee_yang_model, three_phase_model, two_phase_model
from test_predict import curved_model


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
    z, multiplicity, residual, method = read_zeros_csv(csv_path)
    m2 = two_phase_model()
    zs = find_zeros_region(finite_volume(m2, 100, 1, tau=1.0), Rectangle(-0.1, 0.1, 0.0, 0.2))
    assert len(z) == len(zs) == 6
    assert z.tolist() == zs.z.tolist()  # 17 significant digits round-trip exactly
    assert residual.tolist() == zs.residual.tolist()
    assert multiplicity.tolist() == zs.multiplicity.tolist()
    assert method.tolist() == zs.method.tolist()


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
        ("two", ["density", "--pair", "0,1", "--at", "0,0", "--eps-list", "0.1",
                 "--L-list", "100,"]),
        ("lee-yang", ["lee-yang", "--L", "10", "--box=-0.05,0.05,0,1", "--symmetric-seed", "3",
                      "--perturb-seed", "4"]),
        # the (0,1) curve is the imaginary axis, which this box misses
        ("two", ["predict-zeros", "--pair", "0,1", "--L", "100", "--box=0.3,0.5,0,0.2"]),
        ("two", ["trace-diagram", "--step", "0"]),
        ("two", ["density", "--pair", "0,1", "--at", "0,0", "--eps-list", "0.1,x",
                 "--L-list", "100"]),
    ],
)
def test_cli_out_of_range_input_exits_1(tmp_path, capsys, model, argv):
    models = {
        "two": two_phase_model(),
        "three": three_phase_model(),
        "lee-yang": lee_yang_model(),
    }
    out = tmp_path / "out"
    rc = main([argv[0], write_model(tmp_path, models[model]), *argv[1:], "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


_ACCEPTED = {
    "check-assumptions": ("three", []),
    "find-zeros": ("two", ["--L", "10", "--box=-0.1,0.1,0,0.2"]),
    "predict-zeros": ("two", ["--pair", "0,1", "--L", "100", "--box=-0.1,0.1,0,0.2"]),
    "compare": ("two", ["--pair", "0,1", "--L", "10", "--box=-0.1,0.1,0,0.2"]),
    "density": ("two", ["--pair", "0,1", "--at", "0,0", "--eps-list", "0.1", "--L-list", "100"]),
    "multipoint": ("three", ["--triple", "0,1,2", "--L", "100"]),
    "asymptotes": ("three", ["--triple", "0,1,2"]),
    "lee-yang": ("lee-yang", ["--L", "10", "--box=-0.05,0.05,0,1"]),
    "covering": ("three", ["--L", "100"]),
}


@pytest.mark.parametrize(
    "command, option",
    [
        *((c, "--emit-svg") for c in ("check-assumptions", "predict-zeros", "density",
                                      "multipoint", "asymptotes", "lee-yang", "covering")),
        *(("predict-zeros", o) for o in ("--tau", "--kappa", "--theta", "--perturb-seed",
                                         "--perturb-degree")),
        *((c, "--kappa") for c in ("find-zeros", "multipoint", "lee-yang")),
        ("multipoint", "--theta"),
        ("density", "--tau"),
        ("find-zeros", "--max-depth"),
        ("compare", "--max-depth"),
    ],
)
def test_cli_options_a_workflow_does_not_read_are_usage_errors(tmp_path, capsys, command, option):
    models = {"two": two_phase_model(), "three": three_phase_model(), "lee-yang": lee_yang_model()}
    name, argv = _ACCEPTED[command]
    value = [] if option == "--emit-svg" else ["1"]
    out = tmp_path / "out"
    rc = main([command, write_model(tmp_path, models[name]), *argv, option, *value,
               "--out-dir", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"unrecognized arguments: {option}" in err
    assert not out.exists()


def test_cli_usage_errors_exit_1_and_help_exits_0(tmp_path, capsys):
    mp = write_model(tmp_path, two_phase_model())
    assert main(["find-zeros", mp, "--box=-0.1,0.1,0,0.2"]) == 1
    assert "the following arguments are required: --L" in capsys.readouterr().err
    assert main(["no-such-command", mp]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(SystemExit) as exc:
        main(["find-zeros", "--help"])
    assert exc.value.code == 0


def test_cli_help_and_unknown_commands_list_every_subcommand(capsys):
    names = ["check-assumptions", "trace-diagram", "find-zeros", "predict-zeros", "compare",
             "density", "multipoint", "asymptotes", "lee-yang", "covering"]
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert re.search(r"\{([a-z,-]+)\}", out).group(1).split(",") == names
    for name in names:
        assert re.search(rf"^    {name} ", out, re.MULTILINE)
    assert main(["no-such-command", "model.json"]) == 1
    err = capsys.readouterr().err
    assert re.findall(r"'([a-z-]+)'", err.partition("choose from")[2]) == names


@pytest.mark.parametrize(
    "model, argv, start",
    [
        ("two", ["density", "--pair", "0,1", "--at", "0,0", "--eps-list", "0.001",
                 "--L-list", "100"], "warning: eps=0.001, L=100: only "),
        ("three", ["multipoint", "--triple", "0,1,2", "--L", "100"], "warning: N*rho_L = "),
    ],
)
def test_cli_prints_each_warning_once(tmp_path, capsys, model, argv, start):
    models = {"two": two_phase_model(), "three": three_phase_model()}
    out = tmp_path / "out"
    rc = main([argv[0], write_model(tmp_path, models[model]), *argv[1:], "--out-dir", str(out)])
    assert rc == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(start)


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
    assert "violations: 0\nbox_winding: 6\nquadtree_located: 0\npair_table:" in report
    svg = (out / "compare.svg").read_text()
    assert svg.count("<circle") == 12  # predicted and located markers overlap
    assert svg.startswith("<svg")


def test_cli_compare_reports_delta_L_warnings_once(tmp_path, capsys):
    # gamma_L = 2 log N / N fails the growth condition N gamma_L / log L > 4 d;
    # delta_L sees all 64 predicted zeros in one call and warns once
    mp = write_model(tmp_path, two_phase_model())
    out = tmp_path / "cmp"
    argv = ["compare", mp, "--pair", "0,1", "--L", "1000", "--box=-0.1,0.1,0.0,0.2"]
    assert main([*argv, "--gamma-scale", "2", "--out-dir", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("warning: gamma_L=") and "growth condition" in err[0]
    assert "pairs: 64\n" in (out / "match_report.txt").read_text()


def test_cli_compare_reports_a_fallback_to_the_quadtree(tmp_path):
    # around the triple point the (0,1) equations predict 3 of the 9 zeros,
    # so the quadtree locates the other 6 and the match report shows the miss
    mp = write_model(tmp_path, three_phase_model())
    out = tmp_path / "cmp"
    box = "-0.1,0.1,-0.1,0.1"
    argv = ["compare", mp, "--pair", "0,1", "--L", "100", f"--box={box}", "--out-dir", str(out)]
    assert main(argv) == 0
    report = (out / "match_report.txt").read_text()
    assert "box_winding: 9\nquadtree_located: 6\n" in report
    assert "unmatched_located: 6\n" in report
    located = find_zeros_region(
        finite_volume(three_phase_model(), 100, 1, tau=1.0), Rectangle(*map(float, box.split(",")))
    )
    assert (out / "located.csv").read_text() == zeros_csv(located)


def test_cli_multipoint_reports_a_fallback_to_the_quadtree(tmp_path, monkeypatch):
    # with no asymptote seeds the quadtree locates the disc, and the count
    # is of the zeros of the box [-R, R]^2 about it
    monkeypatch.setattr(pfzeros.zeros, "_multipoint_seeds", lambda *a: np.empty(0, complex))
    mp = write_model(tmp_path, three_phase_model())
    out = tmp_path / "mp"
    assert main(["multipoint", mp, "--triple", "0,1,2", "--L", "100", "--rho-scale", "5",
                 "--out-dir", str(out)]) == 0
    text = (out / "multipoint.txt").read_text()
    assert text.endswith(
        "solutions: 18\ndisc_winding: 18\nquadtree_located: 20\n"
    )


def test_cli_compare_curved_off_centre(tmp_path):
    # the curve of curved_model crosses this box near its left edge, at
    # Re z ~ 0.07-0.11, bending as it goes
    mp = write_model(tmp_path, curved_model())
    out = tmp_path / "cmp"
    argv = ["compare", mp, "--pair", "0,1", "--L", "200", "--box=0.0,0.3,0.2,0.4"]
    assert main([*argv, "--out-dir", str(out)]) == 0
    report = (out / "match_report.txt").read_text()
    assert "pairs: 13\n" in report
    assert "unmatched_predicted: 0\n" in report
    assert "unmatched_located: 0\n" in report
    assert "violations: 0\n" in report


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
    method = read_zeros_csv(out / "zeros_two_phase_L100d1.csv")[3]
    assert method.tolist() == ["two_phase_eq"] * 6


def test_cli_predict_zeros_ends_at_the_multiple_point(tmp_path):
    # (1,2) coexist on the ray Im z = 0.02, Re z < 0.05 left of the triple
    # point s, where N i sqrt(3) (z - s) = i pi (2j+1); the coarse trace
    # stops a step past s, and no zero may come from that overshoot
    shift = 0.05 + 0.02j
    mp = write_model(tmp_path, three_phase_model(shift=shift))
    out = tmp_path / "pred"
    argv = ["predict-zeros", mp, "--pair", "1,2", "--L", "2000", "--box=-0.6,0.1,-0.6,0.3"]
    assert main([*argv, "--out-dir", str(out)]) == 0
    z = read_zeros_csv(out / "zeros_two_phase_L2000d1.csv")[0]
    got = sorted(z.tolist(), key=lambda z: -z.real)
    want = [shift - math.pi * (2 * j + 1) / (math.sqrt(3) * 2000) for j in range(358)]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12


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
    assert text.endswith(f"disc_winding: {wind}\nquadtree_located: 0\n")

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
    assert "max_abs_re: 0\n" in text
    assert "axis_sign_changes: 32\nbox_winding: 32\nquadtree_located: 0\n" in text
    rc = main(["lee-yang", mp, "--L", "100", "--tau", "0.2", "--box=0.01,0.05,0.0,1.0",
               "--out-dir", str(out)])
    assert rc == 0
    text = (out / "lee_yang.txt").read_text()
    assert text.endswith(
        "axis_sign_changes: 0\nbox_winding: 0\nquadtree_located: 0\n"
    )


def test_cli_lee_yang_checks_hypotheses_before_searching(tmp_path, capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched before the hypotheses were checked")

    for name in ("find_zeros_on_axis", "find_zeros_region", "_windings"):
        monkeypatch.setattr(pfzeros.zeros, name, no_search)
    mp = write_model(tmp_path, lee_yang_model())
    rc = main(["lee-yang", mp, "--L", "10", "--d", "2", "--tau", "2", "--box=-0.05,0.05,0,1",
               "--perturb-seed", "4", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert "reflection symmetry" in capsys.readouterr().err


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
