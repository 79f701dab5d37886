"""Zero sets kept in columns: the column writers against per-row reference
writers, on drawn columns that repeat their values and on the CLI's own
artifacts; ZeroSet.within against a rebuild of the rows it keeps, ZeroSet
equality and its row view against the Zero rows, and the per-zero work of
the CLI's prediction and comparison and of the library calls on its sets."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pfzeros import (
    MatchReport,
    Rectangle,
    Zero,
    ZeroSearch,
    ZeroSet,
    cli,
    degeneracy_audit,
    finite_volume,
    match_zeros,
    render,
)
from pfzeros.analysis import CoveringReport
from pfzeros.cli import (
    ZEROS_HEADER,
    curve_csv,
    main,
    match_report_text,
    read_zeros_csv,
    uncovered_csv,
    zeros_csv,
)
from pfzeros.diagram import (
    TERM_DOMAIN,
    CoexistenceCurve,
    CurveSample,
    MultiplePoint,
    PhaseDiagram,
    Termination,
)
from pfzeros.render import emit_svg

from conftest import three_phase_model, two_phase_model
from test_cli import write_model

# ---------------------------------------------------------------------------
# Per-row reference writers: the writers as they were, one row at a time


def _g17(x):
    return format(float(x), ".17g")


def _rows(zs):
    """The rows (z, multiplicity, residual, method) of a zero set."""
    return zip(zs.z.tolist(), zs.multiplicity.tolist(), zs.residual.tolist(), zs.method.tolist())


def reference_zeros_csv(zs):
    lines = [ZEROS_HEADER]
    for z, mult, res, method in _rows(zs):
        lines.append(f"{_g17(z.real)},{_g17(z.imag)},{mult},{_g17(res)},{method}")
    return "\n".join(lines) + "\n"


def reference_match_report_text(rep, predicted, found):
    located = found.zeros
    pairs = list(zip(rep.i.tolist(), rep.j.tolist(), rep.distance.tolist(), rep.tol.tolist()))
    lines = [
        f"pairs: {len(pairs)}",
        f"unmatched_predicted: {len(rep.unmatched_predicted)}",
        f"unmatched_located: {len(rep.unmatched_located)}",
        f"min_located_spacing: {_g17(rep.min_located_spacing)}",
        f"max_distance: {_g17(max((p[2] for p in pairs), default=0.0))}",
        f"c_match: {_g17(rep.c_match)}",
        f"violations: {sum(p[2] > rep.c_match * p[3] for p in pairs)}",
        f"box_winding: {found.box_winding}",
        f"quadtree_located: {found.quadtree_located}",
        "pair_table: predicted_idx,located_idx,distance,delta_L",
    ]
    for pi, li, dist, tol in pairs:
        lines.append(f"  {pi},{li},{_g17(dist)},{_g17(tol)}")
    for i in rep.unmatched_predicted.tolist():
        z = predicted.z[i]
        lines.append(f"unmatched_predicted_at: {_g17(z.real)},{_g17(z.imag)}")
    for i in rep.unmatched_located.tolist():
        z = located.z[i]
        lines.append(f"unmatched_located_at: {_g17(z.real)},{_g17(z.imag)}")
    return "\n".join(lines) + "\n"


def reference_curve_csv(curve):
    rows = ((s.t, s.z.real, s.z.imag, s.v_m.real, s.v_m.imag, s.v_n.real, s.v_n.imag) for s in curve.samples)
    return "".join(["t,re_z,im_z,re_vm,im_vm,re_vn,im_vn\n", *(",".join(map(_g17, r)) + "\n" for r in rows)])


def reference_uncovered_csv(rep):
    return "".join(["re_z,im_z\n", *(f"{_g17(z.real)},{_g17(z.imag)}\n" for z in rep.uncovered)])


_CURVE_COLORS = ("#1f77b4", "#2ca02c", "#9467bd", "#8c564b", "#e377c2", "#17becf")
_COLORS = {"brute_force": "#d62728", "two_phase_eq": "#ff7f0e", "multipoint_eq": "#bcbd22"}


def reference_emit_svg(diagram, zero_sets, viewport):
    width = height = 640
    pad = 30
    sx, sy = (width - 2 * pad) / viewport.width, (height - 2 * pad) / viewport.height

    def m(z):
        return pad + (z.real - viewport.re_lo) * sx, height - pad - (z.imag - viewport.im_lo) * sy

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    if viewport.re_lo < 0 < viewport.re_hi:
        x0, _ = m(0j)
        parts.append(
            f'<line x1="{x0:.2f}" y1="{pad}" x2="{x0:.2f}" y2="{height - pad}" '
            'stroke="#ccc" stroke-width="1"/>'
        )
    if viewport.im_lo < 0 < viewport.im_hi:
        _, y0 = m(0j)
        parts.append(
            f'<line x1="{pad}" y1="{y0:.2f}" x2="{width - pad}" y2="{y0:.2f}" '
            'stroke="#ccc" stroke-width="1"/>'
        )
    parts.append(
        f'<text x="{pad}" y="{height - 8}" font-size="11" fill="#333">'
        f"re in [{viewport.re_lo:g}, {viewport.re_hi:g}], "
        f"im in [{viewport.im_lo:g}, {viewport.im_hi:g}]</text>"
    )
    if diagram is not None:
        for k, curve in enumerate(diagram.curves):
            color = _CURVE_COLORS[k % len(_CURVE_COLORS)]
            pts = [m(s.z) for s in curve.samples]
            if len(pts) < 2:
                continue
            d = "M " + " L ".join(f"{x:.2f} {y:.2f}" for x, y in pts)
            parts.append(f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for mp in diagram.multiple_points:
            x, y = m(mp.z)
            parts.append(
                f'<rect x="{x - 4:.2f}" y="{y - 4:.2f}" width="8" height="8" '
                'fill="none" stroke="#000" stroke-width="1.5"/>'
            )
    for zs in zero_sets:
        for z, _, _, method in _rows(zs):
            if not viewport.contains(z):
                continue
            x, y = m(z)
            color = _COLORS.get(method, "#000")
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.2" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Drawn zero sets

_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308]
_coord = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGES),
                   st.floats(-1.5, 1.5))
_residual = st.one_of(st.floats(), st.sampled_from(_EDGES + [math.nan, math.inf, -math.inf]))
_method = st.sampled_from(["brute_force", "two_phase_eq", "multipoint_eq", "other"])
_row = st.tuples(st.builds(complex, _coord, _coord), st.integers(1, 4), _residual, _method)
# a small pool of values, so that a column drawn from it repeats its values
# and its signed zeros, NaN and infinities, as the columns of a zero table on
# a straight phase boundary repeat Re z and the residuals
_POOL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 0.25, -1.0986122886681098]
_pooled = st.sampled_from(_POOL)
_pooled_row = st.tuples(st.builds(complex, _pooled, _pooled), st.integers(1, 2), _pooled, _method)


def _zero_rows(max_size):
    """The rows of a zero set: drawn freely, or every column from the pool."""
    return st.one_of(st.lists(_row, max_size=max_size), st.lists(_pooled_row, max_size=max_size))


_VIEWPORTS = [Rectangle(-1, 1, -1, 1), Rectangle(-1e300, 1e300, -1e300, 1e300),
              Rectangle(-0.0, 1e-300, 0.0, 5e-324)]


def _columns(rows):
    z, mult, res, method = zip(*rows) if rows else ((),) * 4
    return (np.array(z, dtype=complex), np.array(mult, dtype=int), np.array(res, dtype=float),
            np.array(method, dtype=object))


def _raw_set(rows):
    """A ZeroSet of these rows as they are: unsorted, duplicates kept."""
    return ZeroSet(*_columns(rows), Rectangle(-1, 1, -1, 1), 1, 1, 1)


@settings(max_examples=150, deadline=None)
@given(_zero_rows(30), _zero_rows(30), st.sampled_from(_VIEWPORTS))
def test_column_writers_equal_the_per_row_writers(rows_p, rows_l, viewport):
    predicted, located = _raw_set(rows_p), _raw_set(rows_l)
    for zs in (predicted, located):
        assert zeros_csv(zs) == reference_zeros_csv(zs)
    assert emit_svg(None, [predicted, located], viewport) == reference_emit_svg(
        None, [predicted, located], viewport
    )


_point = st.one_of(st.builds(complex, _coord, _coord), st.builds(complex, _pooled, _pooled))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(st.tuples(st.one_of(_coord, _pooled), _point, _point, _point), max_size=12),
             max_size=3),
    st.lists(_point, max_size=2),
    st.lists(_point, max_size=12),
    st.sampled_from(_VIEWPORTS),
)
def test_curve_and_uncovered_writers_equal_the_per_row_writers(curves, mps, uncovered, viewport):
    ends = Termination(TERM_DOMAIN), Termination(TERM_DOMAIN)
    curves = [CoexistenceCurve((0, 1), [CurveSample(*s) for s in c], *ends) for c in curves]
    for c in curves:
        assert curve_csv(c) == reference_curve_csv(c)
    pd = PhaseDiagram(curves, [MultiplePoint(z, (0, 1, 2), {}) for z in mps], math.nan)
    assert emit_svg(pd, [], viewport) == reference_emit_svg(pd, [], viewport)
    rep = CoveringReport(len(uncovered), len(uncovered), uncovered, 0.0, 0.0)
    assert uncovered_csv(rep) == reference_uncovered_csv(rep)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_match_report_text_equals_the_per_row_writer(data):
    predicted = _raw_set(data.draw(_zero_rows(20)))
    located = _raw_set(data.draw(_zero_rows(20)))
    index = st.integers(0, 10**6)
    distance = st.one_of(st.floats(0.0), st.sampled_from([0.0, 5e-324, math.inf]))
    # or every column from a pool; distances are not negative
    few, near = st.integers(0, 3), st.sampled_from([0.0, 5e-324, 0.25, math.inf])
    pairs = data.draw(st.one_of(st.lists(st.tuples(index, index, distance, _residual), max_size=20),
                                st.lists(st.tuples(few, few, near, _pooled), max_size=20)))

    def unmatched(zs):
        return np.array(data.draw(st.lists(st.integers(0, len(zs) - 1))) if len(zs) else [], dtype=int)

    cols = zip(*pairs) if pairs else ((),) * 4
    i, j, dist, tol = (np.array(c, dtype=t) for c, t in zip(cols, (int, int, float, float)))
    rep = MatchReport(
        i, j, dist, tol,
        unmatched_predicted=unmatched(predicted),
        unmatched_located=unmatched(located),
        min_located_spacing=data.draw(_residual),
        c_match=data.draw(st.sampled_from([0.5, 10.0])),
    )
    found = ZeroSearch(located, box_winding=len(located), quadtree_located=0)
    assert match_report_text(rep, predicted, found) == reference_match_report_text(
        rep, predicted, found
    )


_near = st.one_of(st.floats(-1.5, 1.5), st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-12]))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.builds(complex, _near, _near), st.integers(1, 3), _residual, _method),
             max_size=40),
    st.tuples(_near, _near).map(sorted), st.tuples(_near, _near).map(sorted),
)
def test_within_equals_a_rebuild_of_the_rows_inside(rows, xs, ys):
    assume(xs[0] < xs[1] and ys[0] < ys[1])
    box = Rectangle(xs[0], xs[1], ys[0], ys[1])
    zs = ZeroSet.build(*_columns(rows), Rectangle(-2, 2, -2, 2), 10, 2)
    keep = np.array([bool(box.contains(z)) for z in zs.z.tolist()], dtype=bool)
    cols = (zs.z, zs.multiplicity, zs.residual, zs.method)
    want = ZeroSet.build(*(c[keep] for c in cols), box, zs.L, zs.d)
    got = zs.within(box)
    assert (got.region, got.L, got.d, got.N) == (box, 10, 2, 100)
    assert np.array_equal(got.z, want.z) and np.array_equal(got.multiplicity, want.multiplicity)
    assert np.array_equal(got.residual, want.residual, equal_nan=True)
    assert got.method.tolist() == want.method.tolist()
    # signed zeros too
    assert np.signbit(got.z.real).tolist() == np.signbit(want.z.real).tolist()


@settings(max_examples=150, deadline=None)
@given(st.lists(_row, max_size=8), st.data())
def test_equality_and_the_row_view_agree_with_the_zero_rows(rows, data):
    # the other set: the same rows, some of them changed or dropped; NaN
    # residuals compare unequal and -0.0 equals 0.0, as the rows compare
    other = [data.draw(st.one_of(st.just(r), _row)) for r in rows]
    other = other[: data.draw(st.integers(len(other) - 1, len(other)))] if other else other
    a, b = _raw_set(rows), _raw_set(other)
    # repr tells a NaN, and -0.0 from 0.0, as == does not
    assert repr(a.zeros) == repr(tuple(Zero(*row) for row in _rows(a)))
    assert (a == b) == (a.zeros == b.zeros)
    assert (a == a) == (a.zeros == a.zeros)
    b.L = 2
    assert a != b


# ---------------------------------------------------------------------------
# Per-zero work of the CLI


@pytest.mark.parametrize(
    "argv",
    [
        ["predict-zeros", "--pair", "0,1"],
        ["compare", "--pair", "0,1", "--perturb-seed", "7", "--emit-svg"],
    ],
    ids=["predict-zeros", "compare"],
)
def test_cli_builds_no_zero_objects_and_filters_by_arrays(tmp_path, row_counts, argv):
    spec = two_phase_model(q1=1, q2=2)
    path = write_model(tmp_path, spec)
    box = Rectangle(-0.1, 0.1, 0, 0.2)
    contains, written = [], []
    for L in ("1000", "10000"):
        row_counts.clear()
        out = tmp_path / L
        cmd = [argv[0], path, *argv[1:], "--L", L, "--box=-0.1,0.1,0,0.2", "--out-dir", str(out)]
        assert main(cmd) == 0
        assert row_counts["zeros"] == 0
        contains.append(row_counts["contains"])
        csv = next(out.glob("*predicted.csv"), None) or next(out.glob("zeros_*.csv"))
        written.append(len(csv.read_text().splitlines()) - 1)
        # and the library calls on the written set build none either
        zs = ZeroSet.build(*read_zeros_csv(csv), box, int(L), 1)
        assert zs == ZeroSet.build(*read_zeros_csv(csv), box, int(L), 1)
        assert match_zeros(zs, zs, 1e-12).ok
        assert degeneracy_audit(finite_volume(spec, int(L), 1, tau=1.0), zs, (0, 1)).ok
        assert row_counts["zeros"] == 0
    assert written == [64, 637]
    assert contains[0] == contains[1]


_BOX = "--box=-0.1,0.1,0,0.2"


@pytest.mark.parametrize(
    "model, argv",
    [
        (two_phase_model(q1=1, q2=2), ["predict-zeros", "--pair", "0,1", "--L", "50000", _BOX]),
        (two_phase_model(q1=1, q2=2),
         ["compare", "--pair", "0,1", "--L", "10000", _BOX, "--perturb-seed", "7", "--emit-svg"]),
        (two_phase_model(q1=1, q2=2), ["trace-diagram", "--emit-svg"]),
        (three_phase_model(),
         ["covering", "--L", "100", "--grid", "201", "--rho-scale", "0.1", "--omega-scale", "0.1"]),
    ],
    ids=["predict-zeros", "compare", "trace-diagram", "covering"],
)
def test_cli_writes_the_bytes_of_the_per_row_writers(tmp_path, monkeypatch, model, argv):
    path = write_model(tmp_path, model)

    def written(out):
        assert main([argv[0], path, *argv[1:], "--out-dir", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    # blocks of 100 rows, so that the tables here span several
    monkeypatch.setattr(render, "_BLOCK_ROWS", 100)
    columns = written(tmp_path / "columns")
    # every artifact has rows: the covering's uncovered points among them
    assert all(text.count(b"\n") > 2 for text in columns.values())
    for name, reference in [("zeros_csv", reference_zeros_csv),
                            ("match_report_text", reference_match_report_text),
                            ("curve_csv", reference_curve_csv),
                            ("uncovered_csv", reference_uncovered_csv)]:
        monkeypatch.setattr(cli, name, reference)
    monkeypatch.setattr(render, "emit_svg", reference_emit_svg)
    assert columns == written(tmp_path / "rows")
