"""Static SVG rendering of phase diagrams and zero sets, and the text of
the tables that the artifact writers emit."""

from __future__ import annotations

import numpy as np

from .diagram import PhaseDiagram
from .model import Rectangle

_CURVE_COLORS = ("#1f77b4", "#2ca02c", "#9467bd", "#8c564b", "#e377c2", "#17becf")
_ZERO_COLORS = {
    "brute_force": "#d62728",
    "two_phase_eq": "#ff7f0e",
    "multipoint_eq": "#bcbd22",
}


def column_text(values, fmt: str) -> list[str]:
    """fmt % v for every v of a numeric column, or of an object column of text.

    Each distinct value is formatted once, so a column that repeats its
    values (a zero table on a straight phase boundary repeats Re z in every
    row) costs a sort instead of one format per row. Numbers are told apart
    by their bit patterns, so -0.0 and 0.0, and NaNs of different payloads,
    are each formatted as fmt formats them.
    """
    values = np.asarray(values)
    if values.dtype == object:
        column = values.tolist()
        text = {v: fmt % v for v in set(column)}
        return list(map(text.__getitem__, column))
    bits, inverse = np.unique(values.view(f"i{values.itemsize}"), return_inverse=True)
    text = np.array(list(map(fmt.__mod__, bits.view(values.dtype).tolist())), dtype=object)
    return text[inverse].tolist()


# Rows per block of table_blocks: only one block's column text is held
# besides the finished blocks, so a table of 6e5 rows peaks at about twice
# its text rather than at its text plus every column's.
_BLOCK_ROWS = 1 << 16


def table_blocks(columns, sep: str = ",") -> list[str]:
    """The rows of a table in blocks of text, each row its fields joined by
    sep and each block its rows joined by newlines; columns are (values,
    fmt) pairs formatted by column_text. Joined by newlines, the blocks are
    the table's lines."""
    blocks = []
    for lo in range(0, len(columns[0][0]), _BLOCK_ROWS):
        text = (column_text(values[lo:lo + _BLOCK_ROWS], fmt) for values, fmt in columns)
        blocks.append("\n".join(map(sep.join, zip(*text))))
    return blocks


def emit_svg(diagram: PhaseDiagram | None, zero_sets, viewport: Rectangle) -> str:
    """Render curves, multiple points and zeros in the viewport.

    Empty inputs yield a valid axes-only document.
    """
    width = height = 640  # pixels
    pad = 30
    sx, sy = (width - 2 * pad) / viewport.width, (height - 2 * pad) / viewport.height

    def m(z):
        """(x, y) of z, elementwise for an array z."""
        with np.errstate(all="ignore"):  # inf and NaN as a float's arithmetic gives them
            return pad + (z.real - viewport.re_lo) * sx, height - pad - (z.imag - viewport.im_lo) * sy

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    # coordinate axes where they cross the viewport
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
            if len(curve.samples) < 2:
                continue
            x, y = m(curve.points())
            d = "M " + " L ".join(map(" ".join, zip(column_text(x, "%.2f"), column_text(y, "%.2f"))))
            parts.append(
                f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        for mp in diagram.multiple_points:
            x, y = m(mp.z)
            parts.append(
                f'<rect x="{x - 4:.2f}" y="{y - 4:.2f}" width="8" height="8" '
                'fill="none" stroke="#000" stroke-width="1.5"/>'
            )

    for zs in zero_sets:
        inside = viewport.contains(zs.z)
        x, y = m(zs.z[inside])
        color = np.array([_ZERO_COLORS.get(s, "#000") for s in zs.method[inside].tolist()], dtype=object)
        circles = [(x, '<circle cx="%.2f"'), (y, 'cy="%.2f"'), (color, 'r="2.2" fill="%s"/>')]
        parts += table_blocks(circles, " ")

    parts += ["</svg>", ""]
    return "\n".join(parts)
