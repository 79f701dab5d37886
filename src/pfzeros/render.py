"""Static SVG rendering of phase diagrams and zero sets."""

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


def emit_svg(diagram: PhaseDiagram | None, zero_sets, viewport: Rectangle) -> str:
    """Render curves, multiple points and zeros in the viewport.

    Empty inputs yield a valid axes-only document.
    """
    width = height = 640  # pixels
    pad = 30
    sx, sy = (width - 2 * pad) / viewport.width, (height - 2 * pad) / viewport.height

    def m(z):
        """(x, y) of z, elementwise for an array z."""
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
            pts = [m(s.z) for s in curve.samples]
            if len(pts) < 2:
                continue
            d = "M " + " L ".join(f"{x:.2f} {y:.2f}" for x, y in pts)
            parts.append(
                f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        for mp in diagram.multiple_points:
            x, y = m(mp.z)
            parts.append(
                f'<rect x="{x - 4:.2f}" y="{y - 4:.2f}" width="8" height="8" '
                'fill="none" stroke="#000" stroke-width="1.5"/>'
            )

    circle = '<circle cx="%.2f" cy="%.2f" r="2.2" fill="%s"/>'
    for zs in zero_sets:
        inside = viewport.contains(zs.z)
        with np.errstate(all="ignore"):  # inf and NaN as a float's arithmetic gives them
            x, y = m(zs.z[inside])
        color = [_ZERO_COLORS.get(s, "#000") for s in zs.method[inside].tolist()]
        parts += map(circle.__mod__, zip(x.tolist(), y.tolist(), color))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
