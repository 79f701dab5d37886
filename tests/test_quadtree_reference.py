"""The batched, level-synchronous quadtree against the contour-at-a-time one.

The reference below is the winding and quadtree code that wound one closed
contour per kernel call and descended the tree depth first. It is kept
verbatim, except that the rate probe of _initial_nodes inlines the old
_ExpSum.deriv_bound, which then returned the maximum over all points, that
it polishes through _polish_one, a batch of one of the batched _polish,
that a sample fails its contour below a rounding floor written here
(_rounding_floor) where the old code had |W| < 1e-280, and that a
rectangle is also sampled at its corners, so that a zero on a corner fails
it as it fails the finder's sides. It shares only the kernel (_ExpSum),
_polish and _neighbours with the finder.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pfzeros.zeros as zeros_mod
from pfzeros import (
    ContourDegeneracyError,
    ModelSpec,
    NoConvergenceError,
    PhaseSpec,
    Rectangle,
    UnresolvedClusterError,
    ValidationError,
    find_zeros_region,
    finite_volume,
    random_perturbation,
    symmetric_pair_perturbation,
)
from pfzeros.zeros import (
    _ExpSum,
    _modulus,
    _neighbours,
    _polish,
)

from conftest import lee_yang_model, three_phase_model, two_phase_model

# ---------------------------------------------------------------------------
# Reference: one contour per winding, recursive depth-first quadtree

HALF_PI = 0.5 * math.pi


def _polish_one(es: _ExpSum, z: complex, tol: float):
    """The scalar polish: (z, residual), or NoConvergenceError at its iterate.
    A point that met the residual, also one that ran out of Newton steps as
    near a double zero, is accepted: the cell's winding counts it."""
    (z,), (why,) = _polish(es, [z])
    res = float(_modulus(es.value_normalized(np.array([z])))[0])
    if why is None and not res <= tol:
        why = f"polish stalled at residual {res:.3e}"
    if why is not None:
        raise NoConvergenceError(why, complex(z))
    return complex(z), res


def _rect_contour(rect: Rectangle):
    corners = np.array(rect.corners() + [rect.corners()[0]], dtype=complex)

    def mp(s):
        u = np.clip(np.asarray(s, dtype=float), 0.0, 1.0) * 4.0
        seg = np.minimum(u.astype(int), 3)
        frac = u - seg
        return corners[seg] * (1.0 - frac) + corners[seg + 1] * frac

    return mp, 2.0 * (rect.width + rect.height), (0.25, 0.5, 0.75)


def _circle_contour(center: complex, radius: float):
    def mp(s):
        return center + radius * np.exp(2j * np.pi * np.asarray(s, dtype=float))

    return mp, 2.0 * math.pi * radius, ()


def _initial_nodes(es: _ExpSum, mp, length: float) -> np.ndarray:
    """Initial contour sampling below the phase-aliasing scale.

    A single dominant term rotates the argument at rate at most max|g'|
    along the contour; sums of K terms can beat that only near
    cancellations, which the adaptive cap then localizes. The per-segment
    phase budget of 1.2 rad stays under the pi/2 cap, so no full turn can
    hide between neighboring samples.
    """
    probe = mp(np.linspace(0.0, 1.0, 129))
    rate = float(np.abs(es.derivatives(probe)[1]).max())  # the old es.deriv_bound
    k = len(es.w)
    n0 = int(min(max(65.0, (2 * k + 1) * length * rate / 1.2), 2.0e6))
    return np.linspace(0.0, 1.0, n0 + 1)


def _rounding_floor(es: _ExpSum, pts) -> float:
    """4u scale sum_k |w_k| (max_k |g_k| + K), with max |g_k| taken over the
    points by numpy's polynomial evaluation: below this modulus a computed W
    is rounding noise."""
    g = max(
        float(np.abs(np.polynomial.polynomial.polyval(pts, es.c[:, k])).max())
        for k in range(len(es.w))
    )
    return 2.0**-51 * es.scale * float(np.abs(es.w).sum()) * (g + len(es.w))


def _winding_adaptive(value_fn, map_fn, s_init, floor, max_nodes=400000, min_gap=1e-12) -> int:
    """Total argument change / 2 pi along a closed parametric contour.

    Consecutive samples are refined until each phase step is below pi/2,
    which pins the branch of the argument for an analytic integrand.
    """
    s = np.asarray(s_init, dtype=float)
    w = np.asarray(value_fn(map_fn(s)), dtype=complex)
    for _ in range(64):
        if np.any(~(np.abs(w) >= floor)) or np.any(~np.isfinite(w)):
            raise ContourDegeneracyError("zero on or numerically near the contour")
        dphi = np.angle(w[1:] / w[:-1])
        bad = np.abs(dphi) >= HALF_PI
        if not bad.any():
            total = float(dphi.sum()) / (2.0 * math.pi)
            n = round(total)
            if abs(total - n) > 0.25:
                raise ContourDegeneracyError(
                    f"winding {total} did not settle on an integer"
                )
            return int(n)
        if len(s) > max_nodes:
            raise ContourDegeneracyError("contour refinement exceeded its node budget")
        idx = np.nonzero(bad)[0]
        if np.min(s[idx + 1] - s[idx]) < min_gap:
            raise ContourDegeneracyError(
                "contour refinement hit the resolution floor (zero on contour?)"
            )
        mids = 0.5 * (s[idx] + s[idx + 1])
        w_m = np.asarray(value_fn(map_fn(mids)), dtype=complex)
        s = np.insert(s, idx + 1, mids)
        w = np.insert(w, idx + 1, w_m)
    raise ContourDegeneracyError("contour refinement did not converge")


_SPLIT_FRACTIONS = (
    (0.5, 0.5),
    (0.53125, 0.5),
    (0.5, 0.53125),
    (0.46875, 0.5),
    (0.5, 0.46875),
    (0.53125, 0.46875),
    (0.46875, 0.53125),
)


def _contour_winding(es: _ExpSum, mp, length: float, corners) -> int:
    s = np.union1d(_initial_nodes(es, mp, length), corners)
    return _winding_adaptive(es.value_normalized, mp, s, _rounding_floor(es, mp(s)))


def _box_winding(es: _ExpSum, rect: Rectangle) -> int:
    return _contour_winding(es, *_rect_contour(rect))


def _multiplicity(es: _ExpSum, z: complex, radius: float) -> int:
    for factor in (1.0, 1.3, 0.77, 1.69, 0.59):
        try:
            return _contour_winding(es, *_circle_contour(z, radius * factor))
        except ContourDegeneracyError:
            continue
    raise ContourDegeneracyError(f"could not count multiplicity around {z}")


def _subdivide(es: _ExpSum, rect: Rectangle, parent_winding: int):
    for fx, fy in _SPLIT_FRACTIONS:
        xm = rect.re_lo + fx * rect.width
        ym = rect.im_lo + fy * rect.height
        children = [
            Rectangle(rect.re_lo, xm, rect.im_lo, ym),
            Rectangle(xm, rect.re_hi, rect.im_lo, ym),
            Rectangle(rect.re_lo, xm, ym, rect.im_hi),
            Rectangle(xm, rect.re_hi, ym, rect.im_hi),
        ]
        try:
            windings = [_box_winding(es, c) for c in children]
        except ContourDegeneracyError:
            continue
        if sum(windings) == parent_winding:
            return children, windings
    raise UnresolvedClusterError(
        f"subdivision of {rect} kept hitting zeros on internal edges", rect
    )


def _collect_zeros(es, rect, wind, min_cell, max_depth, depth, tol, out):
    """Candidate zeros of a cell whose boundary winding is `wind`.

    Appends (z, residual, multiplicity) to out, with multiplicity None when
    it still has to be counted by a small circle. A winding-1 cell from whose
    centre Newton converges inside the cell holds exactly that zero, simple,
    so its descent stops there; every other cell is subdivided down to
    min_cell and its terminal cells are polished from their centres.
    """
    if wind == 0:
        return
    if wind == 1:
        try:
            z, res = _polish_one(es, rect.center, tol)
        except NoConvergenceError:
            pass
        else:
            if rect.contains(z):
                out.append((z, res, 1))
                return
    if max(rect.width, rect.height) < min_cell:
        z, res = _polish_one(es, rect.center, tol)
        out.append((z, res, None))
        return
    if depth >= max_depth:
        raise UnresolvedClusterError(
            f"depth {max_depth} exhausted with winding {wind} in {rect}", rect
        )
    children, windings = _subdivide(es, rect, wind)
    for child, w in zip(children, windings):
        _collect_zeros(es, child, w, min_cell, max_depth, depth + 1, tol, out)


def _find_zeros_expsum(
    es: _ExpSum,
    box: Rectangle,
    char_scale: float,
    max_depth: int = 40,
    residual_tol: float = 1e-10,
):
    """All zeros of an exponential sum in a box, with multiplicities.

    char_scale is the natural zero-spacing scale (1/N for volume sums); the
    terminal cell size is 1e-3 of it and the multiplicity circle 1e-2 of it.
    A simple zero is usually certified by the winding of its own quadtree
    cell once Newton stays inside that cell. Candidates closer than half the
    circle radius are merged, and every merged or terminal-cell zero has its
    multiplicity counted by the circle, so a multiple zero that rounding
    splits across a cell edge is still counted in full.
    """
    if max_depth < 0:
        raise ValidationError(f"max_depth must be non-negative, got {max_depth}")
    min_cell = 1e-3 * char_scale
    r_mult = 1e-2 * char_scale
    total = _box_winding(es, box)
    cands: list[tuple[complex, float, int | None]] = []
    if total > 0:
        _collect_zeros(es, box, total, min_cell, max_depth, 0, residual_tol, cands)

    near = _neighbours(np.array([z for z, _, _ in cands], dtype=complex), 0.5 * r_mult)
    kept: set[int] = set()
    found: list[tuple[complex, int, float]] = []
    for i, (z, res, mult) in enumerate(cands):
        if not box.contains(z, pad=min_cell):
            continue
        if not kept.isdisjoint(near.get(i, ())):
            continue
        if mult is None or i in near:
            mult = _multiplicity(es, z, r_mult)
            if mult < 1:
                continue
        kept.add(i)
        found.append((z, mult, res))
    if sum(m for _, m, _ in found) != total:
        raise UnresolvedClusterError(
            f"polished multiplicities sum to {sum(m for _, m, _ in found)}, "
            f"box winding is {total}",
            box,
        )
    return found


# ---------------------------------------------------------------------------
# The batched windings equal the reference contour by contour


def _perturbed_fvm():
    m = two_phase_model(q1=1, q2=2)
    return finite_volume(m, L=5, d=2, tau=1.0, perturbation=random_perturbation(m, seed=3))


_FVMS = {
    "two_phase": finite_volume(two_phase_model(), L=50, d=1, tau=1.0),
    "three_phase": finite_volume(three_phase_model(), L=60, d=1, tau=1.0),
    "perturbed": _perturbed_fvm(),
}
_ZEROS: dict = {}


def _zeros_of(name):
    """Located zeros in [-0.3, 0.3]^2, for contours drawn through them."""
    if name not in _ZEROS:
        box = Rectangle(-0.3, 0.3, -0.3, 0.3)
        _ZEROS[name] = find_zeros_region(_FVMS[name], box).z.tolist()
    return _ZEROS[name]


_pos = st.floats(-0.3, 0.3)
_size = st.floats(0.002, 0.25)
_contour_spec = st.one_of(
    st.tuples(st.just("rect"), _pos, _pos, _size, _size),
    st.tuples(st.just("circle"), _pos, _pos, _size),
    # a zero on a corner, on the bottom edge, or on a circle
    st.tuples(st.just("rect_corner"), st.integers(0, 999), _size, _size, st.integers(0, 3)),
    st.tuples(st.just("rect_edge"), st.integers(0, 999), _size, _size, _size),
    st.tuples(st.just("circle_through"), st.integers(0, 999), st.floats(0.0, 2 * math.pi), _size),
)


def _contour(spec, zeros):
    kind = spec[0]
    if kind == "rect":
        _, x, y, w, h = spec
        return "rect", Rectangle(x - w, x + w, y - h, y + h)
    if kind == "circle":
        _, x, y, r = spec
        return "circle", (complex(x, y), r)
    z0 = zeros[spec[1] % len(zeros)]
    if kind == "rect_corner":
        _, _, w, h, corner = spec
        x0 = z0.real - (w if corner in (1, 2) else 0.0)
        y0 = z0.imag - (h if corner in (2, 3) else 0.0)
        return "rect", Rectangle(x0, x0 + w, y0, y0 + h)
    if kind == "rect_edge":
        _, _, a, b, h = spec
        return "rect", Rectangle(z0.real - a, z0.real + b, z0.imag, z0.imag + h)
    _, _, theta, r = spec
    return "circle", (z0 - r * complex(math.cos(theta), math.sin(theta)), r)


def _reference_winding(es, kind, geom):
    contour = _rect_contour(geom) if kind == "rect" else _circle_contour(*geom)
    try:
        return _contour_winding(es, *contour)
    except ContourDegeneracyError:
        return "degenerate"


def _finder_box_winding(es, rect):
    try:
        return zeros_mod._box_winding(es, rect)
    except ContourDegeneracyError:
        return "degenerate", None


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(_FVMS)), specs=st.lists(_contour_spec, min_size=1, max_size=6))
def test_batched_windings_equal_reference(name, specs):
    # rectangles are wound from their four sides, circles in one batch
    es = _ExpSum.from_fvm(_FVMS[name])
    contours = [_contour(spec, _zeros_of(name)) for spec in specs]
    rects = [g for kind, g in contours if kind == "rect"]
    circles = [g for kind, g in contours if kind == "circle"]
    got = [_finder_box_winding(es, g)[0] for g in rects]
    if circles:
        inc, why = zeros_mod._increments(es, zeros_mod._circles(*zip(*circles)))
        for x, reason in zip(inc.tolist(), why):
            (w,) = [reason] if reason else zeros_mod._windings([x])
            got.append("degenerate" if isinstance(w, str) else w)
    want = [_reference_winding(es, "rect", g) for g in rects]
    want += [_reference_winding(es, "circle", g) for g in circles]
    assert got == want


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(_FVMS)), spec=st.tuples(st.just("rect"), _pos, _pos, _size, _size))
def test_edge_increments_sum_to_closed_contour_windings(name, spec):
    # a box and the children of its split are wound from side increments,
    # the children's outer sides as the box's side and its parts' difference
    es = _ExpSum.from_fvm(_FVMS[name])
    _, rect = _contour(spec, None)
    wind, sides = _finder_box_winding(es, rect)
    assert wind == _reference_winding(es, "rect", rect)
    assume(sides is not None)
    kids, winds, _ = zeros_mod._split(es, zeros_mod._root(rect, (wind, sides)))
    assert winds.tolist() == [_reference_winding(es, "rect", Rectangle(*k)) for k in kids.tolist()]
    assert winds.sum() == wind


# ---------------------------------------------------------------------------
# The level-synchronous quadtree returns the reference's zeros


def _double_zero_fvm():
    # W = e^{2z} - 2 e^z + 1 = (e^z - 1)^2: double zeros at 0 and 2 pi i
    model = ModelSpec(
        phases=(
            PhaseSpec("a", 1, (0j, 2 + 0j)),
            PhaseSpec("b", 2, (1j * math.pi, 1 + 0j)),
            PhaseSpec("c", 1, (0j,)),
        ),
        domain=Rectangle(-2.0, 2.0, -2.0, 8.0),
    )
    return finite_volume(model, L=1, d=1, tau=1.0)


def _double_zero(z: complex) -> complex:
    """The double zero of (e^z - 1)^2 near z, as a 50-digit zero of its
    derivative 2 e^{2z} - 2 e^z."""
    with mpmath.workdps(50):
        root = mpmath.findroot(lambda w: 2 * mpmath.exp(2 * w) - 2 * mpmath.exp(w), mpmath.mpc(z.real, z.imag))
        assert abs(mpmath.exp(root) - 1) < mpmath.mpf(10) ** -40
        return complex(root)


_DISC_RHO = 25 * math.log(10000) / 10000


def _lee_yang_fvm():
    up, un = symmetric_pair_perturbation(seed=4)
    return finite_volume(lee_yang_model(), L=10, d=2, tau=2.0, perturbation=[up, un])


@pytest.mark.parametrize(
    "make_fvm, box",
    [
        # the zeros lie on the first split's internal edge Re w = 0, so
        # cells retry at the other split fractions
        (_lee_yang_fvm, Rectangle(-0.05, 0.05, 0.0, 1.0)),
        (_double_zero_fvm, Rectangle(-1.0, 1.1, -1.0, 7.0)),
        (lambda: finite_volume(three_phase_model(), L=1000, d=1, tau=1.0),
         Rectangle(-0.17, 0.17, -0.17, 0.17)),
        # the three-phase benchmark's find-zeros disc, rho = 25 log N / N
        (lambda: finite_volume(three_phase_model(), L=10000, d=1, tau=1.0),
         Rectangle(-_DISC_RHO, _DISC_RHO, -_DISC_RHO, _DISC_RHO)),
    ],
    ids=["lee_yang_retries", "double_zeros", "three_phase", "three_phase_disc"],
)
def test_find_zeros_expsum_equals_reference(make_fvm, box, monkeypatch):
    fvm = make_fvm()
    es = _ExpSum.from_fvm(fvm)
    fractions = []
    cross = zeros_mod._cross

    def recorded(rect, f):
        fractions.extend(map(tuple, zeros_mod._SPLIT_FRACTIONS[f].tolist()))
        return cross(rect, f)

    monkeypatch.setattr(zeros_mod, "_cross", recorded)
    # with no candidates the locator is the seedless quadtree
    cols, located = zeros_mod._locate(es, box, zeros_mod._box_winding(es, box), (), 1.0 / fvm.N)
    got = list(zip(*(c.tolist() for c in cols)))
    want = _find_zeros_expsum(es, box, 1.0 / fvm.N)
    if make_fvm is _double_zero_fvm:
        # A split cross through the double zero at 0 fails its path in the
        # finder, where the reference's sampled phase steps over it, so the
        # two trees retry differently and polish from different terminal
        # cells. Newton resolves a double zero to about sqrt(machine epsilon).
        assert [m for _, m, _ in got] == [m for _, m, _ in want] == [2, 2]
        for zeros in (got, want):
            for z, _, _ in zeros:
                assert abs(z - _double_zero(z)) <= 1e-7
    else:
        assert got == want
    assert located == len(got)
    assert sum(m for _, m, _ in got) > 0
    if make_fvm is _lee_yang_fvm:
        assert set(fractions) - {(0.5, 0.5)}
