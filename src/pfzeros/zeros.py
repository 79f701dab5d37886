"""Zeros of the normalized finite-volume partition function.

All arithmetic happens on exponential sums sum_k w_k exp(g_k(z)) normalized
per point by exp(max_k Re g_k(z)), so nothing overflows no matter how large
the volume. Zeros are located by argument-principle counting on adaptively
refined contours plus quadtree subdivision and Newton polishing, and
independently predicted from the two-phase balance equations and the
multiple-point exponential-sum equation.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .diagram import CoexistenceCurve, MultiplePoint, _project_onto_level
from .errors import (
    ContourDegeneracyError,
    ConvexityError,
    DomainError,
    NoConvergenceError,
    ResolutionError,
    UnresolvedClusterError,
    ValidationError,
)
from .model import (
    FiniteVolumeModel,
    ModelSpec,
    Rectangle,
    _dominant_sum,
    _pair_gap,
    _polyder,
    _polyval,
    _require_finite,
    _volume,
    almost_stable_set,
    convexity_margin,
    in_coexistence_strip,
    in_two_phase_region,
)

HALF_PI = 0.5 * math.pi

METHOD_BRUTE = "brute_force"
METHOD_TWO_PHASE = "two_phase_eq"
METHOD_MULTIPOINT = "multipoint_eq"


# Zeros closer than this are one zero in a ZeroSet.
_DEDUP_TOL = 1e-12


def _neighbours(points: np.ndarray, tol: float) -> dict[int, list[int]]:
    """Indices of the other points within tol, for each point that has any.

    Such points lie in the same or adjacent cells of a grid of spacing tol;
    the cells are found by binary search on the sorted (complex, so
    lexicographic) cell keys, which keeps the cost O(n log n).
    """
    key = np.round(points.real / tol) + 1j * np.round(points.imag / tol)
    order = np.argsort(key, kind="stable")
    skey = key[order]
    near: dict[int, list[int]] = {}
    for dx in (-1.0, 0.0, 1.0):
        lo = np.searchsorted(skey, skey + complex(dx, -1.0), side="left")
        hi = np.searchsorted(skey, skey + complex(dx, 1.0), side="right")
        own = 1 if dx == 0.0 else 0  # the point's own cell row holds the point
        for a in np.flatnonzero(hi - lo > own):
            i = int(order[a])
            for j in order[lo[a] : hi[a]]:
                if j != i and abs(points[j] - points[i]) <= tol:
                    near.setdefault(i, []).append(int(j))
    return near


@dataclass(frozen=True)
class Zero:
    z: complex
    multiplicity: int
    residual: float
    method: str


@dataclass
class ZeroSet:
    """Canonically sorted zeros with the region and volume they refer to."""

    zeros: tuple[Zero, ...]
    region: Rectangle
    L: int
    d: int
    N: int

    @classmethod
    def build(cls, zeros, region, L, d) -> "ZeroSet":
        zeros = list(zeros)
        pts = np.array([w.z for w in zeros], dtype=complex)
        # Sorting on the rounded key first keeps zeros on a common vertical
        # line in order of Im z even when their real parts differ by ulps.
        order = np.lexsort(
            (pts.imag, pts.real, np.round(pts.imag / _DEDUP_TOL), np.round(pts.real / _DEDUP_TOL))
        )
        near = _neighbours(pts[order], _DEDUP_TOL)
        dropped: set[int] = set()
        for i in sorted(near):
            if any(j < i and j not in dropped for j in near[i]):
                dropped.add(i)
        unique = [zeros[k] for i, k in enumerate(order) if i not in dropped]
        return cls(zeros=tuple(unique), region=region, L=int(L), d=int(d), N=_volume(L, d))

    def __len__(self) -> int:
        return len(self.zeros)

    def points(self) -> np.ndarray:
        return np.array([w.z for w in self.zeros], dtype=complex)

    def total_multiplicity(self) -> int:
        return sum(w.multiplicity for w in self.zeros)

    def count_in_disc(self, center: complex, radius: float) -> int:
        return sum(w.multiplicity for w in self.zeros if abs(w.z - center) < radius)

    def min_spacing(self) -> float:
        pts = self.points()
        if len(pts) < 2:
            return math.inf
        d = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(d, np.inf)
        return float(d.min())


@dataclass
class MatchReport:
    pairs: list[tuple[int, int, float, float]]
    unmatched_predicted: list[int]
    unmatched_located: list[int]
    min_located_spacing: float
    violations: list[tuple[int, int, float, float]]
    c_match: float

    @property
    def ok(self) -> bool:
        return not self.violations and not self.unmatched_predicted and not self.unmatched_located

    @property
    def max_distance(self) -> float:
        return max((p[2] for p in self.pairs), default=0.0)


@dataclass(frozen=True)
class AsymptoteLine:
    """Half-line along which distant rescaled zeros accumulate.

    In the rescaled coordinate zf = (z - z_M) * N the line is
    zf(t) = origin_offset + t * direction with t >= 0 and |direction| = 1.
    """

    side: tuple[int, int]
    origin_offset: complex
    direction: complex
    shift_magnitude: float

    def distance_to(self, zf: complex) -> float:
        w = zf - self.origin_offset
        t = (w * self.direction.conjugate()).real
        if t <= 0.0:
            return abs(w)
        return abs(w - t * self.direction)


# ---------------------------------------------------------------------------
# Exponential sums


def _polyval_rows(cols: np.ndarray, z):
    """All polynomials of a (D+1, K) coefficient matrix at z: shape (K,) + z.shape."""
    z = np.asarray(z)
    return _polyval(cols.reshape(cols.shape + (1,) * z.ndim), z)


class _ExpSum:
    """value(z) = scale * sum_k weights[k] * exp(poly_k(z)); zeros do not
    depend on the positive scale, which is kept only for faithful values."""

    def __init__(self, weights, coeff_cols, scale: float = 1.0):
        self.w = np.asarray(weights, dtype=complex)
        c = np.asarray(coeff_cols, dtype=complex)  # (K, D+1)
        self.c = c.T.copy()  # coefficients along the first axis
        dc = np.array([_polyder(tuple(row)) for row in c], dtype=complex)
        self.dc = dc.T.copy()
        self.scale = float(scale)

    @classmethod
    def from_fvm(cls, fvm: FiniteVolumeModel) -> "_ExpSum":
        rows = fvm.N * np.array(fvm.exponents, dtype=complex)
        scale = 1.0 + fvm.xi_strength * fvm.N * fvm.perturbation_scale()
        return cls(np.asarray(fvm.degeneracies, dtype=float), rows, scale)

    @classmethod
    def from_multipoint(cls, qs, phis, vs) -> "_ExpSum":
        weights = [q * cmath.exp(1j * phi) for q, phi in zip(qs, phis)]
        rows = [[0j, v] for v in vs]
        return cls(weights, np.array(rows, dtype=complex))

    def exponents(self, z):
        return _polyval_rows(self.c, z)

    def deriv_bound(self, pts) -> float:
        """max_k |g_k'| over sample points, the smooth phase-rate scale."""
        return float(np.abs(_polyval_rows(self.dc, pts)).max())

    def value_normalized(self, z):
        """scale * sum_k w_k exp(g_k(z) - max_j Re g_j(z)), overflow-free."""
        g = self.exponents(z)
        m = np.max(g.real, axis=0)
        vals = np.tensordot(self.w, np.exp(g - m), axes=(0, 0))
        return self.scale * vals

    def newton_step(self, z: complex) -> complex:
        """value / derivative with the shared normalization cancelled."""
        g = self.exponents(z)
        gp = _polyval_rows(self.dc, z)
        m = np.max(g.real, axis=0)
        e = np.exp(g - m)
        num = np.dot(self.w, e)
        den = np.dot(self.w * gp, e)
        if den == 0:
            raise NoConvergenceError("vanishing derivative during polishing", z)
        return complex(num / den)


# ---------------------------------------------------------------------------
# Argument-principle winding


def _rect_contour(rect: Rectangle):
    corners = np.array(rect.corners() + [rect.corners()[0]], dtype=complex)

    def mp(s):
        u = np.clip(np.asarray(s, dtype=float), 0.0, 1.0) * 4.0
        seg = np.minimum(u.astype(int), 3)
        frac = u - seg
        return corners[seg] * (1.0 - frac) + corners[seg + 1] * frac

    return mp, 2.0 * (rect.width + rect.height)


def _circle_contour(center: complex, radius: float):
    def mp(s):
        return center + radius * np.exp(2j * np.pi * np.asarray(s, dtype=float))

    return mp, 2.0 * math.pi * radius


def _polyline_contour(vertices):
    pts = [complex(v) for v in vertices]
    if abs(pts[0] - pts[-1]) > 0.0:
        pts = pts + [pts[0]]
    pts = np.array(pts, dtype=complex)
    nseg = len(pts) - 1

    def mp(s):
        u = np.clip(np.asarray(s, dtype=float), 0.0, 1.0) * nseg
        seg = np.minimum(u.astype(int), nseg - 1)
        frac = u - seg
        return pts[seg] * (1.0 - frac) + pts[seg + 1] * frac

    return mp, float(np.abs(np.diff(pts)).sum())


def _initial_nodes(es: _ExpSum, mp, length: float) -> np.ndarray:
    """Initial contour sampling below the phase-aliasing scale.

    A single dominant term rotates the argument at rate at most max|g'|
    along the contour; sums of K terms can beat that only near
    cancellations, which the adaptive cap then localizes. The per-segment
    phase budget of 1.2 rad stays under the pi/2 cap, so no full turn can
    hide between neighboring samples.
    """
    probe = mp(np.linspace(0.0, 1.0, 129))
    rate = es.deriv_bound(probe)
    k = len(es.w)
    n0 = int(min(max(65.0, (2 * k + 1) * length * rate / 1.2), 2.0e6))
    return np.linspace(0.0, 1.0, n0 + 1)


def _winding_adaptive(value_fn, map_fn, s_init, max_nodes=400000, min_gap=1e-12) -> int:
    """Total argument change / 2 pi along a closed parametric contour.

    Consecutive samples are refined until each phase step is below pi/2,
    which pins the branch of the argument for an analytic integrand.
    """
    s = np.asarray(s_init, dtype=float)
    w = np.asarray(value_fn(map_fn(s)), dtype=complex)
    for _ in range(64):
        if np.any(np.abs(w) < 1e-280) or np.any(~np.isfinite(w)):
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


def winding_number(fvm: FiniteVolumeModel, contour) -> int:
    """Winding of the normalized partition function around a closed contour.

    contour may be a Rectangle, a (center, radius) pair for a circle, or a
    sequence of polyline vertices (closed automatically).
    """
    es = _ExpSum.from_fvm(fvm)
    if isinstance(contour, Rectangle):
        mp, length = _rect_contour(contour)
    elif isinstance(contour, tuple) and len(contour) == 2 and np.ndim(contour[1]) == 0:
        mp, length = _circle_contour(complex(contour[0]), float(contour[1]))
    else:
        mp, length = _polyline_contour(contour)
    if not fvm.domain.contains(mp(np.linspace(0.0, 1.0, 64))).all():
        raise ValidationError(f"contour leaves the model domain {fvm.domain}")
    return _winding_adaptive(es.value_normalized, mp, _initial_nodes(es, mp, length))


# ---------------------------------------------------------------------------
# Quadtree root finding

_SPLIT_FRACTIONS = (
    (0.5, 0.5),
    (0.53125, 0.5),
    (0.5, 0.53125),
    (0.46875, 0.5),
    (0.5, 0.46875),
    (0.53125, 0.46875),
    (0.46875, 0.53125),
)


def _box_winding(es: _ExpSum, rect: Rectangle) -> int:
    mp, length = _rect_contour(rect)
    return _winding_adaptive(es.value_normalized, mp, _initial_nodes(es, mp, length))


def _polish(es: _ExpSum, z: complex, tol: float, max_iter: int = 80):
    for _ in range(max_iter):
        dz = es.newton_step(z)
        z = z - dz
        if abs(dz) <= 1e-16 * (1.0 + abs(z)):
            break
    res = abs(complex(es.value_normalized(z)))
    if not res <= tol:  # also rejects a NaN from a diverged iterate
        raise NoConvergenceError(f"polish stalled at residual {res:.3e}", z)
    return z, res


def _multiplicity(es: _ExpSum, z: complex, radius: float) -> int:
    for factor in (1.0, 1.3, 0.77, 1.69, 0.59):
        try:
            mp, length = _circle_contour(z, radius * factor)
            return _winding_adaptive(
                es.value_normalized, mp, _initial_nodes(es, mp, length)
            )
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
            z, res = _polish(es, rect.center, tol)
        except NoConvergenceError:
            pass
        else:
            if rect.contains(z):
                out.append((z, res, 1))
                return
    if max(rect.width, rect.height) < min_cell:
        z, res = _polish(es, rect.center, tol)
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


def eval_logZ_normalized(fvm: FiniteVolumeModel, z: complex) -> complex:
    """Normalized partition function W(z) = Z(z) * zeta(z)^{-N}.

    Evaluated entirely through the stored exponents, normalizing each term
    by the largest exponent real part, so no intermediate can overflow.
    """
    z = _require_finite(z)
    if not fvm.domain.contains(z):
        raise DomainError(f"{z} outside model domain")
    scale = 1.0 + fvm.xi_strength * fvm.N * fvm.perturbation_scale()
    return complex(_dominant_sum(fvm, z)) * scale


def find_zeros_region(
    fvm: FiniteVolumeModel,
    box: Rectangle,
    max_depth: int = 40,
) -> ZeroSet:
    """All zeros of the normalized partition function inside a box.

    Quadtree subdivision of the box by boundary winding numbers. A cell of
    winding 1 stops descending as soon as Newton from its centre converges
    inside it: that point is its only zero, simple by the cell's winding.
    Cells of higher winding descend to 1e-3/N and each terminal cell is
    polished, with a small-circle winding for its multiplicity. The
    multiplicities are required to add up to the winding of the whole box.
    """
    for corner in box.corners():
        if not fvm.domain.contains(corner):
            raise ValidationError(f"box {box} not contained in domain {fvm.domain}")
    es = _ExpSum.from_fvm(fvm)
    found = _find_zeros_expsum(es, box, 1.0 / fvm.N, max_depth=max_depth)
    zeros = [Zero(z, mult, res, METHOD_BRUTE) for z, mult, res in found]
    return ZeroSet.build(zeros, box, fvm.L, fvm.d)


# ---------------------------------------------------------------------------
# Predicted zeros: two-phase balance equations


def predict_two_phase(
    source,
    m: int,
    n: int,
    curve: CoexistenceCurve,
    L: int | None = None,
    d: int | None = None,
    tol: float = 1e-10,
) -> ZeroSet:
    """Solutions of the two-phase modulus and phase-quantization equations.

    Each curve sample is shifted transversally onto the level set where the
    degeneracy-weighted moduli balance; the accumulated phase difference
    theta = N Im(log zeta_m - log zeta_n) is then walked along the shifted
    curve, emitting one solution per crossing of pi mod 2 pi, located by
    bisection. The curve must be sampled finely enough that theta advances
    by less than pi per segment, otherwise a ResolutionError names the gap.
    """
    if curve.pair != (m, n) and curve.pair != (n, m):
        raise ValidationError(f"curve belongs to pair {curve.pair}, not ({m},{n})")
    if isinstance(source, FiniteVolumeModel):
        L = source.L if L is None else L
        d = source.d if d is None else d
    elif not isinstance(source, ModelSpec):
        raise ValidationError(f"expected ModelSpec or FiniteVolumeModel, got {type(source)}")
    elif L is None or d is None:
        raise ValidationError("L and d are required when predicting from a bare model")
    N = _volume(L, d)
    h, dh = _pair_gap(source, m, n)
    q = source.degeneracies
    target_mod = math.log(q[n] / q[m]) / N

    shifted = [
        _project_onto_level(h, dh, s.z, target=target_mod, tol=1e-13) for s in curve.samples
    ]
    theta = [N * h(z).imag for z in shifted]

    def theta_at(za: complex, zb: complex, s: float) -> tuple[float, complex]:
        z = _project_onto_level(h, dh, za + s * (zb - za), target=target_mod, tol=1e-13)
        return N * h(z).imag, z

    zeros: list[Zero] = []
    emitted: set[int] = set()  # theta is strictly monotone, each index hits once
    for k in range(len(shifted) - 1):
        ta, tb = theta[k], theta[k + 1]
        if abs(tb - ta) >= math.pi:
            raise ResolutionError(
                f"phase advances by {abs(tb - ta):.3f} between samples "
                f"t={curve.samples[k].t:.6g} and t={curve.samples[k + 1].t:.6g}; "
                "trace the curve with a smaller step"
            )
        lo, hi = (ta, tb) if ta <= tb else (tb, ta)
        # lattice points pi + 2 pi j touching the span; rounding at the
        # endpoints is caught by the inclusive check and the emitted set
        j0 = math.ceil((lo - math.pi) / (2.0 * math.pi) - 1e-12)
        j1 = math.floor((hi - math.pi) / (2.0 * math.pi) + 1e-12)
        for j in range(j0, j1 + 1):
            tgt = math.pi + 2.0 * math.pi * j
            if j in emitted:
                continue
            if not (min(ta, tb) <= tgt <= max(ta, tb)):
                continue
            emitted.add(j)
            sa, sb, fa = 0.0, 1.0, ta - tgt
            z_hit = shifted[k]
            for _ in range(200):
                sm = 0.5 * (sa + sb)
                fm, z_hit = theta_at(shifted[k], shifted[k + 1], sm)
                fm -= tgt
                if abs(fm) <= tol:
                    break
                if fa * fm <= 0.0:
                    sb = sm
                else:
                    sa, fa = sm, fm
            else:
                raise NoConvergenceError("phase bisection stalled", z_hit)
            resid = abs(N * h(z_hit).imag - tgt) + N * abs(h(z_hit).real - target_mod)
            zeros.append(Zero(z_hit, 1, resid, METHOD_TWO_PHASE))

    pts = np.array(shifted)
    pad = 1e-9 + 2.0 / max(N, 1)
    region = Rectangle(
        float(pts.real.min()) - pad,
        float(pts.real.max()) + pad,
        float(pts.imag.min()) - pad,
        float(pts.imag.max()) + pad,
    )
    return ZeroSet.build(zeros, region, L, d)


# ---------------------------------------------------------------------------
# Predicted zeros: multiple-point equation


def predict_multipoint(
    model: ModelSpec,
    mp: MultiplePoint,
    L: int,
    d: int,
    rho_L: float,
    max_depth: int = 40,
) -> ZeroSet:
    """Solutions of the rescaled exponential-sum equation near a multiple point.

    Builds G(zf) = sum_{m in Q} q_m exp(i phi_m + v_m zf) in the rescaled
    coordinate zf = (z - z_M) N and locates all of its zeros with |zf| <=
    N rho_L by the same winding machinery, then maps them back.
    """
    if len(mp.stable_set) < 3:
        raise ValidationError("multipoint prediction needs at least three coexisting phases")
    if rho_L <= 0:
        raise ValidationError("rho_L must be positive")
    N = _volume(L, d)
    R = N * rho_L
    if R < 10.0:
        warnings.warn(
            f"N*rho_L = {R:.3g} < 10: the rescaled disc is small for asymptotics",
            stacklevel=2,
        )
    qs, phis, vs = [], [], []
    for k in mp.stable_set:
        qs.append(model.phases[k].degeneracy)
        # N integer, so exp(i N Arg zeta) only needs Im P mod 2 pi
        phis.append((N * model.phases[k].log_weight(mp.z).imag) % (2.0 * math.pi))
        vs.append(mp.v_values[k])
    es = _ExpSum.from_multipoint(qs, phis, vs)
    box = Rectangle(-R, R, -R, R)
    found = _find_zeros_expsum(es, box, 1.0, max_depth=max_depth)
    zeros = [
        Zero(mp.z + zf / N, mult, res, METHOD_MULTIPOINT)
        for zf, mult, res in found
        if abs(zf) <= R
    ]
    region = Rectangle(
        mp.z.real - rho_L, mp.z.real + rho_L, mp.z.imag - rho_L, mp.z.imag + rho_L
    )
    return ZeroSet.build(zeros, region, L, d)


def asymptote_lines(model: ModelSpec, mp: MultiplePoint) -> list[AsymptoteLine]:
    """Half-lines along which the rescaled zeros settle far from z_M.

    The conjugated logarithmic derivatives are ordered counterclockwise on
    their convex hull; each consecutive side contributes one half-line
    perpendicular to it, laterally shifted when the degeneracies differ.
    """
    if len(mp.stable_set) < 3:
        raise ValidationError("asymptotes need at least three coexisting phases")
    vs = {k: mp.v_values[k] for k in mp.stable_set}
    margin = convexity_margin([v.conjugate() for v in vs.values()])
    if margin <= 0.0:
        raise ConvexityError(
            f"derivative polygon at {mp.z} is not strictly convex (margin {margin:.3e})"
        )
    centroid = sum(vs.values()) / len(vs)
    order = sorted(vs, key=lambda k: cmath.phase((vs[k] - centroid).conjugate()))
    lines = []
    for i, a in enumerate(order):
        b = order[(i + 1) % len(order)]
        va, vb = vs[a], vs[b]
        dv = va.conjugate() - vb.conjugate()
        gap = abs(va - vb)
        qa, qb = model.phases[a].degeneracy, model.phases[b].degeneracy
        shift = math.log(qb / qa) / gap
        lines.append(
            AsymptoteLine(
                side=(a, b),
                origin_offset=dv / gap**2 * math.log(qb / qa),
                direction=1j * dv / gap,
                shift_magnitude=shift,
            )
        )
    return lines


# ---------------------------------------------------------------------------
# Tolerances, matching, audits


def default_scales(N: int) -> tuple[float, float, float]:
    """(gamma_L, omega_L, rho_L) defaults, all proportional to log N."""
    ln = math.log(N)
    return 5.0 * ln / N, ln, ln / N


def delta_L(
    model: ModelSpec,
    z: complex,
    L: int,
    d: int,
    gamma_L: float,
    tau: float,
    kappa: float,
    Q,
) -> float:
    """Per-zero tolerance: exponentially small near the coexistence core,
    volume-suppressed in the outer almost-stable shell."""
    Q = tuple(Q)
    if len(Q) != 2:
        raise ValidationError(f"delta_L needs a two-phase set, got {Q}")
    N = _volume(L, d)
    if N * gamma_L / math.log(max(L, 2)) <= 4 * d:
        warnings.warn(
            f"gamma_L={gamma_L:.3g} fails the growth condition at L={L} "
            f"(N*gamma_L/log L = {N * gamma_L / math.log(max(L, 2)):.3g} <= {4 * d})",
            stacklevel=2,
        )
    if L ** (d - 1) * gamma_L >= 2 * tau:
        warnings.warn(
            f"gamma_L={gamma_L:.3g} fails the decay condition at L={L}",
            stacklevel=2,
        )
    z = _require_finite(z)
    if not in_two_phase_region(model, z, gamma_L, Q):
        raise DomainError(f"{z} is not in the two-phase region of {Q} at eps={gamma_L:.3g}")
    if in_two_phase_region(model, z, 2.0 * kappa / L, Q):
        return math.exp(-tau * L)
    return N * math.exp(-0.5 * gamma_L * N)


def match_zeros(predicted: ZeroSet, located: ZeroSet, tolerances, c_match: float = 10.0) -> MatchReport:
    """Greedy nearest-pair matching, verified injective both ways.

    tolerances is a scalar or a per-predicted-zero sequence; pairs farther
    apart than c_match times their tolerance are flagged, not dropped.
    """
    np_, nl = len(predicted), len(located)
    tol = np.asarray(tolerances, dtype=float)
    tol = np.zeros(np_) if np_ == 0 else np.broadcast_to(tol, (np_,))
    pp, ll = predicted.points(), located.points()
    pairs: list[tuple[int, int, float, float]] = []
    if np_ and nl:
        dist = np.abs(pp[:, None] - ll[None, :])
        work = dist.copy()
        for _ in range(min(np_, nl)):
            i, j = np.unravel_index(np.argmin(work), work.shape)
            pairs.append((int(i), int(j), float(dist[i, j]), float(tol[i])))
            work[i, :] = np.inf
            work[:, j] = np.inf
        pairs.sort()
    unmatched_p = [i for i in range(np_) if all(p[0] != i for p in pairs)]
    unmatched_l = [j for j in range(nl) if all(p[1] != j for p in pairs)]
    violations = [p for p in pairs if p[2] > c_match * p[3]]
    return MatchReport(
        pairs=pairs,
        unmatched_predicted=unmatched_p,
        unmatched_located=unmatched_l,
        min_located_spacing=located.min_spacing(),
        violations=violations,
        c_match=float(c_match),
    )


@dataclass
class DegeneracyEntry:
    z: complex
    multiplicity: int
    stable_eps_set: tuple[int, ...]
    mult_ok: bool
    isolated_phase: int | None


@dataclass
class DegeneracyReport:
    entries: list[DegeneracyEntry]
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def degeneracy_audit(
    fvm: FiniteVolumeModel,
    located: ZeroSet,
    region_Q=None,
    omega_L: float | None = None,
) -> DegeneracyReport:
    """Check the degeneracy bound and the exclusion of single-phase regions.

    Every zero must have multiplicity at most |Q|-1 for its almost-stable
    set Q at eps = kappa/L, and must not sit where one phase dominates all
    others by more than omega_L/(2N).
    """
    if omega_L is None:
        omega_L = math.log(fvm.N)
    eps_q = fvm.kappa / fvm.L
    eps_single = omega_L / fvm.N
    entries: list[DegeneracyEntry] = []
    violations: list[str] = []
    for w in located.zeros:
        q_set = tuple(sorted(almost_stable_set(fvm.base, w.z, eps_q)))
        bound = len(q_set) - 1
        if region_Q is not None:
            bound = min(bound, len(tuple(region_Q)) - 1)
        mult_ok = w.multiplicity <= max(bound, 0)
        isolated = None
        if not in_coexistence_strip(fvm.base, w.z, eps_single):
            isolated = int(np.argmax(np.real(fvm.base.log_weights(w.z))))
        entries.append(DegeneracyEntry(w.z, w.multiplicity, q_set, mult_ok, isolated))
        if not mult_ok:
            violations.append(
                f"zero {w.z}: multiplicity {w.multiplicity} exceeds |Q|-1 = {bound}"
            )
        if isolated is not None:
            violations.append(
                f"zero {w.z} lies in the single-phase region of phase {isolated}"
            )
    return DegeneracyReport(entries=entries, violations=violations)
