"""Zeros of the normalized finite-volume partition function.

All arithmetic happens on exponential sums sum_k w_k exp(g_k(z)) normalized
per point by exp(max_k Re g_k(z)), so nothing overflows no matter how large
the volume. Zeros are located from candidates kept one by one by Smale's
alpha-test, and by argument-principle counting on contours whose every
piece is proven by the dominance of one term, plus quadtree subdivision and
Newton polishing wherever the box winding is not accounted for by them;
they are independently predicted from the two-phase balance equations and
the multiple-point exponential-sum equation.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .diagram import CoexistenceCurve, MultiplePoint, _close_brackets
from .errors import (
    ContourDegeneracyError,
    ConvexityError,
    DomainError,
    NoConvergenceError,
    UnresolvedClusterError,
    ValidationError,
)
from .model import (
    FiniteVolumeModel,
    ModelSpec,
    Rectangle,
    _BATCH,
    _first_come,
    _grid_pairs,
    _in_strip,
    _modulus,
    _neighbours,
    _pair_gap,
    _polyval,
    _require_finite,
    _volume,
    convexity_margin,
    in_two_phase_region,
)

METHOD_BRUTE = "brute_force"
METHOD_TWO_PHASE = "two_phase_eq"
METHOD_MULTIPOINT = "multipoint_eq"


# Candidates closer than this are one zero (_kept); ZeroSet sorts on its grid.
_DEDUP_TOL = 1e-12
# A located simple zero is proven to lie within this distance of its point.
_LOCATE_TOL = 1e-10
# Newton steps allowed per two-phase zero; seeds from a traced curve take 1-3.
_NEWTON_STEPS = 50
# Two-phase Newton stops at |N (h - c_j)| <= this, or 8 ulps of |N c_j|.
_TWO_PHASE_TOL = 1e-10
# Newton steps allowed per point that _polish polishes.
_POLISH_STEPS = 80


@dataclass(frozen=True)
class Zero:
    """A row of a ZeroSet, built by ZeroSet.zeros alone."""

    z: complex
    multiplicity: int
    residual: float
    method: str


@dataclass
class ZeroSet:
    """Canonically sorted zeros in columns, with the region and volume they
    refer to: row i is z[i] with its multiplicity, residual and method.
    zeros builds the rows as Zero objects on each access, only for the
    benchmark, which counts zeros by len(zs.zeros)."""

    z: np.ndarray  # complex
    multiplicity: np.ndarray  # int
    residual: np.ndarray  # float
    method: np.ndarray  # str objects
    region: Rectangle
    L: int
    d: int
    N: int
    # How many of predict_multipoint's zeros of its box the quadtree
    # located, as in ZeroSearch; None for other sets.
    quadtree_located: int | None = None

    @classmethod
    def build(cls, z, multiplicity, residual, method, region, L, d, **search) -> "ZeroSet":
        """The zeros given in columns, a scalar standing for a whole column,
        in canonical order. Every row is kept: the locators and predictors
        give distinct zeros, so a duplicate would show in match_zeros."""
        z = np.asarray(z, dtype=complex).reshape(-1)
        # Sorting on the rounded key first keeps zeros on a common vertical
        # line in order of Im z even when their real parts differ by ulps.
        rows = np.lexsort(
            (z.imag, z.real, np.round(z.imag / _DEDUP_TOL), np.round(z.real / _DEDUP_TOL))
        )
        cols = (np.broadcast_to(np.asarray(c, dtype=t), z.shape)[rows]
                for c, t in ((multiplicity, int), (residual, float), (method, object)))
        return cls(z[rows], *cols, region, int(L), int(d), _volume(L, d), **search)

    def within(self, box: Rectangle) -> "ZeroSet":
        """The zeros in the closed box, as a set of that region, in the same
        canonical order."""
        inside = box.contains(self.z)
        cols = (self.z, self.multiplicity, self.residual, self.method)
        return ZeroSet(*(c[inside] for c in cols), box, self.L, self.d, self.N)

    @property
    def zeros(self) -> tuple[Zero, ...]:
        cols = (self.z, self.multiplicity, self.residual, self.method)
        return tuple(map(Zero, *(c.tolist() for c in cols)))

    def __eq__(self, other) -> bool:
        """Equal columns and metadata; a NaN is unequal to itself and -0.0
        equals 0.0, as when the rows are compared."""
        key = attrgetter("region", "L", "d", "N", "quadtree_located")
        cols = attrgetter("z", "multiplicity", "residual", "method")
        return (isinstance(other, ZeroSet) and key(self) == key(other)
                and all(map(np.array_equal, cols(self), cols(other))))

    def __len__(self) -> int:
        return self.z.size

    def total_multiplicity(self) -> int:
        return int(self.multiplicity.sum())

    def count_in_disc(self, center: complex, radius: float) -> int:
        return int(self.multiplicity[_modulus(self.z - center) < radius].sum())

    def min_spacing(self) -> float:
        """Smallest distance between two zeros, from grid pairs within a
        radius that doubles until it holds the closest pair, block by block."""
        pts = self.z
        if len(pts) < 2:
            return math.inf
        span = max(np.ptp(pts.real), np.ptp(pts.imag))
        r = span / len(pts) or 1.0
        while True:
            d = math.inf
            for i, j in _grid_pairs(pts, pts, r):
                d = min(d, np.abs(pts[i] - pts[j])[i != j].min(initial=math.inf))
            # past the span every pair is a candidate
            if d <= r or r > span:
                return float(d)
            r *= 2.0


@dataclass
class MatchReport:
    """Matched pairs in columns, in order of i: pair k matches predicted
    zero i[k] to located zero j[k] at distance[k], with the tolerance tol[k]
    of i[k]; and the indices of the zeros left unmatched on each side."""

    i: np.ndarray  # int
    j: np.ndarray  # int
    distance: np.ndarray
    tol: np.ndarray
    unmatched_predicted: np.ndarray  # int
    unmatched_located: np.ndarray  # int
    min_located_spacing: float
    c_match: float

    @property
    def violations(self) -> np.ndarray:
        """The pairs farther apart than c_match times their tolerance."""
        with np.errstate(over="ignore"):  # an infinite bound flags nothing
            return np.flatnonzero(self.distance > self.c_match * self.tol)

    @property
    def ok(self) -> bool:
        return not (self.violations.size or self.unmatched_predicted.size or self.unmatched_located.size)

    @property
    def max_distance(self) -> float:
        return float(self.distance.max(initial=0.0))


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
        if c.shape[1] == 1:  # D >= 1, as the winding takes g_k'
            c = np.concatenate([c, np.zeros_like(c)], axis=1)
        self.c = c.T.copy()  # coefficients along the first axis
        self.scale = float(scale)
        self.ders, d = [], self.c  # the D+1-i coefficients of each g_k^(i), i = 0..D
        for _ in range(len(d)):
            self.ders.append(d)
            d = np.arange(1.0, len(d))[:, None] * d[1:]  # the next derivative

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

    def derivatives(self, z, orders: int | None = None):
        """g_k^(i)(z) for i below orders (every i = 0..D by default), shape
        (orders, K) + z.shape: the one kernel, each order by Horner's rule."""
        out = np.empty((len(self.ders[:orders]), len(self.w)) + np.shape(z), dtype=complex)
        for i, c in enumerate(self.ders[:orders]):
            out[i] = _polyval_rows(c, z)
        return out

    def value_normalized(self, z):
        """scale * sum_k w_k exp(g_k(z) - max_j Re g_j(z)), overflow-free."""
        return self.scale * _normalized_sum(self, self.derivatives(z, 1))[0]


def _normalized_sum(es: _ExpSum, d):
    """(V, V', terms) from the derivatives d at some points, overwriting d[0]:
    V = sum_k w_k e_k, e_k = exp(g_k - max_j Re g_j), its terms w_k e_k, and
    V' = sum_k w_k g_k' e_k where d holds order 1 (else None). Every V is
    formed here, in one term order, as numpy may round w e and e w apart."""
    w = es.w.reshape(es.w.shape + (1,) * (d.ndim - 2))
    d[0] -= np.max(d[0].real, axis=0)
    e = np.exp(d[0], out=d[0])
    terms = w * e
    dv = _add_terms(w * d[1] * e) if len(d) > 1 else None
    return _add_terms(terms), dv, terms


def _add_terms(terms):
    """Sum over the first axis, added one term after another.

    A point then gets the same bits in a batch of any size: numpy's sum
    reduces a lone point's terms pairwise and BLAS dot products block them,
    either of which rounds differently from a column sum over a batch.
    """
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc


# ---------------------------------------------------------------------------
# Argument-principle winding
#
# A closed contour is wound as the sum of the argument increments along its
# pieces. A batch of paths is (mp, shares): a point map mp(s, pid) from s in
# [0, 1] and path ids to points, and each path's share of its contour.

_MIN_GAP = 1e-12  # a piece to cut shorter than this share of its contour fails its path
_MAX_SPLIT = 16  # the most pieces a piece is cut into


def _segments(a, b, span):
    """Straight paths from the points a to the points b, each a piece of a
    closed contour of length span."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)

    def mp(s, pid):
        return a[pid] * (1.0 - s) + b[pid] * s

    return mp, np.abs(b - a) / span


def _circles(centres, radii):
    """Circles, counterclockwise from the point right of each centre."""
    c, r = np.asarray(centres, dtype=complex), np.asarray(radii, dtype=float)

    def mp(s, pid):
        return c[pid] + r[pid] * np.exp(2j * np.pi * s)

    return mp, np.ones(r.shape)


# A box's bottom, right, top and left sides, taken rightwards or upwards,
# wind it counterclockwise with these signs.
_CCW = np.array([1.0, 1.0, -1.0, -1.0])


def _box_sides(box: Rectangle):
    """The sides of a box in _CCW order."""
    p00, p10, p11, p01 = box.corners()
    return _segments([p00, p10, p01, p00], [p10, p11, p11, p01], 2.0 * (box.width + box.height))


def _increments(es: _ExpSum, paths):
    """Argument change along each path of a batch, NaN where it could not be
    taken, and a list of the reasons why not.

    A path is cut into pieces, each proven by the dominance of one term. A
    piece from a to b lies in the disc of radius r about its centre m,
    halfway in s, that reaches its farther end (for an arc of up to a full
    turn too). With k the largest term at m, W = scale w_k e^{g_k} V_k, where
    V_k = sum_j u_j e^{h_j(z) - h_j(m)}, h_j = g_j - g_k and u_j = (w_j /
    w_k) e^{h_j(m)}. On the disc |V_k(z) - V_k(m)| <= |V_k'(m)| r + sum_j
    |u_j| (e^{T_j} - 1 - T1_j), where T_j and T1_j bound h_j(z) - h_j(m)
    and its linear part by the Taylor series of the polynomial h_j. Below
    |V_k(m)| less its rounding, V_k keeps to a half-plane and the argument
    of W changes by exactly Im(g_k(b) - g_k(a)) + angle(V_k(b) / V_k(a)).
    Otherwise the piece is cut into as many equal pieces, 2 to _MAX_SPLIT,
    as make every |u_j| (e^{T_j} - 1) <= |V_k(m)|. A path fails where
    |V_k(m)| is within its rounding or a piece to cut is shorter than
    _MIN_GAP of its contour. Each piece is evaluated at its ends and centre,
    _BATCH / 3 pieces per kernel call, so each path finishes or fails on its
    own points, as if taken alone.
    """
    mp, shares = paths
    floor = _MIN_GAP / np.asarray(shares)
    inc, why = np.zeros(floor.size), np.full(floor.size, None)
    n, K = es.c.shape  # derivative orders 0..D and terms
    lw = np.log(es.w)[:, None]
    order = np.arange(1.0, n)[:, None]
    fact = order.cumprod(axis=0)
    size = np.abs(es.c).max(axis=1)[::-1]  # the largest |coefficient| of each order, highest first

    def certify(pid, sa, sb):
        """Add the increments of the pieces from sa to sb of the paths pid
        that are proven; return the pieces that the others are cut into."""
        p = pid.size
        z = mp(np.concatenate([sa, sb, 0.5 * (sa + sb)]), np.concatenate([pid, pid, pid]))
        d = es.derivatives(z).reshape(n, K, 3, p)
        # log w_j + g_j at a, b and m, and g_j's derivatives at m
        x = np.concatenate([d[0].transpose(1, 0, 2) + lw, d[1:, :, 2]])
        za, zb, zm = z[:p], z[p : 2 * p], z[2 * p :]
        r = np.maximum(np.abs(za - zm), np.abs(zb - zm))
        k = x[2].real.argmax(axis=0)
        xk = x[:, k, np.arange(p)]
        y = x - xk[:, None]  # logs of V_k's terms at a, b and m, and h_j's derivatives at m
        am, noise = np.abs(zm), size[0]
        for c in size[1:]:  # sum_i max_j |c_ji| |m|^i, which bounds the rounding of each g_j(m)
            noise = noise * am + c
        noise = 2.0**-52 * n * K * (2.0 * noise + K)  # the rounding of V_k(m)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            u = np.exp(y[:3])
            v = u.sum(axis=1)  # V_k at a, b and m
            au = np.abs(u[2])
            t = np.abs(y[3:]) * (r**order / fact)[:, None]
            T = t.sum(axis=0)
            spread = np.abs((u[2] * y[3]).sum(axis=0)) * r
            spread += (np.exp(y[2].real + T) - au * (1.0 + t[0])).sum(axis=0)
            av = np.abs(v[2])
            ok = spread + noise < av
            dphi = (xk[1] - xk[0]).imag + np.angle(v[1] / v[0])
        if ok.any():
            inc[:] += np.bincount(pid, np.where(ok, dphi, 0.0), inc.size)
        at = (~ok).nonzero()[0]
        bad = (~(av[at] > noise[at]), sb[at] - sa[at] < floor[pid[at]])
        if (bad[0] | bad[1]).any():
            floored = "contour refinement hit the resolution floor (zero on contour?)"
            for fail, reason in zip(bad, ("zero on or numerically near the contour", floored)):
                ids = pid[at[fail]]
                why[ids[np.equal(why[ids], None)]] = reason
            at = at[np.equal(why[pid[at]], None)]
        if not at.size:
            return pid[at], sa[at], sb[at]
        with np.errstate(divide="ignore", invalid="ignore"):  # T_j <= log(1 + |V_k(m)| / |u_j|)
            room = np.logaddexp(0.0, np.log(av[at]) - y[2][:, at].real)
            cnt = np.fmin(np.ceil((T[:, at] / room).max(axis=0, initial=2.0)), _MAX_SPLIT)
        each = cnt.astype(int)
        at, cnt = at.repeat(each), cnt.repeat(each)  # the piece cut and into how many
        c = np.arange(at.size) - (each.cumsum() - each).repeat(each)
        t0, t1 = c / cnt, (c + 1) / cnt  # 0 and 1 exactly at a piece's ends
        sa, sb = sa[at], sb[at]
        return pid[at], sa * (1.0 - t0) + sb * t0, sa * (1.0 - t1) + sb * t1

    batch = max(_BATCH // 3, 1)
    queue = (np.arange(floor.size), np.zeros(floor.size), np.ones(floor.size))
    while queue[0].size:
        more = certify(*(x[:batch] for x in queue))
        queue = tuple(np.concatenate([x[batch:], y]) for x, y in zip(queue, more))
    inc[~np.equal(why, None)] = np.nan
    return inc, why.tolist()


def _windings(totals) -> list:
    """Winding of each closed contour from its total argument increment: an
    int, or a str when the total / 2 pi is not within 1/4 of an integer."""
    turns = np.asarray(totals, dtype=float) / (2.0 * math.pi)
    near = np.round(turns)
    bad = ~(np.abs(turns - near) <= 0.25)
    out = np.where(bad, 0.0, near).astype(int).tolist()
    for i in np.flatnonzero(bad).tolist():
        out[i] = f"winding {turns[i].item()} did not settle on an integer"
    return out


def _winding(es: _ExpSum, paths, signs, contour):
    """Winding of the closed contour made of a batch of paths, each taken
    with its sign, and the paths' increments; a failure names the contour."""
    inc, why = _increments(es, paths)
    (wind,) = [next(x for x in why if x)] if any(why) else _windings([np.dot(signs, inc)])
    if isinstance(wind, str):
        raise ContourDegeneracyError(f"{wind} on {contour}", contour)
    return wind, inc


def _box_winding(es: _ExpSum, box: Rectangle):
    """(winding, sides): a box's winding and the increments along its sides."""
    return _winding(es, _box_sides(box), _CCW, box)


def winding_number(fvm: FiniteVolumeModel, contour) -> int:
    """Winding of the normalized partition function around a closed contour.

    contour may be a Rectangle, a (center, radius) pair for a circle, or a
    sequence of polyline vertices (closed automatically). It must lie in the
    model domain, a rectangle, so a box or a polyline is checked at its
    corners and a circle by its bounding square.
    """
    es = _ExpSum.from_fvm(fvm)
    if isinstance(contour, Rectangle):
        paths, signs = _box_sides(contour), _CCW
        inside = fvm.domain.contains(np.array(contour.corners())).all()
    elif isinstance(contour, tuple) and len(contour) == 2 and np.ndim(contour[1]) == 0:
        c, r = complex(contour[0]), float(contour[1])
        paths, signs, inside = _circles([c], [r]), [1.0], fvm.domain.contains(c, pad=-r)
    else:
        pts = [complex(v) for v in contour]
        if abs(pts[0] - pts[-1]) > 0.0:
            pts = pts + [pts[0]]
        span = float(np.abs(np.diff(pts)).sum())
        paths, signs = _segments(pts[:-1], pts[1:], span), np.ones(len(pts) - 1)
        inside = fvm.domain.contains(np.array(pts)).all()
    if not inside:
        raise ValidationError(f"contour leaves the model domain {fvm.domain}")
    return _winding(es, paths, signs, contour)[0]


# ---------------------------------------------------------------------------
# Quadtree root finding

# The split fractions (fx, fy) of a cell's cross, in the order tried.
_SPLIT_FRACTIONS = np.array([(0.5, 0.5), (0.53125, 0.5), (0.5, 0.53125), (0.46875, 0.5),
                             (0.5, 0.46875), (0.53125, 0.46875), (0.46875, 0.53125)])


def _chunked(f, z):
    """f(z), an array or a tuple of arrays, for an elementwise f of the
    points z, _BATCH points per call."""
    parts = [f(z[i : i + _BATCH]) for i in range(0, max(z.size, 1), _BATCH)]
    return tuple(map(np.concatenate, zip(*parts))) if isinstance(parts[0], tuple) else np.concatenate(parts)


def _polish(es: _ExpSum, starts):
    """Newton from every start at once: an array z and a list of failure
    reasons, None for a polished point.

    Each point steps until |dz| <= 1e-16 (1 + |z|), or 4 ulps of |z| where
    that is more (from |z| = 1/4 on, where the first bound falls towards one
    ulp), at most _POLISH_STEPS times, and has the kernel evaluated only
    while it steps. A point fails where the derivative vanishes, keeping the
    iterate it vanished at. A point still stepping after _POLISH_STEPS
    steps, as near a multiple zero, where rounding leaves Newton stepping
    about sqrt(eps) from it, is returned like the others. No residual is
    taken here: the alpha-test (_kept) measures a candidate, and the
    quadtree measures the centres it polishes.
    """
    z = np.array(starts, dtype=complex).reshape(-1)
    why: list = [None] * z.size
    act = np.arange(z.size)
    for _ in range(_POLISH_STEPS):
        if not act.size:
            break
        num, den = _chunked(lambda p: _normalized_sum(es, es.derivatives(p, 2))[:2], z[act])
        flat = den == 0
        for i in act[flat].tolist():
            why[i] = "vanishing derivative during polishing"
        act = act[~flat]
        dz = num[~flat] / den[~flat]
        z[act] -= dz
        r = _modulus(z[act])
        act = act[~(_modulus(dz) <= np.maximum(1e-16 * (1.0 + r), 4.0 * np.spacing(r)))]
    return z, why


def _multiplicity(es: _ExpSum, z: complex, radius: float) -> int:
    for factor in (1.0, 1.3, 0.77, 1.69, 0.59):
        inc, why = _increments(es, _circles([z], [radius * factor]))
        (wind,) = why if why[0] is not None else _windings(inc)
        if not isinstance(wind, str):
            return wind
    raise ContourDegeneracyError(
        f"could not count multiplicity on the circle {(z, radius)} or its rescalings",
        (z, radius),
    )


def _complex(x, y):
    """The points x + i y, with their parts exactly x and y."""
    z = np.empty(np.broadcast(x, y).shape, dtype=complex)
    z.real, z.imag = x, y
    return z


def _root(box: Rectangle, wound):
    """The quadtree depth of one cell, a box whose _box_winding is wound.

    A depth is held as the columns (rect, wind, sides): row i is a cell with
    the corners (re_lo, re_hi, im_lo, im_hi) = rect[i], the winding wind[i]
    and the increments sides[i] along its _box_sides."""
    return np.array([[box.re_lo, box.re_hi, box.im_lo, box.im_hi]]), np.array(wound[:1]), np.array([wound[1]])


def _split(es: _ExpSum, cells, kept=None):
    """The depth of the children of a depth of cells: four per cell, lower
    left, lower right, upper left and upper right, in the order of the cells.

    A split at the children's shared corner c winds eight paths: the four
    from c to the cell's sides and the lower or left part of every side,
    whose other part is the side's increment minus it. The paths of all
    cells are wound in one batch, each path once, in the order the cells
    first name it, so neighbours sharing a side wind its part once. A cell
    whose paths fail, whose child windings do not sum to its own, or whose
    cross through c meets a kept disc inside it retries at its next split
    fraction in the next batch, which winds only the paths that no batch of
    this call has wound; such a cross is not wound. A retry skips every
    fraction that keeps a line of the cross already shown to fail: the line
    y = ym where a horizontal half-edge failed or a kept disc meets it, and
    likewise x = xm. kept = (centres, radii, cell) holds the kept zeros'
    discs and the index of the cell holding each, -1 for none.
    """
    rect, wind, sides = cells
    n, (fx, fy) = wind.size, _SPLIT_FRACTIONS.T
    out = np.empty((n, 4, 4)), np.empty((n, 4), dtype=int), np.empty((n, 4, 4))
    ends, inc = np.empty((4, 0)), np.zeros(0)  # each path wound in this call, by the parts of its ends
    left = np.ones((n, fx.size), dtype=bool)  # the fractions a cell may still try
    k, f = np.arange(n), np.zeros(n, dtype=int)  # the cells to try, at these fractions
    while k.size:
        (x0, x1, y0, y1), (xm, ym) = rect[k].T, _cross(rect[k], f)
        hit = _hit(kept, n, k, xm, ym)
        free = ~hit.any(axis=0)
        p0, p1, q0, q1, pm, qm = (v[free] for v in (x0, x1, y0, y1, xm, ym))
        # (p00, b), (p10, rt), (p01, t), (p00, lt), (lt, c), (c, rt), (b, c), (c, t)
        new = np.array([[p0, p1, p0, p0, p0, pm, pm, pm], [q0, q0, q1, q0, qm, qm, q0, qm],
                        [pm, p1, pm, p0, pm, p1, pm, pm], [q0, qm, q1, qm, qm, qm, qm, q1]])
        new = np.concatenate([ends, new.transpose(0, 2, 1).reshape(4, -1)], axis=1)
        order = np.lexsort(new)
        head = np.ones(order.size, dtype=bool)
        head[1:] = (np.diff(new[:, order], axis=1) != 0).any(axis=0)
        first = np.empty_like(order)  # the first path equal to each
        first[order] = order[head][head.cumsum() - 1]
        own = first == np.arange(first.size)
        slot = (own.cumsum() - 1)[first[inc.size :]]  # each path's place in ends
        span = ((p1 - p0) + (q1 - q0)).repeat(8)[own[inc.size :]]  # a child's perimeter
        ends = new[:, own]
        if span.size:
            new = _segments(_complex(*ends[:2, inc.size :]), _complex(*ends[2:, inc.size :]), span)
            inc = np.concatenate([inc, _increments(es, new)[0]])
        paths = np.full((k.size, 8), np.nan)  # NaN where a path failed or was not wound
        paths[free] = inc[slot].reshape(-1, 8)
        b1, r1, t1, l1, h1, h2, v1, v2 = paths.T
        bo, ri, to, le = sides[k].T
        kid = np.array([(b1, v1, h1, l1), (bo - b1, r1, h2, v1), (h1, v2, t1, le - l1),
                        (h2, ri - r1, to - t1, v2)]).transpose(2, 0, 1)  # cell, child, side
        ok = ~np.isnan(kid).any(axis=(1, 2))
        winds = np.full((k.size, 4), np.nan)
        winds[ok] = np.reshape([w if isinstance(w, int) else np.nan for w in _windings((kid[ok] @ _CCW).ravel())], (-1, 4))
        done = winds.sum(axis=1) == wind[k]
        quads = np.array([(x0, xm, y0, ym), (xm, x1, y0, ym), (x0, xm, ym, y1), (xm, x1, ym, y1)])
        for col, val in zip(out, (quads.transpose(2, 0, 1), winds, kid)):
            col[k[done]] = val[done]
        # the lines of each failed cross shown to fail, x = xm and y = ym
        lines = np.where(free, [np.isnan(v1) | np.isnan(v2), np.isnan(h1) | np.isnan(h2)], hit)[:, ~done]
        k, f = k[~done], f[~done]
        left[k] &= ~((lines[0, :, None] & (fx == fx[f, None])) | (lines[1, :, None] & (fy == fy[f, None])))
        later = left[k] & (np.arange(fx.size) > f[:, None])
        if not later.any(axis=1).all():
            box = Rectangle(*rect[k[~later.any(axis=1)][0]].tolist())
            raise UnresolvedClusterError(f"subdivision of {box} kept hitting zeros on internal edges", box)
        f = later.argmax(axis=1)
    return out[0].reshape(-1, 4), out[1].reshape(-1), out[2].reshape(-1, 4)


def _cross(rect, f):
    """The corner (xm, ym) of the children of the cells rect split at _SPLIT_FRACTIONS[f]."""
    (fx, fy), (x0, x1, y0, y1) = _SPLIT_FRACTIONS[f].T, rect.T
    return x0 + fx * (x1 - x0), y0 + fy * (y1 - y0)


def _hit(kept, n, k, xm, ym):
    """Whether a kept disc inside the cell k[i] meets the line x = xm[i]
    (row 0) or y = ym[i] (row 1), for _split on n cells."""
    z, r, cell = kept or (np.zeros(0), np.zeros(0), np.zeros(0, dtype=int))
    at = np.full(n + 1, -1)  # the try of each cell; cell -1 reads the last slot
    at[k] = np.arange(k.size)
    i = at[cell]
    meets = (i >= 0) & [np.abs(z.real - xm[i]) <= r, np.abs(z.imag - ym[i]) <= r]
    return np.array([np.bincount(i[m], minlength=k.size) > 0 for m in meets])


def _quadtree(es: _ExpSum, box: Rectangle, wound, min_cell, kept, r: float):
    """Candidate zeros of a box whose _box_winding is `wound`, besides the
    kept zeros whose centres and disjoint disc radii kept = (z, r) holds.

    Returns the columns (z, multiplicity, residual) in depth-first order of
    the cells, with multiplicity 0 where it still has to be counted by a
    small circle. The tree is walked one depth at a time, each depth as
    columns (_root) with a depth-first path key per cell. A cell is finished
    when its winding equals the number of kept zeros inside it; no kept disc
    meets a cell edge (_split), so each lies in one cell. Every point that
    Newton reaches from a centre is measured by _alpha_beta with the Cauchy
    radius r, as _kept measures a candidate. An unfinished winding-1 cell
    holds no kept zero; when Newton from its centre does not fail and
    reaches a point inside it that is _certified, that point is its only
    zero, simple, and its descent stops there. Every other unfinished cell
    is split down to min_cell (_split, the cells of one depth in one batch
    of side increments), and terminal cells are polished from their
    centres, their points left to _locate's multiplicity circle. The
    winding-1 and terminal cells of a depth are polished in one batch, and
    a terminal cell whose Newton failed raises, at the first such cell of
    the depth in path order.
    """
    kz, kr = kept
    cell = np.zeros(kz.size, dtype=int)  # the cell of the depth holding each kept zero, or -1
    (rect, wind, sides), path = _root(box, wound), np.array([b""])
    cands = []  # the path keys and columns of each depth's candidates
    while wind.size:
        x0, x1, y0, y1 = rect.T
        held = np.bincount(cell[cell >= 0], minlength=wind.size)
        live = wind != held
        terminal = live & (np.maximum(x1 - x0, y1 - y0) < min_cell)
        todo = np.flatnonzero(live & (wind == 1) | terminal)
        z, why = _polish(es, _complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))[todo])
        ok = np.array([w is None for w in why], dtype=bool)
        res, alpha, beta = _chunked(lambda p: _alpha_beta(es, p, r), z)
        inside = (x0[todo] <= z.real) & (z.real <= x1[todo]) & (y0[todo] <= z.imag) & (z.imag <= y1[todo])
        one, failed = np.zeros((2, wind.size), dtype=bool)
        one[todo] = ok & (wind[todo] == 1) & inside & _certified(alpha, beta)
        failed[todo] = ~ok
        bad = np.flatnonzero((wind < held) | terminal & failed)
        if bad.size and wind[bad[0]] < held[bad[0]]:
            at = Rectangle(*rect[bad[0]].tolist())
            raise UnresolvedClusterError(f"{at} winds {wind[bad[0]]} around {held[bad[0]]} kept zeros", at)
        if bad.size:
            i = np.searchsorted(todo, bad[0])
            raise NoConvergenceError(why[i], complex(z[i]))
        at = np.flatnonzero(one | terminal)
        i = np.searchsorted(todo, at)
        cands.append((path[at], z[i], one[at].astype(int), res[i]))
        split = np.flatnonzero(live & ~one & ~terminal)
        at = np.full(wind.size + 1, -1)  # the split of each cell; -1 reads the last slot
        at[split] = np.arange(split.size)
        cell = at[cell]
        rect, wind, sides = _split(es, (rect[split], wind[split], sides[split]), (kz, kr, cell))
        path = np.char.add(path[split].repeat(4), np.tile(np.array([b"0", b"1", b"2", b"3"]), split.size))
        # the child quadrant of each kept zero, which no cross meets: the
        # upper right child's lower left corner is the cross
        own = cell >= 0
        c = rect[4 * cell[own] + 3]
        cell[own] = 4 * cell[own] + (kz.real[own] > c[:, 0]) + 2 * (kz.imag[own] > c[:, 2])
    path, *cols = map(np.concatenate, zip(*cands))
    order = np.argsort(path, kind="stable")
    return tuple(c[order] for c in cols)


def _locate(es: _ExpSum, box: Rectangle, wound, z, scale: float):
    """(found, k): the zeros of a box whose _box_winding is wound, as the
    columns (z, multiplicity, residual), and how many of them the quadtree
    located.

    z are candidate points, not trusted and not yet measured. _kept
    decides which of them are zeros, from one evaluation of each: those it
    keeps, with the Cauchy radius scale (the zero spacing), are distinct
    simple zeros, each proven within 1e-10 of its point (_certified); when
    they are as many as the box winding, they are all of them. Otherwise
    the quadtree runs, down to terminal cells of 1e-3 scale, on the cells
    whose winding the kept zeros leave unaccounted for, and accepts a simple
    zero by the same _certified rule and Cauchy radius. Candidates closer
    than half the multiplicity circle of 1e-2 scale are merged, and every
    merged or terminal-cell zero has its multiplicity counted by that
    circle, so a multiple zero that rounding splits across a cell edge is
    counted in full; the multiplicities must sum to the box winding. With
    no candidates this is the seedless quadtree.
    """
    z = np.asarray(z, dtype=complex)
    keep, rad, res = _kept(es, box, z, scale)
    total = wound[0]
    if keep.size == total:
        return (z[keep], np.ones(keep.size, dtype=int), res), 0
    min_cell, r_mult = 1e-3 * scale, 1e-2 * scale
    quad = _quadtree(es, box, wound, min_cell, (z[keep], rad), scale)
    cz, cm, cr = (np.concatenate(c) for c in zip((z[keep], np.ones(keep.size, dtype=int), res), quad))
    near, inside = _neighbours(cz, 0.5 * r_mult), box.contains(cz, pad=min_cell).tolist()
    found: dict[int, int] = {}  # the index of each zero taken -> its multiplicity
    for i, (zi, mult) in enumerate(zip(cz.tolist(), cm.tolist())):
        if not inside[i] or not found.keys().isdisjoint(near.get(i, ())):
            continue
        if not mult or i in near:
            mult = _multiplicity(es, zi, r_mult)
            if mult < 1:
                continue
        found[i] = mult
    if sum(found.values()) != total:
        msg = f"polished multiplicities sum to {sum(found.values())}, box winding is {total}"
        raise UnresolvedClusterError(msg, box)
    at = list(found)
    cols = (cz[at], np.array(list(found.values()), dtype=int), cr[at])
    return cols, sum(i >= keep.size for i in at)


def eval_logZ_normalized(fvm: FiniteVolumeModel, z: complex) -> complex:
    """Normalized partition function W(z) = Z(z) * zeta_L(z)^{-N}, with
    zeta_L(z) = max_m |zeta_m^{(L)}(z)| the finite-volume maximum (the
    infinite-volume one for an unperturbed model).

    Evaluated by the zero finder's kernel, normalizing each term by the
    largest exponent real part, so no intermediate can overflow; at a zero
    the finder located, its modulus is that zero's residual.
    """
    z = _require_finite(z)
    if not fvm.domain.contains(z):
        raise DomainError(f"{z} outside model domain")
    return complex(_ExpSum.from_fvm(fvm).value_normalized(z))


def xi_normalized(fvm: FiniteVolumeModel, z):
    """Synthetic error term Xi(z) * zeta_L(z)^{-N}, zeta_L(z) the
    finite-volume maximum as in eval_logZ_normalized; Xi is the dominant sum
    times xi_strength * N * e^{-tau L}. Elementwise for an array z."""
    es, z = _ExpSum.from_fvm(fvm), np.asarray(z)
    v = _normalized_sum(es, es.derivatives(z, 1))[0]
    out = fvm.xi_strength * fvm.N * fvm.perturbation_scale() * v
    return complex(out) if z.ndim == 0 else out


def find_zeros_region(fvm: FiniteVolumeModel, box: Rectangle) -> ZeroSet:
    """All zeros of the normalized partition function inside a box.

    Quadtree subdivision of the box by boundary winding numbers. A cell of
    winding 1 stops descending as soon as Newton from its centre reaches a
    point inside it that the alpha-test proves within 1e-10 of a simple
    zero (_certified, with the Cauchy radius 1/N): that zero is the cell's
    only one. Cells of higher winding descend to 1e-3/N and each terminal
    cell is polished, with a small-circle winding for its multiplicity. The
    multiplicities are required to add up to the winding of the whole box.
    A cell winds as the sum of the increments along its sides, so a split
    winds only the half-edges from the new corner and part of each side
    (_split); a depth takes one batch of such paths and one array Newton.

    It is _locate with no candidates, so find-zeros runs it as the
    independent check. Given candidates, such as predicted zeros or the axis
    roots of symmetric models, _locate runs this quadtree only on the
    winding that the candidates it keeps leave unaccounted for.
    """
    es, wound = _wound_box(fvm, box)
    return _located(fvm, box, _locate(es, box, wound, (), 1.0 / fvm.N)[0])


def _located(fvm: FiniteVolumeModel, box: Rectangle, found) -> ZeroSet:
    return ZeroSet.build(*found, METHOD_BRUTE, box, fvm.L, fvm.d)


# ---------------------------------------------------------------------------
# Locators that wind the box once and certify what they find


@dataclass
class ZeroSearch:
    """The zeros of a box and how a locator found them.

    box_winding is the winding of the box boundary. quadtree_located counts
    the zeros that the quadtree located, in the cells whose winding the kept
    candidates leave unaccounted for (_locate): 0 when the candidates
    account for the whole box. axis_sign_changes counts the sign changes of
    Re W along the box's segment of the axis Re w = 0 (0 when the box does
    not straddle it); the seeded locator leaves it None.
    """

    zeros: ZeroSet
    box_winding: int
    quadtree_located: int
    axis_sign_changes: int | None = None


def _wound_box(fvm: FiniteVolumeModel, box: Rectangle):
    """The model's kernel and the _box_winding of a box in its domain."""
    if not fvm.domain.contains(np.array(box.corners())).all():
        raise ValidationError(f"box {box} not contained in domain {fvm.domain}")
    es = _ExpSum.from_fvm(fvm)
    return es, _box_winding(es, box)


def _axis_re(es: _ExpSum, y) -> np.ndarray:
    """Re W at the points i y of the axis, _BATCH points per kernel call."""
    return _chunked(lambda t: es.value_normalized(1j * t).real, np.asarray(y, dtype=float))


def find_zeros_on_axis(fvm: FiniteVolumeModel, box: Rectangle) -> ZeroSearch:
    """All zeros of the normalized partition function inside a box, those
    on the axis Re w = 0 taken from the axis, where the local Lee-Yang
    theorem puts them.

    For a plus/minus symmetric model (analysis.lee_yang_hypotheses) W(i y)
    is real, so every sign change of Re W along the box's segment of the
    axis brackets a zero of odd multiplicity. The segment is sampled at
    (2K+1) height rate / 1.2 points, 65 at least, rate bounding the phase
    rate of the K exponents on it, and every bracket is closed by
    diagram._close_brackets, both through _axis_re; the end of a bracket
    still open after its steps is a root like the others. Every root is
    one of _locate's candidates as it is, without Newton and without a
    residual, so a kept root has Re w exactly 0; _kept measures each root
    once and keeps it only when the alpha-test proves its zero within 2
    beta <= 1e-10 (_certified, the quadtree's rule too), so a bracket end
    farther than that from its zero is dropped. The quadtree locates only the
    zeros the kept roots leave unaccounted for: zeros off the axis,
    multiple zeros, and every zero of a box that does not straddle the
    axis. When the kept roots are as many as the box winding, every zero in
    the box is simple and on the axis: the theorem's conclusion, checked
    rather than assumed.
    """
    es, wound = _wound_box(fvm, box)
    roots = np.zeros(0)
    if box.re_lo < 0.0 < box.re_hi:
        # sum_{i >= 1} |g_k^(i)| r^(i-1) / (i-1)! bounds |g_k'| on the segment
        a, r = np.abs(es.derivatives(0.5j * (box.im_lo + box.im_hi))), 0.5 * box.height
        rate = sum(a[i] * (r ** (i - 1) / math.factorial(i - 1)) for i in range(1, len(a))).max()
        count = max((2 * len(es.w) + 1) * box.height * rate / 1.2, 65.0)
        y = np.linspace(box.im_lo, box.im_hi, int(count) + 1)
        f = _axis_re(es, y)
        (i,) = np.nonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0.0)
        roots, _ = _close_brackets(lambda t, _: _axis_re(es, t), y[i], y[i + 1], f[i], f[i + 1])
    z = 0.0 + 1j * roots  # the real parts +0.0, as in complex(0.0, y)
    found, k = _locate(es, box, wound, z, 1.0 / fvm.N)
    return ZeroSearch(_located(fvm, box, found), wound[0], k, int(roots.size))


# The largest alpha a kept zero may have: Smale's alpha_0 = (13 - 3 sqrt 17)/4
# = 0.1577, with room for the rounding of |V'| and M in the computed alpha.
_ALPHA_MAX = 0.01


def _certified(alpha, beta):
    """Whether Smale's alpha-test proves a unique simple zero within 2 beta
    <= _LOCATE_TOL of each point: the one rule that accepts a simple zero."""
    return (alpha <= _ALPHA_MAX) & (2.0 * beta <= _LOCATE_TOL)


def _alpha_beta(es: _ExpSum, z: np.ndarray, r: float):
    """(residual, alpha, beta) at each point z: the residual |W(z)|, and
    Smale's alpha = beta gamma and beta of the analytic sum V(t) = sum_k w_k
    exp(g_k(t) - G), with G = max_j Re g_j(z) fixed at that point; V has the
    zeros of W, and W(z) = scale V(z).

    beta = |V|/|V'|, with |V| raised by the rounding bound
    4u sum_k a_k (sum_i |c_ki| |z|^i + K) of its K-term evaluation, where
    a_k = |w_k| exp(Re g_k(z) - G). gamma = sup_i |V^(i)/(i! V')|^(1/(i-1))
    over i >= 2 is bounded by Cauchy's estimate on the disc of radius r
    about z, where |V| <= M = sum_k a_k exp(sum_i |g_k^(i)(z)| r^i/i!), the
    polynomial g_k being its own Taylor series: gamma <= max(1, M/(r|V'|))/r.
    g_k and all its derivatives come from one derivatives call.
    """
    d = es.derivatives(z)
    t = sum(np.abs(d[i]) * (r**i / math.factorial(i)) for i in range(1, len(d)))
    v, dv, terms = _normalized_sum(es, d)
    a = np.abs(terms)
    size = _polyval_rows(np.abs(es.c), np.abs(z)).real
    slack = 2.0**-51 * _add_terms(a * (size + len(es.w)))
    bound = _add_terms(a * np.exp(t))
    m = _modulus(dv)
    with np.errstate(divide="ignore"):
        beta = (_modulus(v) + slack) / m
        gamma = np.maximum(1.0, bound / (r * m)) / r
    return _modulus(es.scale * v), beta * gamma, beta


def _kept(es: _ExpSum, box: Rectangle, z: np.ndarray, r: float):
    """(indices, radii, residuals): the candidates z kept, in order, their
    2 beta and their residuals |W|.

    Every candidate inside the box is measured once by _alpha_beta, _BATCH
    points per kernel call. It is kept when it is _certified, Smale's
    alpha-test with alpha <= 0.01 and the Cauchy radius r proving a unique
    simple zero within 2 beta <= 1e-10 of it (so neither is NaN), when that
    2 beta disc lies inside the box, and when it is farther than twice the
    largest such radius (and 1e-12) from every candidate kept before it, so
    that its disc meets none of theirs. The kept discs hold distinct simple
    zeros of the box. The residual is measured, not judged: at large N it
    may exceed 1e-10 by the rounding of W itself while 2 beta, which
    carries that rounding, proves the zero far closer.
    """
    ok = np.flatnonzero(box.contains(z))
    res, alpha, beta = _chunked(lambda p: _alpha_beta(es, p, r), z[ok])
    rad = 2.0 * beta
    good = _certified(alpha, beta) & box.contains(z[ok], pad=-rad)
    ok, rad, res = ok[good], rad[good], res[good]
    first = _first_come(z[ok], max(2.0 * float(rad.max(initial=0.0)), _DEDUP_TOL))
    return ok[first], rad[first], res[first]


def find_zeros_seeded(fvm: FiniteVolumeModel, box: Rectangle, seeds) -> ZeroSearch:
    """All zeros of the normalized partition function inside a box, located
    from seeds, such as predicted zeros, that are not trusted.

    The box is wound once and the seeds are polished in one array Newton
    (_polish), which takes no residual. Every point it returns goes to
    _locate: _kept measures each once and keeps those that Smale's
    alpha-test certifies as distinct simple zeros of the box, and the
    quadtree of find_zeros_region locates only the zeros they leave
    unaccounted for in the box winding.
    """
    es, wound = _wound_box(fvm, box)
    found, k = _locate(es, box, wound, _polish(es, seeds)[0], 1.0 / fvm.N)
    return ZeroSearch(_located(fvm, box, found), wound[0], k)


# ---------------------------------------------------------------------------
# Predicted zeros: two-phase balance equations



def predict_two_phase(
    source,
    m: int,
    n: int,
    curve: CoexistenceCurve,
    L: int | None = None,
    d: int | None = None,
) -> ZeroSet:
    """Solutions of the two-phase modulus and phase-quantization equations.

    Together the two equations say N (P_m - P_n)(z) = log(q_n/q_m) +
    i pi (2j+1): one analytic equation h(z) = c_j per integer j. The curve
    supplies only the seeds. theta = N Im h increases strictly along a
    traced curve, so every pi (2j+1) between its end values gets one seed,
    interpolated between the samples against theta. One array Newton then
    runs on all seeds at once, each seed until |N (h(z) - c_j)| <= 1e-10, or
    8 ulps of |N c_j| where that is more (at large N 1e-10 is below the
    rounding of N h), so the curve may be as coarse as its shape allows.
    Samples along which theta is not strictly monotone raise ValidationError.
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
    log_ratio = math.log(q[n] / q[m])

    samples = curve.samples
    pts = curve.points()
    theta = N * h(pts).imag
    if theta[-1] < theta[0]:
        samples, pts, theta = samples[::-1], pts[::-1], theta[::-1]
    bad = np.flatnonzero(~(np.diff(theta) > 0.0))
    if bad.size:
        s = samples[bad[0] + 1]
        raise ValidationError(
            f"theta = N Im(P_m - P_n) is not strictly monotone along the curve "
            f"at the sample t={s.t:.6g}, z={s.z}"
        )

    # one target pi (2j+1) per zero, each seeded between its two samples
    j = np.arange(
        math.floor((theta[0] - math.pi) / (2.0 * math.pi)),
        math.ceil((theta[-1] - math.pi) / (2.0 * math.pi)) + 1,
    )
    tgt = math.pi + 2.0 * math.pi * j
    tgt = tgt[(theta[0] <= tgt) & (tgt <= theta[-1])]
    z = np.interp(tgt, theta, pts)
    c = log_ratio + 1j * tgt  # N c_j
    stop = np.maximum(_TWO_PHASE_TOL, 8.0 * np.spacing(np.abs(c)))
    act = np.arange(tgt.size)
    for k in range(_NEWTON_STEPS + 1):
        r = N * h(z[act]) - c[act]
        keep = ~(np.abs(r) <= stop[act])
        act = act[keep]
        if not act.size or k == _NEWTON_STEPS:
            break
        z[act] -= r[keep] / (N * dh(z[act]))
    if act.size:
        raise NoConvergenceError(
            f"two-phase Newton did not reach |N(h - c_j)| <= max({_TWO_PHASE_TOL}, 8 ulps of |N c_j|) "
            f"in {_NEWTON_STEPS} steps",
            complex(z[act[0]]),
        )
    hz = h(z)
    resid = np.abs(N * hz.imag - tgt) + N * np.abs(hz.real - log_ratio / N)

    pad = 1e-9 + 2.0 / max(N, 1)
    region = Rectangle(
        float(pts.real.min()) - pad,
        float(pts.real.max()) + pad,
        float(pts.imag.min()) - pad,
        float(pts.imag.max()) + pad,
    )
    return ZeroSet.build(z, 1, resid, METHOD_TWO_PHASE, region, L, d)


# ---------------------------------------------------------------------------
# Predicted zeros: multiple-point equation


# A two-term seed of G is kept where no other term's modulus exceeds the
# pair's by more than the factor e, exp of this.
_SEED_DOMINANCE = 1.0


def _multipoint_seeds(qs, phis, vs, R: float) -> np.ndarray:
    """Zeros of G(zf) = sum_m q_m exp(i phi_m + v_m zf) in the box [-R, R]^2
    predicted from its two-term balances.

    Where the terms a and b dominate, G = 0 says (v_a - v_b) zf =
    log(q_b/q_a) + i (phi_b - phi_a) + i pi (2j+1), one zero per integer j
    on a line. For every pair the solutions in the box are kept where no
    other term's modulus q_k |exp(v_k zf)| is above e times the pair's.
    """
    logq = np.log(np.asarray(qs, dtype=float))
    v = np.asarray(vs, dtype=complex)
    seeds = []
    for a, b in itertools.combinations(range(v.size), 2):
        dv = v[a] - v[b]
        if dv == 0:
            continue
        z0 = (logq[b] - logq[a] + 1j * (phis[b] - phis[a] + math.pi)) / dv
        step = 2j * math.pi / dv
        lo, hi = -math.inf, math.inf  # the j with z0 + j step in the box
        for p0, dp in ((z0.real, step.real), (z0.imag, step.imag)):
            if dp != 0.0:
                t1, t2 = sorted(((-R - p0) / dp, (R - p0) / dp))
                lo, hi = max(lo, t1), min(hi, t2)
            elif abs(p0) > R:
                lo, hi = 1.0, 0.0
        zf = z0 + np.arange(math.ceil(lo), math.floor(hi) + 1) * step
        mod = logq[:, None] + (v[:, None] * zf).real
        seeds.append(zf[mod.max(axis=0) <= mod[a] + _SEED_DOMINANCE])
    return np.concatenate(seeds) if seeds else np.empty(0, dtype=complex)


def predict_multipoint(
    model: ModelSpec,
    mp: MultiplePoint,
    L: int,
    d: int,
    rho_L: float,
) -> ZeroSet:
    """Solutions of the rescaled exponential-sum equation near a multiple point.

    Builds G(zf) = sum_{m in Q} q_m exp(i phi_m + v_m zf) in the rescaled
    coordinate zf = (z - z_M) N and locates all of its zeros in the box
    [-R, R]^2, R = N rho_L, then maps those with |zf| <= R back. The zeros
    are seeded by the two-term balances of G (_multipoint_seeds), which
    away from z_M put them on the asymptote half-lines, polished and handed
    to _locate like find_zeros_seeded's, with the
    Cauchy radius 1, the zero spacing in zf; the quadtree locates only the
    zeros of the box that the kept ones leave unaccounted for in its
    winding. The result's quadtree_located counts those.
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
    z, _ = _polish(es, _multipoint_seeds(qs, phis, vs, R))
    (zf, mult, res), k = _locate(es, box, _box_winding(es, box), z, 1.0)
    inside = _modulus(zf) <= R
    # zf / N by parts, as Python divides a complex by a real (numpy takes 1 / N)
    z = mp.z + (zf.real[inside] / N + 1j * (zf.imag[inside] / N))
    region = Rectangle(
        mp.z.real - rho_L, mp.z.real + rho_L, mp.z.imag - rho_L, mp.z.imag + rho_L
    )
    return ZeroSet.build(z, mult[inside], res[inside], METHOD_MULTIPOINT, region, L, d,
                         quadtree_located=k)


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


def delta_L(
    model: ModelSpec,
    z,
    L: int,
    d: int,
    gamma_L: float,
    tau: float,
    kappa: float,
    Q,
):
    """Per-zero tolerance: exponentially small near the coexistence core,
    volume-suppressed in the outer almost-stable shell.

    A scalar z outside the gamma_L two-phase region of Q raises DomainError.
    An array z gives one tolerance per point, NaN outside that region. The
    growth and decay conditions on gamma_L are warned about once per call.
    """
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
    scalar = np.ndim(z) == 0
    if scalar:
        z = _require_finite(z)
    inside = in_two_phase_region(model, z, gamma_L, Q)
    if scalar and not inside:
        raise DomainError(f"{z} is not in the two-phase region of {Q} at eps={gamma_L:.3g}")
    core = in_two_phase_region(model, z, 2.0 * kappa / L, Q)
    tol = np.where(core, math.exp(-tau * L), N * math.exp(-0.5 * gamma_L * N))
    return float(tol) if scalar else np.where(inside, tol, np.nan)


def match_zeros(predicted: ZeroSet, located: ZeroSet, tolerances, c_match: float = 10.0) -> MatchReport:
    """Greedy nearest-pair matching, verified injective both ways.

    Repeatedly pairing the closest free predicted and located zeros (ties
    to the lowest predicted, then located index) is taking all pairs in
    ascending (distance, predicted, located) order and keeping each whose
    two ends are still free. The pairs are drawn from a grid, within a
    radius that doubles until one side is used up: a pair within the radius
    precedes every pair beyond it, so each round keeps what the full order
    would keep, and no n x n distance matrix is formed.

    tolerances is a scalar or a per-predicted-zero sequence; pairs farther
    apart than c_match times their tolerance are flagged, not dropped.
    """
    np_, nl = len(predicted), len(located)
    tol = np.asarray(tolerances, dtype=float)
    tol = np.zeros(np_) if np_ == 0 else np.broadcast_to(tol, (np_,))
    pp, ll = predicted.z, located.z
    taken_p, taken_l = bytearray(np_), bytearray(nl)  # 1 where a zero is paired
    fp, fl = np.arange(np_), np.arange(nl)
    partner, gap = np.zeros(np_, dtype=int), np.zeros(np_)  # each paired predicted zero's match
    if np_ and nl:
        both = np.concatenate([pp, ll])
        r = max(np.ptp(both.real), np.ptp(both.imag)) / both.size or 1.0
        while fp.size and fl.size:
            i, j = map(np.concatenate, zip(*_grid_pairs(pp[fp], ll[fl], r)))
            i, j = fp[i], fl[j]
            dist = np.abs(pp[i] - ll[j])
            near = np.flatnonzero(dist <= r)
            order = near[np.lexsort((j[near], i[near], dist[near]))]
            i, j, dist = i[order], j[order], dist[order]
            keep = bytearray(i.size)
            for k, a, b in zip(itertools.count(), i.tolist(), j.tolist()):
                if not (taken_p[a] or taken_l[b]):
                    taken_p[a] = taken_l[b] = keep[k] = 1
            keep = np.frombuffer(keep, dtype=bool)
            partner[i[keep]], gap[i[keep]] = j[keep], dist[keep]
            fp, fl = (np.flatnonzero(~np.frombuffer(t, dtype=bool)) for t in (taken_p, taken_l))
            r *= 2.0
    i = np.flatnonzero(np.frombuffer(taken_p, dtype=bool))
    return MatchReport(i, partner[i], gap[i], tol[i], fp, fl, located.min_spacing(), float(c_match))


@dataclass
class DegeneracyReport:
    """The audit of a zero set in columns: zero k, at z[k] with multiplicity
    multiplicity[k], has the almost-stable set {m : stable[m, k]},
    mult_ok[k] says whether its multiplicity is within the bound, and
    isolated[k] is the phase that dominates it alone, or -1."""

    z: np.ndarray
    multiplicity: np.ndarray
    stable: np.ndarray  # bool, (phases, zeros)
    mult_ok: np.ndarray
    isolated: np.ndarray

    @property
    def violations(self) -> np.ndarray:
        """The zeros above their multiplicity bound or in a single-phase region."""
        return np.flatnonzero(~self.mult_ok | (self.isolated >= 0))

    @property
    def ok(self) -> bool:
        return not self.violations.size


def degeneracy_audit(
    fvm: FiniteVolumeModel,
    located: ZeroSet,
    region_Q=None,
    omega_L: float | None = None,
) -> DegeneracyReport:
    """Check the degeneracy bound and the exclusion of single-phase regions.

    Every zero must have multiplicity at most |Q|-1 for its almost-stable
    set Q at eps = kappa/L, and must not sit where one phase dominates all
    others by more than omega_L/(2N). One log_weights call serves every
    zero and both checks.
    """
    if omega_L is None:
        omega_L = math.log(fvm.N)
    re_p = np.real(fvm.base.log_weights(located.z))
    stable = re_p > re_p.max(axis=0) - fvm.kappa / fvm.L  # almost_stable_set's rule
    bound = stable.sum(axis=0) - 1
    if region_Q is not None:
        bound = np.minimum(bound, len(tuple(region_Q)) - 1)
    isolated = np.where(_in_strip(re_p, omega_L / fvm.N), -1, re_p.argmax(axis=0))
    mult_ok = located.multiplicity <= np.maximum(bound, 0)
    return DegeneracyReport(located.z, located.multiplicity, stable, mult_ok, isolated)
