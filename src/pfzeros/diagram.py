"""Coexistence curves and phase-diagram topology.

Two-phase coexistence is the zero level set of phi(z) = Re(P_m(z) - P_n(z))
restricted to where both phases are stable; curves are traced by unit-speed
integration along the level set with re-projection after every step.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NoConvergenceError,
    SingularityError,
    SpuriousRootError,
    ValidationError,
)
from .model import ModelSpec, _modulus, _pair_gap, _require_finite

# Residual kept on the level set by re-projection.
TOL_PROJECT = 1e-12
# Curve samples are accepted while |phi| stays below this.
TOL_CURVE = 1e-9
# A third phase within this of the top exponent stops a trace and seeds a
# multiple-point solve; far above projection residuals, far below step scale.
EPS_MULTIPOINT = 1e-6
# find_multiple_point: Newton on the two ties stops at this residual, within
# this many steps, and a phase within TIE_MULTIPOINT of the top exponent
# belongs to the stable set of the point.
TOL_MULTIPOINT = 1e-12
STEPS_MULTIPOINT = 50
TIE_MULTIPOINT = 1e-9

TERM_DOMAIN = "domain_boundary"
TERM_MULTIPOINT = "multiple_point"
TERM_LOOP = "closed_loop"
TERM_MAXSTEPS = "max_steps"
TERM_PROJECTION = "projection_failure"


@dataclass(frozen=True, slots=True)
class CurveSample:
    t: float
    z: complex
    v_m: complex
    v_n: complex


@dataclass
class Termination:
    kind: str
    mp_seed: complex | None = None
    mp_triple: tuple[int, int, int] | None = None
    mp_index: int | None = None


@dataclass
class CoexistenceCurve:
    pair: tuple[int, int]
    samples: list[CurveSample]
    start: Termination
    end: Termination

    @property
    def arc_length(self) -> float:
        return self.samples[-1].t - self.samples[0].t

    def points(self) -> np.ndarray:
        return np.array([s.z for s in self.samples])


@dataclass
class MultiplePoint:
    z: complex
    stable_set: tuple[int, ...]
    v_values: dict[int, complex]
    incident_arcs: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class PhaseDiagram:
    curves: list[CoexistenceCurve]
    multiple_points: list[MultiplePoint]
    min_tangent_angle: float
    diagnostics: list[str] = field(default_factory=list)


# Illinois steps allowed per bracket; most close to a few ulps in under ten.
_BRACKET_STEPS = 100


def _close_brackets(f, a, b, fa, fb, max_steps: int = _BRACKET_STEPS):
    """A root t of a real function in every bracket a < b whose end values
    fa, fb have opposite signs or include an exact zero; f(t, k) evaluates
    the brackets k at their points t.

    Regula falsi on all brackets at once, one call of f per step, with the
    Illinois rule: an end kept twice in a row has its value halved, so both
    ends close in. A step lands at least 2 ulps inside the bracket, so a
    root at one end closes the bracket on the next step rather than by
    bisection. A bracket closes when it is at most 4 ulps wide or an end is
    an exact zero, the ulp taken at the largest of |a|, |b| and the initial
    width, so a root near 0 stops at the initial bracket's resolution
    rather than at ulps of its own tiny coordinate. Returns (t, closed): t is
    the end with the smaller |f|, and closed is False for a bracket still
    open after max_steps.
    """
    a, b, fa, fb = (np.array(x, dtype=float) for x in (a, b, fa, fb))
    width = b - a
    kept = np.zeros(a.size, dtype=int)  # the end the last step kept: -1 a, 1 b
    act = np.arange(a.size)
    for step in range(max_steps + 1):
        A, B, FA, FB = a[act], b[act], fa[act], fb[act]
        ulp = np.spacing(np.maximum(np.maximum(-A, B), width[act]))
        go = ~((B - A <= 4.0 * ulp) | (FA == 0.0) | (FB == 0.0))
        act, A, B, FA, FB, ulp = act[go], A[go], B[go], FA[go], FB[go], ulp[go]
        if not act.size or step == max_steps:
            break
        c = np.clip(B - FB * (B - A) / (FB - FA), A + 2.0 * ulp, B - 2.0 * ulp)
        fc = f(c, act)
        up = np.sign(fc) == np.sign(FA)  # the root lies in (c, B)
        a[act] = np.where(up, c, A)
        b[act] = np.where(up, B, c)
        fa[act] = np.where(up, fc, np.where(kept[act] == -1, 0.5 * FA, FA))
        fb[act] = np.where(up, np.where(kept[act] == 1, 0.5 * FB, FB), fc)
        kept[act] = np.where(up, 1, -1)
    closed = np.ones(a.size, dtype=bool)
    closed[act] = False
    return np.where(np.abs(fa) <= np.abs(fb), a, b), closed


def _seed_roots(model: ModelSpec, m: int, n: int, seeds: np.ndarray, radius: float):
    """Roots of Re(P_m - P_n) = 0, one per seed, each moving only along the
    coordinate axis along which phi varies faster at its seed.

    Each seed samples its own coordinate at 17 points within +-radius of the
    seed; the first sign change, or exact zero, brackets the root, and all
    brackets close in one _close_brackets pass. A seed with no bracket, or
    whose bracket stayed open, gets NaN; the second is warned about.
    """
    h, dh = _pair_gap(model, m, n)
    g = dh(seeds)
    # d phi/dx = Re h', d phi/dy = -Im h'
    on_x = np.abs(g.real) >= np.abs(g.imag)
    moving = np.where(on_x, seeds.real, seeds.imag)
    fixed = np.where(on_x, seeds.imag, seeds.real)

    def point(t, k):
        """The points whose moving coordinate is t, for the seeds k."""
        return np.where(on_x[k], t + 1j * fixed[k], fixed[k] + 1j * t)

    ts = moving[:, None] + np.linspace(-radius, radius, 17)
    vals = h(point(ts, np.arange(seeds.size)[:, None])).real
    hit = np.sign(vals[:, :-1]) * np.sign(vals[:, 1:]) <= 0.0
    rows = np.flatnonzero(hit.any(axis=1))
    i = hit[rows].argmax(axis=1)
    t, closed = _close_brackets(
        lambda t, k: h(point(t, rows[k])).real,
        ts[rows, i], ts[rows, i + 1], vals[rows, i], vals[rows, i + 1],
    )
    for k in rows[~closed].tolist():
        warnings.warn(
            f"({m},{n}) root from the seed {complex(seeds[k])!r} still bracketed after "
            f"{_BRACKET_STEPS} steps; the seed is dropped",
            stacklevel=2,
        )
    z = np.full(seeds.size, complex(np.nan, np.nan))
    z[rows[closed]] = point(t[closed], rows[closed])
    return z


def find_coexistence_point(
    model: ModelSpec,
    m: int,
    n: int,
    seed: complex,
    radius: float = 0.5,
) -> complex:
    """Solve Re(P_m - P_n) = 0 moving only along one coordinate axis.

    The axis is the one along which phi varies faster at the seed. The root
    is bracketed within +-radius of the seed; no sign change there raises
    NoConvergenceError (a root may well exist farther away, but this solver
    is deliberately local). The seed scans solve their seeds the same way,
    all at once.
    """
    seed = _require_finite(seed, "seed")
    if not model.domain.contains(seed, pad=radius):
        raise ValidationError(f"seed {seed} too far outside domain")
    (z,) = _seed_roots(model, m, n, np.array([seed]), radius).tolist()
    if math.isnan(z.real):
        raise NoConvergenceError(f"no root of Re(P_m - P_n) closed within {radius} of {seed}", seed)
    return z


def _project_onto_level(h, dh, z: complex, target: float = 0.0, tol: float = TOL_PROJECT):
    """Full 2D Newton transverse to the level set Re h = target, for an
    exponent gap h with derivative dh."""
    for _ in range(12):
        r = h(z).real - target
        if abs(r) <= tol:
            return z
        g = dh(z)
        g2 = (g * g.conjugate()).real
        if g2 < 1e-24:
            raise NoConvergenceError("vanishing exponent-gap gradient during projection", z)
        z = z - r * g.conjugate() / g2
    if abs(h(z).real - target) <= 100 * tol:
        return z
    raise NoConvergenceError("projection onto the coexistence level set stalled", z)


def _third_phase(model: ModelSpec, pair, z: complex, eps: float):
    if model.r == 2:
        return None  # the pair is every phase
    re_p = np.real(model.log_weights(z))
    log_max = float(re_p.max())
    for k in range(model.r):
        if k in pair:
            continue
        if re_p[k] >= log_max - eps:
            return k
    return None


def _trace_one_direction(model, m, n, z0, step, max_steps, sign):
    """Integrate the level-set ODE one way; returns (points, termination)."""
    h, dh = _pair_gap(model, m, n)

    def tangent(z):
        g = dh(z)
        a = abs(g)
        if a < 1e-14:
            raise NoConvergenceError("tangent undefined: exponent gap is degenerate", z)
        return sign * 1j * g.conjugate() / a

    pts: list[complex] = []
    z = z0
    for k in range(max_steps):
        try:
            k1 = tangent(z)
            k2 = tangent(z + 0.5 * step * k1)
            k3 = tangent(z + 0.5 * step * k2)
            k4 = tangent(z + step * k3)
            z_new = z + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            z_new = _project_onto_level(h, dh, z_new)
        except NoConvergenceError as exc:
            return pts, Termination(TERM_PROJECTION, mp_seed=exc.last_iterate)
        if not model.domain.contains(z_new):
            return pts, Termination(TERM_DOMAIN)
        third = _third_phase(model, (m, n), z_new, EPS_MULTIPOINT)
        pts.append(z_new)
        if third is not None:
            triple = tuple(sorted((m, n, third)))
            return pts, Termination(TERM_MULTIPOINT, mp_seed=z_new, mp_triple=triple)
        if k >= 2 and abs(z_new - z0) < 0.5 * step:
            return pts, Termination(TERM_LOOP)
        z = z_new
    return pts, Termination(TERM_MAXSTEPS)


def _samples(model: ModelSpec, m: int, n: int, ts, zs) -> list[CurveSample]:
    """Curve samples at the points zs, with v_m and v_n from one array pass
    per phase (the same values as eval_v at each point)."""
    pts = np.array(zs, dtype=complex)
    v_m = model.phases[m].log_weight_deriv(pts).tolist()
    v_n = model.phases[n].log_weight_deriv(pts).tolist()
    return [CurveSample(*s) for s in zip(ts, zs, v_m, v_n)]


def trace_curve(
    model: ModelSpec,
    m: int,
    n: int,
    z0: complex,
    step: float,
    max_steps: int,
) -> CoexistenceCurve:
    """Trace the coexistence curve of (m, n) through z0, both directions.

    Classical 4th-order steps of the unit-speed level-set equation, with a
    transverse Newton re-projection after each step; max_steps applies per
    direction. Samples carry the logarithmic derivatives of both phases.
    """
    z0 = _require_finite(z0, "z0")
    if step <= 0:
        raise ValidationError(f"step must be positive, got {step}")
    if not model.domain.contains(z0):
        raise ValidationError(f"z0 {z0} outside domain")
    h, dh = _pair_gap(model, m, n)
    phi0 = abs(h(z0).real)
    if phi0 > TOL_CURVE:
        raise ValidationError(f"z0 is not a coexistence point of ({m},{n}): |phi|={phi0:.3e}")
    z0 = _project_onto_level(h, dh, z0)

    fwd, term_fwd = _trace_one_direction(model, m, n, z0, step, max_steps, +1.0)
    if term_fwd.kind == TERM_LOOP:
        zs = [z0] + fwd + [z0]
        ts = [k * step for k in range(len(fwd) + 1)] + [(len(fwd) + 1) * step]
        samples = _samples(model, m, n, ts, zs)
        return CoexistenceCurve((m, n), samples, Termination(TERM_LOOP), Termination(TERM_LOOP))

    bwd, term_bwd = _trace_one_direction(model, m, n, z0, step, max_steps, -1.0)
    zs = list(reversed(bwd)) + [z0] + fwd
    t0 = -len(bwd) * step
    ts = [t0 + k * step for k in range(len(zs))]
    return CoexistenceCurve((m, n), _samples(model, m, n, ts, zs), term_bwd, term_fwd)


def find_multiple_point(
    model: ModelSpec,
    triple,
    seed: complex,
) -> MultiplePoint:
    """2D Newton for a point where three given phases coexist.

    Raises SingularityError when the two tie conditions are parallel (the
    transversality assumption fails) and SpuriousRootError when the solver
    converges to a point whose stable set does not contain the triple. The
    seed scans solve their seeds the same way, all at once.
    """
    a, b, c = (model.check_phase(k) for k in triple)
    if len({a, b, c}) != 3:
        raise ValidationError(f"triple must have three distinct phases, got {triple}")
    z = _require_finite(seed, "seed")
    if not model.domain.contains(z):
        raise ValidationError(f"seed {seed} outside domain")
    (mp,) = _multiple_newton(model, triple, np.array([z]))
    if isinstance(mp, Exception):
        raise mp
    return mp


def _multiple_newton(model: ModelSpec, triple, seeds: np.ndarray) -> list:
    """find_multiple_point from every seed at once, each seed taking the
    steps it takes alone: per seed its MultiplePoint or the error it raises.
    A step evaluates each phase once; the differences are _pair_gap's, bit for bit."""
    phases = [(model.phases[k].log_weight, model.phases[k].log_weight_deriv) for k in triple]
    z, out = seeds.astype(complex), [None] * seeds.size
    act, done = np.arange(z.size), np.zeros(z.size, dtype=bool)  # the seeds stepping, converged
    for _ in range(STEPS_MULTIPOINT):
        if not act.size:
            break
        w = z[act]
        (p0, d0), (p1, d1), (p2, d2) = ((p(w), dp(w)) for p, dp in phases)
        f1, f2, g1, g2 = (p0 - p1).real, (p0 - p2).real, d0 - d1, d0 - d2
        # Jacobian of (f1, f2) in (x, y)
        j11, j12, j21, j22 = g1.real, -g1.imag, g2.real, -g2.imag
        det = j11 * j22 - j12 * j21
        done[act] = np.maximum(np.abs(f1), np.abs(f2)) <= TOL_MULTIPOINT
        flat = ~done[act] & (np.abs(det) < 1e-12 * np.maximum(np.maximum(_modulus(g1), _modulus(g2)), 1e-30) ** 2)
        for i, zi, d in zip(act[flat].tolist(), w[flat].tolist(), det[flat].tolist()):
            out[i] = SingularityError(
                f"tie conditions for phases {triple} are parallel near {zi} (|det|={abs(d):.3e})"
            )
        go = ~done[act] & ~flat
        act, f1, f2, det, j11, j12, j21, j22 = (x[go] for x in (act, f1, f2, det, j11, j12, j21, j22))
        z.real[act] -= (f1 * j22 - f2 * j12) / det
        z.imag[act] -= (j11 * f2 - j21 * f1) / det
    for i in act.tolist():
        out[i] = NoConvergenceError(f"multiple-point Newton stalled for {triple}", complex(z[i]))
    (at,) = np.nonzero(done)
    re_p, v = np.real(model.log_weights(z[at])), model.v_values(z[at])
    tie = re_p >= re_p.max(axis=0) - TIE_MULTIPOINT
    for j, (i, zi) in enumerate(zip(at.tolist(), z[at].tolist())):
        q_set = tuple(np.flatnonzero(tie[:, j]).tolist())
        if not model.domain.contains(zi):
            out[i] = NoConvergenceError("multiple-point Newton left the domain", zi)
        elif not set(triple) <= set(q_set):
            out[i] = SpuriousRootError(
                f"converged to {zi} but stable set {q_set} lacks part of {tuple(triple)}"
            )
        else:
            out[i] = MultiplePoint(z=zi, stable_set=q_set, v_values={k: v[k, j].item() for k in q_set})
    return out


def _scan_mesh(model: ModelSpec, grid):
    """Seed-scan mesh of the domain, Re P_m on it, its cell size, and the
    slack within which a triple tie is detectable: the exponent spread
    across a few cells."""
    nx, ny = grid
    if nx < 4 or ny < 4:
        raise ValidationError("need at least 4 grid points per axis")
    mesh = model.domain.grid(nx, ny)
    re_p = np.stack([p.log_weight(mesh).real for p in model.phases])  # one complex grid at a time
    cell = max(model.domain.width / (nx - 1), model.domain.height / (ny - 1))
    v_scale = float(np.abs(model.v_values(model.domain.center)).max()) + 1.0
    return mesh, re_p, cell, 3.0 * cell * v_scale


def _coexistence_points(model: ModelSpec, m: int, n: int, mesh: np.ndarray, re_p, cell: float):
    """Coexistence points of (m, n) in the domain, each solved within one
    cell of the midpoint of a mesh edge on which Re(P_m - P_n) = re_p[m] -
    re_p[n] changes sign; seeds that do not converge, and roots outside the
    domain, are skipped."""
    sgn = np.signbit(re_p[m] - re_p[n])
    i, j = np.nonzero(sgn[:, 1:] != sgn[:, :-1])
    k, l = np.nonzero(sgn[1:, :] != sgn[:-1, :])
    edges = (mesh[i, j] + mesh[i, j + 1], mesh[k, l] + mesh[k + 1, l])
    seeds = 0.5 * np.concatenate(edges)
    z = _seed_roots(model, m, n, seeds, cell)
    return z[model.domain.contains(z)].tolist()


def _multiple_points(model: ModelSpec, mesh: np.ndarray, re_p, cell: float, slack: float):
    """Multiple points solved from the mesh points where at least three
    exponents Re P_m = re_p[m] tie to within slack, each seeded with its top
    three phases, the seeds of a triple in one _multiple_newton.

    Yields (z, MultiplePoint) per new solution and (seed, None) per seed whose
    tie is degenerate (SingularityError or SpuriousRootError); seeds that do
    not converge are skipped. A solution within 1e-8, or a degenerate seed
    within two cells, of a point already yielded is a repeat.
    """
    i, j = np.nonzero(np.sum(re_p >= np.max(re_p, axis=0) - slack, axis=0) >= 3)
    triples = [tuple(t) for t in np.argsort(re_p[:, i, j], axis=0)[::-1][:3].T.tolist()]
    seeds, solved = mesh[i, j], {}  # seed index -> its solution or error
    for triple in dict.fromkeys(triples):
        at = [k for k, t in enumerate(triples) if t == triple]
        solved.update(zip(at, _multiple_newton(model, triple, seeds[at])))
    seen: list[complex] = []
    for seed, mp in zip(seeds.tolist(), map(solved.get, range(seeds.size))):
        if isinstance(mp, NoConvergenceError):
            continue
        mp, z, radius = (None, seed, 2.0 * cell) if isinstance(mp, Exception) else (mp, mp.z, 1e-8)
        if any(abs(z - p) < radius for p in seen):
            continue
        seen.append(z)
        yield z, mp


def find_multiple_points(model: ModelSpec, grid=(41, 41)) -> list[MultiplePoint]:
    """Scan a grid for triple ties and polish each into a multiple point."""
    found = [mp for _, mp in _multiple_points(model, *_scan_mesh(model, grid)) if mp is not None]
    found.sort(key=lambda p: (p.z.real, p.z.imag))
    return found


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    d_ab = np.abs(a[:, None] - b[None, :])
    return float(max(d_ab.min(axis=1).max(), d_ab.min(axis=0).max()))


def _end_direction(curve: CoexistenceCurve, which: str, origin: complex) -> complex:
    s = curve.samples[-1] if which == "end" else curve.samples[0]
    d = s.z - origin
    if abs(d) == 0.0:
        # fall back to the neighboring sample
        s2 = curve.samples[-2] if which == "end" else curve.samples[1]
        d = s2.z - origin
    return d / abs(d)


def _trace_seeds(model: ModelSpec, m: int, n: int, points) -> np.ndarray:
    """The coexistence points of (m, n) a trace may start from: those on the
    phase diagram, where m and n are both TOL_CURVE-almost stable
    (model.stability's rule), and outside a triple tie (_third_phase's
    rule), decided in one log_weights call."""
    z = np.asarray(points, dtype=complex)
    re_p = np.real(model.log_weights(z))
    log_max = re_p.max(axis=0)
    on_diagram = (re_p[[m, n]] > log_max - TOL_CURVE).all(axis=0)
    tie = (np.delete(re_p, [m, n], axis=0) >= log_max - EPS_MULTIPOINT).any(axis=0)
    return z[on_diagram & ~tie]


def build_phase_diagram(
    model: ModelSpec,
    grid=(41, 41),
    step: float | None = None,
    max_steps: int | None = None,
) -> PhaseDiagram:
    """Seed curves from grid-edge sign changes, trace, deduplicate, and
    attach arcs to multiple points, checking the expected local topology."""
    mesh, re_p, cell, _ = _scan_mesh(model, grid)
    if step is None:
        step = 1e-2 * model.domain.min_side
    elif not step > 0:
        raise ValidationError(f"step must be positive, got {step}")
    if max_steps is None:
        max_steps = int(3.0 * (model.domain.width + model.domain.height) / step)

    curves: list[CoexistenceCurve] = []
    diagnostics: list[str] = []
    for m in range(model.r):
        for n in range(m + 1, model.r):
            traced_pts: list[np.ndarray] = []
            seeds = _coexistence_points(model, m, n, mesh, re_p, cell)
            for z in _trace_seeds(model, m, n, seeds).tolist():
                if any(np.abs(pts - z).min() < 2.0 * step for pts in traced_pts):
                    continue
                curve = trace_curve(model, m, n, z, step, max_steps)
                if len(curve.samples) < 3:
                    continue
                pts = curve.points()
                if any(_hausdorff(pts, old) < step for old in traced_pts):
                    continue
                traced_pts.append(pts)
                curves.append(curve)

    # Attach arcs to multiple points.
    mps: list[MultiplePoint] = []
    for ci, curve in enumerate(curves):
        for which, term in (("start", curve.start), ("end", curve.end)):
            if term.kind != TERM_MULTIPOINT:
                continue
            try:
                mp = find_multiple_point(model, term.mp_triple, term.mp_seed)
            except (NoConvergenceError, SingularityError, SpuriousRootError) as exc:
                diagnostics.append(f"curve {ci} {which}: multiple-point solve failed: {exc}")
                continue
            idx = next((k for k, other in enumerate(mps) if abs(other.z - mp.z) < 1e-8), len(mps))
            if idx == len(mps):
                mps.append(mp)
            term.mp_index = idx
            mps[idx].incident_arcs.append((ci, which))

    min_angle = math.inf
    for mp in mps:
        got, expected = len(mp.incident_arcs), len(mp.stable_set)
        if got != expected:
            diagnostics.append(f"multiple point {mp.z}: {got} incident arcs, expected {expected}")
        dirs = [_end_direction(curves[ci], which, mp.z) for ci, which in mp.incident_arcs]
        for d1, d2 in itertools.combinations(dirs, 2):
            min_angle = min(min_angle, math.acos(max(-1.0, min(1.0, (d1 * d2.conjugate()).real))))
    if mps and min_angle < 1e-3:
        diagnostics.append(f"minimal tangent angle {min_angle:.3e} below 1e-3")

    return PhaseDiagram(
        curves=curves,
        multiple_points=mps,
        min_tangent_angle=min_angle,
        diagnostics=diagnostics,
    )
