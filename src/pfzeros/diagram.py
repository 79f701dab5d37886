"""Coexistence curves and phase-diagram topology.

Two-phase coexistence is the zero level set of phi(z) = Re(P_m(z) - P_n(z))
restricted to where both phases are stable; curves are traced by unit-speed
integration along the level set with re-projection after every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NoConvergenceError,
    SingularityError,
    SpuriousRootError,
    ValidationError,
)
from .model import ModelSpec, _pair_gap, _require_finite, eval_v, stability

# Residual kept on the level set by re-projection.
TOL_PROJECT = 1e-12
# Curve samples are accepted while |phi| stays below this.
TOL_CURVE = 1e-9
# A third phase within this of the top exponent stops a trace and seeds a
# multiple-point solve; far above projection residuals, far below step scale.
EPS_MULTIPOINT = 1e-6

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
    def is_loop(self) -> bool:
        return self.start.kind == TERM_LOOP and self.end.kind == TERM_LOOP

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
    adjacency: dict[int, list[tuple[int, str]]]
    min_tangent_angle: float
    diagnostics: list[str] = field(default_factory=list)


def find_coexistence_point(
    model: ModelSpec,
    m: int,
    n: int,
    seed: complex,
    radius: float = 0.5,
    tol: float = TOL_PROJECT,
    max_iter: int = 50,
) -> complex:
    """Solve Re(P_m - P_n) = 0 moving only along one coordinate axis.

    The axis is the one along which phi varies faster at the seed. The root
    is bracketed within +-radius of the seed; no sign change there raises
    NoConvergenceError (a root may well exist farther away, but this solver
    is deliberately local).
    """
    seed = _require_finite(seed, "seed")
    if not model.domain.contains(seed, pad=radius):
        raise ValidationError(f"seed {seed} too far outside domain")
    h, dh = _pair_gap(model, m, n)
    g = dh(seed)
    # d phi/dx = Re h', d phi/dy = -Im h'
    axis = 1.0 if abs(g.real) >= abs(g.imag) else 1.0j

    def f(t: float) -> float:
        return h(seed + t * axis).real

    ts = np.linspace(-radius, radius, 17)
    vals = [f(t) for t in ts]
    bracket = None
    for a, b, fa, fb in zip(ts[:-1], ts[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            return seed + a * axis
        if fa * fb < 0.0:
            bracket = (float(a), float(b), fa, fb)
            break
    if bracket is None:
        if abs(vals[0]) <= tol:
            return seed - radius * axis
        raise NoConvergenceError(
            f"no sign change of the exponent gap within {radius} of {seed}", seed
        )

    lo, hi, flo, fhi = bracket
    t = 0.5 * (lo + hi)
    for _ in range(max_iter):
        ft = f(t)
        if abs(ft) <= tol:
            return seed + t * axis
        if flo * ft < 0.0:
            hi, fhi = t, ft
        else:
            lo, flo = t, ft
        g = dh(seed + t * axis)
        slope = g.real if axis == 1.0 else -g.imag
        t_new = t - ft / slope if slope != 0.0 else 0.5 * (lo + hi)
        if not (lo < t_new < hi):
            t_new = 0.5 * (lo + hi)
        t = t_new
    raise NoConvergenceError(
        f"axis Newton did not reach |phi|<= {tol} in {max_iter} iterations", seed + t * axis
    )


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


def _project_onto_level_array(h, dh, z, target: float = 0.0, tol: float = TOL_PROJECT):
    """_project_onto_level applied to every point of a 1-D array at once.

    Each point keeps its own iterates under the same Newton update, the same
    12-iteration cap and the same 100*tol acceptance, so the result equals
    the scalar projection point by point. The first failing point, in array
    order, raises the scalar form's error with its own iterate.
    """
    z = np.array(z, dtype=complex)
    flat = np.zeros(z.shape, dtype=bool)  # gradient vanished
    act = np.arange(z.size)
    for _ in range(12):
        if not act.size:
            break
        r = h(z[act]).real - target
        keep = ~(np.abs(r) <= tol)
        act, r = act[keep], r[keep]
        # the scalar update z - r * conj(g) / g2 in real operations, rounded
        # as Python rounds it (numpy's complex product and quotient differ)
        g = dh(z[act])
        cr, ci = g.real, -g.imag  # conj(g)
        g2 = cr * cr - g.imag * ci
        low = g2 < 1e-24
        flat[act[low]] = True
        keep = ~low
        act, r, cr, ci, g2 = act[keep], r[keep], cr[keep], ci[keep], g2[keep]
        sr, si = r * cr - 0.0 * ci, r * ci + 0.0 * cr
        za = z[act]
        za.real -= (sr + si * 0.0) / g2
        za.imag -= (si - sr * 0.0) / g2
        z[act] = za
    stalled = np.zeros(z.shape, dtype=bool)
    stalled[act] = ~(np.abs(h(z[act]).real - target) <= 100 * tol)
    bad = np.flatnonzero(flat | stalled)
    if bad.size:
        k = bad[0]
        if flat[k]:
            raise NoConvergenceError(
                "vanishing exponent-gap gradient during projection", complex(z[k])
            )
        raise NoConvergenceError(
            "projection onto the coexistence level set stalled", complex(z[k])
        )
    return z


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


def _trace_one_direction(model, m, n, z0, step, max_steps, sign, eps_mp):
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
        third = _third_phase(model, (m, n), z_new, eps_mp)
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
    eps_mp: float = EPS_MULTIPOINT,
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

    fwd, term_fwd = _trace_one_direction(model, m, n, z0, step, max_steps, +1.0, eps_mp)
    if term_fwd.kind == TERM_LOOP:
        zs = [z0] + fwd + [z0]
        ts = [k * step for k in range(len(fwd) + 1)] + [(len(fwd) + 1) * step]
        samples = _samples(model, m, n, ts, zs)
        return CoexistenceCurve((m, n), samples, Termination(TERM_LOOP), Termination(TERM_LOOP))

    bwd, term_bwd = _trace_one_direction(model, m, n, z0, step, max_steps, -1.0, eps_mp)
    zs = list(reversed(bwd)) + [z0] + fwd
    t0 = -len(bwd) * step
    ts = [t0 + k * step for k in range(len(zs))]
    return CoexistenceCurve((m, n), _samples(model, m, n, ts, zs), term_bwd, term_fwd)


def find_multiple_point(
    model: ModelSpec,
    triple,
    seed: complex,
    tol: float = 1e-12,
    max_iter: int = 50,
    tol_mp: float = 1e-9,
) -> MultiplePoint:
    """2D Newton for a point where three given phases coexist.

    Raises SingularityError when the two tie conditions are parallel (the
    transversality assumption fails) and SpuriousRootError when the solver
    converges to a point whose stable set does not contain the triple.
    """
    a, b, c = (model.check_phase(k) for k in triple)
    if len({a, b, c}) != 3:
        raise ValidationError(f"triple must have three distinct phases, got {triple}")
    z = _require_finite(seed, "seed")
    if not model.domain.contains(z):
        raise ValidationError(f"seed {seed} outside domain")
    h1, dh1 = _pair_gap(model, a, b)
    h2, dh2 = _pair_gap(model, a, c)

    for _ in range(max_iter):
        f1 = h1(z).real
        f2 = h2(z).real
        if max(abs(f1), abs(f2)) <= tol:
            break
        g1 = dh1(z)
        g2 = dh2(z)
        # Jacobian of (f1, f2) in (x, y)
        j11, j12 = g1.real, -g1.imag
        j21, j22 = g2.real, -g2.imag
        det = j11 * j22 - j12 * j21
        scale = max(abs(g1), abs(g2), 1e-30) ** 2
        if abs(det) < 1e-12 * scale:
            raise SingularityError(
                f"tie conditions for phases {triple} are parallel near {z} (|det|={abs(det):.3e})"
            )
        dx = (f1 * j22 - f2 * j12) / det
        dy = (j11 * f2 - j21 * f1) / det
        z = z - complex(dx, dy)
    else:
        raise NoConvergenceError(f"multiple-point Newton stalled for {triple}", z)

    if not model.domain.contains(z):
        raise NoConvergenceError("multiple-point Newton left the domain", z)
    re_p = np.real(model.log_weights(z))
    log_max = float(re_p.max())
    q_set = tuple(int(k) for k in range(model.r) if re_p[k] >= log_max - tol_mp)
    if not set(triple) <= set(q_set):
        raise SpuriousRootError(
            f"converged to {z} but stable set {q_set} lacks part of {tuple(triple)}"
        )
    return MultiplePoint(
        z=z,
        stable_set=q_set,
        v_values={k: eval_v(model, k, z) for k in q_set},
    )


def _scan_mesh(model: ModelSpec, grid):
    """Seed-scan mesh of the domain, its cell size, and the slack within
    which a triple tie is detectable: the exponent spread across a few cells."""
    nx, ny = grid
    if nx < 4 or ny < 4:
        raise ValidationError("need at least 4 grid points per axis")
    mesh = model.domain.grid(nx, ny)
    cell = max(model.domain.width / (nx - 1), model.domain.height / (ny - 1))
    v_scale = float(np.abs(model.v_values(model.domain.center)).max()) + 1.0
    return mesh, cell, 3.0 * cell * v_scale


def _coexistence_points(model: ModelSpec, m: int, n: int, mesh: np.ndarray, cell: float):
    """Coexistence points of (m, n), each solved within one cell of the
    midpoint of a mesh edge on which Re(P_m - P_n) changes sign; seeds that
    do not converge are skipped."""
    h, _ = _pair_gap(model, m, n)
    sgn = np.signbit(h(mesh).real)
    flip_h = np.nonzero(sgn[:, 1:] != sgn[:, :-1])
    flip_v = np.nonzero(sgn[1:, :] != sgn[:-1, :])
    seeds = [0.5 * (mesh[i, j] + mesh[i, j + 1]) for i, j in zip(*flip_h)]
    seeds += [0.5 * (mesh[i, j] + mesh[i + 1, j]) for i, j in zip(*flip_v)]
    for seed in seeds:
        try:
            z = find_coexistence_point(model, m, n, seed, radius=cell)
        except NoConvergenceError:
            continue
        yield z


def _multiple_points(model: ModelSpec, mesh: np.ndarray, cell: float, slack: float):
    """Multiple points solved from the mesh points where at least three
    exponents tie to within slack, each seeded with its top three phases.

    Yields (z, MultiplePoint) per new solution and (seed, None) per seed whose
    tie is degenerate (SingularityError or SpuriousRootError); seeds that do
    not converge are skipped. A solution within 1e-8, or a degenerate seed
    within two cells, of a point already yielded is a repeat.
    """
    re_p = np.real(model.log_weights(mesh))
    near = np.sum(re_p >= np.max(re_p, axis=0) - slack, axis=0)
    seen: list[complex] = []
    for i, j in zip(*np.nonzero(near >= 3)):
        seed = complex(mesh[i, j])
        triple = tuple(int(k) for k in np.argsort(re_p[:, i, j])[::-1][:3])
        try:
            mp = find_multiple_point(model, triple, seed)
            z, radius = mp.z, 1e-8
        except NoConvergenceError:
            continue
        except (SingularityError, SpuriousRootError):
            mp, z, radius = None, seed, 2.0 * cell
        if any(abs(z - p) < radius for p in seen):
            continue
        seen.append(z)
        yield z, mp


def find_multiple_points(model: ModelSpec, grid=(41, 41)) -> list[MultiplePoint]:
    """Scan a grid for triple ties and polish each into a multiple point."""
    mesh, cell, slack = _scan_mesh(model, grid)
    found = [mp for _, mp in _multiple_points(model, mesh, cell, slack) if mp is not None]
    found.sort(key=lambda p: (p.z.real, p.z.imag))
    return found


def _point_to_polyline_dist(z: complex, pts: np.ndarray) -> float:
    return float(np.abs(pts - z).min())


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


def build_phase_diagram(
    model: ModelSpec,
    grid=(41, 41),
    step: float | None = None,
    max_steps: int | None = None,
    eps_mp: float = EPS_MULTIPOINT,
) -> PhaseDiagram:
    """Seed curves from grid-edge sign changes, trace, deduplicate, and
    attach arcs to multiple points, checking the expected local topology."""
    mesh, cell, _ = _scan_mesh(model, grid)
    if step is None:
        step = 1e-2 * model.domain.min_side
    if max_steps is None:
        max_steps = int(3.0 * (model.domain.width + model.domain.height) / step)

    curves: list[CoexistenceCurve] = []
    diagnostics: list[str] = []
    for m in range(model.r):
        for n in range(m + 1, model.r):
            traced_pts: list[np.ndarray] = []
            for z in _coexistence_points(model, m, n, mesh, cell):
                rep = stability(model, z, eps_list=(TOL_CURVE,))
                if not {m, n} <= rep.eps_stable_sets[TOL_CURVE]:
                    continue  # on the level set but not on the phase diagram
                if any(_point_to_polyline_dist(z, pts) < 2.0 * step for pts in traced_pts):
                    continue
                if _third_phase(model, (m, n), z, eps_mp) is not None:
                    continue  # do not start a two-phase trace inside a triple tie
                curve = trace_curve(model, m, n, z, step, max_steps, eps_mp=eps_mp)
                if len(curve.samples) < 3:
                    continue
                pts = curve.points()
                if any(_hausdorff(pts, old) < step for old in traced_pts):
                    continue
                traced_pts.append(pts)
                curves.append(curve)

    # Attach arcs to multiple points.
    mps: list[MultiplePoint] = []
    adjacency: dict[int, list[tuple[int, str]]] = {}
    for ci, curve in enumerate(curves):
        for which, term in (("start", curve.start), ("end", curve.end)):
            if term.kind != TERM_MULTIPOINT:
                continue
            try:
                mp = find_multiple_point(model, term.mp_triple, term.mp_seed)
            except (NoConvergenceError, SingularityError, SpuriousRootError) as exc:
                diagnostics.append(f"curve {ci} {which}: multiple-point solve failed: {exc}")
                continue
            idx = None
            for k, other in enumerate(mps):
                if abs(other.z - mp.z) < 1e-8:
                    idx = k
                    break
            if idx is None:
                mps.append(mp)
                idx = len(mps) - 1
                adjacency[idx] = []
            term.mp_index = idx
            adjacency[idx].append((ci, which))
            mps[idx].incident_arcs.append((ci, which))

    min_angle = math.inf
    for idx, mp in enumerate(mps):
        expected = len(mp.stable_set)
        got = len(mp.incident_arcs)
        if got != expected:
            diagnostics.append(
                f"multiple point {mp.z}: {got} incident arcs, expected {expected}"
            )
        dirs = [
            _end_direction(curves[ci], which, mp.z) for ci, which in mp.incident_arcs
        ]
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                dot = (dirs[i] * dirs[j].conjugate()).real
                ang = math.acos(max(-1.0, min(1.0, dot)))
                min_angle = min(min_angle, ang)
    if mps and min_angle < 1e-3:
        diagnostics.append(f"minimal tangent angle {min_angle:.3e} below 1e-3")

    return PhaseDiagram(
        curves=curves,
        multiple_points=mps,
        adjacency=adjacency,
        min_tangent_angle=min_angle,
        diagnostics=diagnostics,
    )
