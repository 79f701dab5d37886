"""Phase-weight models and their stability structure.

A model is a finite family of non-vanishing weights zeta_m(z) = exp(P_m(z)),
P_m a complex polynomial, over a rectangular domain. Everything downstream
works with the stored exponents, so no log is ever recovered from a weight
and there is no branch ambiguity. This module evaluates exponents and their
derivatives, classifies which phases are stable or almost stable at a point,
checks the non-degeneracy assumptions a well-posed model must satisfy, and
builds finite-volume companions with controlled analytic perturbations.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ValidationError

# Stability tolerance, relative to log_max. Exact ties occur only on
# measure-zero sets; symmetry-aware tests cover the cases we assert.
TOL_STAB = 1e-12

# Perturbation sup norms are measured on this grid (per axis).
_SUP_GRID = 101

_BATCH = 8192  # points per kernel call or grid search; a fixed size keeps memory flat


def _require_finite(z: complex, what: str = "point") -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError(f"{what} must be finite, got {z!r}")
    return z


def _grid_pairs(a: np.ndarray, b: np.ndarray, r: float):
    """Index arrays (i, j) holding every pair with |a[i] - b[j]| <= r, and others.

    The points are binned on a grid of cells a little wider than r, counted
    from the lower-left corner of both sets, so such a pair lies in the same
    or adjacent cells however the keys round. The cells are found by binary
    search on the sorted (complex, so lexicographic) cell keys of b, which
    keeps the cost O((n + pairs) log n), _BATCH points of a at a time. Pairs
    of adjacent cells that are farther apart are returned too: callers
    measure the distance their own way. The pairs come in no set order.
    """
    if not (a.size and b.size):
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    origin = complex(min(a.real.min(), b.real.min()), min(a.imag.min(), b.imag.min()))
    cell = 1.01 * r

    def key(p):
        p = p - origin
        return np.floor(p.real / cell) + 1j * np.floor(p.imag / cell)

    kb = key(b)
    order = np.argsort(kb, kind="stable")
    skey = kb[order]
    cols, parts = np.array([[-1.0], [0.0], [1.0]]), []  # the three columns of cells
    for s in range(0, a.size, _BATCH):
        ka = (key(a[s : s + _BATCH]) + cols).ravel()
        lo = np.searchsorted(skey, ka - 1j, side="left")
        n = np.searchsorted(skey, ka + 1j, side="right") - lo
        # run k of the output counts up from lo[k]
        jj = order[np.repeat(lo - n.cumsum() + n, n) + np.arange(n.sum())]
        parts.append((np.repeat(np.tile(np.arange(s, s + ka.size // 3), 3), n), jj))
    return tuple(map(np.concatenate, zip(*parts)))


def _modulus(z):
    """|z| as Python's abs rounds it (hypot); numpy's complex abs on arrays
    rounds differently in the last bit."""
    return np.hypot(z.real, z.imag)


def _neighbours(points: np.ndarray, tol: float) -> dict[int, list[int]]:
    """Indices of the other points within tol, for each point that has any."""
    i, j = _grid_pairs(points, points, tol)
    close = (i != j) & (_modulus(points[i] - points[j]) <= tol)
    near: dict[int, list[int]] = {}
    for a, b in zip(i[close].tolist(), j[close].tolist()):
        near.setdefault(a, []).append(b)
    return near


def _first_come(points: np.ndarray, r: float) -> list[int]:
    """Indices of the points kept when each point, in order, is dropped if it
    lies within r of a point kept before it."""
    near = _neighbours(points, r)
    dropped: set[int] = set()
    for i in sorted(near):
        if any(j < i and j not in dropped for j in near[i]):
            dropped.add(i)
    return [i for i in range(len(points)) if i not in dropped]


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle in the complex plane."""

    re_lo: float
    re_hi: float
    im_lo: float
    im_hi: float

    def __post_init__(self):
        if not (self.re_lo < self.re_hi and self.im_lo < self.im_hi):
            raise ValidationError(f"rectangle has empty interior: {self}")

    @property
    def width(self) -> float:
        return self.re_hi - self.re_lo

    @property
    def height(self) -> float:
        return self.im_hi - self.im_lo

    @property
    def min_side(self) -> float:
        return min(self.width, self.height)

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_lo + self.re_hi), 0.5 * (self.im_lo + self.im_hi))

    def contains(self, z, pad: float = 0.0):
        """Whether z lies in the closed rectangle grown by pad; elementwise
        for an array z."""
        return (
            (self.re_lo - pad <= z.real)
            & (z.real <= self.re_hi + pad)
            & (self.im_lo - pad <= z.imag)
            & (z.imag <= self.im_hi + pad)
        )

    def corners(self) -> list[complex]:
        return [
            complex(self.re_lo, self.im_lo),
            complex(self.re_hi, self.im_lo),
            complex(self.re_hi, self.im_hi),
            complex(self.re_lo, self.im_hi),
        ]

    def grid(self, nx: int, ny: int) -> np.ndarray:
        """Complex (ny, nx) mesh covering the rectangle, endpoints included."""
        xs = np.linspace(self.re_lo, self.re_hi, nx)
        ys = np.linspace(self.im_lo, self.im_hi, ny)
        return xs[None, :] + 1j * ys[:, None]


@dataclass(frozen=True)
class PhaseSpec:
    """One phase: a name, an integer degeneracy, and exponent coefficients c_0..c_k.

    The derivative coefficients are formed once, at construction.
    """

    name: str
    degeneracy: int
    exponent: tuple[complex, ...]
    derivative: tuple[complex, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.degeneracy < 1:
            raise ValidationError(f"phase {self.name!r}: degeneracy must be >= 1")
        if len(self.exponent) == 0:
            raise ValidationError(f"phase {self.name!r}: empty exponent coefficient list")
        object.__setattr__(self, "exponent", tuple(complex(c) for c in self.exponent))
        for c in self.exponent:
            _require_finite(c, f"phase {self.name!r} coefficient")
        object.__setattr__(self, "derivative", _polyder(self.exponent))

    def log_weight(self, z):
        """P(z), scalar or elementwise on arrays."""
        return _polyval_unfused(self.exponent, z)

    def log_weight_deriv(self, z):
        """P'(z)."""
        return _polyval_unfused(self.derivative, z)


def _polyval(coeffs, z):
    """sum_j coeffs[j] z^j by Horner's rule: the one exponent kernel.

    z is a scalar or an array; the coefficients are scalars or arrays that
    broadcast against z (a coefficient matrix evaluates several polynomials
    at once).
    """
    acc = 0j * z + coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def _polyval_unfused(coeffs, z):
    """_polyval at a point, or at each point of an array with exactly the
    value it has at that point alone.

    A scalar z takes Python's complex arithmetic, which rounds each product
    as four real products and two sums; numpy's complex product on arrays
    may fuse a multiply-add instead and differ in the last bit. So a 0-d
    array is evaluated as a scalar, and on other arrays the same real
    operations are spelled out. This is the evaluation for
    exponents, derivatives and pair gaps, which are compared between single
    points and arrays; the exponential-sum kernel keeps _polyval.
    """
    if not isinstance(z, np.ndarray):
        return _polyval(coeffs, z)
    if z.ndim == 0:
        return _polyval(coeffs, complex(z))
    zr, zi = z.real, z.imag
    c = complex(coeffs[-1])
    ar = 0.0 * zr - 0.0 * zi + c.real  # 0j * z + c
    ai = 0.0 * zi + 0.0 * zr + c.imag
    for c in coeffs[-2::-1]:
        c = complex(c)
        ar, ai = ar * zr - ai * zi + c.real, ar * zi + ai * zr + c.imag
    out = np.empty(z.shape, dtype=complex)
    out.real, out.imag = ar, ai
    return out


def _polyder(coeffs: tuple[complex, ...]) -> tuple[complex, ...]:
    if len(coeffs) == 1:
        return (0j,)
    return tuple(j * c for j, c in enumerate(coeffs) if j > 0)


def _pair_gap(source, m: int, n: int):
    """The exponent gap h = P_m - P_n of two distinct phases and its
    derivative h', as two functions of a scalar or array z.

    source is a ModelSpec, or a FiniteVolumeModel whose finite-volume
    exponents P_m + e^{-tau L} u_m are used. Each side is its own Horner
    evaluation, so h(z) equals the difference of the two log weights.
    """
    source.check_phase(m)
    source.check_phase(n)
    if m == n:
        raise ValidationError("phase pair must be distinct")
    cm, cn = source.exponents[m], source.exponents[n]
    dm, dn = source.derivatives[m], source.derivatives[n]

    # the scalar branch is the curve tracer's inner loop
    def h(z):
        if isinstance(z, np.ndarray):
            return _polyval_unfused(cm, z) - _polyval_unfused(cn, z)
        return _polyval(cm, z) - _polyval(cn, z)

    def dh(z):
        if isinstance(z, np.ndarray):
            return _polyval_unfused(dm, z) - _polyval_unfused(dn, z)
        return _polyval(dm, z) - _polyval(dn, z)

    return h, dh


def _volume(L: int, d: int) -> int:
    """The volume N = L^d of a side L >= 1 in dimension d >= 1."""
    if L < 1 or d < 1:
        raise ValidationError(f"L and d must be positive integers, got L={L}, d={d}")
    return int(L) ** int(d)


@dataclass(frozen=True)
class ModelSpec:
    """A family of r >= 2 phases over a rectangular domain.

    coordinate_map records how the field coordinate w is presented: "identity"
    leaves it alone, "exponential" means the display coordinate is z = e^w,
    so the unit circle |z| = 1 is the line Re w = 0. All computations happen
    in the field coordinate.
    """

    phases: tuple[PhaseSpec, ...]
    domain: Rectangle
    alpha_ref: float = 1e-3
    coordinate_map: str = "identity"

    def __post_init__(self):
        object.__setattr__(self, "phases", tuple(self.phases))
        if len(self.phases) < 2:
            raise ValidationError("a model needs at least two phases")
        names = [p.name for p in self.phases]
        if len(set(names)) != len(names):
            raise ValidationError(f"phase names must be unique, got {names}")
        if self.alpha_ref <= 0:
            raise ValidationError("alpha_ref must be positive")
        if self.coordinate_map not in ("identity", "exponential"):
            raise ValidationError(f"unknown coordinate_map {self.coordinate_map!r}")

    @property
    def r(self) -> int:
        return len(self.phases)

    @property
    def degeneracies(self) -> tuple[int, ...]:
        return tuple(p.degeneracy for p in self.phases)

    @property
    def exponents(self) -> tuple[tuple[complex, ...], ...]:
        return tuple(p.exponent for p in self.phases)

    @property
    def derivatives(self) -> tuple[tuple[complex, ...], ...]:
        return tuple(p.derivative for p in self.phases)

    def log_weights(self, z) -> np.ndarray:
        """All P_m(z) stacked along the first axis."""
        if np.ndim(z) == 0:  # as log_weight evaluates a 0-d array
            return np.array([_polyval(p.exponent, complex(z)) for p in self.phases])
        return np.stack([p.log_weight(np.asarray(z)) for p in self.phases])

    def v_values(self, z) -> np.ndarray:
        """All P_m'(z) stacked along the first axis."""
        return np.stack([p.log_weight_deriv(np.asarray(z)) for p in self.phases])

    def check_phase(self, m: int) -> int:
        if not (0 <= m < self.r):
            raise ValidationError(f"phase index {m} out of range 0..{self.r - 1}")
        return m


@dataclass(frozen=True)
class StabilityReport:
    """Which phases are stable (and almost stable) at a query point."""

    z: complex
    log_max: float
    stable_set: frozenset[int]
    eps_stable_sets: dict[float, frozenset[int]] = field(default_factory=dict)


@dataclass
class AssumptionViolation:
    location: complex
    assumption: str
    margin: float


@dataclass
class AssumptionReport:
    """Outcome of the sampled non-degeneracy checks."""

    alpha_estimate: float
    positivity_ok: bool
    positivity_min: float
    pair_samples: dict[tuple[int, int], list[complex]]
    convexity_results: list[tuple[complex, bool, float]]
    violations: list[AssumptionViolation]

    @property
    def ok(self) -> bool:
        return self.positivity_ok and not self.violations


@dataclass(frozen=True)
class FiniteVolumeModel:
    """A model together with volume N = L^d and synthetic finite-volume data.

    The finite-volume exponent of phase m is P_m(z) + e^{-tau L} u_m(z) with
    sup |u_m| <= 1 over the domain, so the log-ratio bound holds by
    construction. Its coefficients, padded to a common length, and their
    derivatives are formed once, at construction. The synthetic error term is
    Xi(z) = xi_strength * e^{-tau L} * N * sum_m q_m zeta_m^{(L)}(z)^N,
    analytic and within the admissible envelope.
    """

    base: ModelSpec
    L: int
    d: int
    N: int
    tau: float
    kappa: float
    perturbations: tuple[tuple[complex, ...], ...]
    xi_strength: float
    exponents: tuple[tuple[complex, ...], ...] = field(init=False, repr=False, compare=False)
    derivatives: tuple[tuple[complex, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        eps = self.perturbation_scale()
        deg = max(len(c) for c in self.base.exponents + tuple(self.perturbations))
        rows = []
        for c, u in zip(self.base.exponents, self.perturbations):
            row = np.zeros(deg, dtype=complex)
            row[: len(c)] += np.asarray(c)
            if any(u):
                row[: len(u)] += eps * np.asarray(u)
            rows.append(tuple(row.tolist()))
        object.__setattr__(self, "exponents", tuple(rows))
        object.__setattr__(self, "derivatives", tuple(_polyder(row) for row in rows))

    @property
    def phases(self):
        return self.base.phases

    @property
    def domain(self) -> Rectangle:
        return self.base.domain

    @property
    def degeneracies(self) -> tuple[int, ...]:
        return self.base.degeneracies

    def check_phase(self, m: int) -> int:
        return self.base.check_phase(m)

    def perturbation_scale(self) -> float:
        return math.exp(-self.tau * self.L)

    def log_weight_L(self, m: int, z):
        """log zeta_m^{(L)}(z) = P_m(z) + e^{-tau L} u_m(z)."""
        return _polyval_unfused(self.exponents[self.check_phase(m)], z)

    def log_weight_L_deriv(self, m: int, z):
        return _polyval_unfused(self.derivatives[self.check_phase(m)], z)


# ---------------------------------------------------------------------------
# Pointwise evaluation


def eval_log_zeta(model: ModelSpec, m: int, z: complex) -> complex:
    """Exponent P_m(z); exp of the result is the phase weight zeta_m(z)."""
    model.check_phase(m)
    z = _require_finite(z)
    return complex(model.phases[m].log_weight(z))


def eval_v(model: ModelSpec, m: int, z: complex) -> complex:
    """Logarithmic derivative v_m(z) = P_m'(z), exact from the coefficients."""
    model.check_phase(m)
    z = _require_finite(z)
    return complex(model.phases[m].log_weight_deriv(z))


def _stab_tol(log_max: float) -> float:
    return TOL_STAB * max(1.0, abs(log_max))


def stability(model: ModelSpec, z: complex, eps_list=()) -> StabilityReport:
    """Classify the phases stable at z, plus almost-stable sets for each eps.

    Raises DomainError if z lies outside the model domain.
    """
    z = _require_finite(z)
    if not model.domain.contains(z):
        raise DomainError(f"{z} outside model domain {model.domain}")
    re_p = np.real(model.log_weights(z))
    log_max = float(re_p.max())
    stable = frozenset(np.flatnonzero(re_p >= log_max - _stab_tol(log_max)).tolist())
    eps_sets = {}
    for eps in eps_list:
        if eps < 0:
            raise ValidationError(f"eps must be >= 0, got {eps}")
        eps_sets[float(eps)] = frozenset(np.flatnonzero(re_p > log_max - eps).tolist())
    return StabilityReport(z=z, log_max=log_max, stable_set=stable, eps_stable_sets=eps_sets)


def almost_stable_set(model: ModelSpec, z: complex, eps: float) -> frozenset[int]:
    """Phases m with Re P_m(z) > log_max - eps (the eps-almost-stable set)."""
    re_p = np.real(model.log_weights(z))
    return frozenset(np.flatnonzero(re_p > re_p.max() - eps).tolist())


def in_two_phase_region(model: ModelSpec, z, eps: float, q_set):
    """True if z lies in the region where exactly the phases of q_set are
    almost stable: all of q_set within eps of the top, everything else
    strictly below the top by more than eps/2. Elementwise for an array z."""
    return _in_two_phase(np.real(model.log_weights(z)), eps, q_set)


def _in_two_phase(re_p, eps: float, q_set):
    """in_two_phase_region from Re P_m = re_p[m] at its points."""
    log_max = re_p.max(axis=0)
    in_q = np.isin(np.arange(len(re_p)), list(q_set))
    return np.all(re_p[in_q] > log_max - eps, axis=0) & np.all(re_p[~in_q] < log_max - eps / 2, axis=0)


def in_coexistence_strip(model: ModelSpec, z, eps: float):
    """True where no single phase dominates by more than eps/2, i.e. the
    second-largest exponent real part is within eps/2 of the largest.
    Elementwise for an array z."""
    return _in_strip(np.real(model.log_weights(z)), eps)


def _in_strip(re_p, eps: float):
    """in_coexistence_strip from Re P_m = re_p[m] at its points, by two max passes."""
    top = np.arange(len(re_p)).reshape((-1,) + (1,) * (re_p.ndim - 1)) == re_p.argmax(axis=0)
    return np.where(top, -np.inf, re_p).max(axis=0) >= re_p.max(axis=0) - eps / 2


# ---------------------------------------------------------------------------
# Assumption checks


def convexity_margin(points: list[complex]) -> float:
    """Signed strict-convexity margin of a point family in the plane.

    Orders the points by angle about their centroid and returns the minimum
    cross product of consecutive edge vectors; positive means the points are
    vertices of a strictly convex polygon, zero or negative flags degeneracy.
    """
    if len(points) < 3:
        raise ValidationError("need at least three points for a convexity check")
    c = sum(points) / len(points)
    ordered = sorted(points, key=lambda p: cmath.phase(p - c))
    s = len(ordered)
    margin = math.inf
    for k in range(s):
        a, b, cc = ordered[k], ordered[(k + 1) % s], ordered[(k + 2) % s]
        e1, e2 = b - a, cc - b
        cross = e1.real * e2.imag - e1.imag * e2.real
        margin = min(margin, cross)
    return margin


def check_assumption_A(model: ModelSpec, grid=(41, 41)) -> AssumptionReport:
    """Sample the domain and test positivity, pairwise non-degeneracy of the
    logarithmic derivatives on coexistence sets, and strict convexity of the
    derivative polygon at multiple points."""
    # diagram imports this module, so its seed scans are imported on use
    from .diagram import _coexistence_points, _multiple_points, _scan_mesh

    mesh, re_p, cell, slack = _scan_mesh(model, grid)
    positivity_min = float(np.exp(re_p.max(axis=0).min()))
    positivity_ok = positivity_min > 0.0

    violations: list[AssumptionViolation] = []
    pair_samples: dict[tuple[int, int], list[complex]] = {}
    alpha = math.inf
    for m in range(model.r):
        for n in range(m + 1, model.r):
            pts = np.array(_coexistence_points(model, m, n, mesh, re_p, cell), dtype=complex)
            # a point is dropped within |z - p| < cell/2 of a kept one
            pts = pts[_first_come(pts, np.nextafter(0.5 * cell, 0.0))]
            _, dh = _pair_gap(model, m, n)
            gaps = _modulus(dh(pts))  # |v_m - v_n|, bit-equal to eval_v at each point
            for z, gap in zip(pts.tolist(), gaps.tolist()):
                alpha = min(alpha, gap)
                if gap < model.alpha_ref:
                    violations.append(AssumptionViolation(z, "A3", gap))
            pair_samples[(m, n)] = pts.tolist()

    convexity_results: list[tuple[complex, bool, float]] = []
    for z_mp, mp in _multiple_points(model, mesh, re_p, cell, slack):
        if mp is None:
            # the tie structure itself is the diagnostic: a degenerate tie
            # set cannot carry a strictly convex derivative polygon
            convexity_results.append((z_mp, False, 0.0))
            violations.append(AssumptionViolation(z_mp, "A4", 0.0))
            continue
        margin = convexity_margin([mp.v_values[k] for k in mp.stable_set])
        ok = margin > 0.0
        convexity_results.append((z_mp, ok, margin))
        if not ok:
            violations.append(AssumptionViolation(z_mp, "A4", margin))

    if alpha is math.inf:
        alpha = 0.0  # no coexistence found anywhere; nothing to bound
    return AssumptionReport(
        alpha_estimate=alpha,
        positivity_ok=positivity_ok,
        positivity_min=positivity_min,
        pair_samples=pair_samples,
        convexity_results=convexity_results,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# Finite volume


def finite_volume(
    model: ModelSpec,
    L: int,
    d: int,
    tau: float,
    kappa: float = 1.0,
    perturbation=None,
    xi_strength: float = 0.0,
) -> FiniteVolumeModel:
    """Attach a volume N = L^d and synthetic finite-volume perturbations.

    perturbation is an optional per-phase list of polynomial coefficients
    u_m; each non-zero u_m is rescaled so its sup over the domain grid
    equals 1, which keeps the log-ratio within e^{-tau L} by construction.
    """
    N = _volume(L, d)
    if tau <= 0:
        raise ValidationError(f"tau must be positive, got {tau}")
    if kappa <= 0:
        raise ValidationError(f"kappa must be positive, got {kappa}")
    if xi_strength < 0:
        raise ValidationError(f"xi_strength must be >= 0, got {xi_strength}")

    if perturbation is None:
        perturbation = [(0j,)] * model.r
    if len(perturbation) != model.r:
        raise ValidationError(
            f"need one perturbation seed per phase ({model.r}), got {len(perturbation)}"
        )
    mesh = model.domain.grid(_SUP_GRID, _SUP_GRID)
    scaled = []
    for u in perturbation:
        u = tuple(complex(c) for c in u) if len(u) else (0j,)
        sup = float(np.abs(_polyval(u, mesh)).max())
        if sup > 0.0:
            u = tuple(c / sup for c in u)
        scaled.append(u)
    return FiniteVolumeModel(
        base=model,
        L=int(L),
        d=int(d),
        N=N,
        tau=float(tau),
        kappa=float(kappa),
        perturbations=tuple(scaled),
        xi_strength=float(xi_strength),
    )


def random_perturbation(model: ModelSpec, seed: int, degree: int = 3):
    """Deterministic per-phase random polynomial seeds for finite_volume."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(model.r):
        c = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        out.append(tuple(complex(x) for x in c))
    return out


def symmetric_pair_perturbation(seed: int, degree: int = 3):
    """Two perturbation seeds (u_plus, u_minus) related by the reflection
    u_plus(w) = conj(u_minus(-conj(w))), i.e. coefficient-wise
    c_j = (-1)^j conj(a_j)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    u_minus = tuple(complex(x) for x in a)
    u_plus = tuple(((-1) ** j) * complex(x).conjugate() for j, x in enumerate(a))
    return u_plus, u_minus


# ---------------------------------------------------------------------------
# Model files

_SCHEMA_HINT = (
    'expected {"phases": [{"name": str, "q": int, "coeffs": [[re, im], ...]}, ...], '
    '"domain": {"re": [lo, hi], "im": [lo, hi]}, "coordinate_map": "identity"|"exponential"}'
)


def _pair_to_complex(v, where: str) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ValidationError(f"{where}: complex numbers are [re, im] pairs; {_SCHEMA_HINT}")
    return complex(float(v[0]), float(v[1]))


def model_from_dict(data: dict) -> ModelSpec:
    """Build a ModelSpec from the JSON-compatible model-file structure."""
    try:
        phases = []
        for k, p in enumerate(data["phases"]):
            coeffs = [_pair_to_complex(c, f"phases[{k}].coeffs") for c in p["coeffs"]]
            phases.append(PhaseSpec(name=str(p["name"]), degeneracy=int(p["q"]), exponent=tuple(coeffs)))
        dom = data["domain"]
        rect = Rectangle(float(dom["re"][0]), float(dom["re"][1]), float(dom["im"][0]), float(dom["im"][1]))
    except (KeyError, TypeError, IndexError) as exc:
        raise ValidationError(f"malformed model file ({exc}); {_SCHEMA_HINT}") from exc
    return ModelSpec(
        phases=tuple(phases),
        domain=rect,
        alpha_ref=float(data.get("alpha_ref", 1e-3)),
        coordinate_map=str(data.get("coordinate_map", "identity")),
    )


def model_to_dict(model: ModelSpec) -> dict:
    return {
        "phases": [
            {"name": p.name, "q": p.degeneracy, "coeffs": [[c.real, c.imag] for c in p.exponent]}
            for p in model.phases
        ],
        "domain": {
            "re": [model.domain.re_lo, model.domain.re_hi],
            "im": [model.domain.im_lo, model.domain.im_hi],
        },
        "alpha_ref": model.alpha_ref,
        "coordinate_map": model.coordinate_map,
    }


def load_model(path) -> ModelSpec:
    """Read a model definition file (JSON)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"model file {path} is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    return model_from_dict(data)
