"""Conditioning of the derivative Vandermonde matrix, the symmetric-model
circle audit, and the covering check that patches the zero-location regimes
together."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .diagram import _multiple_points, _scan_mesh
from .errors import DomainError, HypothesisViolationError, SingularityError, ValidationError
from .model import (
    FiniteVolumeModel,
    ModelSpec,
    _in_strip,
    _in_two_phase,
    _modulus,
    _polyval,
    _volume,
    almost_stable_set,
)
from .zeros import ZeroSet


@dataclass
class VandermondeReport:
    Q: tuple[int, ...]
    z: complex
    b_values: dict[int, complex]
    det_abs: float
    det_pairwise: float
    norm: float
    inverse_norm: float
    inverse_bound: float

    @property
    def det_rel_err(self) -> float:
        return abs(self.det_abs - self.det_pairwise) / max(self.det_pairwise, 1e-300)

    @property
    def bound_ok(self) -> bool:
        return self.inverse_norm <= self.inverse_bound * (1.0 + 1e-8)


def vandermonde_report(fvm: FiniteVolumeModel, Q, z: complex) -> VandermondeReport:
    """Condition the power matrix of finite-volume logarithmic derivatives.

    Builds M[l, m] = b_m(z)^l for the phases of Q, computes |det M| both
    from the singular values of M and as the pairwise product of gaps, and
    compares the spectral norm of the inverse, 1/sigma_min, against the
    norm^{q-1}/|det| bound. Requires every phase of Q to be almost stable at
    z on the kappa/L scale.
    """
    Q = tuple(sorted(fvm.base.check_phase(k) for k in Q))
    if len(Q) < 2 or len(set(Q)) != len(Q):
        raise ValidationError(f"need at least two distinct phases, got {Q}")
    if not fvm.domain.contains(z):
        raise ValidationError(f"{z} outside domain")
    if not set(Q) <= almost_stable_set(fvm.base, z, fvm.kappa / fvm.L):
        raise DomainError(
            f"{z} is not in the joint almost-stable region of {Q} at eps=kappa/L"
        )
    b = {k: complex(fvm.log_weight_L_deriv(k, z)) for k in Q}
    vals = [b[k] for k in Q]
    qn = len(Q)
    for i in range(qn):
        for j in range(i + 1, qn):
            if abs(vals[i] - vals[j]) < 1e-12:
                raise SingularityError(
                    f"derivatives of phases {Q[i]} and {Q[j]} coincide at {z} "
                    f"(gap {abs(vals[i] - vals[j]):.3e}); the power matrix is singular"
                )
    m = np.array([[v**l for v in vals] for l in range(qn)], dtype=complex)
    sv = np.linalg.svd(m, compute_uv=False)  # descending
    det_abs = float(np.prod(sv))
    det_pairwise = 1.0
    for i in range(qn):
        for j in range(i + 1, qn):
            det_pairwise *= abs(vals[j] - vals[i])
    norm = float(sv[0])
    return VandermondeReport(
        Q=Q,
        z=complex(z),
        b_values=b,
        det_abs=det_abs,
        det_pairwise=det_pairwise,
        norm=norm,
        inverse_norm=float(1.0 / sv[-1]),
        inverse_bound=norm ** (qn - 1) / det_abs,
    )


# ---------------------------------------------------------------------------
# Symmetric-model audit


@dataclass
class LeeYangReport:
    max_abs_re: float
    tolerance: float
    count_unit_segment: int
    zeros_checked: int
    symmetry_residual: float

    @property
    def on_axis(self) -> bool:
        return self.max_abs_re <= self.tolerance


# lee_yang_hypotheses samples the domain on this grid and allows this
# residual of the reflection w -> -conj(w).
_SYMMETRY_GRID = (21, 21)
_SYMMETRY_TOL = 1e-10


def lee_yang_hypotheses(fvm: FiniteVolumeModel, plus: int, minus: int) -> float:
    """Check on a grid the hypotheses of the local Lee-Yang theorem for the
    pair plus/minus: equal degeneracies, weights exchanged by w -> -conj(w),
    and perturbation seeds respecting the same reflection. Under them W is
    real on the axis Re w = 0 (zeros.find_zeros_on_axis). Returns the
    largest symmetry residual; a failed hypothesis raises
    HypothesisViolationError.
    """
    base = fvm.base
    p, n = base.check_phase(plus), base.check_phase(minus)
    if p == n:
        raise ValidationError("plus and minus must be distinct phases")
    if base.phases[p].degeneracy != base.phases[n].degeneracy:
        raise HypothesisViolationError(
            f"degeneracies differ: q[{p}]={base.phases[p].degeneracy}, "
            f"q[{n}]={base.phases[n].degeneracy}"
        )
    dom = base.domain
    if abs(dom.re_lo + dom.re_hi) > 1e-12 * max(1.0, abs(dom.re_hi)):
        raise HypothesisViolationError(
            "domain is not symmetric under w -> -conj(w); cannot test the hypotheses"
        )
    mesh = dom.grid(*_SYMMETRY_GRID)
    mirror = -np.conj(mesh)
    wp = np.exp(base.phases[p].log_weight(mesh))
    wn = np.exp(base.phases[n].log_weight(mirror))
    sym_res = float(np.abs(wp - np.conj(wn)).max())
    if sym_res > _SYMMETRY_TOL:
        raise HypothesisViolationError(
            f"weight symmetry fails on the grid: max residual {sym_res:.3e} > {_SYMMETRY_TOL:g}"
        )
    up = _polyval(fvm.perturbations[p], mesh)
    un = _polyval(fvm.perturbations[n], mirror)
    seed_res = float(np.abs(up - np.conj(un)).max())
    if seed_res > _SYMMETRY_TOL:
        raise HypothesisViolationError(
            f"perturbation seeds break the reflection symmetry: "
            f"{seed_res:.3e} > {_SYMMETRY_TOL:g}"
        )
    return max(sym_res, seed_res)


def lee_yang_report(
    fvm: FiniteVolumeModel, zeros: ZeroSet, symmetry_residual: float
) -> LeeYangReport:
    """The theorem's conclusion on located zeros: the maximum |Re w| against
    a tolerance proportional to the finite-volume error scale, 10 e^{-tau L},
    and the zero count on Im w in (0, 1]."""
    y = zeros.z.imag
    return LeeYangReport(
        max_abs_re=float(np.abs(zeros.z.real).max(initial=0.0)),
        tolerance=10.0 * math.exp(-fvm.tau * fvm.L),
        count_unit_segment=int(zeros.multiplicity[(0.0 < y) & (y <= 1.0)].sum()),
        zeros_checked=len(zeros),
        symmetry_residual=symmetry_residual,
    )


# ---------------------------------------------------------------------------
# Covering check


@dataclass
class CoveringReport:
    checked: int
    in_strip: int
    uncovered: list[complex]
    chi_empirical: float
    required_rho: float

    @property
    def covered(self) -> bool:
        return not self.uncovered


def covering_check(
    model: ModelSpec,
    L: int,
    d: int,
    omega_L: float,
    gamma_L: float,
    rho_L: float,
    grid=(41, 41),
) -> CoveringReport:
    """Verify that the coexistence strip splits into two-phase shells and
    multiple-point discs.

    Every point of the model domain's grid that lies in the strip where no
    phase dominates by omega_L/N must lie in a two-phase almost-stable
    region at scale gamma_L or within rho_L of a multiple point. The grid
    is the seed-scan mesh of diagram._scan_mesh, evaluated once for both the
    strip and the multiple points found on it. The report lists uncovered
    points and the smallest rho_L/gamma_L ratio that would have covered
    everything.
    """
    N = _volume(L, d)
    if gamma_L <= 0:
        raise ValidationError(f"gamma_L must be positive, got {gamma_L:.3g}")
    if omega_L > gamma_L * N:
        raise ValidationError(f"omega_L={omega_L:.3g} must not exceed gamma_L*N={gamma_L * N:.3g}")
    mesh, re_p, cell, slack = _scan_mesh(model, grid)
    mp_locs = [mp.z for _, mp in _multiple_points(model, mesh, re_p, cell, slack) if mp is not None]
    on = _in_strip(re_p, omega_L / N)
    strip, re_p = mesh[on], re_p[:, on]
    two_phase = np.zeros(len(strip), dtype=bool)
    for m in range(model.r):
        for n in range(m + 1, model.r):
            two_phase |= _in_two_phase(re_p, gamma_L, (m, n))
    rest = strip[~two_phase]
    dist = _modulus(rest[:, None] - mp_locs).min(axis=1, initial=math.inf)  # to the nearest multiple point
    required_rho = float(dist.max(initial=0.0))
    uncovered = rest[dist >= rho_L].tolist()
    if math.isinf(required_rho):
        warnings.warn("strip points needed a multiple-point disc but none was found", stacklevel=2)
    chi = required_rho / gamma_L if math.isfinite(required_rho) else math.inf
    return CoveringReport(
        checked=mesh.size,
        in_strip=len(strip),
        uncovered=uncovered,
        chi_empirical=chi,
        required_rho=required_rho,
    )
