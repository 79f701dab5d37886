"""Line density of zeros along coexistence curves, theoretical and counted."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import CoverageError, ValidationError
from .model import ModelSpec, _volume, eval_v, finite_volume
from .zeros import ZeroSet, winding_number


@dataclass
class DensitySample:
    z: complex
    epsilon: float
    L: int
    d: int
    count: int
    empirical: float
    theoretical: float
    warned: bool = False

    @property
    def N(self) -> int:
        return _volume(self.L, self.d)

    @property
    def abs_error(self) -> float:
        return abs(self.empirical - self.theoretical)

    @property
    def envelope(self) -> float:
        """Reporting aid: the expected O(eps) + O(1/(eps N)) error scale."""
        return self.theoretical * self.epsilon + 1.0 / (self.epsilon * self.N)


def theoretical_density(model: ModelSpec, m: int, n: int, z: complex) -> float:
    """Limiting line density |v_m(z) - v_n(z)| / (2 pi)."""
    return abs(eval_v(model, m, z) - eval_v(model, n, z)) / (2.0 * math.pi)


def empirical_density(
    zeros: ZeroSet,
    z: complex,
    epsilon: float,
    L: int,
    d: int,
    model: ModelSpec | None = None,
    pair=None,
) -> DensitySample:
    """Count zeros (with multiplicity) in the open disc of radius epsilon.

    The disc must be fully contained in the region the zero set covers;
    a count of at most one zero is reported with a warning since the disc
    is then below the zero-spacing scale.
    """
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    if not _holds(zeros.region, z, epsilon):
        raise CoverageError(
            f"disc of radius {epsilon} at {z} is not contained in the covered region {zeros.region}"
        )
    row = _sample(zeros.count_in_disc(z, epsilon), z, epsilon, L, d, model, pair)
    if row.warned:
        warnings.warn(
            f"disc radius {epsilon} captured {row.count} zero(s); below the spacing scale",
            stacklevel=2,
        )
    return row


def _holds(rect, z: complex, epsilon: float) -> bool:
    """Whether the closed rectangle holds the disc of radius epsilon at z."""
    return (
        rect.re_lo <= z.real - epsilon
        and z.real + epsilon <= rect.re_hi
        and rect.im_lo <= z.imag - epsilon
        and z.imag + epsilon <= rect.im_hi
    )


def _sample(count: int, z: complex, epsilon: float, L: int, d: int, model, pair) -> DensitySample:
    """The density row of count zeros in the disc of radius epsilon at z,
    warned when the count is at most one; the limit needs model and pair."""
    theo = math.nan
    if model is not None and pair is not None:
        theo = theoretical_density(model, pair[0], pair[1], z)
    return DensitySample(
        z=z,
        epsilon=float(epsilon),
        L=int(L),
        d=int(d),
        count=count,
        empirical=count / (2.0 * epsilon * _volume(L, d)),
        theoretical=theo,
        warned=count <= 1,
    )


def density_convergence(
    model: ModelSpec,
    m: int,
    n: int,
    z: complex,
    eps_list,
    L_list,
    d: int,
) -> list[DensitySample]:
    """Tabulate counted vs limiting density over a grid of (eps, L).

    Each count is the argument-principle winding of the partition function
    of the unperturbed model around the circle of radius eps at z
    (zeros.winding_number): every zero in the disc counted with its
    multiplicity, none of them located. A zero on the circle raises
    ContourDegeneracyError. Each row records |empirical - theoretical|
    against the expected envelope. The limit is taken volume-first, so
    rows are grouped by eps.
    """
    if not eps_list or not L_list:
        raise ValidationError("eps_list and L_list must be non-empty")
    rows: list[DensitySample] = []
    for eps in eps_list:
        if eps <= 0:
            raise ValidationError("epsilon must be positive")
        if not _holds(model.domain, z, eps):
            raise ValidationError(f"disc of radius {eps} at {z} leaves the model domain")
        for L in L_list:
            fvm = finite_volume(model, L, d, tau=1.0)
            row = _sample(winding_number(fvm, (z, eps)), z, eps, L, d, model, (m, n))
            if row.warned:
                warnings.warn(
                    f"eps={eps}, L={L}: only {row.count} zero(s) in the disc",
                    stacklevel=2,
                )
            rows.append(row)
    return rows
