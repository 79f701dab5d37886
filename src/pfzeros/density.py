"""Line density of zeros along coexistence curves, theoretical and counted."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .diagram import find_coexistence_point, trace_curve
from .errors import CoverageError, ValidationError
from .model import ModelSpec, Rectangle, _volume, eval_v, finite_volume
from .zeros import ZeroSet, find_zeros_seeded, predict_two_phase


@dataclass
class DensitySample:
    z: complex
    epsilon: float
    L: int
    d: int
    count: int
    empirical: float
    theoretical: float
    predicted_count: int | None = None
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
    reg = zeros.region
    if not (
        reg.re_lo <= z.real - epsilon
        and z.real + epsilon <= reg.re_hi
        and reg.im_lo <= z.imag - epsilon
        and z.imag + epsilon <= reg.im_hi
    ):
        raise CoverageError(
            f"disc of radius {epsilon} at {z} is not contained in the covered region {reg}"
        )
    N = _volume(L, d)
    count = zeros.count_in_disc(z, epsilon)
    warned = count <= 1
    if warned:
        warnings.warn(
            f"disc radius {epsilon} captured {count} zero(s); below the spacing scale",
            stacklevel=2,
        )
    theo = math.nan
    if model is not None and pair is not None:
        theo = theoretical_density(model, pair[0], pair[1], z)
    return DensitySample(
        z=z,
        epsilon=float(epsilon),
        L=int(L),
        d=int(d),
        count=count,
        empirical=count / (2.0 * epsilon * N),
        theoretical=theo,
        warned=warned,
    )


def density_convergence(
    model: ModelSpec,
    m: int,
    n: int,
    z: complex,
    eps_list,
    L_list,
    d: int,
    tau: float = 1.0,
) -> list[DensitySample]:
    """Tabulate counted vs limiting density over a grid of (eps, L).

    For each pair, the two-phase zeros are predicted along the traced curve
    and seed zeros.find_zeros_seeded in a box covering the disc, which
    certifies them against the box winding or falls back to the quadtree;
    the predicted zeros are counted alongside, and the row records
    |empirical - theoretical| against the expected envelope. The limit is
    taken volume-first, so rows are grouped by eps.
    """
    if not eps_list or not L_list:
        raise ValidationError("eps_list and L_list must be non-empty")
    z0 = find_coexistence_point(model, m, n, z, radius=0.1 * model.domain.min_side)
    eps_max = max(eps_list)
    step = 0.01 * model.domain.min_side
    max_steps = int(math.ceil(1.3 * eps_max / step)) + 4
    curve = trace_curve(model, m, n, z0, step, max_steps)

    rows: list[DensitySample] = []
    for eps in eps_list:
        half = 1.05 * eps
        box = Rectangle(z.real - half, z.real + half, z.imag - half, z.imag + half)
        for c in box.corners():
            if not model.domain.contains(c):
                raise ValidationError(f"disc of radius {eps} at {z} leaves the model domain")
        for L in L_list:
            fvm = finite_volume(model, L, d, tau=tau)
            predicted = predict_two_phase(model, m, n, curve, L=L, d=d)
            located = find_zeros_seeded(fvm, box, predicted.points()).zeros
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                row = empirical_density(located, z, eps, L, d, model=model, pair=(m, n))
            row.predicted_count = predicted.count_in_disc(z, eps)
            if row.warned:
                warnings.warn(
                    f"eps={eps}, L={L}: only {row.count} zero(s) in the disc",
                    stacklevel=2,
                )
            rows.append(row)
    return rows
