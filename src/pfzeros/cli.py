"""Command-line entry point: one subcommand per analysis workflow, all file
emission (CSV, structured text, optional SVG) funneled through here. Each
subcommand is declared once, in _COMMANDS, with the options its workflow reads.

Numbers are serialized with 17 significant digits so every artifact
round-trips to the exact double. Reruns with the same config and seed are
byte-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis, density, diagram, model, render, zeros
from .errors import NumericalError, ValidationError

ENV_OUT_DIR = "PFZEROS_OUT_DIR"
ZEROS_HEADER = "re_z,im_z,multiplicity,residual,method"


def _g17(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Artifact writers


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def zeros_csv(zs: zeros.ZeroSet) -> str:
    cols = (zs.z.real, zs.z.imag, zs.multiplicity, zs.residual, zs.method)
    rows = map("%.17g,%.17g,%d,%.17g,%s\n".__mod__, zip(*(c.tolist() for c in cols)))
    return "".join([ZEROS_HEADER, "\n", *rows])


def read_zeros_csv(path) -> list[zeros.Zero]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != ZEROS_HEADER:
            raise ValidationError(
                f"{path}: expected zeros CSV header {ZEROS_HEADER!r}, got {header!r}"
            )
        for line in fh:
            re_z, im_z, mult, res, method = line.strip().split(",")
            out.append(
                zeros.Zero(complex(float(re_z), float(im_z)), int(mult), float(res), method)
            )
    return out


def curve_csv(curve: diagram.CoexistenceCurve) -> str:
    rows = ((s.t, s.z.real, s.z.imag, s.v_m.real, s.v_m.imag, s.v_n.real, s.v_n.imag) for s in curve.samples)
    return "".join(["t,re_z,im_z,re_vm,im_vm,re_vn,im_vn\n", *(",".join(map(_g17, r)) + "\n" for r in rows)])


def density_csv(rows) -> str:
    lines = ["epsilon,L,N,count,empirical,theoretical,abs_error"]
    for r in rows:
        lines.append(
            f"{_g17(r.epsilon)},{r.L},{r.N},{r.count},"
            f"{_g17(r.empirical)},{_g17(r.theoretical)},{_g17(r.abs_error)}"
        )
    return "\n".join(lines) + "\n"


def _search_lines(found: zeros.ZeroSearch) -> list[str]:
    """How a locator found its zeros: the box winding, and how many of them
    the quadtree located."""
    return [f"box_winding: {found.box_winding}", f"quadtree_located: {found.quadtree_located}"]


def match_report_text(rep: zeros.MatchReport, predicted, found: zeros.ZeroSearch) -> str:
    lines = [
        f"pairs: {len(rep.pairs)}",
        f"unmatched_predicted: {len(rep.unmatched_predicted)}",
        f"unmatched_located: {len(rep.unmatched_located)}",
        f"min_located_spacing: {_g17(rep.min_located_spacing)}",
        f"max_distance: {_g17(rep.max_distance)}",
        f"c_match: {_g17(rep.c_match)}",
        f"violations: {len(rep.violations)}",
        *_search_lines(found),
        "pair_table: predicted_idx,located_idx,distance,delta_L",
    ]
    lines += map("  %d,%d,%.17g,%.17g".__mod__, rep.pairs)
    for side, zs, at in (("predicted", predicted, rep.unmatched_predicted),
                         ("located", found.zeros, rep.unmatched_located)):
        row = f"unmatched_{side}_at: %.17g,%.17g"
        lines += [row % (z.real, z.imag) for z in zs.z[at].tolist()]
    return "\n".join(lines) + "\n"


def diagram_text(pd: diagram.PhaseDiagram) -> str:
    lines = [f"curves: {len(pd.curves)}", f"multiple_points: {len(pd.multiple_points)}"]
    for k, c in enumerate(pd.curves):
        lines.append(
            f"curve {k}: pair=({c.pair[0]},{c.pair[1]}) samples={len(c.samples)} "
            f"arc_length={_g17(c.arc_length)} start={c.start.kind} end={c.end.kind}"
        )
    for k, mp in enumerate(pd.multiple_points):
        q = ",".join(str(m) for m in mp.stable_set)
        lines.append(
            f"multiple_point {k}: z=({_g17(mp.z.real)},{_g17(mp.z.imag)}) "
            f"phases=[{q}] incident_arcs={len(mp.incident_arcs)}"
        )
    if math.isfinite(pd.min_tangent_angle):
        lines.append(f"min_tangent_angle: {_g17(pd.min_tangent_angle)}")
    for msg in pd.diagnostics:
        lines.append(f"diagnostic: {msg}")
    return "\n".join(lines) + "\n"


def asymptotes_csv(lines_list) -> str:
    rows = ["phase_a,phase_b,offset_re,offset_im,dir_re,dir_im,shift"]
    for ln in lines_list:
        rows.append(
            f"{ln.side[0]},{ln.side[1]},"
            f"{_g17(ln.origin_offset.real)},{_g17(ln.origin_offset.imag)},"
            f"{_g17(ln.direction.real)},{_g17(ln.direction.imag)},{_g17(ln.shift_magnitude)}"
        )
    return "\n".join(rows) + "\n"


def covering_text(rep: analysis.CoveringReport) -> str:
    return (
        f"checked: {rep.checked}\n"
        f"in_strip: {rep.in_strip}\n"
        f"uncovered: {len(rep.uncovered)}\n"
        f"required_rho: {_g17(rep.required_rho)}\n"
        f"chi_empirical: {_g17(rep.chi_empirical)}\n"
        f"covered: {rep.covered}\n"
    )


def uncovered_csv(rep: analysis.CoveringReport) -> str:
    return "".join(["re_z,im_z\n", *(f"{_g17(z.real)},{_g17(z.imag)}\n" for z in rep.uncovered)])


# ---------------------------------------------------------------------------
# Workflows: each is (spec, args, out) -> artifact paths written


def _fvm(spec, args, perturbation=None, **kwargs) -> model.FiniteVolumeModel:
    """finite_volume at --L, --d and --tau, perturbed by the given seeds or,
    without them, by --perturb-seed if set."""
    if perturbation is None and args.perturb_seed is not None:
        perturbation = model.random_perturbation(
            spec, args.perturb_seed, degree=args.perturb_degree
        )
    return model.finite_volume(
        spec, L=args.L, d=args.d, tau=args.tau, perturbation=perturbation, **kwargs
    )


def _curve_for_pair(spec, m, n, box) -> diagram.CoexistenceCurve:
    """The first (m, n) curve of the phase diagram that meets the box, cut to
    the samples from one before its first in-box sample to one after its
    last; an arc that leaves the box and comes back is kept. An end at a
    multiple point is moved onto it: the trace stops one step past it."""
    pd = diagram.build_phase_diagram(
        spec, grid=(33, 33), step=1e-2 * spec.domain.min_side
    )
    for c in pd.curves:
        if c.pair in ((m, n), (n, m)):
            samples = list(c.samples)
            for k, term in ((0, c.start), (-1, c.end)):
                if term.mp_index is not None:
                    mp = pd.multiple_points[term.mp_index]
                    v = mp.v_values
                    samples[k] = replace(samples[k], z=mp.z, v_m=v[c.pair[0]], v_n=v[c.pair[1]])
            inside = np.flatnonzero(box.contains(np.array([s.z for s in samples])))
            if inside.size:
                lo, hi = max(int(inside[0]) - 1, 0), int(inside[-1]) + 2
                return replace(c, samples=samples[lo:hi])
    raise ValidationError(f"no ({m},{n}) coexistence curve meets the box {box}")


def _check_assumptions(spec, args, out):
    rep = model.check_assumption_A(spec, grid=(args.grid, args.grid))
    lines = [
        f"alpha_estimate: {_g17(rep.alpha_estimate)}",
        f"positivity_ok: {rep.positivity_ok}",
        f"positivity_min: {_g17(rep.positivity_min)}",
        f"multiple_points_checked: {len(rep.convexity_results)}",
    ]
    for z, ok, margin in rep.convexity_results:
        lines.append(
            f"convexity_at: ({_g17(z.real)},{_g17(z.imag)}) ok={ok} margin={_g17(margin)}"
        )
    for v in rep.violations:
        lines.append(
            f"violation: {v.assumption} at ({_g17(v.location.real)},{_g17(v.location.imag)}) "
            f"margin={_g17(v.margin)}"
        )
    lines.append(f"ok: {rep.ok}")
    return [_write(out / "assumptions.txt", "\n".join(lines) + "\n")]


def _trace_diagram(spec, args, out):
    pd = diagram.build_phase_diagram(
        spec, grid=(args.grid, args.grid), step=args.step, max_steps=args.max_steps
    )
    written = [_write(out / "diagram.txt", diagram_text(pd))]
    for k, c in enumerate(pd.curves):
        written.append(_write(out / f"curve_{k}.csv", curve_csv(c)))
    if args.emit_svg:
        written.append(_write(out / "diagram.svg", render.emit_svg(pd, [], spec.domain)))
    return written


def _find_zeros(spec, args, out):
    fvm = _fvm(spec, args, xi_strength=args.theta)
    box = model.Rectangle(*args.box)
    zs = zeros.find_zeros_region(fvm, box)
    written = [_write(out / f"zeros_brute_L{fvm.L}d{fvm.d}.csv", zeros_csv(zs))]
    if args.emit_svg:
        written.append(_write(out / "zeros.svg", render.emit_svg(None, [zs], box)))
    return written


def _predict_zeros(spec, args, out):
    m, n = args.pair
    box = model.Rectangle(*args.box)
    curve = _curve_for_pair(spec, m, n, box)
    zs = zeros.predict_two_phase(spec, m, n, curve, L=args.L, d=args.d).within(box)
    return [_write(out / f"zeros_two_phase_L{args.L}d{args.d}.csv", zeros_csv(zs))]


def _compare(spec, args, out):
    m, n = args.pair
    box = model.Rectangle(*args.box)
    fvm = _fvm(spec, args, kappa=args.kappa, xi_strength=args.theta)
    curve = _curve_for_pair(spec, m, n, box)
    predicted_all = zeros.predict_two_phase(spec, m, n, curve, L=fvm.L, d=fvm.d)
    predicted = predicted_all.within(box)
    # the unfiltered prediction also seeds zeros just inside the box whose
    # predictions fall just outside it
    found = zeros.find_zeros_seeded(fvm, box, predicted_all.points())
    located = found.zeros
    gamma = args.gamma_scale * math.log(fvm.N) / fvm.N
    tol = zeros.delta_L(spec, predicted.points(), fvm.L, fvm.d, gamma, fvm.tau, fvm.kappa, (m, n))
    # outside the gamma_L two-phase region the core tolerance stands in; the
    # theoretical tolerance can undercut double-precision localization, so
    # floor it at the polishing resolution and reports flag real violations
    tol = np.where(np.isnan(tol), math.exp(-fvm.tau * fvm.L), tol)
    rep = zeros.match_zeros(predicted, located, np.maximum(tol, 1e-12), c_match=args.c_match)
    written = [
        _write(out / "predicted.csv", zeros_csv(predicted)),
        _write(out / "located.csv", zeros_csv(located)),
        _write(out / "match_report.txt", match_report_text(rep, predicted, found)),
    ]
    if args.emit_svg:
        written.append(_write(out / "compare.svg", render.emit_svg(None, [predicted, located], box)))
    return written


def _density(spec, args, out):
    m, n = args.pair
    rows = density.density_convergence(
        spec, m, n, complex(*args.at), args.eps_list, args.L_list, args.d
    )
    return [_write(out / "density.csv", density_csv(rows))]


def _multipoint(spec, args, out):
    N = model._volume(args.L, args.d)
    mp = diagram.find_multiple_point(spec, args.triple, complex(*args.seed_point))
    rho = args.rho_scale * math.log(N) / N
    zs = zeros.predict_multipoint(spec, mp, args.L, args.d, rho)
    written = [_write(out / f"zeros_multipoint_L{args.L}d{args.d}.csv", zeros_csv(zs))]
    # the error term scales W by a positive constant, which leaves the
    # winding as it is, so multipoint takes no --theta
    wind = zeros.winding_number(_fvm(spec, args), (mp.z, rho))
    lines = [
        f"multiple_point: ({_g17(mp.z.real)},{_g17(mp.z.imag)})",
        f"rho_L: {_g17(rho)}",
        f"solutions: {zs.total_multiplicity()}",
        f"disc_winding: {wind}",
        f"quadtree_located: {zs.quadtree_located}",
    ]
    return written + [_write(out / "multipoint.txt", "\n".join(lines) + "\n")]


def _asymptotes(spec, args, out):
    mp = diagram.find_multiple_point(spec, args.triple, complex(*args.seed_point))
    return [_write(out / "asymptotes.csv", asymptotes_csv(zeros.asymptote_lines(spec, mp)))]


def _lee_yang(spec, args, out):
    """Check the theorem's hypotheses, then locate the zeros, those on the
    axis from the axis, and report them."""
    spec.check_phase(args.plus)
    spec.check_phase(args.minus)
    perturbation = None
    if args.symmetric_seed is not None:
        if args.perturb_seed is not None:
            raise ValidationError("--symmetric-seed and --perturb-seed exclude each other")
        perturbation = [(0j,)] * spec.r
        up, un = model.symmetric_pair_perturbation(args.symmetric_seed, args.perturb_degree)
        perturbation[args.plus] = up
        perturbation[args.minus] = un
    fvm = _fvm(spec, args, perturbation, xi_strength=args.theta)
    residual = analysis.lee_yang_hypotheses(fvm, args.plus, args.minus)
    found = zeros.find_zeros_on_axis(fvm, model.Rectangle(*args.box))
    rep = analysis.lee_yang_report(fvm, found.zeros, residual)
    lines = [
        f"zeros_checked: {rep.zeros_checked}",
        f"max_abs_re: {_g17(rep.max_abs_re)}",
        f"tolerance: {_g17(rep.tolerance)}",
        f"on_axis: {rep.on_axis}",
        f"count_unit_segment: {rep.count_unit_segment}",
        f"symmetry_residual: {_g17(rep.symmetry_residual)}",
        f"axis_sign_changes: {found.axis_sign_changes}",
        *_search_lines(found),
    ]
    return [_write(out / "lee_yang.txt", "\n".join(lines) + "\n")]


def _covering(spec, args, out):
    N = model._volume(args.L, args.d)
    ln_n = math.log(N)
    rep = analysis.covering_check(
        spec,
        L=args.L,
        d=args.d,
        omega_L=args.omega_scale * ln_n,
        gamma_L=args.gamma_scale * ln_n / N,
        rho_L=args.rho_scale * ln_n / N,
        grid=(args.grid, args.grid),
    )
    return [
        _write(out / "covering.txt", covering_text(rep)),
        _write(out / "uncovered.csv", uncovered_csv(rep)),
    ]


# ---------------------------------------------------------------------------
# Subcommands


def _values(kind, form: str, count: int | None = None):
    """argparse type: a tuple of `count` comma-separated `kind` values, or of
    any number of them if count is None."""

    def convert(text: str) -> tuple:
        try:
            vals = tuple(kind(t) for t in text.split(","))
            if count is None or len(vals) == count:
                return vals
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")

    return convert


_OPTIONS = {
    "--L": dict(type=int, required=True),
    "--d": dict(type=int, default=1),
    "--tau": dict(type=float, default=1.0),
    "--kappa": dict(type=float, default=1.0),
    "--theta": dict(type=float, default=0.0, help="error-term strength"),
    "--perturb-seed": dict(type=int, default=None),
    "--perturb-degree": dict(type=int, default=3),
    "--box": dict(type=_values(float, "re_lo,re_hi,im_lo,im_hi", 4), required=True,
                  help="re_lo,re_hi,im_lo,im_hi"),
    "--pair": dict(type=_values(int, "phase indices m,n", 2), required=True,
                   help="phase indices m,n"),
    "--triple": dict(type=_values(int, "phase indices k,l,m", 3), required=True,
                     help="phase indices k,l,m"),
    "--at": dict(type=_values(float, "re,im", 2), required=True, help="center point re,im"),
    "--seed-point": dict(type=_values(float, "re,im", 2), default="0.05,0.05",
                         help="Newton seed re,im"),
    "--eps-list": dict(type=_values(float, "comma-separated radii"), required=True,
                       help="comma-separated radii"),
    "--L-list": dict(type=_values(int, "comma-separated sides"), required=True,
                     help="comma-separated sides"),
    "--grid": dict(type=int, default=41),
    "--step": dict(type=float, default=None),
    "--max-steps": dict(type=int, default=None),
    "--c-match": dict(type=float, default=10.0),
    "--gamma-scale": dict(type=float, default=5.0),
    "--rho-scale": dict(type=float, default=1.0, help="rho_L = scale*log(N)/N"),
    "--omega-scale": dict(type=float, default=1.0),
    "--plus": dict(type=int, default=0),
    "--minus": dict(type=int, default=1),
    "--symmetric-seed": dict(type=int, default=None),
    "--emit-svg": dict(action="store_true"),
}

_PERTURBED = ("--L", "--d", "--tau", "--perturb-seed", "--perturb-degree")

# subcommand: (workflow, help, the options it reads besides model and --out-dir)
_COMMANDS = {
    "check-assumptions": (_check_assumptions, "sampled non-degeneracy checks", ("--grid",)),
    "trace-diagram": (
        _trace_diagram, "trace coexistence curves and multiple points",
        ("--grid", "--step", "--max-steps", "--emit-svg"),
    ),
    "find-zeros": (
        _find_zeros, "argument-principle zero finder",
        (*_PERTURBED, "--theta", "--box", "--emit-svg"),
    ),
    "predict-zeros": (
        _predict_zeros, "two-phase balance-equation solutions",
        ("--L", "--d", "--pair", "--box"),
    ),
    "compare": (
        _compare, "predict, locate, and match zero sets",
        (*_PERTURBED, "--kappa", "--theta", "--pair", "--box", "--c-match",
         "--gamma-scale", "--emit-svg"),
    ),
    "density": (
        _density, "zero-density convergence table",
        ("--pair", "--at", "--eps-list", "--L-list", "--d"),
    ),
    "multipoint": (
        _multipoint, "rescaled equation solutions near a multiple point",
        (*_PERTURBED, "--triple", "--seed-point", "--rho-scale"),
    ),
    "asymptotes": (
        _asymptotes, "half-lines of distant rescaled zeros", ("--triple", "--seed-point"),
    ),
    "lee-yang": (
        _lee_yang, "symmetric-model on-circle audit",
        (*_PERTURBED, "--theta", "--plus", "--minus", "--box", "--symmetric-seed"),
    ),
    "covering": (
        _covering, "two-phase shells plus multiple-point discs",
        ("--L", "--d", "--grid", "--gamma-scale", "--rho-scale", "--omega-scale"),
    ),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValidationError, so they exit 1 like other bad input."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser. When command names a subcommand only its
    subparser is built, which is all a command line starting with it needs;
    otherwise all of them are, so help and usage errors list every one."""
    p = _Parser(prog="pfzeros", description="Complex phase diagrams and partition-function zeros")
    sub = p.add_subparsers(dest="command", required=True)
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    for name in names:
        workflow, help_text, options = _COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("model", help="model definition file (JSON)")
        sp.add_argument("--out-dir", default=None, help=f"output directory (or ${ENV_OUT_DIR})")
        for opt in options:
            sp.add_argument(opt, **_OPTIONS[opt])
        sp.set_defaults(workflow=workflow)
    return p


def run(args: argparse.Namespace) -> list[Path]:
    """Execute one parsed command line; returns the artifact paths written.
    Each distinct warning the workflow raises is printed once to stderr."""
    spec = model.load_model(args.model)
    out = Path(args.out_dir or os.environ.get(ENV_OUT_DIR) or "pfzeros-out")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return args.workflow(spec, args, out)
        finally:
            for msg in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {msg}", file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        written = run(build_parser(argv[0] if argv else None).parse_args(argv))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
