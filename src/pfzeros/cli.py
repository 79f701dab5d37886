"""Command-line entry point: one subcommand per analysis workflow, all file
emission (CSV, structured text, optional SVG) funneled through here.

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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import analysis, density, diagram, model, render, zeros
from .errors import NumericalError, ValidationError

ENV_OUT_DIR = "PFZEROS_OUT_DIR"
ZEROS_HEADER = "re_z,im_z,multiplicity,residual,method"


def _g17(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class RunConfig:
    command: str
    model_path: str
    out_dir: str
    emit_svg: bool = False
    options: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Artifact writers


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def zeros_csv(zs: zeros.ZeroSet) -> str:
    lines = [ZEROS_HEADER]
    for w in zs.zeros:
        lines.append(
            f"{_g17(w.z.real)},{_g17(w.z.imag)},{w.multiplicity},{_g17(w.residual)},{w.method}"
        )
    return "\n".join(lines) + "\n"


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
    lines = ["t,re_z,im_z,re_vm,im_vm,re_vn,im_vn"]
    for s in curve.samples:
        lines.append(
            ",".join(
                _g17(v)
                for v in (s.t, s.z.real, s.z.imag, s.v_m.real, s.v_m.imag, s.v_n.real, s.v_n.imag)
            )
        )
    return "\n".join(lines) + "\n"


def density_csv(rows) -> str:
    lines = ["epsilon,L,N,count,empirical,theoretical,abs_error"]
    for r in rows:
        lines.append(
            f"{_g17(r.epsilon)},{r.L},{r.N},{r.count},"
            f"{_g17(r.empirical)},{_g17(r.theoretical)},{_g17(r.abs_error)}"
        )
    return "\n".join(lines) + "\n"


def match_report_text(rep: zeros.MatchReport, predicted, located) -> str:
    lines = [
        f"pairs: {len(rep.pairs)}",
        f"unmatched_predicted: {len(rep.unmatched_predicted)}",
        f"unmatched_located: {len(rep.unmatched_located)}",
        f"min_located_spacing: {_g17(rep.min_located_spacing)}",
        f"max_distance: {_g17(rep.max_distance)}",
        f"c_match: {_g17(rep.c_match)}",
        f"violations: {len(rep.violations)}",
        "pair_table: predicted_idx,located_idx,distance,delta_L",
    ]
    for pi, li, dist, tol in rep.pairs:
        lines.append(f"  {pi},{li},{_g17(dist)},{_g17(tol)}")
    for i in rep.unmatched_predicted:
        z = predicted.zeros[i].z
        lines.append(f"unmatched_predicted_at: {_g17(z.real)},{_g17(z.imag)}")
    for i in rep.unmatched_located:
        z = located.zeros[i].z
        lines.append(f"unmatched_located_at: {_g17(z.real)},{_g17(z.imag)}")
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
    rows = ["re_z,im_z"]
    for z in rep.uncovered:
        rows.append(f"{_g17(z.real)},{_g17(z.imag)}")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# Argument parsing


def _parse_box(text: str) -> model.Rectangle:
    try:
        lo, hi, ilo, ihi = (float(t) for t in text.split(","))
    except Exception as exc:
        raise ValidationError(f"--box expects re_lo,re_hi,im_lo,im_hi, got {text!r}") from exc
    return model.Rectangle(lo, hi, ilo, ihi)


def _parse_pair(text: str) -> tuple[int, int]:
    try:
        a, b = (int(t) for t in text.split(","))
    except Exception as exc:
        raise ValidationError(f"--pair expects two indices like 0,1, got {text!r}") from exc
    return a, b


def _parse_triple(text: str) -> tuple[int, int, int]:
    try:
        a, b, c = (int(t) for t in text.split(","))
    except Exception as exc:
        raise ValidationError(f"--triple expects indices like 0,1,2, got {text!r}") from exc
    return a, b, c


def _parse_point(text: str) -> complex:
    try:
        re, im = (float(t) for t in text.split(","))
    except Exception as exc:
        raise ValidationError(f"--at expects re,im, got {text!r}") from exc
    return complex(re, im)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pfzeros",
        description="Complex phase diagrams and partition-function zeros",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("model", help="model definition file (JSON)")
        sp.add_argument("--out-dir", default=None, help=f"output directory (or ${ENV_OUT_DIR})")
        sp.add_argument("--emit-svg", action="store_true")

    def volume(sp):
        sp.add_argument("--L", type=int, required=True)
        sp.add_argument("--d", type=int, default=1)
        sp.add_argument("--tau", type=float, default=1.0)
        sp.add_argument("--kappa", type=float, default=1.0)
        sp.add_argument("--theta", type=float, default=0.0, help="error-term strength")
        sp.add_argument("--perturb-seed", type=int, default=None)
        sp.add_argument("--perturb-degree", type=int, default=3)

    sp = sub.add_parser("check-assumptions", help="sampled non-degeneracy checks")
    common(sp)
    sp.add_argument("--grid", type=int, default=41)

    sp = sub.add_parser("trace-diagram", help="trace coexistence curves and multiple points")
    common(sp)
    sp.add_argument("--grid", type=int, default=41)
    sp.add_argument("--step", type=float, default=None)
    sp.add_argument("--max-steps", type=int, default=None)

    sp = sub.add_parser("find-zeros", help="argument-principle zero finder")
    common(sp)
    volume(sp)
    sp.add_argument("--box", required=True, help="re_lo,re_hi,im_lo,im_hi")
    sp.add_argument("--max-depth", type=int, default=40)

    sp = sub.add_parser("predict-zeros", help="two-phase balance-equation solutions")
    common(sp)
    volume(sp)
    sp.add_argument("--pair", required=True, help="phase indices m,n")
    sp.add_argument("--box", required=True, help="restrict predictions to this box")

    sp = sub.add_parser("compare", help="predict, locate, and match zero sets")
    common(sp)
    volume(sp)
    sp.add_argument("--pair", required=True)
    sp.add_argument("--box", required=True)
    sp.add_argument("--max-depth", type=int, default=40)
    sp.add_argument("--c-match", type=float, default=10.0)
    sp.add_argument("--gamma-scale", type=float, default=5.0)

    sp = sub.add_parser("density", help="zero-density convergence table")
    common(sp)
    sp.add_argument("--pair", required=True)
    sp.add_argument("--at", required=True, help="center point re,im")
    sp.add_argument("--eps-list", required=True, help="comma-separated radii")
    sp.add_argument("--L-list", required=True, help="comma-separated sides")
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--tau", type=float, default=1.0)

    sp = sub.add_parser("multipoint", help="rescaled equation solutions near a multiple point")
    common(sp)
    volume(sp)
    sp.add_argument("--triple", required=True)
    sp.add_argument("--seed-point", default="0.05,0.05", help="Newton seed re,im")
    sp.add_argument("--rho-scale", type=float, default=1.0, help="rho_L = scale*log(N)/N")

    sp = sub.add_parser("asymptotes", help="half-lines of distant rescaled zeros")
    common(sp)
    sp.add_argument("--triple", required=True)
    sp.add_argument("--seed-point", default="0.05,0.05")

    sp = sub.add_parser("lee-yang", help="symmetric-model on-circle audit")
    common(sp)
    volume(sp)
    sp.add_argument("--plus", type=int, default=0)
    sp.add_argument("--minus", type=int, default=1)
    sp.add_argument("--box", required=True)
    sp.add_argument("--symmetric-seed", type=int, default=None)

    sp = sub.add_parser("covering", help="two-phase shells plus multiple-point discs")
    common(sp)
    sp.add_argument("--L", type=int, required=True)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--grid", type=int, default=41)
    sp.add_argument("--gamma-scale", type=float, default=5.0)
    sp.add_argument("--rho-scale", type=float, default=1.0)
    sp.add_argument("--omega-scale", type=float, default=1.0)

    return p


def config_from_args(args: argparse.Namespace) -> RunConfig:
    out_dir = args.out_dir or os.environ.get(ENV_OUT_DIR) or "pfzeros-out"
    options = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "model", "out_dir", "emit_svg")
    }
    return RunConfig(
        command=args.command,
        model_path=args.model,
        out_dir=out_dir,
        emit_svg=getattr(args, "emit_svg", False),
        options=options,
    )


# ---------------------------------------------------------------------------
# Workflows


def _fvm_from_options(spec, opts) -> model.FiniteVolumeModel:
    perturbation = None
    if opts.get("symmetric_seed") is not None:
        perturbation = [(0j,)] * spec.r
        up, un = model.symmetric_pair_perturbation(opts["symmetric_seed"])
        perturbation[opts["plus"]] = up
        perturbation[opts["minus"]] = un
    elif opts.get("perturb_seed") is not None:
        perturbation = model.random_perturbation(
            spec, opts["perturb_seed"], degree=opts.get("perturb_degree", 3)
        )
    return model.finite_volume(
        spec,
        L=opts["L"],
        d=opts["d"],
        tau=opts["tau"],
        kappa=opts["kappa"],
        perturbation=perturbation,
        xi_strength=opts["theta"],
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


def run(config: RunConfig) -> list[Path]:
    """Execute one subcommand; returns the artifact paths written."""
    spec = model.load_model(config.model_path)
    out = Path(config.out_dir)
    opts = config.options
    written: list[Path] = []

    if config.command == "check-assumptions":
        rep = model.check_assumption_A(spec, grid=(opts["grid"], opts["grid"]))
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
        written.append(_write(out / "assumptions.txt", "\n".join(lines) + "\n"))

    elif config.command == "trace-diagram":
        pd = diagram.build_phase_diagram(
            spec,
            grid=(opts["grid"], opts["grid"]),
            step=opts["step"],
            max_steps=opts["max_steps"],
        )
        written.append(_write(out / "diagram.txt", diagram_text(pd)))
        for k, c in enumerate(pd.curves):
            written.append(_write(out / f"curve_{k}.csv", curve_csv(c)))
        if config.emit_svg:
            svg = render.emit_svg(pd, [], spec.domain)
            written.append(_write(out / "diagram.svg", svg))

    elif config.command == "find-zeros":
        fvm = _fvm_from_options(spec, opts)
        box = _parse_box(opts["box"])
        zs = zeros.find_zeros_region(fvm, box, max_depth=opts["max_depth"])
        written.append(_write(out / f"zeros_brute_L{fvm.L}d{fvm.d}.csv", zeros_csv(zs)))
        if config.emit_svg:
            written.append(_write(out / "zeros.svg", render.emit_svg(None, [zs], box)))

    elif config.command == "predict-zeros":
        m, n = _parse_pair(opts["pair"])
        box = _parse_box(opts["box"])
        curve = _curve_for_pair(spec, m, n, box)
        zs = zeros.predict_two_phase(spec, m, n, curve, L=opts["L"], d=opts["d"])
        kept = [w for w in zs.zeros if box.contains(w.z)]
        zs = zeros.ZeroSet.build(kept, box, opts["L"], opts["d"])
        written.append(_write(out / f"zeros_two_phase_L{opts['L']}d{opts['d']}.csv", zeros_csv(zs)))

    elif config.command == "compare":
        m, n = _parse_pair(opts["pair"])
        box = _parse_box(opts["box"])
        fvm = _fvm_from_options(spec, opts)
        curve = _curve_for_pair(spec, m, n, box)
        predicted_all = zeros.predict_two_phase(spec, m, n, curve, L=fvm.L, d=fvm.d)
        predicted = zeros.ZeroSet.build(
            [w for w in predicted_all.zeros if box.contains(w.z)], box, fvm.L, fvm.d
        )
        located = zeros.find_zeros_region(fvm, box, max_depth=opts["max_depth"])
        gamma = opts["gamma_scale"] * math.log(fvm.N) / fvm.N
        # the theoretical tolerance can undercut double-precision localization;
        # floor it at the polishing resolution so reports flag real violations
        floor = 1e-12
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tol = zeros.delta_L(
                spec, predicted.points(), fvm.L, fvm.d, gamma, fvm.tau, fvm.kappa, (m, n)
            )
        for msg in dict.fromkeys(str(w.message) for w in caught):
            print(f"warning: {msg}", file=sys.stderr)
        # outside the gamma_L two-phase region the core tolerance stands in
        tol = np.where(np.isnan(tol), math.exp(-fvm.tau * fvm.L), tol)
        rep = zeros.match_zeros(
            predicted, located, np.maximum(tol, floor), c_match=opts["c_match"]
        )
        written.append(_write(out / "predicted.csv", zeros_csv(predicted)))
        written.append(_write(out / "located.csv", zeros_csv(located)))
        written.append(_write(out / "match_report.txt", match_report_text(rep, predicted, located)))
        if config.emit_svg:
            written.append(
                _write(out / "compare.svg", render.emit_svg(None, [predicted, located], box))
            )

    elif config.command == "density":
        m, n = _parse_pair(opts["pair"])
        z = _parse_point(opts["at"])
        eps_list = [float(t) for t in opts["eps_list"].split(",")]
        l_list = [int(t) for t in opts["L_list"].split(",")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = density.density_convergence(
                spec, m, n, z, eps_list, l_list, opts["d"], tau=opts["tau"]
            )
        written.append(_write(out / "density.csv", density_csv(rows)))

    elif config.command == "multipoint":
        triple = _parse_triple(opts["triple"])
        N = model._volume(opts["L"], opts["d"])
        mp = diagram.find_multiple_point(spec, triple, _parse_point(opts["seed_point"]))
        rho = opts["rho_scale"] * math.log(N) / N
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            zs = zeros.predict_multipoint(spec, mp, opts["L"], opts["d"], rho)
        written.append(_write(out / f"zeros_multipoint_L{opts['L']}d{opts['d']}.csv", zeros_csv(zs)))
        fvm = _fvm_from_options(spec, opts)
        wind = zeros.winding_number(fvm, (mp.z, rho))
        text = (
            f"multiple_point: ({_g17(mp.z.real)},{_g17(mp.z.imag)})\n"
            f"rho_L: {_g17(rho)}\n"
            f"solutions: {zs.total_multiplicity()}\n"
            f"disc_winding: {wind}\n"
        )
        written.append(_write(out / "multipoint.txt", text))

    elif config.command == "asymptotes":
        triple = _parse_triple(opts["triple"])
        mp = diagram.find_multiple_point(spec, triple, _parse_point(opts["seed_point"]))
        lines = zeros.asymptote_lines(spec, mp)
        written.append(_write(out / "asymptotes.csv", asymptotes_csv(lines)))

    elif config.command == "lee-yang":
        spec.check_phase(opts["plus"])
        spec.check_phase(opts["minus"])
        fvm = _fvm_from_options(spec, opts)
        box = _parse_box(opts["box"])
        zs = zeros.find_zeros_region(fvm, box)
        rep = analysis.lee_yang_audit(fvm, zs, opts["plus"], opts["minus"])
        text = (
            f"zeros_checked: {rep.zeros_checked}\n"
            f"max_abs_re: {_g17(rep.max_abs_re)}\n"
            f"tolerance: {_g17(rep.tolerance)}\n"
            f"on_axis: {rep.on_axis}\n"
            f"count_unit_segment: {rep.count_unit_segment}\n"
            f"symmetry_residual: {_g17(rep.symmetry_residual)}\n"
        )
        written.append(_write(out / "lee_yang.txt", text))

    elif config.command == "covering":
        N = model._volume(opts["L"], opts["d"])
        ln_n = math.log(N)
        rep = analysis.covering_check(
            spec,
            spec.domain,
            L=opts["L"],
            d=opts["d"],
            omega_L=opts["omega_scale"] * ln_n,
            gamma_L=opts["gamma_scale"] * ln_n / N,
            rho_L=opts["rho_scale"] * ln_n / N,
            grid=(opts["grid"], opts["grid"]),
        )
        written.append(_write(out / "covering.txt", covering_text(rep)))
        written.append(_write(out / "uncovered.csv", uncovered_csv(rep)))

    else:
        raise ValidationError(f"unknown command {config.command!r}")

    return written


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = config_from_args(args)
        written = run(config)
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
