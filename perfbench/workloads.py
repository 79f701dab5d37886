"""The four benchmark workloads: their `pfzeros` CLI invocations, made from
the workload seed, and the correctness check of each invocation's artifacts.

A check reads only the files an invocation wrote and tests the paper's
claims on them (closed forms, counts, one-to-one matches), not stored bytes.
It returns the number of zeros the invocation delivered and raises
CheckFailed otherwise. Checks use plain Python, never `pfzeros`, so a bug in
the library cannot hide itself.
"""

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The two-phase box of the ROADMAP baseline and the acceptance suite.
BOX_TWO_PHASE = "--box=-0.1,0.1,0,0.2"


class CheckFailed(AssertionError):
    """An invocation's artifacts contradict the paper's claims."""


@dataclass(frozen=True)
class Invocation:
    label: str  # unique within a workload; names the invocation's out dir
    model: str  # key of prepare.MODELS
    args: tuple  # subcommand first, then options; model and --out-dir are added
    check: Callable[[Path, Path], int]  # (own out dir, rep dir) -> zeros delivered

    def argv(self, model_path: Path, out_dir: Path) -> list:
        return [self.args[0], str(model_path), *self.args[1:], "--out-dir", str(out_dir)]


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _text(path: Path) -> dict:
    """`key: value` lines of a structured-text artifact, first occurrence wins."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


def _zeros(path: Path) -> list:
    """(z, multiplicity) rows of a zeros CSV."""
    lines = path.read_text(encoding="utf-8").splitlines()
    _expect(lines[0] == "re_z,im_z,multiplicity,residual,method", f"{path.name}: bad header")
    rows = []
    for line in lines[1:]:
        re_z, im_z, mult, _res, _method = line.split(",")
        rows.append((complex(float(re_z), float(im_z)), int(mult)))
    return rows


def _complex_pair(text: str) -> complex:
    re_z, im_z = text.strip("()").split(",")
    return complex(float(re_z), float(im_z))


# ---------------------------------------------------------------------------
# locate-two-phase


def _check_compare(out: Path, _rep: Path) -> int:
    rep = _text(out / "match_report.txt")
    predicted, located = _zeros(out / "predicted.csv"), _zeros(out / "located.csv")
    _expect(int(rep["pairs"]) == len(predicted) > 0, f"pairs {rep['pairs']} of {len(predicted)}")
    for key in ("unmatched_predicted", "unmatched_located", "violations"):
        _expect(int(rep[key]) == 0, f"match report: {key} = {rep[key]}")
    _expect((out / "compare.svg").stat().st_size > 0, "compare.svg is empty")
    return len(predicted) + len(located)


def _check_density(out: Path, _rep: Path) -> int:
    lines = (out / "density.csv").read_text(encoding="utf-8").splitlines()
    _expect(len(lines) == 2, f"density.csv has {len(lines) - 1} rows, want 1")
    eps, _L, N, count, empirical, theoretical, abs_error = (float(v) for v in lines[1].split(","))
    _expect(count > 1, "no zeros in the density disc")
    # Limiting line density of the exp(+-z) pair: |v_m - v_n| / (2 pi) = 1/pi.
    _expect(abs(theoretical - 1 / math.pi) <= 1e-15, f"limit density {theoretical}, want 1/pi")
    # The counted density converges within O(eps) + O(1/(eps N)).
    envelope = theoretical * eps + 1 / (eps * N)
    _expect(abs(empirical - theoretical) <= envelope,
            f"density error {abs_error} above the envelope {envelope}")
    return 0


def locate_two_phase(seed: int) -> list:
    rng = random.Random(seed)
    return [
        Invocation(
            "compare", "two_phase_q12",
            ("compare", "--pair", "0,1", "--L", "10000", "--d", "1", BOX_TWO_PHASE,
             "--perturb-seed", str(rng.randrange(2**31)), "--theta", "0.3", "--emit-svg"),
            _check_compare,
        ),
        Invocation(
            "density", "two_phase_q12",
            ("density", "--pair", "0,1", "--at", "0,0", "--eps-list", "0.1", "--L-list", "1000"),
            _check_density,
        ),
    ]


# ---------------------------------------------------------------------------
# predict-two-phase

PREDICT_N = 50000


def _check_predict(out: Path, _rep: Path) -> int:
    N = PREDICT_N
    rows = _zeros(out / f"zeros_two_phase_L{N}d1.csv")
    # W = e^{Nz} + 2 e^{-Nz} vanishes exactly at z_k = (ln 2 + i pi (2k+1)) / (2N).
    want_count = math.floor((0.2 * 2 * N / math.pi - 1) / 2) + 1
    _expect(len(rows) == want_count, f"{len(rows)} predicted zeros in the box, want {want_count}")
    seen = set()
    for z, mult in rows:
        k = round((z.imag * 2 * N / math.pi - 1) / 2)
        exact = complex(math.log(2), math.pi * (2 * k + 1)) / (2 * N)
        _expect(mult == 1 and abs(z - exact) <= 1e-12, f"predicted zero {z} is not z_{k}")
        seen.add(k)
    _expect(seen == set(range(want_count)), "predicted zeros are not z_0 .. z_K one-to-one")
    return len(rows)


def predict_two_phase(seed: int) -> list:
    return [
        Invocation(
            "predict-zeros", "two_phase_q12",
            ("predict-zeros", "--pair", "0,1", "--L", str(PREDICT_N), BOX_TWO_PHASE),
            _check_predict,
        )
    ]


# ---------------------------------------------------------------------------
# lee-yang-batch

LEE_YANG_RUNS = 20
# L=10, d=2: N = 100 zeros per unit of Im w spaced pi/N apart.
LEE_YANG_COUNT = math.floor(100 / math.pi)


def _check_lee_yang(out: Path, _rep: Path) -> int:
    rep = _text(out / "lee_yang.txt")
    _expect(rep["on_axis"] == "True", f"zeros off the symmetry axis: max |Re w| {rep['max_abs_re']}")
    count = int(rep["count_unit_segment"])
    _expect(abs(count - LEE_YANG_COUNT) <= 1, f"{count} zeros on the unit segment")
    return int(rep["zeros_checked"])


def lee_yang_batch(seed: int) -> list:
    rng = random.Random(seed)
    return [
        Invocation(
            f"lee-yang-{i:02d}", "lee_yang",
            ("lee-yang", "--L", "10", "--d", "2", "--tau", "2", "--box=-0.05,0.05,0,1",
             "--symmetric-seed", str(rng.randrange(2**31))),
            _check_lee_yang,
        )
        for i in range(LEE_YANG_RUNS)
    ]


# ---------------------------------------------------------------------------
# three-phase

THREE_N = 10000
THREE_RHO = 25 * math.log(THREE_N) / THREE_N


def _check_assumptions(out: Path, _rep: Path) -> int:
    _expect(_text(out / "assumptions.txt").get("ok") == "True", "assumption A not ok")
    return 0


def _check_diagram(out: Path, _rep: Path) -> int:
    rep = _text(out / "diagram.txt")
    # Cube-root weights: three coexistence rays meet at the origin at 2 pi/3.
    _expect(rep["curves"] == "3" and rep["multiple_points"] == "1",
            f"{rep['curves']} curves and {rep['multiple_points']} multiple points, want 3 and 1")
    z = _complex_pair(rep["multiple_point 0"].split()[0].removeprefix("z="))
    _expect(abs(z) <= 1e-12, f"triple point at {z}, want 0")
    angle = float(rep["min_tangent_angle"])
    _expect(abs(angle - 2 * math.pi / 3) <= 1e-9, f"tangent angle {angle}, want 2 pi/3")
    _expect(len(list(out.glob("curve_*.csv"))) == 3, "one curve CSV per curve")
    _expect((out / "diagram.svg").stat().st_size > 0, "diagram.svg is empty")
    return 0


def _check_covering(out: Path, _rep: Path) -> int:
    rep = _text(out / "covering.txt")
    _expect(rep["covered"] == "True", f"{rep['uncovered']} strip points uncovered")
    return 0


def _check_multipoint(out: Path, _rep: Path) -> int:
    rep = _text(out / "multipoint.txt")
    _expect(rep["solutions"] == rep["disc_winding"],
            f"{rep['solutions']} rescaled solutions vs disc winding {rep['disc_winding']}")
    return len(_zeros(out / f"zeros_multipoint_L{THREE_N}d1.csv"))


def _check_find_zeros(out: Path, rep_dir: Path) -> int:
    located = _zeros(out / f"zeros_brute_L{THREE_N}d1.csv")
    mp_dir = rep_dir / "multipoint"
    center = _complex_pair(_text(mp_dir / "multipoint.txt")["multiple_point"])
    predicted = _zeros(mp_dir / f"zeros_multipoint_L{THREE_N}d1.csv")
    in_disc = [(z, m) for z, m in located if abs(z - center) <= THREE_RHO]
    _expect(len(in_disc) == len(predicted),
            f"{len(in_disc)} located zeros in the disc vs {len(predicted)} predicted")
    tol = 5.0 * THREE_N ** (-4.0 / 3.0)
    used = set()
    for z, mult in predicted:
        j = min(range(len(in_disc)), key=lambda i: abs(in_disc[i][0] - z))
        _expect(abs(in_disc[j][0] - z) <= tol and in_disc[j][1] == mult and j not in used,
                f"predicted zero {z} has no one-to-one located match within {tol:.3g}")
        used.add(j)
    return len(located)


def three_phase(seed: int) -> list:
    rho = repr(THREE_RHO)
    return [
        Invocation("check-assumptions", "three_phase",
                   ("check-assumptions", "--grid", "201"), _check_assumptions),
        Invocation("trace-diagram", "three_phase",
                   ("trace-diagram", "--grid", "201", "--emit-svg"), _check_diagram),
        Invocation("covering", "three_phase",
                   ("covering", "--L", str(THREE_N), "--grid", "201"), _check_covering),
        Invocation("multipoint", "three_phase",
                   ("multipoint", "--triple", "0,1,2", "--L", str(THREE_N), "--rho-scale", "25"),
                   _check_multipoint),
        Invocation("find-zeros", "three_phase",
                   ("find-zeros", "--L", str(THREE_N), f"--box=-{rho},{rho},-{rho},{rho}"),
                   _check_find_zeros),
    ]


WORKLOADS = {
    "locate-two-phase": locate_two_phase,
    "predict-two-phase": predict_two_phase,
    "lee-yang-batch": lee_yang_batch,
    "three-phase": three_phase,
}
