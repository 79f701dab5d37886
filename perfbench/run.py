"""pfzeros benchmark: one workload, run as a closed loop in this process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each repetition runs the workload's `pfzeros` CLI invocations in order
through `pfzeros.cli.main`, in-process, and checks every invocation's
artifacts after the timed span. Repetitions continue until `--seconds` have
passed. With `--trace 0` the last stdout line reports the end-to-end
metrics; with `--trace 1` it reports the per-layer metrics of a traced
repetition, alternating traced and untraced repetitions so the tracing
overhead is measured in the same process. A full record (environment,
every repetition, counts, artifact hashes, spans) goes to
`perfbench/out/<workload>-seed<n>-trace<t>.json`.

`pfzeros` is imported from `src/` of the checkout that holds this file;
the run fails, printing no result, when that package is missing.
"""

import os

# Single-threaded numerics, pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from prepare import ROOT, SetupError, prepare  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

OUT = ROOT / "perfbench" / "out"
# Set-up is sampled this many times per untraced run: once in this process,
# the rest in fresh interpreters; the median is reported.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60

# Per-layer metrics reported on the last line with --trace 1 (the record
# file holds every function). Timings are the self time a speed-up would
# move; calls are the per-invocation fixed costs.
LAYER_FUNCTIONS = (
    "zeros.find_zeros_region",
    "zeros.predict_two_phase",
    "zeros.predict_multipoint",
    "zeros.match_zeros",
    "zeros.winding_number",
    "zeros.delta_L",
    "diagram.trace_curve",
    "diagram.build_phase_diagram",
    "diagram.find_multiple_points",
    "diagram.find_multiple_point",
    "diagram.find_coexistence_point",
    "model.check_assumption_A",
    "model.finite_volume",
    "model.load_model",
    "density.density_convergence",
    "density.empirical_density",
    "analysis.covering_check",
    "analysis.lee_yang_audit",
    "render.emit_svg",
    "cli.main",
    "cli.run",
    "cli.build_parser",
)
COUNT_ONLY_CALLS = (
    "model.eval_v",
    "model.in_coexistence_strip",
    "model.in_two_phase_region",
    "model.stability",
)
COUNTS = (
    "zeros.located",
    "zeros.total_multiplicity",
    "zeros.predicted",
    "diagram.curve_samples",
    "analysis.points_checked",
)


def per_layer_names() -> list:
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    names = []
    for fn in LAYER_FUNCTIONS:
        names += [(f"{fn}.calls", "count"), (f"{fn}.total_s", "s"), (f"{fn}.self_s", "s")]
    names += [(f"{fn}.calls", "count") for fn in COUNT_ONLY_CALLS]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    names += [(c, "count") for c in COUNTS]
    names += [
        ("zeros.find_zeros_region.s_per_zero", "s/zero"),
        ("cli.artifact_bytes", "bytes"),
        ("trace.wall_s", "s"),
        ("trace.uncovered_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return names


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_rep(cli, invocations, models, rep_dir: Path, tracer=None) -> dict:
    """Run the invocation list once (timed), then check every artifact."""
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    argvs = [inv.argv(models[inv.model], rep_dir / inv.label) for inv in invocations]
    codes, seconds = [], []
    sink = io.StringIO()
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    t_start = time.perf_counter()
    try:
        for k, argv in enumerate(argvs):
            if tracer is not None:
                tracer.invocation = k
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink):
                    codes.append(cli.main(argv))
            except Exception:  # an invocation that raises counts as failed
                traceback.print_exc(file=sys.stderr)
                codes.append(None)
            seconds.append(time.perf_counter() - t0)
    finally:
        wall = time.perf_counter() - t_start
        if tracer is not None:
            tracer.uninstall()

    failed, delivered = 0, 0
    for inv, code in zip(invocations, codes):
        out = rep_dir / inv.label
        try:
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            delivered += inv.check(out, rep_dir)
        except (CheckFailed, OSError, KeyError, ValueError, IndexError) as exc:
            failed += 1
            print(f"{inv.label}: FAILED: {exc!r}", file=sys.stderr)
    files = sorted(p for p in rep_dir.rglob("*") if p.is_file())
    return {
        "wall_s": wall,
        "invocation_s": seconds,
        "traced": tracer is not None,
        "attempted": len(invocations),
        "failed": failed,
        "delivered": delivered,
        "artifact_bytes": sum(p.stat().st_size for p in files),
        "csv_sha256": {
            str(p.relative_to(rep_dir)): _sha256(p) for p in files if p.suffix == ".csv"
        },
    }


def layer_metrics(tracer, rep: dict) -> dict:
    """Per-layer metrics of one traced repetition; trace.overhead_s is added
    later, from the median of the untraced repetitions."""
    table = tracer.self_times()
    m = {}
    for fn in LAYER_FUNCTIONS:
        _spans, total, self_s = table.get(fn, (0, 0.0, 0.0))
        m[f"{fn}.calls"] = tracer.calls[fn]
        m[f"{fn}.total_s"] = total
        m[f"{fn}.self_s"] = self_s
    for fn in COUNT_ONLY_CALLS:
        m[f"{fn}.calls"] = tracer.calls[fn]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(r[2] for n, r in table.items() if n.split(".")[0] == layer)
    for c in COUNTS:
        m[c] = tracer.counts[c]
    located = tracer.counts["zeros.located"]
    fz_total = table.get("zeros.find_zeros_region", (0, 0.0, 0.0))[1]
    m["zeros.find_zeros_region.s_per_zero"] = fz_total / located if located else 0.0
    m["cli.artifact_bytes"] = rep["artifact_bytes"]
    m["trace.wall_s"] = rep["wall_s"]
    m["trace.uncovered_s"] = rep["wall_s"] - tracer.root_seconds()
    return m


def environment(pfzeros) -> dict:
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            commit = f"unknown: {exc!r}"
    import numpy

    return {
        "pfzeros_file": pfzeros.__file__,
        "git_commit": commit,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "workers": 1,
    }


def setup_samples(first: float, work: Path) -> list:
    samples = [first]
    script = Path(__file__).resolve().parent / "prepare.py"
    for k in range(1, SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(script), str(work / f"setup-{k}")],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_first, models = prepare(work / "models")
    except (SetupError, ImportError) as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 2
    import pfzeros
    import pfzeros.cli as cli

    env = environment(pfzeros)
    print(json.dumps(env), file=sys.stderr)
    invocations = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None

    reps, spans_of, rounds = [], {}, 0
    t_begin = time.perf_counter()
    # Start a repetition only when it should end within --seconds, judged by
    # the mean length of those already run, so a run lasts about --seconds.
    while not reps or (time.perf_counter() - t_begin) * (1 + 1 / rounds) <= args.seconds:
        reps.append(run_rep(cli, invocations, models, work / "rep", None))
        if tracer is not None:
            rep = run_rep(cli, invocations, models, work / "rep", tracer)
            rep["layers"] = layer_metrics(tracer, rep)
            rep["functions"] = dict(sorted(tracer.self_times().items()))
            rep["calls"] = dict(sorted(tracer.calls.items()))
            rep["counts"] = dict(sorted(tracer.counts.items()))
            spans_of[len(reps)] = list(tracer.spans)
            reps.append(rep)
        rounds += 1
        print(f"rep {len(reps)}: wall {reps[-1]['wall_s']:.4f} s", file=sys.stderr)

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    # Reruns of the same invocations must be byte-identical and deliver the
    # same zeros; the traced counts must repeat exactly.
    repeatable = all(
        r["csv_sha256"] == reps[0]["csv_sha256"] and r["delivered"] == reps[0]["delivered"]
        for r in reps
    ) and len({json.dumps([r["calls"], r["counts"]]) for r in reps if r["traced"]}) <= 1
    if not repeatable:
        print("repetitions differ in artifacts or counts", file=sys.stderr)
    correct = failed == 0 and repeatable

    untraced = [r["wall_s"] for r in reps if not r["traced"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "invocations": [inv.argv(models[inv.model], Path(inv.label)) for inv in invocations],
        "repetitions": reps,
    }
    if tracer is None:
        wall = statistics.median(untraced)
        metrics = {
            "wall_s": (wall, "s"),
            "zeros_per_s": (reps[0]["delivered"] / wall, "1/s"),
            "setup_s": (statistics.median(setup_samples(setup_first, work)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        # The traced repetition with the median wall time, whole, so its self
        # times plus the uncovered remainder add up to its wall time.
        traced = sorted((i for i, r in enumerate(reps) if r["traced"]),
                        key=lambda i: reps[i]["wall_s"])
        pick = traced[(len(traced) - 1) // 2]
        layers = dict(reps[pick]["layers"])
        layers["trace.overhead_s"] = reps[pick]["wall_s"] - statistics.median(untraced)
        metrics = {name: (layers[name], unit) for name, unit in per_layer_names()}
        record["spans"] = {
            "repetition": pick,
            "fields": ["name", "start", "end", "parent", "invocation"],
            "rows": spans_of[pick],
        }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{work.name}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
