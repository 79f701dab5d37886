"""Benchmark set-up: import numpy and pfzeros from the checkout's `src/`,
write the model files and load them back.

`prepare()` is the set-up the benchmark process itself runs. Run as a
script (`python3 perfbench/prepare.py <work_dir>`) it does the same in a
fresh interpreter and prints the seconds it took, which is how the runner
samples set-up time more than once per run.
"""

import cmath
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_OMEGA = cmath.exp(2j * cmath.pi / 3)


def _pair(c: complex) -> list:
    return [c.real, c.imag]


# Model files in the format `pfzeros` reads (README, "CLI"). The same models
# as `two_phase_model(q1=1, q2=2)`, `lee_yang_model()` and
# `three_phase_model()` in the test suite.
MODELS = {
    "two_phase_q12": {
        "phases": [
            {"name": "plus", "q": 1, "coeffs": [[0, 0], [1, 0]]},
            {"name": "minus", "q": 2, "coeffs": [[0, 0], [-1, 0]]},
        ],
        "domain": {"re": [-1.2, 1.2], "im": [-1.2, 1.2]},
        "coordinate_map": "identity",
    },
    "lee_yang": {
        "phases": [
            {"name": "plus", "q": 1, "coeffs": [[0, 0], [1, 0]]},
            {"name": "minus", "q": 1, "coeffs": [[0, 0], [-1, 0]]},
        ],
        "domain": {"re": [-1.2, 1.2], "im": [-1.2, 1.2]},
        "coordinate_map": "exponential",
    },
    "three_phase": {
        "phases": [
            {"name": f"p{m}", "q": 1, "coeffs": [[0, 0], _pair(_OMEGA**m)]} for m in range(3)
        ],
        "domain": {"re": [-1.0, 1.0], "im": [-1.0, 1.0]},
        "coordinate_map": "identity",
    },
}


class SetupError(RuntimeError):
    """The checkout under test cannot be imported or its models not loaded."""


def prepare(work_dir: Path) -> tuple[float, dict[str, Path]]:
    """Import the libraries and write and load every model file.

    Returns the seconds taken and the path of each model file. Raises
    SetupError when `pfzeros` does not come from this checkout's `src/`.
    """
    t0 = time.perf_counter()
    if not (SRC / "pfzeros" / "__init__.py").is_file():
        raise SetupError(f"no pfzeros package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (timed: users pay this import on every run)

    import pfzeros

    origin = Path(pfzeros.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"pfzeros imported from {origin}, not from {SRC}")
    work_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, data in MODELS.items():
        path = work_dir / f"{name}.json"
        path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
        pfzeros.load_model(path)
        paths[name] = path
    return time.perf_counter() - t0, paths


if __name__ == "__main__":
    seconds, _ = prepare(Path(sys.argv[1]))
    print(repr(seconds))
