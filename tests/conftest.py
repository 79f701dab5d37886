import cmath
from collections import Counter

import numpy as np
import pytest

import pfzeros.zeros as zeros_mod
from pfzeros import ModelSpec, PhaseSpec, Rectangle, Zero
from pfzeros.zeros import _ExpSum

OMEGA = cmath.exp(2j * cmath.pi / 3)


def two_phase_model(q1=1, q2=1, half=1.2):
    """Weights exp(z) and exp(-z): coexistence is exactly the imaginary axis."""
    return ModelSpec(
        phases=(
            PhaseSpec("plus", q1, (0j, 1 + 0j)),
            PhaseSpec("minus", q2, (0j, -1 + 0j)),
        ),
        domain=Rectangle(-half, half, -half, half),
    )


def three_phase_model(qs=(1, 1, 1), half=1.0, shift=0j):
    """Exponents omega^{m} (z - shift), cube-roots-of-unity symmetric."""
    phases = tuple(
        PhaseSpec(f"p{m}", qs[m], (-(OMEGA**m) * shift, OMEGA**m))
        for m in range(3)
    )
    return ModelSpec(phases=phases, domain=Rectangle(-half, half, -half, half))


def collinear_model():
    """Derivatives (-1, 0, 1) are collinear: the triple tie is a whole line."""
    return ModelSpec(
        phases=(
            PhaseSpec("a", 1, (0j, -1 + 0j)),
            PhaseSpec("b", 1, (0j,)),
            PhaseSpec("c", 1, (0j, 1 + 0j)),
        ),
        domain=Rectangle(-1, 1, -1, 1),
    )


def lee_yang_model(q=1, half=1.2):
    """Field-coordinate symmetric pair exp(+w), exp(-w); |z|=1 is Re w = 0."""
    return ModelSpec(
        phases=(
            PhaseSpec("plus", q, (0j, 1 + 0j)),
            PhaseSpec("minus", q, (0j, -1 + 0j)),
        ),
        domain=Rectangle(-half, half, -half, half),
        coordinate_map="exponential",
    )


@pytest.fixture
def m2():
    return two_phase_model()


@pytest.fixture
def m2_q12():
    return two_phase_model(q1=1, q2=2)


@pytest.fixture
def m3():
    return three_phase_model()


@pytest.fixture
def mly():
    return lee_yang_model()


@pytest.fixture
def kernel_counts(monkeypatch):
    """A Counter of the work the zero locators do from here on: "points",
    every point at which the kernel evaluates exponents (exponents, which
    value_normalized and newton_step call) or them with their derivatives
    (derivatives, which the winding certificate, the axis sampler's rate
    bound and the alpha-test call), "calls", the calls of those two,
    "contours" wound (closed contours and quadtree cells), "splits", the
    cells of the depths handed to _split, "polished", the points handed to
    _polish, and "largest_call", the most points in one of those kernel
    calls."""
    counts = Counter()
    for name in ("exponents", "derivatives"):

        def counted(self, z, method=getattr(_ExpSum, name)):
            counts["points"] += np.size(z)
            counts["calls"] += 1
            counts["largest_call"] = max(counts["largest_call"], np.size(z))
            return method(self, z)

        monkeypatch.setattr(_ExpSum, name, counted)
    windings = zeros_mod._windings

    def counted_windings(totals):
        counts["contours"] += len(totals)
        return windings(totals)

    monkeypatch.setattr(zeros_mod, "_windings", counted_windings)
    split = zeros_mod._split

    def counted_split(es, cells, *args):
        counts["splits"] += cells[1].size
        return split(es, cells, *args)

    monkeypatch.setattr(zeros_mod, "_split", counted_split)
    polish = zeros_mod._polish

    def counted_polish(es, starts):
        counts["polished"] += np.size(starts)
        return polish(es, starts)

    monkeypatch.setattr(zeros_mod, "_polish", counted_polish)
    return counts


@pytest.fixture
def row_counts(monkeypatch):
    """A Counter of the work done once per zero from here on: "zeros", the
    Zero objects constructed, and "contains", the calls of
    Rectangle.contains, each of which may take a whole array."""
    counts = Counter()
    init, contains = Zero.__init__, Rectangle.contains

    def counted_init(self, *args):
        counts["zeros"] += 1
        init(self, *args)

    def counted_contains(self, z, *args, **kwargs):
        counts["contains"] += 1
        return contains(self, z, *args, **kwargs)

    monkeypatch.setattr(Zero, "__init__", counted_init)
    monkeypatch.setattr(Rectangle, "contains", counted_contains)
    return counts
