"""Mutation checks: a defect in T, T^-1 or b must turn its tags to FAIL.

Each mutant injects one named, non-uniform defect at a public seam of the
vertex layer (``VertexContext.apply_T``, ``apply_T_inverse``, ``apply_b``):
it leaks a little of the input state into one off-diagonal aux entry, or
rescales one diagonal entry.  A uniform rescale of every entry could cancel
between the two sides of an identity; these cannot.  The default config then
runs under each mutant, and every tag listed below must FAIL under at least
one of them, by a residual far above the tolerance.
"""

import numpy as np
import pytest

from zfcheck.harness import RunConfig, run_suites
from zfcheck.vertex import VertexContext


def _leak(entries, state):
    entries[0, 1] = entries[0, 1] + state.scaled(1e-3)


def _scale(entries, state):
    entries[0, 0] = entries[0, 0].scaled(1.001)


# name: (patched method, defect, suites that hold the tags it must break)
MUTANTS = {
    "T leaks into (0, 1)": ("apply_T", _leak, ("vertex",)),
    "T^-1 scales (0, 0)": ("apply_T_inverse", _scale, ("vertex",)),
    "b scales (0, 0)": ("apply_b", _scale, ("vertex", "hierarchy")),
}

TAGS = (
    ("vertex", "TOmega"),
    ("vertex", "T-inverse"),
    ("vertex", "b-vacuum"),
    ("vertex", "rbrb"),
    ("hierarchy", "ssb"),
)


def _mutated(original, defect):
    def method(self, k, state, *args, **kwargs):
        out = original(self, k, state, *args, **kwargs)
        # The (N, N) array of states, whether returned bare or in a wrapper.
        defect(out if isinstance(out, np.ndarray) else out.data, state)
        return out

    return method


@pytest.fixture(scope="module")
def failures():
    """Per mutant, the largest FAIL residual of each (suite, tag)."""
    out = {}
    for name, (attr, defect, suites) in MUTANTS.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(VertexContext, attr, _mutated(getattr(VertexContext, attr), defect))
            report = run_suites(RunConfig(), suites=suites)
        worst: dict = {}
        for r in report.records:
            if r.status == "fail":
                key = (r.suite, r.relation)
                worst[key] = max(worst.get(key, 0.0), r.residual)
        out[name] = worst
    return out


@pytest.mark.parametrize("suite,tag", TAGS, ids=lambda v: str(v))
def test_tag_fails_under_some_mutant(failures, suite, tag):
    tol = RunConfig().tolerance
    worst = max(f.get((suite, tag), 0.0) for f in failures.values())
    assert worst >= 1e3 * tol, {name: f.get((suite, tag)) for name, f in failures.items()}


def test_every_mutant_is_caught(failures):
    for name, worst in failures.items():
        assert worst, f"mutant {name!r} made no record FAIL"
