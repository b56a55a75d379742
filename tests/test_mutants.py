"""Mutation checks: a defect in a, a†, T, T^-1 or b must turn its tags to FAIL.

Each mutant injects one named, non-uniform defect at a public seam: at the
vertex layer (``VertexContext.apply_T``, ``apply_T_inverse``, ``apply_b``)
it leaks a little of the input state into one off-diagonal aux entry, or
rescales one diagonal entry; at the Fock layer
(``FockSpace.apply_creation``, ``apply_annihilation``) it rescales the
output of one color at one momentum.  A uniform rescale of every entry could
cancel between the two sides of an identity; these cannot.  The default
config then runs under each mutant, and every tag listed below must FAIL
under at least one of them, by a residual far above the tolerance.
"""

import pytest

from zfcheck.fock import FockSpace
from zfcheck.harness import RunConfig, run_suites
from zfcheck.vertex import VertexContext


def _leak(entries, state):
    entries[0, 1] = entries[0, 1] + state.scaled(1e-3)


def _scale(entries, state):
    entries[0, 0] = entries[0, 0].scaled(1.001)


def _mutated(original, defect):
    def method(self, k, state, *args, **kwargs):
        out = original(self, k, state, *args, **kwargs)
        defect(out, state)
        return out

    return method


def _color_scaled(original):
    """Color 0 at momentum 1 comes out 1.001 times too large."""

    def method(self, color, k, state):
        out = original(self, color, k, state)
        return out.scaled(1.001) if (color, k) == (0, 1.0) else out

    return method


# name: (class, patched method, defect maker, suites that hold the tags it must break)
MUTANTS = {
    "T leaks into (0, 1)": (
        VertexContext, "apply_T", lambda f: _mutated(f, _leak), ("vertex",)
    ),
    "T^-1 scales (0, 0)": (
        VertexContext, "apply_T_inverse", lambda f: _mutated(f, _scale), ("vertex",)
    ),
    "b scales (0, 0)": (
        VertexContext, "apply_b", lambda f: _mutated(f, _scale), ("vertex", "hierarchy")
    ),
    "a† scales color 0 at k=1": (
        FockSpace, "apply_creation", _color_scaled, ("fock", "vertex")
    ),
    "a scales color 0 at k=1": (
        FockSpace, "apply_annihilation", _color_scaled, ("fock", "vertex")
    ),
}

TAGS = (
    ("fock", "AN-1"),
    ("fock", "AN-2"),
    ("fock", "AN-3"),
    ("vertex", "defT-adag"),
    ("vertex", "defT-a"),
    ("vertex", "TOmega"),
    ("vertex", "T-inverse"),
    ("vertex", "b-vacuum"),
    ("vertex", "rbrb"),
    ("hierarchy", "ssb"),
)


@pytest.fixture(scope="module")
def failures():
    """Per mutant, the largest FAIL residual of each (suite, tag)."""
    out = {}
    for name, (owner, attr, make, suites) in MUTANTS.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(owner, attr, make(getattr(owner, attr)))
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
